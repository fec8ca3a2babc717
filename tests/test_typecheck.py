"""Type checker tests: the paper's running examples and the three checks.

These mirror Figures 2 and 5 and the Encrypt example of Figure 6; the
expected verdicts and error classes come straight from the paper.
"""

import pytest

from repro import (
    ChannelDef,
    LifetimeSpec,
    LoanedRegisterMutationError,
    MessageDef,
    MessageSendError,
    Process,
    Side,
    ValueNotLiveError,
    assert_safe,
    check_process,
)
from repro.anvil_designs.aes import aes_core
from repro.anvil_designs.axi import axi_demux, axi_mux
from repro.anvil_designs.memory import cached_memory_process
from repro.anvil_designs.mmu import ptw_process, tlb_process
from repro.lang.terms import (
    cycle,
    if_,
    let,
    lit,
    par,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from repro.lang.types import Logic

from helpers import cache_channel, fifo_channel, memory_channel, top_safe, top_unsafe


class TestFigure5:
    """The running example: Top interfacing a memory, without/with cache."""

    def test_top_unsafe_rejected(self):
        report = check_process(top_unsafe())
        assert not report.ok
        kinds = {type(e) for e in report.errors}
        assert LoanedRegisterMutationError in kinds
        assert MessageSendError in kinds

    def test_top_safe_accepted(self):
        assert check_process(top_safe()).ok

    def test_unsafe_error_mentions_register(self):
        report = check_process(top_unsafe())
        loan_errors = [
            e for e in report.errors
            if isinstance(e, LoanedRegisterMutationError)
        ]
        assert any("address" in str(e) for e in loan_errors)

    def test_waiting_two_cycles_fixes_static_contract(self):
        """With the static 2-cycle contract, waiting for the response slot
        and only then mutating is safe."""
        p = Process("top_static_safe")
        p.endpoint("mem", memory_channel(2), Side.LEFT)
        p.register("address", Logic(8))
        p.loop(
            send("mem", "req", read("address"))
            >> let("d", recv("mem", "res"),
                   var("d") >> cycle(1)
                   >> set_reg("address", read("address") + 1))
        )
        report = check_process(p)
        assert report.ok, [str(e) for e in report.errors]


class TestFigure2:
    """Cache -> FIFO forwarding: BSV's unsafe schedules vs Anvil."""

    def _process(self, body, name):
        p = Process(name)
        p.endpoint("cache", cache_channel(), Side.LEFT)
        p.endpoint("fifo", fifo_channel(), Side.LEFT)
        p.register("address", Logic(8))
        p.register("enq_data", Logic(8))
        p.loop(body)
        return check_process(p)

    def test_direct_forward_value_not_live(self):
        """`send fifo.enq_req(data)` where data lives one cycle: the send
        may synchronize arbitrarily late -> 'value does not live long
        enough'."""
        report = self._process(
            send("cache", "req", read("address"))
            >> let("d", recv("cache", "res"),
                   var("d")
                   >> par(set_reg("address", read("address") + 1),
                          send("fifo", "enq_req", var("d")))),
            "direct_forward",
        )
        assert any(isinstance(e, ValueNotLiveError) for e in report.errors)

    def test_early_address_mutation_rejected(self):
        report = self._process(
            send("cache", "req", read("address"))
            >> set_reg("address", read("address") + 1)
            >> let("d", recv("cache", "res"),
                   var("d") >> set_reg("enq_data", var("d"))
                   >> send("fifo", "enq_req", read("enq_data"))),
            "early_mutation",
        )
        assert any(
            isinstance(e, LoanedRegisterMutationError) for e in report.errors
        )

    def test_registered_forward_accepted(self):
        report = self._process(
            send("cache", "req", read("address"))
            >> let("d", recv("cache", "res"),
                   var("d")
                   >> par(set_reg("address", read("address") + 1),
                          set_reg("enq_data", var("d")))
                   >> send("fifo", "enq_req", read("enq_data"))),
            "registered_forward",
        )
        assert report.ok, [str(e) for e in report.errors]


class TestEncryptFigure6:
    """The Encrypt process of Figure 6 with its two bugs."""

    def channels(self):
        encrypt_ch = ChannelDef("encrypt_ch", [
            MessageDef("enc_req", Side.RIGHT, Logic(8),
                       LifetimeSpec.until("enc_res")),
            MessageDef("enc_res", Side.LEFT, Logic(8),
                       LifetimeSpec.until("enc_req")),
        ])
        rng_ch = ChannelDef("rng_ch", [
            MessageDef("rng_req", Side.RIGHT, Logic(8),
                       LifetimeSpec.static(1)),
            MessageDef("rng_res", Side.LEFT, Logic(8),
                       LifetimeSpec.static(2)),
        ])
        return encrypt_ch, rng_ch

    def _encrypt(self, body):
        encrypt_ch, rng_ch = self.channels()
        p = Process("encrypt")
        p.endpoint("ch1", encrypt_ch, Side.RIGHT)
        p.endpoint("ch2", rng_ch, Side.RIGHT)
        p.register("rd1_ctext", Logic(8))
        p.register("r2_key", Logic(8))
        p.loop(body)
        return check_process(p)

    def test_paper_version_has_both_bugs(self):
        """The paper's Encrypt misuses `noise` (dead by assignment time)
        and double-sends enc_res with overlapping lifetimes."""
        report = self._encrypt(
            let("ptext", recv("ch1", "enc_req"),
            let("noise", recv("ch2", "rng_req"),
            let("r1_key", lit(25, 8),
                var("ptext")
                >> if_(var("ptext").ne(0),
                       set_reg("rd1_ctext",
                               (var("ptext") ^ var("r1_key")) + var("noise")),
                       set_reg("rd1_ctext", var("ptext")))
                >> cycle(1)
                >> par(set_reg("r2_key", var("r1_key") ^ var("noise")),
                       send("ch2", "rng_res", read("r2_key")))
                >> send("ch1", "enc_res", read("rd1_ctext"))
                >> send("ch1", "enc_res", var("r1_key")))))
        )
        assert not report.ok
        kinds = {type(e) for e in report.errors}
        assert ValueNotLiveError in kinds       # noise already dead
        assert MessageSendError in kinds        # overlapping enc_res sends

    def test_fixed_version_accepted(self):
        """Registering noise immediately and sending enc_res once passes."""
        encrypt_ch, rng_ch = self.channels()
        p = Process("encrypt_fixed")
        p.endpoint("ch1", encrypt_ch, Side.RIGHT)
        p.endpoint("ch2", rng_ch, Side.RIGHT)
        p.register("rd1_ctext", Logic(8))
        p.register("noise_q", Logic(8))
        p.loop(
            let("ptext", recv("ch1", "enc_req"),
            let("noise", recv("ch2", "rng_req"),
                var("noise") >> set_reg("noise_q", var("noise"))
                >> var("ptext")
                >> set_reg("rd1_ctext",
                           (var("ptext") ^ lit(25, 8)) + read("noise_q"))
                >> send("ch1", "enc_res", read("rd1_ctext"))
                >> let("_", recv("ch1", "enc_req"), unit())))
        )
        # note: re-recv of enc_req only to give the dynamic contract a next
        # event; the check target is rd1_ctext's stability
        report = check_process(p)
        assert report.ok, [str(e) for e in report.errors]


class TestCrossThread:
    def test_register_mutated_by_two_threads_rejected(self):
        p = Process("multi")
        p.register("r", Logic(8))
        p.loop(set_reg("r", read("r") + 1))
        p.loop(set_reg("r", read("r") + 2))
        report = check_process(p)
        assert any(
            isinstance(e, LoanedRegisterMutationError) for e in report.errors
        )

    def test_message_sent_by_two_threads_rejected(self):
        p = Process("multi2")
        p.endpoint("f", fifo_channel(), Side.LEFT)
        p.register("a", Logic(8))
        p.loop(send("f", "enq_req", read("a")) >> cycle(1))
        p.loop(send("f", "enq_req", 5) >> cycle(1))
        report = check_process(p)
        assert any(isinstance(e, MessageSendError) for e in report.errors)

    def test_disjoint_threads_accepted(self):
        p = Process("multi3")
        p.register("a", Logic(8))
        p.register("b", Logic(8))
        p.loop(set_reg("a", read("a") + 1))
        p.loop(set_reg("b", read("b") + 1))
        assert check_process(p).ok


class TestBasics:
    def test_self_increment_allowed(self):
        p = Process("counter")
        p.register("cnt", Logic(32))
        p.loop(set_reg("cnt", read("cnt") + 1))
        assert check_process(p).ok

    def test_assert_safe_raises_on_error(self):
        with pytest.raises(LoanedRegisterMutationError):
            assert_safe(top_unsafe())

    def test_report_repr(self):
        assert "SAFE" in repr(check_process(top_safe()))
        assert "UNSAFE" in repr(check_process(top_unsafe()))

    def test_recv_on_sending_endpoint_rejected(self):
        from repro.errors import ElaborationError
        p = Process("bad")
        p.endpoint("mem", memory_channel(), Side.LEFT)
        p.loop(let("x", recv("mem", "req"), unit()))
        with pytest.raises(ElaborationError):
            check_process(p)


class TestCaseLimit:
    @pytest.mark.parametrize("factory", [
        tlb_process, cached_memory_process, ptw_process, axi_demux, axi_mux,
        aes_core,
    ], ids=lambda f: f.__name__)
    def test_query_over_the_limit_rejects(self, factory):
        """A check whose oracle query exceeds the case limit cannot prove
        safety: every one of the three checks reports it as its own
        error, carrying the limit message, instead of raising."""
        report = check_process(factory(), max_cases=2)
        assert not report.ok
        assert {type(e) for e in report.errors} == {
            ValueNotLiveError, LoanedRegisterMutationError, MessageSendError}
        assert all("exceed the case limit" in str(e) for e in report.errors)
