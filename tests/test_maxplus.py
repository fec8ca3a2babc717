"""Unit and property tests for the max-plus timestamp algebra.

The key soundness property (used throughout the type checker): whenever the
symbolic comparison says ``A <= B``, every concrete assignment of
non-negative slacks satisfies ``value(A) <= value(B)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maxplus import MaxExpr, MinExpr, MpTerm


def term(const, *vars_):
    return MpTerm(const, tuple(sorted(vars_)))


class TestMpTerm:
    def test_domination_constant(self):
        assert term(1).dominated_by(term(2))
        assert not term(3).dominated_by(term(2))
        assert term(2).dominated_by(term(2))

    def test_domination_vars(self):
        assert term(0).dominated_by(term(0, 1))
        assert not term(0, 1).dominated_by(term(0))
        assert term(1, 2).dominated_by(term(1, 2, 3))

    def test_domination_var_multiset(self):
        assert term(0, 1, 1).dominated_by(term(0, 1, 1, 2))
        assert not term(0, 1, 1).dominated_by(term(0, 1, 2))

    def test_strict_domination_needs_smaller_const(self):
        assert not term(2).strictly_dominated_by(term(2, 5))
        assert term(1).strictly_dominated_by(term(2, 5))

    def test_evaluate(self):
        assert term(3, 1, 1, 2).evaluate({1: 2, 2: 5}) == 12

    def test_shift_and_var(self):
        t = term(1, 4).shifted(2).with_var(3)
        assert t.const == 3
        assert t.vars == (3, 4)


class TestMaxExpr:
    def test_zero(self):
        assert MaxExpr.zero().evaluate({}) == 0

    def test_inf_absorbs(self):
        assert MaxExpr.maximum([MaxExpr.zero(), MaxExpr.inf()]).infinite

    def test_constants_and_single_operands_are_shared(self):
        """The oracle's memos hold hundreds of thousands of these on the
        Y86 core: one shared instance each keeps its memory flat."""
        assert MaxExpr.inf() is MaxExpr.inf()
        assert MaxExpr.zero() is MaxExpr.zero()
        e = MaxExpr([term(1, 5)])
        assert MaxExpr.maximum([e]) is e
        assert MaxExpr.maximum([e, MaxExpr.inf()]) is MaxExpr.inf()

    def test_pruning_drops_dominated_terms(self):
        e = MaxExpr([term(0), term(0, 7)])
        assert e.terms == frozenset([term(0, 7)])

    def test_le_simple(self):
        a = MaxExpr([term(1, 5)])
        b = MaxExpr([term(2, 5)])
        assert a.le(b)
        assert not b.le(a)

    def test_le_against_inf(self):
        assert MaxExpr([term(9)]).le(MaxExpr.inf())
        assert not MaxExpr.inf().le(MaxExpr([term(9)]))

    def test_lt_requires_strict_constant(self):
        a = MaxExpr([term(1, 5)])
        assert not a.lt(MaxExpr([term(1, 5)]))
        assert a.lt(MaxExpr([term(2, 5)]))

    def test_le_incomparable_vars(self):
        a = MaxExpr([term(0, 1)])
        b = MaxExpr([term(0, 2)])
        assert not a.le(b)
        assert not b.le(a)

    def test_max_of_branches(self):
        a = MaxExpr([term(1)])
        b = MaxExpr([term(0, 3)])
        m = MaxExpr.maximum([a, b])
        assert m.evaluate({3: 0}) == 1
        assert m.evaluate({3: 5}) == 5


class TestMinExpr:
    def test_empty_is_infinite(self):
        assert MinExpr.inf().infinite

    def test_le_expr(self):
        m = MinExpr([MaxExpr([term(3)]), MaxExpr([term(1, 2)])])
        assert m.le_expr(MaxExpr([term(3)]))

    def test_ge_expr_requires_all(self):
        m = MinExpr([MaxExpr([term(3)]), MaxExpr([term(1)])])
        assert m.ge_expr(MaxExpr([term(1)]))
        assert not m.ge_expr(MaxExpr([term(2)]))

    def test_infinite_alternatives_dropped(self):
        m = MinExpr([MaxExpr.inf(), MaxExpr([term(2)])])
        assert not m.infinite
        assert m.evaluate({}) == 2

    def test_min_le_min(self):
        a = MinExpr([MaxExpr([term(1)])])
        b = MinExpr([MaxExpr([term(2)]), MaxExpr([term(5)])])
        assert a.le(b)
        assert not b.le(a)


# ---------------------------------------------------------------------------
# property-based soundness
# ---------------------------------------------------------------------------
terms_st = st.builds(
    lambda c, vs: MpTerm(c, tuple(sorted(vs))),
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=0, max_value=4), max_size=3),
)
maxexpr_st = st.builds(
    lambda ts: MaxExpr(ts),
    st.lists(terms_st, min_size=1, max_size=4),
)
assignment_st = st.fixed_dictionaries(
    {i: st.integers(min_value=0, max_value=8) for i in range(5)}
)


@settings(max_examples=300, deadline=None)
@given(a=maxexpr_st, b=maxexpr_st, assignment=assignment_st)
def test_le_soundness(a, b, assignment):
    """Symbolic <= implies concrete <= for every assignment."""
    if a.le(b):
        assert a.evaluate(assignment) <= b.evaluate(assignment)


@settings(max_examples=300, deadline=None)
@given(a=maxexpr_st, b=maxexpr_st, assignment=assignment_st)
def test_lt_soundness(a, b, assignment):
    if a.lt(b):
        assert a.evaluate(assignment) < b.evaluate(assignment)


@settings(max_examples=200, deadline=None)
@given(a=maxexpr_st, b=maxexpr_st, assignment=assignment_st)
def test_maximum_is_pointwise_max(a, b, assignment):
    m = MaxExpr.maximum([a, b])
    assert m.evaluate(assignment) == max(
        a.evaluate(assignment), b.evaluate(assignment)
    )


@settings(max_examples=200, deadline=None)
@given(
    alts_a=st.lists(maxexpr_st, min_size=1, max_size=3),
    alts_b=st.lists(maxexpr_st, min_size=1, max_size=3),
    assignment=assignment_st,
)
def test_minexpr_le_soundness(alts_a, alts_b, assignment):
    a, b = MinExpr(alts_a), MinExpr(alts_b)
    if a.le(b):
        assert a.evaluate(assignment) <= b.evaluate(assignment)


@settings(max_examples=200, deadline=None)
@given(e=maxexpr_st, k=st.integers(min_value=0, max_value=5),
       assignment=assignment_st)
def test_shift_adds_constant(e, k, assignment):
    assert e.shifted(k).evaluate(assignment) == e.evaluate(assignment) + k
