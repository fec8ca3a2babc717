"""AES cipher core baseline (OpenTitan-style, unmasked).

Supports AES-128 and AES-256, encryption and decryption, with an
on-the-fly key schedule.  One round per cycle; decryption first runs a
key-expansion pass (one cycle per round) to reach the final round key,
then walks the schedule backwards -- exactly the dynamic-latency
behaviour the paper highlights.  The S-box is a lookup table, matching
the LUT-mapped S-box of the original core.

This module also provides the pure-Python AES reference used by every
test (validated against the FIPS-197 vectors).
"""

from __future__ import annotations

from typing import List, Tuple

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module

# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _build_sbox() -> List[int]:
    # multiplicative inverse in GF(2^8) followed by the affine transform
    p, q = 1, 1
    sbox = [0] * 256
    while True:
        # p := p * 3
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)
        # q := q / 3
        q ^= q << 1
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        x = q ^ _rotl8(q, 1) ^ _rotl8(q, 2) ^ _rotl8(q, 3) ^ _rotl8(q, 4)
        sbox[p] = (x ^ 0x63) & 0xFF
        if p == 1:
            break
    sbox[0] = 0x63
    return sbox


def _rotl8(x: int, n: int) -> int:
    return ((x << n) | (x >> (8 - n))) & 0xFF


SBOX = _build_sbox()
INV_SBOX = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i

XTIME = [((x << 1) ^ (0x1B if x & 0x80 else 0)) & 0xFF for x in range(256)]


def _gmul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        b >>= 1
        a = XTIME[a]
    return out


GMUL9 = [_gmul(x, 9) for x in range(256)]
GMUL11 = [_gmul(x, 11) for x in range(256)]
GMUL13 = [_gmul(x, 13) for x in range(256)]
GMUL14 = [_gmul(x, 14) for x in range(256)]

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
        0x6C, 0xD8, 0xAB, 0x4D]

# ---------------------------------------------------------------------------
# pure-Python reference (state = list of 16 bytes, column-major as FIPS-197)
# ---------------------------------------------------------------------------


def block_to_bytes(block: int) -> List[int]:
    return [(block >> (8 * (15 - i))) & 0xFF for i in range(16)]


def bytes_to_block(bs: List[int]) -> int:
    out = 0
    for b in bs:
        out = (out << 8) | (b & 0xFF)
    return out


def expand_key(key: int, keylen: int) -> List[int]:
    """Full key schedule: returns the list of round keys (128-bit ints).

    ``keylen`` is 128 or 256."""
    nk = keylen // 32
    rounds = 10 if keylen == 128 else 14
    key_bytes = [(key >> (8 * (keylen // 8 - 1 - i))) & 0xFF
                 for i in range(keylen // 8)]
    words = [
        tuple(key_bytes[4 * i:4 * i + 4]) for i in range(nk)
    ]
    total_words = 4 * (rounds + 1)
    for i in range(nk, total_words):
        prev = list(words[i - 1])
        if i % nk == 0:
            prev = prev[1:] + prev[:1]
            prev = [SBOX[b] for b in prev]
            prev[0] ^= RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            prev = [SBOX[b] for b in prev]
        words.append(tuple(
            a ^ b for a, b in zip(words[i - nk], prev)
        ))
    round_keys = []
    for r in range(rounds + 1):
        bs = []
        for w in words[4 * r:4 * r + 4]:
            bs.extend(w)
        round_keys.append(bytes_to_block(bs))
    return round_keys


def _sub_bytes(s, box):
    return [box[b] for b in s]


def _shift_rows(s):
    # state laid out column-major: byte index = 4*col + row
    out = list(s)
    for row in range(1, 4):
        cols = [s[4 * c + row] for c in range(4)]
        cols = cols[row:] + cols[:row]
        for c in range(4):
            out[4 * c + row] = cols[c]
    return out


def _inv_shift_rows(s):
    out = list(s)
    for row in range(1, 4):
        cols = [s[4 * c + row] for c in range(4)]
        cols = cols[-row:] + cols[:-row]
        for c in range(4):
            out[4 * c + row] = cols[c]
    return out


def _mix_columns(s):
    out = []
    for c in range(4):
        a = s[4 * c:4 * c + 4]
        out.extend([
            XTIME[a[0]] ^ (a[1] ^ XTIME[a[1]]) ^ a[2] ^ a[3],
            a[0] ^ XTIME[a[1]] ^ (a[2] ^ XTIME[a[2]]) ^ a[3],
            a[0] ^ a[1] ^ XTIME[a[2]] ^ (a[3] ^ XTIME[a[3]]),
            (a[0] ^ XTIME[a[0]]) ^ a[1] ^ a[2] ^ XTIME[a[3]],
        ])
    return [b & 0xFF for b in out]


def _inv_mix_columns(s):
    out = []
    for c in range(4):
        a = s[4 * c:4 * c + 4]
        out.extend([
            GMUL14[a[0]] ^ GMUL11[a[1]] ^ GMUL13[a[2]] ^ GMUL9[a[3]],
            GMUL9[a[0]] ^ GMUL14[a[1]] ^ GMUL11[a[2]] ^ GMUL13[a[3]],
            GMUL13[a[0]] ^ GMUL9[a[1]] ^ GMUL14[a[2]] ^ GMUL11[a[3]],
            GMUL11[a[0]] ^ GMUL13[a[1]] ^ GMUL9[a[2]] ^ GMUL14[a[3]],
        ])
    return [b & 0xFF for b in out]


def aes_encrypt(block: int, key: int, keylen: int = 128) -> int:
    rks = expand_key(key, keylen)
    s = block_to_bytes(block ^ rks[0])
    for r in range(1, len(rks)):
        s = _sub_bytes(s, SBOX)
        s = _shift_rows(s)
        if r != len(rks) - 1:
            s = _mix_columns(s)
        s = block_to_bytes(bytes_to_block(s) ^ rks[r])
    return bytes_to_block(s)


def aes_decrypt(block: int, key: int, keylen: int = 128) -> int:
    rks = expand_key(key, keylen)
    s = block_to_bytes(block ^ rks[-1])
    for r in range(len(rks) - 2, -1, -1):
        s = _inv_shift_rows(s)
        s = _sub_bytes(s, INV_SBOX)
        s = block_to_bytes(bytes_to_block(s) ^ rks[r])
        if r != 0:
            s = _inv_mix_columns(s)
    return bytes_to_block(s)


# ---------------------------------------------------------------------------
# request/response encoding shared with the Anvil core
# ---------------------------------------------------------------------------
OP_ENCRYPT = 0
OP_DECRYPT = 1
REQ_WIDTH = 1 + 1 + 256 + 128  # op, keylen256, key, block


def aes_pack(op: int, block: int, key: int, keylen: int = 128) -> int:
    k256 = 1 if keylen == 256 else 0
    return (
        (op & 1) << 385 | (k256 << 384) | ((key & (1 << 256) - 1) << 128)
        | (block & (1 << 128) - 1)
    )


class AesCore(Module):
    """Round-per-cycle AES core with on-the-fly key schedule.

    States: IDLE -> (KEYGEN for decryption) -> ROUND* -> RESPOND.
    Latency = rounds (+ rounds again for the decrypt key pass) + 2."""

    IDLE, INIT, KEYGEN, ROUND, RESPOND = range(5)

    def __init__(self, name: str, req: MessagePort, res: MessagePort):
        super().__init__(name)
        self.req = req
        self.res = res
        self.state = self.IDLE
        self.op = OP_ENCRYPT
        self.rounds = 10
        self.keylen = 128
        self.rnd = 0
        self.block = 0
        self.round_keys: List[int] = []
        self.s: List[int] = [0] * 16
        self.result = 0
        self.latencies: List[Tuple[str, int]] = []
        self._req_cycle = 0
        self.cycle = 0
        for w in (*req.wires(), *res.wires()):
            self.adopt(w)

    def comb_inputs(self):
        return ()      # handshake outputs depend only on the FSM state

    def comb_outputs(self):
        return (self.req.ack, self.res.valid, self.res.data)

    def eval_comb(self):
        self.req.ack.set(1 if self.state == self.IDLE else 0)
        self.res.valid.set(1 if self.state == self.RESPOND else 0)
        self.res.data.set(self.result)

    def tick(self):
        if self.state == self.IDLE:
            if self.req.fires:
                word = self.req.data.value
                self.op = (word >> 385) & 1
                self.keylen = 256 if (word >> 384) & 1 else 128
                key = (word >> 128) & ((1 << 256) - 1)
                if self.keylen == 128:
                    key &= (1 << 128) - 1
                self.block = word & ((1 << 128) - 1)
                self.rounds = 10 if self.keylen == 128 else 14
                # the hardware expands one round key per KEYGEN/ROUND
                # cycle; precomputing the list here models the same
                # per-cycle schedule without bit-twiddling the registers
                self.round_keys = expand_key(key, self.keylen)
                self._req_cycle = self.cycle
                self.rnd = 0
                self.state = (
                    self.KEYGEN if self.op == OP_DECRYPT else self.INIT
                )
        elif self.state == self.KEYGEN:
            # one cycle per schedule step, walking to the final round key
            # (AES-128: 10 single-group steps; AES-256: 13 group steps,
            # the initial 8-word key already covers rk0/rk1)
            steps = 10 if self.keylen == 128 else 13
            self.rnd += 1
            if self.rnd == steps:
                self.rnd = 0
                self.state = self.INIT
        elif self.state == self.INIT:
            first_key = (
                self.round_keys[0] if self.op == OP_ENCRYPT
                else self.round_keys[-1]
            )
            self.s = block_to_bytes(self.block ^ first_key)
            self.rnd = 1
            self.state = self.ROUND
        elif self.state == self.ROUND:
            last = self.rnd == self.rounds
            if self.op == OP_ENCRYPT:
                s = _sub_bytes(self.s, SBOX)
                s = _shift_rows(s)
                if not last:
                    s = _mix_columns(s)
                key = self.round_keys[self.rnd]
                self.s = block_to_bytes(bytes_to_block(s) ^ key)
            else:
                s = _inv_shift_rows(self.s)
                s = _sub_bytes(s, INV_SBOX)
                key = self.round_keys[self.rounds - self.rnd]
                s = block_to_bytes(bytes_to_block(s) ^ key)
                if not last:
                    s = _inv_mix_columns(s)
                self.s = s
            if last:
                self.result = bytes_to_block(self.s)
                self.state = self.RESPOND
            else:
                self.rnd += 1
        elif self.state == self.RESPOND:
            if self.res.fires:
                kind = f"{'dec' if self.op else 'enc'}{self.keylen}"
                self.latencies.append(
                    (kind, self.cycle - self._req_cycle + 1)
                )
                self.state = self.IDLE
        self.cycle += 1
