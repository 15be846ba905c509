"""Many ``np.random.default_rng(entropy)`` streams, advanced as arrays.

Retransmit draws come from one generator per ``(schedule seed,
iteration, transfer index)`` cell.  Building a ``Generator`` per cell
costs tens of microseconds; a member of a batch call has hundreds of
cells.  :class:`SeededStreams` replays numpy's own seeding pipeline —
``SeedSequence`` entropy mixing, ``generate_state`` and PCG64's
``srandom`` — on uint32/uint64 arrays, one element per cell, and then
draws doubles exactly as ``Generator.random`` does.  Every value is
bit-identical to ``np.random.default_rng((seed, iteration,
transfer)).random()``; ``tests/oracle/test_streams.py`` holds numpy
itself as the oracle.

The algorithm constants below are numpy's (``bit_generator.pyx`` and
``pcg64.h``).  ``SeedSequence``'s hash multiplier evolves by a fixed
rule independent of the data, so the sequence of constants each
position uses is precomputed once.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
#: PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & _M64)
_MULT_LO_0 = np.uint64(_PCG_MULT & _M32)
_MULT_LO_1 = np.uint64((_PCG_MULT >> 32) & _M32)
_LOW32 = np.uint64(_M32)
_SHIFT32 = np.uint64(32)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _hash_constants(init: int, mult: int, count: int) -> List[np.uint32]:
    """The multiplier before and after each of ``count`` hash calls:
    call ``i`` xors with entry ``i`` and multiplies by entry ``i + 1``."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _M32)
    return [np.uint32(c) for c in consts]


#: ``generate_state(4, np.uint64)`` hashes eight pool words.
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_A_CACHE: Dict[int, List[np.uint32]] = {}


def _a_constants(n_words: int) -> List[np.uint32]:
    """``mix_entropy``'s constants for an ``n_words`` entropy array."""
    consts = _A_CACHE.get(n_words)
    if consts is None:
        calls = (_POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)
                 + _POOL_SIZE * max(0, n_words - _POOL_SIZE))
        consts = _A_CACHE[n_words] = _hash_constants(_INIT_A, _MULT_A,
                                                     calls)
    return consts


def int_words(value: int) -> List[int]:
    """``SeedSequence``'s uint32 words of one non-negative integer
    (least significant first; zero is one word)."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _array_words(values: np.ndarray) -> List[np.ndarray]:
    """The uint32 word columns of non-negative int64 values that all
    need the same number of words (one or two)."""
    lo = (values & _M32).astype(np.uint32)
    if values.size and int(values.max()) > _M32:
        return [lo, (values >> 32).astype(np.uint32)]
    return [lo]


def _mix_entropy(entropy: List[np.ndarray], m: int) -> List[np.ndarray]:
    """``SeedSequence.mix_entropy`` over ``m`` cells: ``entropy`` is the
    list of word columns (each a scalar or an ``(m,)`` array)."""
    consts = _a_constants(len(entropy))
    call = 0

    def hashmix(value):
        nonlocal call
        value = (value ^ consts[call]) * consts[call + 1]
        call += 1
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(m, dtype=np.uint32)
    pool = [hashmix(entropy[i] + zero if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src] + zero))
    return pool


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * _MULT_LO`` (64 x 64 -> 128 bits)."""
    a0 = a & _LOW32
    a1 = a >> _SHIFT32
    p00 = a0 * _MULT_LO_0
    p01 = a0 * _MULT_LO_1
    p10 = a1 * _MULT_LO_0
    p11 = a1 * _MULT_LO_1
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * MULT + inc`` mod 2**128."""
    new_hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo)
    new_lo = lo * _MULT_LO
    out_lo = new_lo + inc_lo
    carry = (out_lo < inc_lo).astype(np.uint64)
    return new_hi + inc_hi + carry, out_lo


class SeededStreams:
    """One PCG64 stream per ``(seed, iterations[i], transfers[i])`` cell.

    :meth:`random` draws the next double of the selected cells' streams,
    exactly as ``Generator.random()`` would on
    ``np.random.default_rng((seed, iterations[i], transfers[i]))``.
    """

    def __init__(self, seed: int, iterations: np.ndarray,
                 transfers: np.ndarray):
        """Seed every cell's stream (``iterations`` and ``transfers``
        are parallel arrays of non-negative indices)."""
        iterations = np.asarray(iterations, dtype=np.int64)
        transfers = np.asarray(transfers, dtype=np.int64)
        m = iterations.size
        seed_words = [np.uint32(w) for w in int_words(seed)]
        self._hi = np.empty(m, dtype=np.uint64)
        self._lo = np.empty(m, dtype=np.uint64)
        self._inc_hi = np.empty(m, dtype=np.uint64)
        self._inc_lo = np.empty(m, dtype=np.uint64)
        if m and (iterations.min() < 0 or transfers.min() < 0):
            raise ValueError("stream indices must be non-negative")
        # Entropy length depends on each index's word count; cells are
        # seeded in groups that share it (one group in practice).
        wide = (iterations > _M32).astype(np.int64) * 2 + (transfers > _M32)
        for group in np.unique(wide):
            cells = np.flatnonzero(wide == group)
            pool = _mix_entropy(seed_words + _array_words(iterations[cells])
                                + _array_words(transfers[cells]), cells.size)
            self._seed(cells, pool)

    def _seed(self, cells: np.ndarray, pool: List[np.ndarray]) -> None:
        """``generate_state(4, uint64)`` then PCG64's ``srandom``."""
        words = []
        for i in range(2 * _POOL_SIZE):
            value = (pool[i % _POOL_SIZE] ^ _B[i]) * _B[i + 1]
            words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
        state = [words[2 * k] | (words[2 * k + 1] << _SHIFT32)
                 for k in range(4)]
        init_hi, init_lo, seq_hi, seq_lo = state
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        # state = 0; step; state += initstate; step.
        lo = inc_lo + init_lo
        hi = inc_hi + init_hi + (lo < init_lo).astype(np.uint64)
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        self._hi[cells] = hi
        self._lo[cells] = lo
        self._inc_hi[cells] = inc_hi
        self._inc_lo[cells] = inc_lo

    def random(self, cells: np.ndarray) -> np.ndarray:
        """The next double in ``[0, 1)`` of each selected cell's stream."""
        hi, lo = _step(self._hi[cells], self._lo[cells],
                       self._inc_hi[cells], self._inc_lo[cells])
        self._hi[cells] = hi
        self._lo[cells] = lo
        # PCG XSL-RR output: rotate (hi ^ lo) right by the top 6 bits.
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return (out >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
