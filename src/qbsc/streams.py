"""Shot streams: shot s of ``sample`` reads the row of
``np.random.default_rng([seed, s])``. A block of shots is seeded at once by
numpy's seeding transcribed to array arithmetic (PCG64's 128-bit words as
uint64 halves), so a shot costs no generator construction and its row is
that generator's. ``simulate`` imports this module, and numpy, when it samples.
"""
from __future__ import annotations

import numpy as np

# numpy's seeding of ``default_rng(entropy)``: SeedSequence hashes the entropy
# words into a pool of 4 uint32 words and expands it to PCG64's 128-bit state
# and increment, which srandom steps through the LCG twice.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64 runs on uint64 (high, low) halves of its 128-bit words; every operand
# stays np.uint64, since numpy 1.24 turns uint64 mixed with int64 into float64.
_U1, _U11, _U32, _U58, _U63, _U64, _U_M32 = (np.uint64(c) for c in (1, 11, 32, 58, 63, 64, _M32))
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
# Shots seeded per vectorised pass, and the bytes of pre-drawn rows one block
# holds (K is ~30,000 at n=1000); they bound ``sample``'s memory, not its result.
_SEED_BLOCK = 1024
_ROW_BYTES = 1 << 16
# An array step of a 1,024-shot seeding block costs what setting the generator
# and filling the row of this many shots does (41 us vs 5.2 us).
_STEP_SHOTS = 8


def _words(n: int) -> list[int]:
    """numpy's entropy words of a non-negative int: 32 bits each, low first."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hash_pool(entropy: list) -> list:
    """SeedSequence's pool from its entropy words, each word a uint32 array
    with one element per shot (uint32 arithmetic wraps as numpy's C does)."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _M32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg_words(pool: list) -> list:
    """``generate_state(4, np.uint64)`` of the pool: four uint64 arrays, the
    initial state's high and low halves, then the stream's."""
    h = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _M32
        value = value * h
        out.append((value ^ value >> 16).astype(np.uint64))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * mult + inc mod 2^128, on uint64 halves."""
    # the high half of lo * mult_lo, from 32-bit pieces (Hacker's Delight mulhi)
    m0, m1 = _PCG_MULT_LO & _U_M32, _PCG_MULT_LO >> _U32
    l0, l1 = lo & _U_M32, lo >> _U32
    t = l1 * m0 + (l0 * m0 >> _U32)
    carry = ((t & _U_M32) + l0 * m1) >> _U32
    hi = l1 * m1 + (t >> _U32) + carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _block_states(seed_words: list[int], start: int, end: int) -> list:
    """PCG64 as ``default_rng([seed, s])`` seeds it, for the shots s in
    [start, end), which share every entropy word but the lowest: uint64
    arrays of the state's high and low halves, then the increment's."""
    size = end - start
    low = np.arange(size, dtype=np.uint32) + np.uint32(start & _M32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = ([np.full(size, w, np.uint32) for w in seed_words] + [low]
               + [np.full(size, w, np.uint32) for w in high])
    s_hi, s_lo, i_hi, i_lo = _pcg_words(_hash_pool(entropy))
    inc_hi, inc_lo = i_hi << _U1 | i_lo >> _U63, i_lo << _U1 | _U1
    lo = inc_lo + s_lo  # srandom: state 0 steps to inc, takes the seed, steps
    return [*_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo]


def _uniforms(state: list, d: int):
    """Yield ``d`` draws of ``random()`` from ``_block_states``, an array each:
    a step, its XSL-RR output, numpy's 53-bit double."""
    hi, lo, inc_hi, inc_lo = state
    for _ in range(d):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        yield ((x >> rot | x << (_U64 - rot & _U63)) >> _U11) * 2.0 ** -53


def _shot_rows(seed: int, start: int, stop: int, k: int, bounds=None):
    """Yield the shots s in [start, stop) as blocks, each a float64 array
    whose rows are ``np.random.default_rng([seed, s]).random(k)``, ``seed``
    a Python int >= 0; given the quiet run's ``bounds``, a seeding block that
    pays to step leaves out its calm shots. A block holds at most
    ``_ROW_BYTES`` of rows (one row at least), and its shots share their
    entropy word count and every word but the lowest, so a block never
    straddles a multiple of 2^32.
    """
    seed_words = _words(seed)
    gen = np.random.Generator(np.random.PCG64())
    bitgen = gen.bit_generator
    block = max(1, _ROW_BYTES // (8 * max(k, 1)))
    d = 0 if bounds is None else len(bounds)
    calm_share = 0.0 if bounds is None else float(np.prod(1.0 - bounds))
    while start < stop:
        end = min(stop, start + _SEED_BLOCK, ((start >> 32) + 1) << 32)
        state = _block_states(seed_words, start, end)
        if (end - start) * calm_share > _STEP_SHOTS * d:
            calm = np.ones(end - start, bool)  # one boolean per shot, no shots x d matrix
            for u, bound in zip(_uniforms(state, d), bounds):
                calm &= u >= bound
            state = [w[~calm] for w in state]
        for i in range(0, len(state[0]), block):
            part = [w[i:i + block].tolist() for w in state]
            rows = np.empty((len(part[0]), k))
            for row, s_hi, s_lo, i_hi, i_lo in zip(rows, *part):
                bitgen.state = {"bit_generator": "PCG64",
                                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                                "has_uint32": 0, "uinteger": 0}
                gen.random(out=row)
            yield rows
        start = end
