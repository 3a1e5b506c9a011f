"""n-bit comparator circuits built from chained one-bit compare blocks.

Layout for width n (most significant bit first, index 0):

    qubits   0 .. n-1    operand a
             n .. 2n-1   operand b
             2n          r0  (greater flag)
             2n+1        r1  (less flag)
    clbits   0 <- r0, 1 <- r1

Each one-bit block sets r0 := a_i AND NOT b_i and r1 := NOT a_i AND b_i,
restores the operand qubits, and measures both flags; blocks after the first
are gated on the register still reading 0 (no verdict yet). Once a less-than
verdict lands, a correction site gated on register value 2 flips r0 and
re-measures it, turning the (0,1) reading into (1,1). The two builder
variants differ only in where those correction sites sit:

    - FIGURE: after every second block (blocks 2, 4, ...), n//2 sites;
    - ALGORITHMIC: after every block past the first, n-1 sites.

Both agree on the comparison class everywhere; they can disagree on r0 when
the answer is "less", which is why only the class and r1 are contractual.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import (
    BLOCK_BEGIN,
    BLOCK_END,
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateKind,
    GateOp,
    Instruction,
    MeasureOp,
    _check_cap,
)
from .errors import DuplicateTarget, EmptyOperand, InvalidBitstring
from .simulate import MAX_LANES, ClassicalRunner, DenseRunner, RunResult, select_backend

# GateKind members read per block, bound once: a member read is a call.
_X, _CCX = GateKind.X, GateKind.CCX


class ComparisonClass(Enum):
    EQUAL = "Equal"
    GREATER = "Greater"
    LESS = "Less"


class BuilderVariant(Enum):
    FIGURE = "figure"
    ALGORITHMIC = "algorithmic"


@dataclass(frozen=True)
class Operands:
    """Two equal-width MSB-first bit vectors."""

    a_bits: tuple[int, ...]
    b_bits: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.a_bits)

    def initial_qubit_bits(self) -> tuple[int, ...]:
        """Qubit assignment (a bits, b bits, r0=0, r1=0) for the builder layout."""
        return self.a_bits + self.b_bits + (0, 0)


@dataclass(frozen=True)
class ComparisonOutcome:
    r0: int
    r1: int
    comparison: ComparisonClass
    backend: str
    variant: BuilderVariant
    n: int
    #: The value-independent body that ran, and its run with the operands as
    #: the initial qubits (executed census and measurement trace).
    body: Circuit | None = field(default=None, compare=False, repr=False)
    run: RunResult | None = field(default=None, compare=False, repr=False)


def _digits_of(value) -> str:
    """The operand's binary digits, MSB first."""
    if isinstance(value, str):
        if value == "":
            raise EmptyOperand("operand bitstring is empty")
        if any(ch not in "01" for ch in value):
            raise InvalidBitstring(f"operand contains non-binary characters: {value!r}")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise InvalidBitstring(f"operands must be non-negative: {value}")
        return format(value, "b")
    raise InvalidBitstring(f"operand must be an int or a bitstring: {value!r}")


def _check_width(n: int) -> None:
    """Refuse a width whose comparator (2n + 2 qubits) would exceed the
    register cap, with the error ``Circuit`` raises, before anything is built."""
    _check_cap(2 * n + 2, 2)


def encode_operands(a, b) -> Operands:
    """Render both operands MSB-first, left-padding the shorter with zeros.

    A width no comparator fits (see :func:`_check_width`) raises
    :class:`CircuitError` before the bit tuples are made.
    """
    a_digits, b_digits = _digits_of(a), _digits_of(b)
    n = max(len(a_digits), len(b_digits))
    _check_width(n)
    return Operands(tuple(map(int, a_digits.zfill(n))), tuple(map(int, b_digits.zfill(n))))


def build_1bc(qa: int, qb: int, qr0: int, qr1: int, c0: int, c1: int,
              condition: ClassicalCondition | None = None) -> list[Instruction]:
    """One-bit compare block: 4 X, 2 CCX, 2 measurements, barrier-bracketed.

    With b inverted, CCX(a, b -> r0) computes a AND NOT b; restoring b and
    inverting a gives NOT a AND b into r1; the trailing X restores a. The
    optional condition lands on the gates only (measurements never carry one).
    """
    if len({qa, qb, qr0, qr1}) != 4:
        raise DuplicateTarget(f"block qubits must be distinct: {(qa, qb, qr0, qr1)}")
    gate = GateOp._trusted  # the qubits are distinct, so each gate fits its kind
    xa, xb = gate(_X, (qa,), condition), gate(_X, (qb,), condition)
    return [
        xb,
        gate(_CCX, (qa, qb, qr0), condition),
        xa,
        xb,
        gate(_CCX, (qa, qb, qr1), condition),
        xa,
        MeasureOp(qr0, c0),
        MeasureOp(qr1, c1),
    ]


def _correction_sites(n: int, variant: BuilderVariant) -> set[int]:
    """Loop indices i (1..n-1) after whose block a flip-r0 site is placed."""
    if variant is BuilderVariant.FIGURE:
        return {i for i in range(1, n) if i % 2 == 1}
    return set(range(1, n))


def build_gqbsc(ops: Operands, variant: BuilderVariant = BuilderVariant.FIGURE) -> Circuit:
    """Full comparator circuit on 2n+2 qubits and 2 clbits.

    Input-prep X gates set the operand bits that are 1; the block chain and
    correction sites follow. Built for zero operands the circuit is the
    value-independent body, which is what the census reporting uses.
    Indices are in range by construction, so the list skips the check;
    equal instructions are one shared object, which runners compile once.
    """
    n = ops.n
    if n < 1:
        raise EmptyOperand("comparator needs at least one bit")
    if len(ops.b_bits) != n:
        raise InvalidBitstring(f"operand widths differ: {n} and {len(ops.b_bits)}")
    _check_width(n)
    qr0, qr1 = 2 * n, 2 * n + 1
    labels = {i: f"a_{i}" for i in range(n)}
    labels.update({n + i: f"b_{i}" for i in range(n)})
    labels.update({qr0: "r_0", qr1: "r_1"})
    # a bits sit on qubits 0..n-1 and b bits on n..2n-1
    instructions = [GateOp._trusted(_X, (q,)) for q, bit in enumerate(ops.a_bits + ops.b_bits)
                    if bit]

    begin, end = BarrierOp(BLOCK_BEGIN), BarrierOp(BLOCK_END)
    meters = [MeasureOp(qr0, 0), MeasureOp(qr1, 1)]
    skip_unless_open = ClassicalCondition((0, 1), 0)
    correction = [GateOp._trusted(_X, (qr0,), ClassicalCondition((0, 1), 2)), meters[0]]
    sites = _correction_sites(n, variant)
    for i in range(n):
        block = build_1bc(i, n + i, qr0, qr1, 0, 1, None if i == 0 else skip_unless_open)
        block[-2:] = meters  # every block ends with these two measurements
        instructions.append(begin)
        instructions += block
        instructions.append(end)
        if i in sites:
            instructions += correction
    return Circuit._trusted(2 * n + 2, 2, instructions, labels=labels)


def _body(n: int, variant: BuilderVariant) -> Circuit:
    """The value-independent body at width n; an over-cap width raises before
    the zero operands are made."""
    _check_width(n)
    return build_gqbsc(Operands((0,) * n, (0,) * n), variant)


def interpret(r0: int, r1: int) -> ComparisonClass:
    """Flag reading: r1 set means less; r0 alone means greater; neither, equal."""
    if r1:
        return ComparisonClass.LESS
    if r0:
        return ComparisonClass.GREATER
    return ComparisonClass.EQUAL


def reference_flags(ops: Operands, variant: BuilderVariant = BuilderVariant.FIGURE) -> tuple[int, int]:
    """Classical oracle for the final (r0, r1) flags, variant-faithful.

    Mirrors the circuit exactly: a block fires only while both flags are
    clear; a correction site flips r0 when the flags read (0, 1).
    """
    n = ops.n
    sites = _correction_sites(n, variant)
    r0 = r1 = 0
    for i in range(n):
        if r0 == 0 and r1 == 0:
            a_i, b_i = ops.a_bits[i], ops.b_bits[i]
            r0 = a_i & (1 - b_i)
            r1 = (1 - a_i) & b_i
        if i in sites and r0 == 0 and r1 == 1:
            r0 = 1
    return r0, r1


def compare(a, b, backend: str = "auto",
            variant: BuilderVariant = BuilderVariant.FIGURE,
            seed: int | None = None) -> ComparisonOutcome:
    """Encode, build, run, and interpret in one call.

    Builds the value-independent body once and runs it once with the operand
    bits as the initial qubits; the outcome carries both.
    """
    ops = encode_operands(a, b)
    body = _body(ops.n, variant)
    chosen = select_backend(body, backend)
    if chosen == "classical":
        run = ClassicalRunner(body).run(ops.initial_qubit_bits())
    else:
        run = DenseRunner(body).run(ops.initial_qubit_bits(), seed=seed)
    r0, r1 = run.classical_bits[:2]
    return ComparisonOutcome(r0, r1, interpret(r0, r1), chosen, variant, ops.n, body, run)


# -- verification sweeps -------------------------------------------------------

def _lane_mask(flags: np.ndarray) -> int:
    """Boolean array as a lane int: element l becomes bit l."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _reference_flag_lanes(a_lanes: list[int], b_lanes: list[int], full: int,
                          variant: BuilderVariant) -> tuple[int, int]:
    """:func:`reference_flags` over lane ints (bit l of each is lane l)."""
    sites = _correction_sites(len(a_lanes), variant)
    r0 = r1 = 0
    for i, (a_i, b_i) in enumerate(zip(a_lanes, b_lanes)):
        still_open = full & ~(r0 | r1)
        r0 |= still_open & a_i & ~b_i
        r1 |= still_open & ~a_i & b_i
        if i in sites:
            r0 |= r1  # a (0, 1) reading becomes (1, 1)
    return r0, r1


def _runner(body: Circuit, backend: str) -> ClassicalRunner | DenseRunner:
    """The runner for ``backend`` as :func:`compare` resolves it."""
    chosen = select_backend(body, backend)
    return ClassicalRunner(body) if chosen == "classical" else DenseRunner(body)


def _flag_lanes(runner: ClassicalRunner | DenseRunner, qubits: list[int],
                lanes: int) -> tuple[int, int]:
    """Final (r0, r1) lane ints of one chunk: the classical runner runs it
    bit-sliced, the dense runner lane by lane."""
    if isinstance(runner, ClassicalRunner):
        return tuple(runner.run_lanes(qubits, lanes)[1])
    r0 = r1 = 0
    for lane in range(lanes):
        value = runner.run_value([v >> lane & 1 for v in qubits], None, None)
        r0 |= (value & 1) << lane
        r1 |= (value >> 1) << lane
    return r0, r1


def _transpose(values, n: int) -> list[int]:
    """Lane ints of n-bit values, MSB first: bit l of entry i is bit n-1-i
    of values[l]. ``values`` are Python ints or an unsigned numpy array;
    either goes in as big-endian byte rows."""
    width = (n + 7) // 8
    if isinstance(values, np.ndarray):
        big = values.astype(values.dtype.newbyteorder(">"))
        rows = big.view(np.uint8).reshape(len(values), -1)[:, big.itemsize - width:]
    else:
        rows = np.frombuffer(b"".join(v.to_bytes(width, "big") for v in values),
                             np.uint8).reshape(-1, width)
    bits = np.unpackbits(rows, axis=1)[:, 8 * width - n:]
    packed = np.packbits(bits, axis=0, bitorder="little")  # column i: entry i's lanes
    stride, flat = packed.shape[0], packed.T.tobytes()
    return [int.from_bytes(flat[i:i + stride], "little") for i in range(0, n * stride, stride)]


def _chunk_mismatches(runner: ClassicalRunner | DenseRunner, n: int, a, b, less, greater,
                      variant: BuilderVariant) -> int:
    """Run one chunk of operand pairs (a[l], b[l]) in lane l and count the
    lanes failing either oracle.

    ``less`` and ``greater`` flag a < b and a > b per lane, from integer
    comparison of the operand values.
    """
    lanes = len(less)
    a_lanes, b_lanes = _transpose(a, n), _transpose(b, n)
    r0, r1 = _flag_lanes(runner, a_lanes + b_lanes + [0, 0], lanes)
    ref0, ref1 = _reference_flag_lanes(a_lanes, b_lanes, (1 << lanes) - 1, variant)
    class_bad = (r1 ^ _lane_mask(less)) | ((r0 & ~r1) ^ _lane_mask(greater))  # interpret()
    flags_bad = (r0 ^ ref0) | (r1 ^ ref1)
    return (class_bad | flags_bad).bit_count()


def soundness_check_exhaustive(n: int, variant: BuilderVariant = BuilderVariant.FIGURE,
                               backend: str = "classical") -> tuple[int, int]:
    """All 4^n operand pairs at width n against the integer-comparison and
    flag oracles; returns (pairs checked, mismatches).

    The pairs go in chunks of at most ``MAX_LANES`` lanes, lane a*2^n + b
    holding the pair (a, b); the classical backend runs a chunk bit-sliced,
    the dense one lane at a time. ``backend`` resolves as in :func:`compare`.
    """
    runner = _runner(_body(n, variant), backend)
    total = 1 << 2 * n
    lanes = min(total, MAX_LANES)
    dtype = np.min_scalar_type(total - 1)  # the narrowest array keeps the sweep's peak memory low
    mismatches = 0
    for start in range(0, total, lanes):
        index = np.arange(start, start + lanes, dtype=dtype)
        a, b = index >> n, index & ((1 << n) - 1)
        mismatches += _chunk_mismatches(runner, n, a, b, a < b, a > b, variant)
    return total, mismatches


def _random_pairs(n: int, samples: int, seed: int):
    """Seeded operand pairs at width n, the same draws for every backend.

    Even draws are uniform pairs. Uniform pairs tie on their first k bits
    with probability 2^-k, so at wide widths a late block never decides
    them; each odd draw therefore ties on a prefix of exactly k bits and
    differs at bit k, its verdict block. Over the odd draws k spreads
    evenly across 0..n-1, each k taken once with a < b and then with a > b.
    """
    rng = random.Random(seed)
    strata = (samples // 2 + 1) // 2  # distinct k among the odd draws
    for j in range(samples):
        if j % 2 == 0:
            yield rng.getrandbits(n), rng.getrandbits(n)
            continue
        s = j // 2
        k = (s // 2) * (n - 1) // (strata - 1) if strata > 1 else n - 1
        low = n - 1 - k
        prefix = rng.getrandbits(k) << (low + 1)
        lo = prefix | rng.getrandbits(low)
        hi = prefix | 1 << low | rng.getrandbits(low)
        yield (lo, hi) if s % 2 == 0 else (hi, lo)


def soundness_check_random(n: int, samples: int, seed: int = 0,
                           variant: BuilderVariant = BuilderVariant.FIGURE,
                           backend: str = "classical") -> tuple[int, int]:
    """Seeded operand pairs at width n (see :func:`_random_pairs`); returns
    (pairs, mismatches).

    They go in chunks of at most ``MAX_LANES`` lanes, as in
    :func:`soundness_check_exhaustive`.
    """
    runner = _runner(_body(n, variant), backend)
    drawn = _random_pairs(n, samples, seed)
    mismatches = 0
    for _ in range(0, samples, MAX_LANES):
        pairs = list(itertools.islice(drawn, MAX_LANES))
        a, b = zip(*pairs)
        mismatches += _chunk_mismatches(runner, n, a, b, [x < y for x, y in pairs],
                                        [x > y for x, y in pairs], variant)
    return samples, mismatches
