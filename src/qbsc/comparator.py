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
import operator
import random
from dataclasses import dataclass, field
from enum import Enum

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
    _check_condition,
    _is_int,
    _non_bits,
)
from .errors import (CircuitError, DuplicateTarget, EmptyOperand, InvalidBitstring, OperandError,
                     SimulationArgumentError)
from .simulate import MAX_LANES, ClassicalRunner, RunResult

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
    if _is_int(value):
        if value < 0:
            raise InvalidBitstring(f"operands must be non-negative: {value}")
        return format(value, "b")
    raise InvalidBitstring(f"operand must be an int or a bitstring: {value!r}")


def _check_width(n: int) -> int:
    """Refuse a non-integer width, and one whose comparator (2n + 2 qubits)
    exceeds the register cap with the error ``Circuit`` raises, before anything
    is built; returns the width as a Python int (numpy's would wrap)."""
    if not _is_int(n):
        raise OperandError(f"width must be an integer, got {n!r}")
    n = operator.index(n)
    _check_cap(2 * n + 2, 2)
    return n


def _check_operands(ops: Operands) -> None:
    """Refuse operands no comparator reads: not :class:`Operands`, no bits,
    unequal widths, or a bit other than the integers (``_is_int``) 0 and 1."""
    if not isinstance(ops, Operands):
        raise OperandError(f"expected Operands, got {type(ops).__name__}")
    n = ops.n
    if n < 1:
        raise EmptyOperand("comparator needs at least one bit")
    if len(ops.b_bits) != n:
        raise InvalidBitstring(f"operand widths differ: {n} and {len(ops.b_bits)}")
    other = sorted(_non_bits(ops.a_bits) | _non_bits(ops.b_bits))
    if other:
        raise InvalidBitstring(f"operand bits must be 0 or 1, got {', '.join(other)}")


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
    Every index is an integer >= 0 (see ``_is_int``).
    """
    indices = (qa, qb, qr0, qr1, c0, c1)
    if not all(_is_int(i) and i >= 0 for i in indices):
        raise CircuitError(f"block indices must be integers >= 0, got {indices}")
    _check_condition(condition)
    if len({qa, qb, qr0, qr1}) != 4:
        raise DuplicateTarget(f"block qubits must be distinct: {(qa, qb, qr0, qr1)}")
    return _block_gates(qa, qb, qr0, qr1, condition) + [MeasureOp(qr0, c0), MeasureOp(qr1, c1)]


def _block_gates(qa: int, qb: int, qr0: int, qr1: int,
                 condition: ClassicalCondition | None) -> list[Instruction]:
    """The six gates of :func:`build_1bc`, for four distinct qubits."""
    gate = GateOp._trusted  # the qubits are distinct, so each gate fits its kind
    xa, xb = gate(_X, (qa,), condition), gate(_X, (qb,), condition)
    return [xb, gate(_CCX, (qa, qb, qr0), condition), xa,
            xb, gate(_CCX, (qa, qb, qr1), condition), xa]


def _correction_sites(n: int, variant: BuilderVariant) -> set[int]:
    """Loop indices i (1..n-1) after whose block a flip-r0 site is placed."""
    if variant is BuilderVariant.FIGURE:
        return {i for i in range(1, n) if i % 2 == 1}
    if variant is BuilderVariant.ALGORITHMIC:
        return set(range(1, n))
    raise OperandError(f"builder variant must be a BuilderVariant, got {variant!r}")


def build_gqbsc(ops: Operands, variant: BuilderVariant = BuilderVariant.FIGURE) -> Circuit:
    """Full comparator circuit on 2n+2 qubits and 2 clbits.

    Input-prep X gates set the operand bits that are 1; the block chain and
    correction sites follow. Built for zero operands the circuit is the
    value-independent body, which is what the census reporting uses.
    Indices are in range by construction, so the list skips the check;
    equal instructions are one shared object, which runners compile once.
    """
    _check_operands(ops)
    n = ops.n
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
        instructions.append(begin)
        instructions += _block_gates(i, n + i, qr0, qr1, None if i == 0 else skip_unless_open)
        instructions += meters  # every block ends with these two measurements
        instructions.append(end)
        if i in sites:
            instructions += correction
    return Circuit._trusted(2 * n + 2, 2, instructions, labels=labels)


def _body(n: int, variant: BuilderVariant) -> Circuit:
    """The value-independent body at width n; an over-cap width raises before
    the zero operands are made."""
    n = _check_width(n)
    return build_gqbsc(Operands((0,) * n, (0,) * n), variant)


def interpret(r0: int, r1: int) -> ComparisonClass:
    """Flag reading: r1 set means less; r0 alone means greater; neither, equal."""
    if r1:
        return ComparisonClass.LESS
    if r0:
        return ComparisonClass.GREATER
    return ComparisonClass.EQUAL


def reference_flags(ops: Operands, variant: BuilderVariant = BuilderVariant.FIGURE) -> tuple[int, int]:
    """Classical oracle for the final (r0, r1) flags: one lane of :func:`_reference_flag_lanes`."""
    _check_operands(ops)
    r0, r1 = _reference_flag_lanes(ops.a_bits, ops.b_bits, 1, variant)
    return int(r0), int(r1)  # Python ints, also for numpy-int bits


def compare(a, b, variant: BuilderVariant = BuilderVariant.FIGURE) -> ComparisonOutcome:
    """Encode, build, run, and interpret in one call.

    Builds the value-independent body once and runs it once, classically,
    with the operand bits as the initial qubits; the outcome carries both.
    """
    ops = encode_operands(a, b)
    body = _body(ops.n, variant)
    runner = ClassicalRunner(body)
    run = runner.run(ops.initial_qubit_bits())
    r0, r1 = run.classical_bits[:2]
    return ComparisonOutcome(r0, r1, interpret(r0, r1), runner.backend, variant, ops.n, body, run)


# -- verification sweeps -------------------------------------------------------

def _lane_mask(flags) -> int:
    """Boolean array as a lane int: element l becomes bit l."""
    import numpy as np
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _reference_flag_lanes(a_lanes: list[int], b_lanes: list[int], full: int,
                          variant: BuilderVariant) -> tuple[int, int]:
    """The (r0, r1) flags of every lane (bit l of each int is lane l).

    Mirrors the circuit exactly: a block fires only while both flags are
    clear; a correction site flips r0 when the flags read (0, 1).
    """
    sites = _correction_sites(len(a_lanes), variant)
    r0 = r1 = 0
    for i, (a_i, b_i) in enumerate(zip(a_lanes, b_lanes, strict=True)):
        still_open = full & ~(r0 | r1)
        r0 |= still_open & a_i & ~b_i
        r1 |= still_open & ~a_i & b_i
        if i in sites:
            r0 |= r1  # a (0, 1) reading becomes (1, 1)
    return r0, r1


def _transpose(values, n: int) -> list[int]:
    """Lane ints of n-bit Python ints, MSB first: bit l of entry i is bit
    n-1-i of values[l]. The values go in as big-endian byte rows."""
    import numpy as np
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(v.to_bytes(width, "big") for v in values),
                         np.uint8).reshape(-1, width)
    bits = np.unpackbits(rows, axis=1)[:, 8 * width - n:]
    packed = np.packbits(bits, axis=0, bitorder="little")  # column i: entry i's lanes
    stride, flat = packed.shape[0], packed.T.tobytes()
    return [int.from_bytes(flat[i:i + stride], "little") for i in range(0, n * stride, stride)]


def _index_bit_lanes(start: int, lanes: int, k: int) -> int:
    """Lane int of bit k of the indices start .. start + lanes - 1 (lane l
    holds index start + l): runs of 2^k zeros then 2^k ones, entered
    ``start mod 2^(k+1)`` bits in. No int much wider than ``lanes`` bits."""
    half, full = 1 << k, (1 << lanes) - 1
    if half >= lanes:  # the bit flips at most once, after ``before`` lanes
        before = (1 << min(half - start % half, lanes)) - 1
        return before if start & half else full ^ before
    pattern, width, offset = ((1 << half) - 1) << half, 2 * half, start % (2 * half)
    while width < offset + lanes:
        pattern |= pattern << width
        width *= 2
    return pattern >> offset & full


def _chunk_mismatches(runner: ClassicalRunner, a_lanes: list[int], b_lanes: list[int],
                      less, greater, variant: BuilderVariant) -> int:
    """Run one chunk of operand pairs, given as lane ints (MSB first), and
    count the lanes failing either oracle.

    ``less`` and ``greater`` flag a < b and a > b per lane, from integer
    comparison of the operand values.
    """
    lanes = len(less)
    r0, r1 = runner._run_lanes(a_lanes + b_lanes + [0, 0], lanes)[1]  # a fresh list
    ref0, ref1 = _reference_flag_lanes(a_lanes, b_lanes, (1 << lanes) - 1, variant)
    class_bad = (r1 ^ _lane_mask(less)) | ((r0 & ~r1) ^ _lane_mask(greater))  # interpret()
    flags_bad = (r0 ^ ref0) | (r1 ^ ref1)
    return (class_bad | flags_bad).bit_count()


def soundness_check_exhaustive(n: int,
                               variant: BuilderVariant = BuilderVariant.FIGURE) -> tuple[int, int]:
    """All 4^n operand pairs at width n against the integer-comparison and
    flag oracles; returns (pairs checked, mismatches).

    The pairs go in chunks of at most ``MAX_LANES`` lanes, lane a*2^n + b
    holding the pair (a, b), and each chunk is one bit-sliced classical pass.
    A chunk's operand lane ints are index-bit patterns (:func:`_index_bit_lanes`:
    a's column i is index bit 2n-1-i, b's is bit n-1-i); its integer oracle
    compares the halves of an index array.
    """
    import numpy as np
    n = _check_width(n)
    runner = ClassicalRunner(_body(n, variant))
    total = 1 << 2 * n
    lanes = min(total, MAX_LANES)
    dtype = np.min_scalar_type(total - 1)  # the narrowest array keeps the sweep's peak memory low
    mismatches = 0
    for start in range(0, total, lanes):
        columns = [_index_bit_lanes(start, lanes, k) for k in range(2 * n - 1, -1, -1)]
        index = np.arange(start, start + lanes, dtype=dtype)
        a, b = index >> n, index & ((1 << n) - 1)
        mismatches += _chunk_mismatches(runner, columns[:n], columns[n:], a < b, a > b, variant)
    return total, mismatches


def _random_pairs(n: int, samples: int, seed: int):
    """Seeded operand pairs at width n: the same draws on every call.

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
                           variant: BuilderVariant = BuilderVariant.FIGURE) -> tuple[int, int]:
    """Seeded operand pairs at width n (see :func:`_random_pairs`); returns
    (pairs, mismatches).

    They go in bit-sliced chunks of at most ``MAX_LANES`` lanes, as in
    :func:`soundness_check_exhaustive`. ``samples`` is an integer >= 0 and
    ``seed`` an integer, numpy's too (as :func:`_is_int`).
    """
    if not _is_int(samples) or samples < 0:
        raise SimulationArgumentError(f"samples must be an integer >= 0, got {samples!r}")
    if not _is_int(seed):
        raise SimulationArgumentError(f"seed must be an integer, got {seed!r}")
    samples, seed, n = operator.index(samples), operator.index(seed), _check_width(n)
    runner = ClassicalRunner(_body(n, variant))
    drawn = _random_pairs(n, samples, seed)
    mismatches = 0
    for _ in range(0, samples, MAX_LANES):
        pairs = list(itertools.islice(drawn, MAX_LANES))
        a, b = zip(*pairs)
        mismatches += _chunk_mismatches(runner, _transpose(a, n), _transpose(b, n),
                                        [x < y for x, y in pairs], [x > y for x, y in pairs],
                                        variant)
    return samples, mismatches
