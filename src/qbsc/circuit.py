"""Dynamic-circuit intermediate representation.

The IR is an ordered list of instructions over declared qubit and classical-bit
registers. Three instruction forms exist:

    - GateOp:    a gate from the fixed kind set, optionally guarded by a
                 classical equality condition,
    - MeasureOp: an unconditional Z-measurement of one qubit into one clbit,
    - BarrierOp: a zero-cost, zero-delay marker used only to delimit named
                 regions for census reporting (no scheduling effect).

Conventions fixed here and asserted by the test suite:
    - clbit 0 is the least-significant bit of the classical register value,
      so a condition value of 2 on a 2-bit register means (bit1=1, bit0=0);
    - instruction order is execution order; nothing is reordered;
    - circuits are treated as immutable once construction finishes (builders
      mutate their own circuit, nothing else should).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    CircuitError,
    DuplicateTarget,
    IndexOutOfRange,
    QbscError,
)

# Barrier labels the comparator builder uses to bracket one-bit-compare blocks.
BLOCK_BEGIN = "1bc"
BLOCK_END = "1bc_end"

#: Widest qubit or clbit register a circuit may declare. Every front end (the
#: constructor, both parsers, the CLI) refuses a wider one before it allocates
#: per-qubit state; the n-bit comparator fits up to n = 2^19 - 1.
MAX_WIDTH = 1 << 20


class GateKind(Enum):
    """The five gate identities the toolkit knows about.

    Unit cost follows the usual reversible-logic accounting, and is also each
    gate's delay in :func:`structural_depth`: every one- and two-qubit
    primitive counts 1, a Toffoli counts 5 (its standard expansion into two
    CX, two controlled-V and one controlled-V†).
    """

    X = "x"
    CX = "cx"
    CCX = "ccx"
    CV = "cv"
    CVDG = "cvdg"

    # Members are singletons, so identity hashing is exact; Enum's own hash
    # is a Python-level call on every lookup in a kind-keyed table.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return _ARITY[self]

    @property
    def unit_cost(self) -> int:
        return 5 if self is GateKind.CCX else 1


_ARITY = {GateKind.X: 1, GateKind.CX: 2, GateKind.CCX: 3, GateKind.CV: 2, GateKind.CVDG: 2}
# structural_depth reads a gate's delay per instruction; a dict read beats the property.
_DELAY = {kind: kind.unit_cost for kind in GateKind}
#: Gate kinds by their serialized names (JSON "g", QASM statement head), and
#: the names by kind (a dict read; the Enum's ``.value`` is a Python call).
GATE_NAMES: dict[str, GateKind] = {kind.value: kind for kind in GateKind}
KIND_NAMES: dict[GateKind, str] = {kind: name for name, kind in GATE_NAMES.items()}


@dataclass(frozen=True)
class ClassicalCondition:
    """Equality test against a constant over a subset of classical bits.

    ``mask`` lists the participating clbit indices (ascending); bit j of
    ``value`` corresponds to clbit ``mask[j]``.
    """

    mask: tuple[int, ...]
    value: int

    def __post_init__(self):
        object.__setattr__(self, "mask", _index_tuple(self.mask, "condition mask"))
        for b in self.mask + (self.value,):  # typed here; append only range-checks
            if type(b) is not int:
                _check_int(b, "condition clbit or value")
        if len(set(self.mask)) != len(self.mask):
            raise DuplicateTarget(f"condition mask repeats a clbit: {self.mask}")
        if any(b < 0 for b in self.mask):
            raise IndexOutOfRange(f"negative clbit in condition mask: {self.mask}")
        if tuple(sorted(self.mask)) != self.mask:
            raise CircuitError(f"condition mask must be ascending: {self.mask}")
        if not 0 <= self.value < (1 << len(self.mask)):
            raise IndexOutOfRange(
                f"condition value {self.value} needs more than {len(self.mask)} masked bits"
            )

    def holds(self, clbits: Sequence[int]) -> bool:
        if self.mask and self.mask[-1] >= len(clbits):
            raise IndexOutOfRange(
                f"condition reads clbit {self.mask[-1]} of a {len(clbits)}-bit register"
            )
        value = 0
        for j, b in enumerate(self.mask):
            value |= clbits[b] << j
        return value == self.value


@dataclass(frozen=True, slots=True)
class GateOp:
    gate: GateKind
    targets: tuple[int, ...]
    condition: ClassicalCondition | None = None

    def __post_init__(self):
        targets = self.targets
        if type(targets) is not tuple:
            targets = _index_tuple(targets, "gate targets")
            object.__setattr__(self, "targets", targets)
        _check_condition(self.condition)
        arity = _ARITY.get(self.gate) if isinstance(self.gate, GateKind) else None
        if arity != len(targets):
            if arity is None:
                raise CircuitError(f"not a gate kind: {self.gate!r}")
            raise ArityMismatch(
                f"{self.gate.value} takes {arity} qubits, got {len(targets)}"
            )
        try:
            repeated = arity > 1 and len(set(targets)) != arity
        except TypeError:  # an unhashable target
            raise CircuitError(f"gate targets must be integers, got {targets!r}") from None
        if repeated:
            raise DuplicateTarget(f"repeated qubit in {self.gate.value}{targets}")

    @classmethod
    def _trusted(cls, gate: GateKind, targets: tuple[int, ...],
                 condition: ClassicalCondition | None = None) -> "GateOp":
        """A gate whose ``targets`` tuple fits ``gate`` by construction (the
        builders' and the lowering's), skipping :meth:`__post_init__`."""
        op = object.__new__(cls)
        _set_gate(op, gate)
        _set_targets(op, targets)
        _set_condition(op, condition)
        return op


# GateOp._trusted's writers: the slots' own descriptors, which a frozen
# instance's ``__setattr__`` does not guard.
_set_gate, _set_targets, _set_condition = (
    GateOp.gate.__set__, GateOp.targets.__set__, GateOp.condition.__set__)


@dataclass(frozen=True)
class MeasureOp:
    """Z-measurement of ``qubit`` recorded into ``clbit``. Never conditioned."""

    qubit: int
    clbit: int


@dataclass(frozen=True)
class BarrierOp:
    """``label`` is None or a non-empty one-line string without edge
    whitespace, which QASM's ``// barrier <label>`` comment carries intact."""

    label: str | None = None

    def __post_init__(self):
        label = self.label
        if label is not None and (not isinstance(label, str) or not label
                                  or label != label.strip() or "\n" in label):
            raise CircuitError(f"barrier label must be None or a non-empty one-line"
                               f" string without edge whitespace, got {label!r}")


Instruction = Union[GateOp, MeasureOp, BarrierOp]


def _check_instruction(instr, nq: int, nc: int) -> None:
    """Raise unless ``instr`` fits ``nq`` qubits and ``nc`` clbits.

    Indices must be integers (numpy's too) in range; condition clbits were
    type-checked, and the mask checked ascending, when the condition was made.
    """
    if isinstance(instr, GateOp):
        for q in instr.targets:
            if type(q) is not int or not 0 <= q < nq:
                _check_int(q, "qubit", nq)
        mask = instr.condition.mask if instr.condition is not None else ()
        if mask and mask[-1] >= nc:  # ascending and non-negative by construction
            b = next(b for b in mask if b >= nc)
            raise IndexOutOfRange(f"clbit {b} outside [0, {nc})")
    elif isinstance(instr, MeasureOp):
        if type(instr.qubit) is not int or not 0 <= instr.qubit < nq:
            _check_int(instr.qubit, "qubit", nq)
        if type(instr.clbit) is not int or not 0 <= instr.clbit < nc:
            _check_int(instr.clbit, "clbit", nc)
    elif not isinstance(instr, BarrierOp):
        raise CircuitError(f"not an instruction: {instr!r}")


def _check_cap(num_qubits: int, num_clbits: int) -> None:
    """Refuse register widths over :data:`MAX_WIDTH`."""
    if num_qubits > MAX_WIDTH or num_clbits > MAX_WIDTH:
        raise CircuitError(f"register widths {num_qubits}, {num_clbits}"
                           f" exceed the cap of {MAX_WIDTH}")


def _check_condition(condition) -> None:
    """Refuse a gate condition that is neither None nor a ClassicalCondition."""
    if condition is not None and not isinstance(condition, ClassicalCondition):
        raise CircuitError(f"condition must be a ClassicalCondition or None, got {condition!r}")


def _index_tuple(indices, what: str) -> tuple:
    """``indices`` as a tuple; a non-iterable raises :class:`CircuitError`."""
    try:
        return tuple(indices)
    except TypeError:
        raise CircuitError(f"{what} must be a sequence of integers, got {indices!r}") from None


def _is_int(x) -> bool:
    """An integer, Python's or numpy's, but not a bool (nor numpy's)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(value, what: str, size: int | None = None) -> None:
    """Slow path of the width and index checks: ``value`` must be an integer
    (see :func:`_is_int`) and, given ``size``, lie in [0, size)."""
    if not _is_int(value):
        raise CircuitError(f"{what} must be an integer, got {value!r}")
    if size is not None and not 0 <= value < size:
        raise IndexOutOfRange(f"{what} {value} outside [0, {size})")


def _non_bits(bits: Sequence) -> set[str]:
    """The reprs of the entries of ``bits`` other than the integers
    (:func:`_is_int`) 0 and 1; empty when every entry is a bit."""
    # a set merges 1.0 and True into 1, so types go first
    distinct = set(bits) if set(map(type, bits)) == {int} else bits
    return {repr(x) for x in distinct if not _is_int(x) or x not in (0, 1)}


@dataclass(eq=True)
class Circuit:
    """Ordered dynamic circuit over ``num_qubits`` qubits and ``num_clbits`` bits.

    ``labels`` optionally names qubits for display/serialization; it does not
    participate in structural equality.
    """

    num_qubits: int
    num_clbits: int
    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[int, str] | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_int(self.num_qubits, "qubit width")
        _check_int(self.num_clbits, "clbit width")
        if self.num_qubits < 0 or self.num_clbits < 0:
            raise CircuitError("register widths must be non-negative")
        _check_cap(self.num_qubits, self.num_clbits)
        for instr in self.instructions:
            _check_instruction(instr, self.num_qubits, self.num_clbits)

    @classmethod
    def _trusted(cls, num_qubits: int, num_clbits: int, instructions: list[Instruction],
                 labels: dict[int, str] | None = None) -> "Circuit":
        """A circuit over ``instructions`` that are valid by construction (the
        builders' and the parser's), skipping the per-instruction check."""
        circuit = cls(num_qubits, num_clbits, labels=labels)
        circuit.instructions = instructions
        return circuit

    # -- construction --------------------------------------------------------

    def append(self, instr: Instruction) -> "Circuit":
        """Validate ``instr`` against the declared widths and append it."""
        _check_instruction(instr, self.num_qubits, self.num_clbits)
        self.instructions.append(instr)
        return self

    def x(self, q: int, condition: ClassicalCondition | None = None) -> "Circuit":
        return self.append(GateOp(GateKind.X, (q,), condition))

    def cx(self, c: int, t: int, condition: ClassicalCondition | None = None) -> "Circuit":
        return self.append(GateOp(GateKind.CX, (c, t), condition))

    def ccx(self, c1: int, c2: int, t: int,
            condition: ClassicalCondition | None = None) -> "Circuit":
        return self.append(GateOp(GateKind.CCX, (c1, c2, t), condition))

    def cv(self, c: int, t: int, condition: ClassicalCondition | None = None) -> "Circuit":
        return self.append(GateOp(GateKind.CV, (c, t), condition))

    def cvdg(self, c: int, t: int, condition: ClassicalCondition | None = None) -> "Circuit":
        return self.append(GateOp(GateKind.CVDG, (c, t), condition))

    def measure(self, q: int, c: int) -> "Circuit":
        return self.append(MeasureOp(q, c))

    def barrier(self, label: str | None = None) -> "Circuit":
        return self.append(BarrierOp(label))

    # -- queries --------------------------------------------------------------

    @property
    def width_total(self) -> int:
        return self.num_qubits + self.num_clbits


def new_circuit(num_qubits: int, num_clbits: int) -> Circuit:
    """Empty circuit with fixed register widths."""
    return Circuit(num_qubits, num_clbits)


@dataclass(frozen=True)
class GateCensus:
    """Static instruction counts plus register widths.

    ``measure_count`` counts every measurement in the IR; ``block_measure_count``
    counts only the measurements lying inside a ``1bc``-labelled barrier span
    (the per-block meters, which is what the gate-growth reporting tracks).
    Span attribution assumes begin/end barriers are balanced, as builder
    outputs guarantee; every other field is additive over any concatenation.
    """

    x: int = 0
    cx: int = 0
    ccx: int = 0
    cv: int = 0
    cvdg: int = 0
    measure_count: int = 0
    block_measure_count: int = 0
    conditional_x_count: int = 0
    block_count_1bc: int = 0
    width_qubits: int = 0
    width_total: int = 0

    @property
    def permutation_only(self) -> bool:
        """True when no gate is CV/CV-dagger, the only ones that superpose."""
        return self.cv == self.cvdg == 0

    @property
    def total_unit_cost(self) -> int:
        """Sum of unit costs over all gates (measures/barriers cost nothing)."""
        return sum(getattr(self, kind.value) * kind.unit_cost for kind in GateKind)


def static_census(circuit: Circuit) -> GateCensus:
    """Count every instruction present in the IR, fired or not."""
    return census_walk(circuit)[0]


def census_walk(circuit: Circuit, compile_instr=None) -> tuple[GateCensus, list]:
    """The one walk over the instructions: the static census and, given
    ``compile_instr``, its results for the gates and measurements in order.
    It runs once per distinct object (builders share equal frozen ones),
    looked up by ``id`` within this call."""
    counts = {kind: 0 for kind in GateKind}
    measures = block_measures = cond_x = blocks = 0
    in_block = False
    prog: list = []
    compiled: dict = {}
    x = GateKind.X  # an Enum member lookup costs a call; hoisted out of the loop
    for instr in circuit.instructions:
        if isinstance(instr, GateOp):
            kind = instr.gate
            counts[kind] += 1
            if kind is x and instr.condition is not None:
                cond_x += 1
        elif isinstance(instr, MeasureOp):
            measures += 1
            if in_block:
                block_measures += 1
        else:
            if instr.label == BLOCK_BEGIN:
                blocks += 1
                in_block = True
            elif instr.label == BLOCK_END:
                in_block = False
            continue
        if compile_instr is not None:
            op = compiled.get(id(instr))
            if op is None:
                op = compiled[id(instr)] = compile_instr(instr)
            prog.append(op)
    census = GateCensus(
        **{kind.value: count for kind, count in counts.items()},
        measure_count=measures,
        block_measure_count=block_measures,
        conditional_x_count=cond_x,
        block_count_1bc=blocks,
        width_qubits=circuit.num_qubits,
        width_total=circuit.width_total,
    )
    return census, prog


def structural_depth(circuit: Circuit) -> int:
    """Critical-path length under as-soon-as-possible layering.

    A gate takes its unit cost (a Toffoli 5, every other gate 1) and a
    measurement takes 0. An instruction starts once every qubit it touches is
    free; a conditioned instruction additionally waits for the measurements
    that last wrote its condition bits. Barriers are census markers only and
    do not schedule.
    """
    qubit_free = [0] * circuit.num_qubits
    clbit_written = [0] * circuit.num_clbits
    depth = 0
    for instr in circuit.instructions:
        if isinstance(instr, GateOp):
            qubits = instr.targets
            start = qubit_free[qubits[0]]
            for q in qubits:
                if qubit_free[q] > start:
                    start = qubit_free[q]
            if instr.condition is not None:
                for b in instr.condition.mask:
                    if clbit_written[b] > start:
                        start = clbit_written[b]
            end = start + _DELAY[instr.gate]
            for q in qubits:
                qubit_free[q] = end
            if end > depth:
                depth = end
        elif isinstance(instr, MeasureOp):  # it takes 0, so it ends once its qubit is free
            clbit_written[instr.clbit] = qubit_free[instr.qubit]
    return depth


# -- JSON interchange ---------------------------------------------------------
#
# Schema (used by the CLI's json output):
#   {"qubits": N, "clbits": M,
#    "instr": [{"g": "ccx", "t": [0, 1, 2]},
#              {"m": [2, 0]},
#              {"g": "x", "t": [2], "if": {"mask": [0, 1], "eq": 2}},
#              {"b": "1bc"}]}
# The optional "labels" key maps qubit indices (as strings) to display names.

def circuit_to_json(circuit: Circuit) -> dict:
    instr: list[dict] = []
    for op in circuit.instructions:
        if isinstance(op, GateOp):
            entry: dict = {"g": KIND_NAMES[op.gate], "t": list(op.targets)}
            if op.condition is not None:
                entry["if"] = {"mask": list(op.condition.mask), "eq": op.condition.value}
            instr.append(entry)
        elif isinstance(op, MeasureOp):
            instr.append({"m": [op.qubit, op.clbit]})
        else:
            instr.append({"b": op.label})
    doc = {"qubits": circuit.num_qubits, "clbits": circuit.num_clbits, "instr": instr}
    if circuit.labels:
        doc["labels"] = {str(q): name for q, name in sorted(circuit.labels.items())}
    return doc


def _labels_from_json(labels: dict, num_qubits: int) -> dict[int, str]:
    """Qubit labels keyed by index: a key must be an integer (or its decimal
    string) in [0, num_qubits), a name a string."""
    out = {}
    for key, name in labels.items():
        q = int(key) if isinstance(key, str) else key
        _check_int(q, "label qubit", num_qubits)
        if not isinstance(name, str):
            raise CircuitError(f"label of qubit {q} must be a string, got {name!r}")
        out[q] = name
    return out


# A gate entry's table key reads an absent "if" as this condition; the key's
# flag for "if" keeps the two apart.
_UNCONDITIONED = {"mask": [], "eq": 0}


def circuit_from_json(doc: dict) -> Circuit:
    """Inverse of :func:`circuit_to_json`; a malformed document raises
    :class:`CircuitError`.

    Equal entries of exact ints (not bools, floats or numpy integers) load as
    one shared instruction, made and checked once. Gates sharing one
    condition share one :class:`ClassicalCondition`.
    """
    try:
        circuit = Circuit(doc["qubits"], doc["clbits"])
        if "labels" in doc:
            circuit.labels = _labels_from_json(doc["labels"], circuit.num_qubits)
        nq, nc, instructions = circuit.num_qubits, circuit.num_clbits, circuit.instructions
        made: dict = {}  # key of exact ints -> the instruction made for it
        # Keyed with the value types too unless they are exact ints: 1.0 and
        # True hash like 1, and must not find a condition made from an int.
        conditions: dict[tuple, ClassicalCondition] = {}
        for entry in doc["instr"]:
            key = None  # else: name, has "if", target count, targets, mask, eq
            if type(entry) is dict:
                if "g" in entry:
                    values, cond = entry.get("t"), entry.get("if", _UNCONDITIONED)
                    if (type(values) is list and type(entry["g"]) is str
                            and type(cond) is dict and type(cond.get("mask")) is list):
                        key = (entry["g"], "if" in entry, len(values), *values,
                               *cond["mask"], cond.get("eq"))
                        values = key[3:]
                elif "m" in entry:
                    values = entry["m"]
                    key = tuple(values) if type(values) is list else None
                elif "b" in entry and (entry["b"] is None or type(entry["b"]) is str):
                    key, values = ("b", entry["b"]), ()
                if key is not None:
                    for v in values:
                        if type(v) is not int:
                            key = None
                            break
            instr = made.get(key)
            if instr is None:
                if "g" in entry:
                    kind = GATE_NAMES.get(entry["g"])
                    if kind is None:
                        raise CircuitError(f"unknown gate {entry['g']!r}")
                    condition = None
                    if "if" in entry:
                        mask, eq = tuple(entry["if"]["mask"]), entry["if"]["eq"]
                        ckey = (mask, eq) if key else (mask, eq, tuple(map(type, mask)), type(eq))
                        condition = conditions.get(ckey)
                        if condition is None:
                            condition = conditions[ckey] = ClassicalCondition(mask, eq)
                    instr = GateOp(kind, tuple(entry["t"]), condition)
                elif "m" in entry:
                    qubit, clbit = entry["m"]
                    instr = MeasureOp(qubit, clbit)
                elif "b" in entry:
                    instr = BarrierOp(entry["b"])
                else:
                    raise CircuitError(f"unrecognized instruction entry: {entry!r}")
                _check_instruction(instr, nq, nc)
                if key is not None:
                    made[key] = instr
            instructions.append(instr)
    except QbscError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CircuitError(f"malformed circuit JSON ({type(exc).__name__}: {exc})") from exc
    return circuit
