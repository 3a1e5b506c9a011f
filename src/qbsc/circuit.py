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

import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    CircuitError,
    DuplicateTarget,
    IndexOutOfRange,
    MissingDelayEntry,
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

    Unit cost and unit delay follow the usual reversible-logic accounting:
    every one- and two-qubit primitive counts 1, a Toffoli counts 5 (its
    standard expansion into two CX, two controlled-V and one controlled-V†).
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

    @property
    def unit_delay(self) -> int:
        return self.unit_cost


_ARITY = {GateKind.X: 1, GateKind.CX: 2, GateKind.CCX: 3, GateKind.CV: 2, GateKind.CVDG: 2}
#: Gate kinds by their serialized names (JSON "g", QASM statement head).
GATE_NAMES: dict[str, GateKind] = {kind.value: kind for kind in GateKind}

#: Default per-kind delay table for structural_depth.
DEFAULT_DELAYS: dict[GateKind, int] = {kind: kind.unit_delay for kind in GateKind}


@dataclass(frozen=True)
class ClassicalCondition:
    """Equality test against a constant over a subset of classical bits.

    ``mask`` lists the participating clbit indices (ascending); bit j of
    ``value`` corresponds to clbit ``mask[j]``.
    """

    mask: tuple[int, ...]
    value: int

    def __post_init__(self):
        object.__setattr__(self, "mask", tuple(self.mask))
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


# Sets a field of a frozen instance for GateOp._trusted. Writing through the
# instance's ``__dict__`` instead would give each gate a dict of its own (65
# bytes more per gate on CPython 3.11).
_setattr = object.__setattr__


@dataclass(frozen=True)
class GateOp:
    gate: GateKind
    targets: tuple[int, ...]
    condition: ClassicalCondition | None = None

    def __post_init__(self):
        targets = self.targets
        if type(targets) is not tuple:
            targets = tuple(targets)
            object.__setattr__(self, "targets", targets)
        arity = _ARITY.get(self.gate)
        if arity != len(targets):
            if arity is None:
                raise CircuitError(f"not a gate kind: {self.gate!r}")
            raise ArityMismatch(
                f"{self.gate.value} takes {arity} qubits, got {len(targets)}"
            )
        if arity > 1 and len(set(targets)) != arity:
            raise DuplicateTarget(f"repeated qubit in {self.gate.value}{targets}")

    @classmethod
    def _trusted(cls, gate: GateKind, targets: tuple[int, ...],
                 condition: ClassicalCondition | None = None) -> "GateOp":
        """A gate whose ``targets`` tuple fits ``gate`` by construction (the
        builders' and the lowering's), skipping :meth:`__post_init__`."""
        op = object.__new__(cls)
        _setattr(op, "gate", gate)
        _setattr(op, "targets", targets)
        _setattr(op, "condition", condition)
        return op


@dataclass(frozen=True)
class MeasureOp:
    """Z-measurement of ``qubit`` recorded into ``clbit``. Never conditioned."""

    qubit: int
    clbit: int


@dataclass(frozen=True)
class BarrierOp:
    label: str | None = None


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


def _check_int(value, what: str, size: int | None = None) -> None:
    """Slow path of the width and index checks: ``value`` must be an integer
    (numpy's too, but not a bool) and, given ``size``, lie in [0, size)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise CircuitError(f"{what} must be an integer, got {value!r}") from None
    if size is not None and not 0 <= value < size:
        raise IndexOutOfRange(f"{what} {value} outside [0, {size})")


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

    def is_permutation_only(self) -> bool:
        """True when every gate is classical (X/CX/CCX), i.e. basis-preserving."""
        census = static_census(self)
        return census.cv == census.cvdg == 0


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
    def total_unit_cost(self) -> int:
        """Sum of unit costs over all gates (measures/barriers cost nothing)."""
        return sum(getattr(self, kind.value) * kind.unit_cost for kind in GateKind)

    def __add__(self, other: "GateCensus") -> "GateCensus":
        if (self.width_qubits, self.width_total) != (other.width_qubits, other.width_total):
            raise CircuitError("cannot add censuses of different widths")
        return replace(self, **{f.name: getattr(self, f.name) + getattr(other, f.name)
                                for f in fields(self) if not f.name.startswith("width")})


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


def structural_depth(circuit: Circuit,
                     delay_table: Mapping[GateKind, int] | None = None,
                     *, measure_delay: int = 0) -> int:
    """Critical-path length under as-soon-as-possible layering.

    An instruction starts once every qubit it touches is free; a conditioned
    instruction additionally waits for the measurements that last wrote its
    condition bits. Barriers are census markers only and do not schedule.
    """
    if delay_table is None:
        delay_table = DEFAULT_DELAYS
    qubit_free = [0] * circuit.num_qubits
    clbit_written = [0] * circuit.num_clbits
    depth = 0
    for instr in circuit.instructions:
        if isinstance(instr, BarrierOp):
            continue
        if isinstance(instr, MeasureOp):
            start = qubit_free[instr.qubit]
            end = start + measure_delay
            qubit_free[instr.qubit] = end
            clbit_written[instr.clbit] = end
        else:
            if instr.gate not in delay_table:
                raise MissingDelayEntry(f"no delay entry for {instr.gate.value}")
            start = max(qubit_free[q] for q in instr.targets)
            if instr.condition is not None:
                for b in instr.condition.mask:
                    start = max(start, clbit_written[b])
            end = start + delay_table[instr.gate]
            for q in instr.targets:
                qubit_free[q] = end
        depth = max(depth, end)
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
            entry: dict = {"g": op.gate.value, "t": list(op.targets)}
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


def circuit_from_json(doc: dict) -> Circuit:
    """Inverse of :func:`circuit_to_json`; a malformed document raises
    :class:`CircuitError`.

    Gates sharing one condition share one :class:`ClassicalCondition`.
    """
    try:
        circuit = Circuit(doc["qubits"], doc["clbits"])
        if "labels" in doc:
            circuit.labels = _labels_from_json(doc["labels"], circuit.num_qubits)
        # Keyed with the value types too: 1.0 and True hash like 1, and a
        # cached condition must not let a rejected form through.
        conditions: dict[tuple, ClassicalCondition] = {}
        append = circuit.append
        for entry in doc["instr"]:
            if "g" in entry:
                kind = GATE_NAMES.get(entry["g"])
                if kind is None:
                    raise CircuitError(f"unknown gate {entry['g']!r}")
                condition = None
                if "if" in entry:
                    mask, eq = tuple(entry["if"]["mask"]), entry["if"]["eq"]
                    key = (mask, eq, tuple(map(type, mask)), type(eq))
                    condition = conditions.get(key)
                    if condition is None:
                        condition = conditions[key] = ClassicalCondition(mask, eq)
                append(GateOp(kind, tuple(entry["t"]), condition))
            elif "m" in entry:
                qubit, clbit = entry["m"]
                append(MeasureOp(qubit, clbit))
            elif "b" in entry:
                append(BarrierOp(entry["b"]))
            else:
                raise CircuitError(f"unrecognized instruction entry: {entry!r}")
    except QbscError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CircuitError(f"malformed circuit JSON ({type(exc).__name__}: {exc})") from exc
    return circuit
