"""Resource models: closed-form cost/delay/ancilla formulas and measured census.

Seven comparator designs are modelled. Methods 1-6 are published designs
carried as formulas only (their circuits are out of scope); method 7 is the
chained two-flag comparator this package builds, whose cost and delay split
into an equal-operands case and an unequal case that pays the correction
sites.

    method      ancilla    cost               delay
    ---------   --------   ----------------   -------------------------
    Wang        2n         n^2                n^2
    AlRabadi    6n+1       39n+9              24n+9
    Thapliyal   4n-3       18n+9              round(18*log10(2n)+7)
    Vudadha     4n-2       14n                round(5*log10(2n)+12)
    Oliveira    3n-1       99(n-1)+12         20n-1
    Xia         1          28n                31n+2
    Proposed    2          14n | 14n+ceil((n-1)/2)    4n | 4n+ceil((n-1)/2)

Log-based delays round half up; the half-integer unequal-case values take the
ceiling. Two known deviations exist between these closed forms and the
comparative reference plots they are checked against: the Oliveira ancilla
series plots 3n+1 (the table form 3n-1 is kept), and the Oliveira delay point
at n=2 plots 29 where the formula gives 39. ``sweep_notes`` surfaces both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .circuit import Circuit, GateCensus, _is_int, static_census, structural_depth
from .comparator import BuilderVariant, Operands, _body
from .errors import ResourceArgumentError, UnknownMethod
from .simulate import ClassicalRunner, RunResult


class Method(Enum):
    WANG = "Wang"
    AL_RABADI = "AlRabadi"
    THAPLIYAL = "Thapliyal"
    VUDADHA = "Vudadha"
    OLIVEIRA = "Oliveira"
    XIA = "Xia"
    PROPOSED = "Proposed"

    @classmethod
    def from_name(cls, name) -> "Method":
        if isinstance(name, cls):
            return name
        for m in cls:
            if m.value.lower() == str(name).lower():
                return m
        raise UnknownMethod(f"unknown method {name!r}")


METHOD_ORDER = list(Method)


class Case(Enum):
    EQUAL = "Equal"
    UNEQUAL = "Unequal"


@dataclass(frozen=True)
class ResourceEstimate:
    method: Method
    n: int
    case: Case | None
    ancilla: int
    cost: int
    delay: int


@dataclass(frozen=True)
class MeasuredResources:
    """Counts taken from an actual built circuit rather than a formula."""

    census: GateCensus
    static_cost: int
    executed_cost: int | None
    structural_delay: int
    qubits: int
    width_total: int

    @property
    def ancilla(self) -> int:
        """Working qubits beyond the two operand registers (comparator
        circuits only: one block per operand bit, so 2 blocks' worth of
        operand qubits plus the two flag qubits make up the width)."""
        return self.qubits - 2 * self.census.block_count_1bc


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _correction_term(n: int) -> int:
    return math.ceil((n - 1) / 2)


def _check_arguments(n_values, case=None) -> None:
    """Refuse a width that is not an integer and a ``case`` neither None nor a Case."""
    for n in n_values:
        if not _is_int(n):
            raise ResourceArgumentError(f"width must be an integer, got {n!r}")
    if case is not None and not isinstance(case, Case):
        raise ResourceArgumentError(f"case must be a Case or None, got {case!r}")


def formula_report(method, n: int, case: Case | None = None) -> ResourceEstimate:
    """Evaluate one method's closed forms at width n.

    ``case`` (a :class:`Case` or None) only matters for the Proposed method:
    None defaults to the unequal, worst-case path; the other methods ignore it.
    """
    method = Method.from_name(method)
    _check_arguments([n], case)
    if n < 1:
        raise ResourceArgumentError(f"width must be >= 1, got {n}")
    if method is Method.WANG:
        return ResourceEstimate(method, n, None, 2 * n, n * n, n * n)
    if method is Method.AL_RABADI:
        return ResourceEstimate(method, n, None, 6 * n + 1, 39 * n + 9, 24 * n + 9)
    if method is Method.THAPLIYAL:
        delay = _round_half_up(18 * math.log10(2 * n) + 7)
        return ResourceEstimate(method, n, None, 4 * n - 3, 18 * n + 9, delay)
    if method is Method.VUDADHA:
        delay = _round_half_up(5 * math.log10(2 * n) + 12)
        return ResourceEstimate(method, n, None, 4 * n - 2, 14 * n, delay)
    if method is Method.OLIVEIRA:
        return ResourceEstimate(method, n, None, 3 * n - 1, 99 * (n - 1) + 12, 20 * n - 1)
    if method is Method.XIA:
        return ResourceEstimate(method, n, None, 1, 28 * n, 31 * n + 2)
    if case is None:
        case = Case.UNEQUAL
    extra = 0 if case is Case.EQUAL else _correction_term(n)
    return ResourceEstimate(method, n, case, 2, 14 * n + extra, 4 * n + extra)


def measured_report(circuit: Circuit, inputs: Operands | None = None,
                    run: RunResult | None = None) -> MeasuredResources:
    """Census, static cost, structural delay, and (with inputs) executed cost.

    ``executed_cost`` runs the classical backend with the operand bits as the
    initial qubit assignment and sums unit costs over the gates that fired.
    Pass the value-independent body (zero-operand build) together with
    ``inputs``; a circuit that already embeds input-prep X gates would apply
    them on top of the initial bits and cancel the encoding. A ``run`` of
    ``circuit`` already at hand (``compare(...).run``) is used instead of
    running it again.
    """
    census = static_census(circuit)
    if run is None and inputs is not None:
        run = ClassicalRunner(circuit).run(inputs.initial_qubit_bits())
    executed_cost = None if run is None else run.executed_census.total_unit_cost
    return MeasuredResources(
        census=census,
        static_cost=census.total_unit_cost,
        executed_cost=executed_cost,
        structural_delay=structural_depth(circuit),
        qubits=circuit.num_qubits,
        width_total=circuit.width_total,
    )


@dataclass(frozen=True)
class SweepRow:
    method: str
    n: int
    case: str
    metric: str
    value: int


def sweep(methods: Iterable | None, n_values: Sequence[int], metric: str,
          case: Case | None = None) -> list[SweepRow]:
    """Formula values as flat rows, ordered by method then n.

    For the Proposed method with ``case=None`` both cases are emitted; other
    methods carry "-" in the case column.
    """
    if metric not in ("ancilla", "cost", "delay"):
        raise ResourceArgumentError(f"unknown metric {metric!r}")
    if not n_values:
        raise ResourceArgumentError("no widths given")
    _check_arguments(n_values, case)
    chosen = [Method.from_name(m) for m in methods] if methods else list(METHOD_ORDER)
    chosen.sort(key=METHOD_ORDER.index)
    rows: list[SweepRow] = []
    for method in chosen:
        for n in sorted(set(n_values)):
            # ancilla never depends on the case; only Proposed's cost/delay do
            cases = [None]
            if method is Method.PROPOSED and metric != "ancilla":
                cases = [case] if case is not None else list(Case)
            for c in cases:
                rows.append(SweepRow(method.value, n, "-" if c is None else c.value, metric,
                                     getattr(formula_report(method, n, c), metric)))
    return rows


def sweep_notes(rows: Sequence[SweepRow]) -> list[str]:
    """Known closed-form vs reference-plot deviations present in these rows."""
    notes = []
    if any(r.method == Method.OLIVEIRA.value and r.metric == "ancilla" for r in rows):
        notes.append(
            "note: Oliveira ancilla follows the tabulated 3n-1; the reference"
            " comparison plot shows 3n+1 for the same series"
        )
    if any(r.method == Method.OLIVEIRA.value and r.metric == "delay" and r.n == 2
           for r in rows):
        notes.append(
            "note: Oliveira delay at n=2 follows the formula (39); the reference"
            " comparison plot shows 29 at that point"
        )
    return notes


@dataclass(frozen=True)
class GrowthRow:
    """Gate census of the built comparator body at one width."""

    n: int
    x_gates: int
    ccx_gates: int
    blocks_1bc: int
    block_measures: int
    total_measures: int
    qubits: int
    width: int


def gate_growth(n_values: Sequence[int],
                variant: BuilderVariant = BuilderVariant.FIGURE) -> list[GrowthRow]:
    """Build the value-independent comparator body at each width and count.

    Zero operands carry no input-prep X gates, so the census reflects the
    body only; an over-cap width raises before its body is allocated.
    """
    _check_arguments(n_values)
    rows = []
    for n in sorted(set(n_values)):
        census = static_census(_body(n, variant))
        rows.append(GrowthRow(
            n=n,
            x_gates=census.x,
            ccx_gates=census.ccx,
            blocks_1bc=census.block_count_1bc,
            block_measures=census.block_measure_count,
            total_measures=census.measure_count,
            qubits=census.width_qubits,
            width=census.width_total,
        ))
    return rows
