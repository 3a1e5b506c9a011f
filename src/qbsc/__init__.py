"""Quantum bit-string comparator toolkit.

Builds n-bit comparator circuits that report equal/greater/less through two
flag qubits and mid-circuit measurement with classical feed-forward, executes
them on a dense statevector or a bit-exact classical backend, serializes them
to a textual subset and JSON, and models their cost/delay/ancilla footprint
against six published comparator designs.
"""

from .circuit import (
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateCensus,
    GateKind,
    GateOp,
    Instruction,
    MeasureOp,
    circuit_from_json,
    circuit_to_json,
    static_census,
    structural_depth,
)
from .comparator import (
    BuilderVariant,
    ComparisonClass,
    ComparisonOutcome,
    Operands,
    build_1bc,
    build_gqbsc,
    compare,
    encode_operands,
    interpret,
    reference_flags,
)
from .gates import lower_circuit, unitary_of
from .qasm import export as export_qasm
from .qasm import parse as parse_qasm
from .resources import (
    Case,
    Method,
    MeasuredResources,
    ResourceEstimate,
    formula_report,
    gate_growth,
    measured_report,
    sweep,
)
from .simulate import (
    Histogram,
    NoiseModel,
    RunResult,
    run_classical,
    run_dense,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierOp",
    "BuilderVariant",
    "Case",
    "Circuit",
    "ClassicalCondition",
    "ComparisonClass",
    "ComparisonOutcome",
    "GateCensus",
    "GateKind",
    "GateOp",
    "Histogram",
    "Instruction",
    "MeasuredResources",
    "MeasureOp",
    "Method",
    "NoiseModel",
    "Operands",
    "ResourceEstimate",
    "RunResult",
    "build_1bc",
    "build_gqbsc",
    "circuit_from_json",
    "circuit_to_json",
    "compare",
    "encode_operands",
    "export_qasm",
    "formula_report",
    "gate_growth",
    "interpret",
    "lower_circuit",
    "measured_report",
    "parse_qasm",
    "reference_flags",
    "run_classical",
    "run_dense",
    "sample",
    "static_census",
    "structural_depth",
    "sweep",
    "unitary_of",
]
