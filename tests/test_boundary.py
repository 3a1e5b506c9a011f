"""The one error boundary: every callable ``qbsc`` exports, called with a
malformed argument, raises a ``QbscError`` subclass.

A row may name a reason from ``ALLOWED`` instead; it may then raise that
reason's exception. Every other row must raise a ``QbscError``, and the seed
and label rows name no reason.
"""

import numpy as np
import pytest

import qbsc
from qbsc import (BarrierOp, BuilderVariant, Case, Circuit, ClassicalCondition, GateKind, GateOp,
                  Histogram, MeasureOp, Method, NoiseModel, Operands)
from qbsc.errors import QbscError

# Each exception a row may raise instead of a QbscError, and why.
ALLOWED = {
    "arity": (TypeError, "Python's own arity check: a record that only holds results checks no"
              " field, and interpret reads its two flags by truth value, so a wrong argument"
              " count is the one malformed call"),
    "enum value": (ValueError, "an Enum called with a value it lacks raises Python's ValueError;"
                   " names reach the library through checked paths (Method.from_name, the"
                   " CLI's choices)"),
    "type alias": (TypeError, "Instruction is a typing.Union, which nothing instantiates"),
}

BODY = qbsc.build_gqbsc(qbsc.encode_operands(1, 0))
OPS = Operands((1,), (0,))

# (export, id, call, reason from ALLOWED or None)
ROWS = [
    ("BarrierOp", "int label", lambda: BarrierOp(5), None),
    ("BarrierOp", "padded label", lambda: BarrierOp(" 1bc"), None),
    ("BuilderVariant", "unknown", lambda: BuilderVariant("nope"), "enum value"),
    ("Case", "unknown", lambda: Case("nope"), "enum value"),
    ("Circuit", "negative width", lambda: Circuit(-1, 0), None),
    ("Circuit", "float width", lambda: Circuit(2.5, 0), None),
    ("Circuit", "junk instruction", lambda: Circuit(1, 0, ["junk"]), None),
    ("Circuit", "measure of str qubit", lambda: Circuit(1, 1, [MeasureOp("a", 0)]), None),
    ("Circuit", "labels not a dict", lambda: Circuit(2, 0, labels=5), None),
    ("Circuit", "labels qubit out of range", lambda: Circuit(2, 0, labels={9: "x"}), None),
    ("Circuit", "labels name not a str", lambda: Circuit(2, 0, labels={0: 3}), None),
    ("Circuit", "labels bool qubit", lambda: Circuit(2, 0, labels={True: "a"}), None),
    ("ClassicalCondition", "value too wide", lambda: ClassicalCondition((0,), 4), None),
    ("ClassicalCondition", "mask descending", lambda: ClassicalCondition((1, 0), 0), None),
    ("ComparisonClass", "unknown", lambda: qbsc.ComparisonClass("nope"), "enum value"),
    ("ComparisonOutcome", "no fields", lambda: qbsc.ComparisonOutcome(), "arity"),
    ("GateCensus", "too many fields", lambda: qbsc.GateCensus(*range(12)), "arity"),
    ("GateKind", "unknown", lambda: GateKind("h"), "enum value"),
    ("GateOp", "unknown kind", lambda: GateOp("h", (0,)), None),
    ("GateOp", "repeated qubit", lambda: GateOp(GateKind.CX, (0, 0)), None),
    ("GateOp", "condition not a condition", lambda: GateOp(GateKind.X, (0,), 5), None),
    ("Histogram", "no shots", lambda: Histogram(0, {}), None),
    ("Histogram", "float count", lambda: Histogram(2, {0: 1.5}), None),
    ("Instruction", "instantiated", lambda: qbsc.Instruction(), "type alias"),
    ("MeasuredResources", "no fields", lambda: qbsc.MeasuredResources(), "arity"),
    ("MeasureOp", "no fields", lambda: MeasureOp(), "arity"),
    ("Method", "unknown", lambda: Method("nope"), "enum value"),
    ("Method", "unknown name", lambda: Method.from_name("nope"), None),
    ("NoiseModel", "p above 1", lambda: NoiseModel(2, 0), None),
    ("NoiseModel", "str p", lambda: NoiseModel("a", 0), None),
    ("Operands", "no fields", lambda: Operands(), "arity"),
    ("ResourceEstimate", "no fields", lambda: qbsc.ResourceEstimate(), "arity"),
    ("RunResult", "no fields", lambda: qbsc.RunResult(), "arity"),
    ("build_1bc", "repeated qubit", lambda: qbsc.build_1bc(0, 0, 1, 2, 0, 1), None),
    ("build_1bc", "negative index", lambda: qbsc.build_1bc(-1, 1, 2, 3, 0, 1), None),
    ("build_gqbsc", "no bits", lambda: qbsc.build_gqbsc(Operands((), ())), None),
    ("build_gqbsc", "bit 2", lambda: qbsc.build_gqbsc(Operands((2,), (0,))), None),
    ("build_gqbsc", "variant str", lambda: qbsc.build_gqbsc(OPS, "figure"), None),
    ("build_gqbsc", "None", lambda: qbsc.build_gqbsc(None), None),
    ("circuit_from_json", "empty", lambda: qbsc.circuit_from_json({}), None),
    ("circuit_from_json", "None", lambda: qbsc.circuit_from_json(None), None),
    ("circuit_from_json", "labels qubit out of range", lambda: qbsc.circuit_from_json(
        {"qubits": 1, "clbits": 0, "instr": [], "labels": {"9": "x"}}), None),
    ("circuit_to_json", "None", lambda: qbsc.circuit_to_json(None), None),
    ("compare", "digit 2", lambda: qbsc.compare("2", 1), None),
    ("compare", "variant str", lambda: qbsc.compare(1, 0, "figure"), None),
    ("encode_operands", "negative", lambda: qbsc.encode_operands(-1, 0), None),
    ("encode_operands", "float", lambda: qbsc.encode_operands(1.5, 0), None),
    ("encode_operands", "empty", lambda: qbsc.encode_operands("", "1"), None),
    ("export_qasm", "None", lambda: qbsc.export_qasm(None), None),
    ("formula_report", "width 0", lambda: qbsc.formula_report("Wang", 0), None),
    ("formula_report", "unknown method", lambda: qbsc.formula_report("Nope", 3), None),
    ("formula_report", "case str", lambda: qbsc.formula_report("Proposed", 3, "equal"), None),
    ("gate_growth", "float width", lambda: qbsc.gate_growth([0.5]), None),
    ("gate_growth", "variant str", lambda: qbsc.gate_growth([3], "figure"), None),
    ("interpret", "no flags", lambda: qbsc.interpret(), "arity"),
    ("lower_circuit", "None", lambda: qbsc.lower_circuit(None), None),
    ("lower_circuit", "instruction list", lambda: qbsc.lower_circuit(BODY.instructions), None),
    ("measured_report", "None", lambda: qbsc.measured_report(None), None),
    ("measured_report", "inputs int", lambda: qbsc.measured_report(BODY, 5), None),
    ("measured_report", "run int", lambda: qbsc.measured_report(BODY, run=5), None),
    ("measured_report", "run str", lambda: qbsc.measured_report(BODY, run="run"), None),
    ("parse_qasm", "garbage", lambda: qbsc.parse_qasm("garbage"), None),
    ("parse_qasm", "None", lambda: qbsc.parse_qasm(None), None),
    ("parse_qasm", "bytes", lambda: qbsc.parse_qasm(b"OPENQASM 3.0;\n"), None),
    ("reference_flags", "bit 2", lambda: qbsc.reference_flags(Operands((2,), (0,))), None),
    ("reference_flags", "None", lambda: qbsc.reference_flags(None), None),
    ("reference_flags", "tuple pair", lambda: qbsc.reference_flags(((1,), (0,))), None),
    ("run_classical", "bit 2", lambda: qbsc.run_classical(BODY, "2" * 4), None),
    ("run_classical", "short bits", lambda: qbsc.run_classical(BODY, (1, 0)), None),
    ("run_classical", "superposing circuit", lambda: qbsc.run_classical(
        Circuit(2, 0).cv(0, 1)), None),
    ("run_dense", "seed -1", lambda: qbsc.run_dense(BODY, seed=-1), None),
    ("run_dense", "seed str", lambda: qbsc.run_dense(BODY, seed="x"), None),
    ("run_dense", "seed float", lambda: qbsc.run_dense(BODY, seed=1.5), None),
    ("run_dense", "noise tuple", lambda: qbsc.run_dense(BODY, seed=1, noise=(0.1, 0.1)), None),
    ("sample", "seed -1", lambda: qbsc.sample(BODY, seed=-1), None),
    ("sample", "seed str", lambda: qbsc.sample(BODY, seed="x"), None),
    ("sample", "seed float", lambda: qbsc.sample(BODY, seed=1.5), None),
    ("sample", "seed bool", lambda: qbsc.sample(BODY, seed=np.True_), None),
    ("sample", "zero shots", lambda: qbsc.sample(BODY, shots=0), None),
    ("sample", "None", lambda: qbsc.sample(None), None),
    ("static_census", "None", lambda: qbsc.static_census(None), None),
    ("structural_depth", "None", lambda: qbsc.structural_depth(None), None),
    ("sweep", "unknown metric", lambda: qbsc.sweep(None, [1], "bogus"), None),
    ("sweep", "no widths", lambda: qbsc.sweep(None, [], "cost"), None),
    ("unitary_of", "name str", lambda: qbsc.unitary_of("x"), None),
]


def test_every_exported_callable_has_a_row():
    callables = {name for name in qbsc.__all__ if callable(getattr(qbsc, name))}
    assert callables == {row[0] for row in ROWS}


def test_seed_and_label_rows_name_no_reason():
    rows = [row for row in ROWS if "seed" in row[1] or "labels" in row[1]]
    assert len(rows) == 12
    assert all(reason is None for *_, reason in rows)


@pytest.mark.parametrize("call, reason", [row[2:] for row in ROWS],
                         ids=[f"{name}-{what}" for name, what, *_ in ROWS])
def test_malformed_call_raises_a_qbsc_error(call, reason):
    allowed = (QbscError,) + ((ALLOWED[reason][0],) if reason else ())
    with pytest.raises(allowed) as raised:
        call()
    if reason == "arity":  # Python's own, not a check that raised TypeError
        assert "argument" in str(raised.value)
