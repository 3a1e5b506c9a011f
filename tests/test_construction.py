"""Trusted construction and the one-walk compile: the builders make their
gates with the unchecked ``GateOp._trusted`` and hand whole instruction lists
to the unchecked ``Circuit._trusted``, so these tests re-check their output
through the validating path, and check the runners' compile walk against the
public census and permutation checks. Also the register width cap at every
front end, the one integer rule at every integer argument, the soundness
sweeps' backend names, the lane transpose and the exhaustive sweep's
closed-form lane ints, and what the builder and the sweep allocate."""

import random
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import comparator, qasm, resources
from qbsc.circuit import (
    BLOCK_BEGIN,
    BLOCK_END,
    MAX_WIDTH,
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateKind,
    GateOp,
    MeasureOp,
    circuit_from_json,
    circuit_to_json,
    new_circuit,
    static_census,
)
from qbsc.cli import EXIT_BAD_INPUT, main
from qbsc.comparator import BuilderVariant, Operands, build_gqbsc
from qbsc.errors import (
    CircuitError,
    DuplicateTarget,
    InvalidBitstring,
    NonClassicalGate,
    QasmSyntaxError,
    ResourceArgumentError,
    SimulationArgumentError,
)
from qbsc.gates import decompose_ccx, lower_circuit
from qbsc.simulate import ClassicalRunner, DenseRunner, Histogram, _compile, sample

from _oracles import (
    append_built_gqbsc,
    append_lowered,
    reference_census,
    transpose_reference,
)
from test_circuit import circuit_strategy

WIDTHS = tuple(range(1, 65)) + (1000,)


def _revalidated(circuit: Circuit) -> Circuit:
    """``circuit`` rebuilt through the validating path: each gate made anew
    (arity and distinct targets) and appended (index ranges)."""
    fresh = Circuit(circuit.num_qubits, circuit.num_clbits)
    for instr in circuit.instructions:
        if isinstance(instr, GateOp):
            instr = GateOp(instr.gate, instr.targets, instr.condition)
        fresh.append(instr)
    return fresh


class TestTrustedConstruction:
    @pytest.mark.parametrize("variant", list(BuilderVariant))
    @pytest.mark.parametrize("operands", ["zero", "random"])
    def test_builder_and_lowering_are_valid_ir(self, variant, operands):
        rng = random.Random(f"{variant.value}/{operands}")
        algorithmic = variant is BuilderVariant.ALGORITHMIC
        for n in WIDTHS:
            if operands == "zero":
                a_bits = b_bits = (0,) * n
            else:
                a_bits = tuple(rng.getrandbits(1) for _ in range(n))
                b_bits = tuple(rng.getrandbits(1) for _ in range(n))
            built = build_gqbsc(Operands(a_bits, b_bits), variant)
            reference = append_built_gqbsc(a_bits, b_bits, algorithmic)
            assert circuit_to_json(built) == circuit_to_json(reference), n
            lowered = lower_circuit(built)
            assert circuit_to_json(lowered) == circuit_to_json(append_lowered(reference)), n
            for c in (built, lowered):
                assert _revalidated(c) == c

    def test_equal_instructions_are_shared(self):
        body = build_gqbsc(Operands((0,) * 6, (0,) * 6), BuilderVariant.ALGORITHMIC)
        distinct = {id(i) for i in body.instructions}
        # per block: X(a), X(b), two CCX; once: two barriers, two
        # measurements, the correction X
        assert len(distinct) == 4 * 6 + 5
        assert len({id(i) for i in lower_circuit(body).instructions}) == 4 * 6 + 5 + 3 * 12

    def test_builders_and_lowering_make_gates_unchecked(self, monkeypatch):
        rng = random.Random(7)
        cases = []
        for variant in BuilderVariant:
            for n in (1, 2, 7, 64):
                a_bits = tuple(rng.getrandbits(1) for _ in range(n))
                b_bits = tuple(rng.getrandbits(1) for _ in range(n))
                reference = append_built_gqbsc(a_bits, b_bits,
                                               variant is BuilderVariant.ALGORITHMIC)
                cases.append((Operands(a_bits, b_bits), variant, reference,
                              append_lowered(reference)))
        checked = []
        post_init = GateOp.__post_init__

        def counting(op):
            checked.append(op)
            post_init(op)

        monkeypatch.setattr(GateOp, "__post_init__", counting)
        for ops, variant, reference, lowered_reference in cases:
            built = build_gqbsc(ops, variant)
            lowered = lower_circuit(built)
            assert not checked, (ops.n, variant)
            assert circuit_to_json(built) == circuit_to_json(reference)
            assert circuit_to_json(lowered) == circuit_to_json(lowered_reference)
        block = comparator.build_1bc(0, 1, 2, 3, 0, 1)
        assert decompose_ccx(block[1]) and not checked
        with pytest.raises(DuplicateTarget):  # the public constructor still checks
            GateOp(GateKind.CX, (0, 0))
        assert len(checked) == 1

    def test_unequal_operand_widths_are_refused(self):
        with pytest.raises(InvalidBitstring):
            build_gqbsc(Operands((0, 1), (1,)))
        with pytest.raises(InvalidBitstring):
            build_gqbsc(Operands((0,), (1, 1, 1, 1)))


@st.composite
def shared_instruction_circuits(draw):
    """A random circuit whose instruction objects recur, block barriers
    included; half the time lowered."""
    base = draw(circuit_strategy())
    pool = base.instructions + [BarrierOp(BLOCK_BEGIN), BarrierOp(BLOCK_END)]
    order = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    c = Circuit(base.num_qubits, base.num_clbits, [pool[i] for i in order])
    return lower_circuit(c) if draw(st.booleans()) else c


class TestCompileWalk:
    @settings(max_examples=150, deadline=None)
    @given(shared_instruction_circuits())
    def test_walk_matches_public_checks(self, c):
        prog, census = _compile(c)
        assert census == static_census(c) == reference_census(c)
        permutation_only = not (census.cv or census.cvdg)
        assert permutation_only == census.permutation_only
        ops = [i for i in c.instructions if not isinstance(i, BarrierOp)]
        assert len(prog) == len(ops)
        for instr, op in zip(ops, prog):
            if isinstance(instr, GateOp):
                assert op[5] == instr.targets
            # a recurring object compiles once: its op tuple is shared
            assert op is prog[next(k for k, o in enumerate(ops) if o is instr)]
        if permutation_only:
            bits = [random.Random(len(prog)).getrandbits(1) for _ in range(c.num_qubits)]
            assert ClassicalRunner(c).run(bits) == DenseRunner(c).run(bits)
        else:
            first = next(i.gate for i in c.instructions
                         if isinstance(i, GateOp) and i.gate in (GateKind.CV, GateKind.CVDG))
            with pytest.raises(NonClassicalGate) as info:
                ClassicalRunner(c)
            assert str(info.value) == f"{first.value} is not a classical permutation gate"


class TestWidthCap:
    def test_constructor(self):
        Circuit(MAX_WIDTH, MAX_WIDTH)
        for widths in ((MAX_WIDTH + 1, 0), (0, MAX_WIDTH + 1), (10**11, 2)):
            with pytest.raises(CircuitError, match="cap"):
                Circuit(*widths)

    @pytest.mark.parametrize("text", [
        "OPENQASM 3.0;\nqubit[99999999999] q;\nx q[0];\n",
        "OPENQASM 3.0;\nqubit[2] q;\nbit[99999999999] cr;\nif (cr == 1) {\nx q[0];\n}\n",
        f"OPENQASM 3.0;\nqubit[{MAX_WIDTH + 1}] q;\n",
    ])
    def test_qasm_declaration(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(QasmSyntaxError, match="cap"):
                qasm.parse(text)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("doc", [
        {"qubits": 10**11, "clbits": 2, "instr": []},
        {"qubits": 2, "clbits": 10**11, "instr": [{"m": [0, 5]}]},
    ])
    def test_json_document(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError, match="cap"):
                circuit_from_json(doc)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    OVER_CAP = (MAX_WIDTH - 2) // 2 + 1  # 2n + 2 qubits, two more than the cap

    @pytest.mark.parametrize("entry", [
        lambda zeros, digits: build_gqbsc(Operands(zeros, zeros)),
        lambda zeros, digits: comparator.compare(digits, "0"),
        lambda zeros, digits: comparator.compare(int(digits, 2), 1),
        lambda zeros, digits: comparator.soundness_check_random(len(digits), 1),
        lambda zeros, digits: comparator.soundness_check_exhaustive(len(digits)),
    ])
    def test_comparator_refused_before_it_is_built(self, entry):
        zeros, digits = (0,) * self.OVER_CAP, "1" * self.OVER_CAP
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError) as err:
                entry(zeros, digits)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert str(err.value) == (f"register widths {2 * self.OVER_CAP + 2}, 2"
                                  f" exceed the cap of {MAX_WIDTH}")

    def test_census_refused_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(CircuitError, match="cap"):
                resources.gate_growth([self.OVER_CAP])
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("max_bits", [(MAX_WIDTH - 2) // 2 + 1, 10**12])
    def test_verify_max_bits(self, max_bits, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a circuit before checking --max-bits")

        monkeypatch.setattr("qbsc.cli.soundness_check_exhaustive", refuse)
        monkeypatch.setattr("qbsc.cli.soundness_check_random", refuse)
        result = CliRunner().invoke(main, ["verify", "--max-bits", str(max_bits)])
        assert result.exit_code == EXIT_BAD_INPUT
        assert result.stdout == ""
        # the one width rule, worded as census and the comparator entries word it
        assert result.stderr.splitlines() == [f"error: register widths {2 * max_bits + 2}, 2"
                                              f" exceed the cap of {MAX_WIDTH}"]


class TestOneIntegerRule:
    """Every integer argument takes Python's and numpy's integers and refuses
    anything else, bools of either kind included, with a toolkit error."""

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: resources.formula_report("Wang", 2.5),
                     ResourceArgumentError, id="formula_report-float"),
        pytest.param(lambda: resources.formula_report("Wang", True),
                     ResourceArgumentError, id="formula_report-bool"),
        pytest.param(lambda: resources.formula_report("Wang", np.True_),
                     ResourceArgumentError, id="formula_report-np.True_"),
        pytest.param(lambda: resources.formula_report("Wang", "3"),
                     ResourceArgumentError, id="formula_report-str"),
        pytest.param(lambda: resources.sweep(None, [2.5], "cost"),
                     ResourceArgumentError, id="sweep-float"),
        pytest.param(lambda: resources.sweep(None, [2, "3"], "cost"),
                     ResourceArgumentError, id="sweep-str-before-sorting"),
        pytest.param(lambda: resources.sweep(None, [False], "cost"),
                     ResourceArgumentError, id="sweep-bool"),
        pytest.param(lambda: resources.formula_report("Proposed", 1, case="x"),
                     ResourceArgumentError, id="formula_report-case-str"),
        pytest.param(lambda: resources.sweep(None, [1], "cost", "x"),
                     ResourceArgumentError, id="sweep-case-str"),
        pytest.param(lambda: resources.gate_growth(["3"]),
                     ResourceArgumentError, id="gate_growth-str"),
        pytest.param(lambda: resources.gate_growth([2, 2.0]),
                     ResourceArgumentError, id="gate_growth-float"),
        pytest.param(lambda: resources.gate_growth([np.True_]),
                     ResourceArgumentError, id="gate_growth-np.True_"),
        pytest.param(lambda: Circuit(np.True_, 0), CircuitError, id="circuit-width-np.True_"),
        pytest.param(lambda: new_circuit(2, 0).x(np.True_),
                     CircuitError, id="appended-target-np.True_"),
        pytest.param(lambda: circuit_from_json({"qubits": 2, "clbits": 0,
                                                "instr": [{"g": "x", "t": [np.True_]}]}),
                     CircuitError, id="json-target-np.True_"),
        pytest.param(lambda: Histogram(np.True_, {0: 1}),
                     SimulationArgumentError, id="histogram-shots-np.True_"),
        pytest.param(lambda: sample(new_circuit(1, 1), shots=np.True_),
                     SimulationArgumentError, id="sample-shots-np.True_"),
        pytest.param(lambda: comparator.encode_operands(np.True_, 1),
                     InvalidBitstring, id="operand-np.True_"),
    ])
    def test_non_integer_refused(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("integer", [np.int64, np.uint8, np.int32])
    def test_numpy_integers_accepted(self, integer):
        encode = comparator.encode_operands
        assert encode(integer(5), integer(3)) == encode(5, 3)
        assert resources.formula_report("Wang", integer(3)) == resources.formula_report("Wang", 3)
        assert resources.sweep(None, [integer(2)], "cost") == resources.sweep(None, [2], "cost")
        assert resources.gate_growth([integer(2)]) == resources.gate_growth([2])


class TestTranspose:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 1000])
    @pytest.mark.parametrize("lanes", [1, 3, 100])
    def test_matches_string_transpose(self, n, lanes):
        rng = random.Random(n * 1000 + lanes)
        values = [rng.getrandbits(n) for _ in range(lanes)]
        values[0] = (1 << n) - 1
        values[-1] = 0 if lanes > 1 else values[-1]
        assert comparator._transpose(values, n) == transpose_reference(values, n)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16])
    def test_index_arrays_match_string_transpose(self, n):
        """The exhaustive sweep's closed-form operand lane ints (a's column i
        is index bit 2n-1-i, b's is bit n-1-i) against the halves of a run of
        pair indices, at the first, a middle and the last chunk."""
        lanes = min(1 << 2 * n, 256)
        for start in (0, (1 << 2 * n) // 3 // lanes * lanes, (1 << 2 * n) - lanes):
            index = range(start, start + lanes)
            columns = [comparator._index_bit_lanes(start, lanes, k)
                       for k in range(2 * n - 1, -1, -1)]
            assert columns[:n] == transpose_reference([i >> n for i in index], n)
            assert columns[n:] == transpose_reference([i & ((1 << n) - 1) for i in index], n)

    def test_index_bit_lanes_match_brute_force(self):
        """Any start (aligned or not) and any lane count, 2^k below, at and
        above it: lane l holds bit k of start + l."""
        rng = random.Random(21)
        cases = [(rng.randrange(1 << 20), rng.randint(1, 300), rng.randrange(22))
                 for _ in range(2000)]
        cases += [(start, lanes, k) for start in (0, 256, 255, 1000) for lanes in (1, 64, 255, 256)
                  for k in range(11)]
        for start, lanes, k in cases:
            want = sum(((start + lane) >> k & 1) << lane for lane in range(lanes))
            assert comparator._index_bit_lanes(start, lanes, k) == want, (start, lanes, k)


class TestNoThrowawayWork:
    def test_exhaustive_sweep_peak_memory(self):
        """No lanes x bits matrix per chunk: 2^20 pairs at n=10 in 16 chunks
        peak under 2 MB."""
        tracemalloc.start()
        try:
            assert comparator.soundness_check_exhaustive(10) == (1 << 20, 0)
            assert tracemalloc.get_traced_memory()[1] < 2 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("variant", list(BuilderVariant))
    def test_builder_makes_two_measurements(self, monkeypatch, n, variant):
        made = []
        measure_op = comparator.MeasureOp

        def counting(*args):
            made.append(args)
            return measure_op(*args)

        monkeypatch.setattr(comparator, "MeasureOp", counting)
        body = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
        assert sorted(made) == [(2 * n, 0), (2 * n + 1, 1)]
        assert sum(isinstance(i, MeasureOp) for i in body.instructions) == 2 * n + len(
            comparator._correction_sites(n, variant))

    @pytest.mark.parametrize("qa, qb, qr0, qr1, c0, c1, condition", [
        (0, 1, 2, 3, 0, 1, None),
        (5, 2, 0, 7, 1, 0, None),
        (3, 9, 20, 21, 0, 1, ClassicalCondition((0, 1), 0)),
        (1, 0, 3, 2, 1, 1, ClassicalCondition((1,), 1)),
    ])
    def test_one_bit_block_is_unchanged(self, qa, qb, qr0, qr1, c0, c1, condition):
        xa, xb = GateOp(GateKind.X, (qa,), condition), GateOp(GateKind.X, (qb,), condition)
        assert comparator.build_1bc(qa, qb, qr0, qr1, c0, c1, condition) == [
            xb, GateOp(GateKind.CCX, (qa, qb, qr0), condition), xa,
            xb, GateOp(GateKind.CCX, (qa, qb, qr1), condition), xa,
            MeasureOp(qr0, c0), MeasureOp(qr1, c1),
        ]
        with pytest.raises(DuplicateTarget):
            comparator.build_1bc(qa, qb, qr0, qa, c0, c1, condition)

    @pytest.mark.parametrize("indices", [
        (0.5, 1, 2, 3, 0, 1),
        (-1, 1, 2, 3, 0, 1),
        ("a", 1, 2, 3, 0, 1),
        (0, 1, 2, True, 0, 1),
        (0, 1, 2, 3, 0.5, 1),
        (0, 1, 2, 3, 0, -1),
    ])
    def test_one_bit_block_refuses_bad_indices(self, indices):
        with pytest.raises(CircuitError, match="integers >= 0"):
            comparator.build_1bc(*indices)

    def test_one_bit_block_refuses_a_condition_of_another_type(self):
        with pytest.raises(CircuitError, match="ClassicalCondition"):
            comparator.build_1bc(0, 1, 2, 3, 0, 1, 5)


class TestExhaustiveLaneOrder:
    @pytest.mark.parametrize("n, max_lanes", [(1, 1 << 16), (2, 1 << 16), (3, 16), (4, 64)])
    def test_lane_l_of_chunk_c_holds_pair_c_lanes_plus_l(self, monkeypatch, n, max_lanes):
        """Lane a*2^n + b holds the pair (a, b), chunk after chunk."""
        chunks = []
        run_lanes = ClassicalRunner._run_lanes

        def recording(runner, qubits, lanes, *args):
            chunks.append((list(qubits), lanes))  # _run_lanes XORs into the list it is given
            return run_lanes(runner, qubits, lanes, *args)

        monkeypatch.setattr(ClassicalRunner, "_run_lanes", recording)
        monkeypatch.setattr(comparator, "MAX_LANES", max_lanes)
        assert comparator.soundness_check_exhaustive(n) == (1 << 2 * n, 0)
        pairs = []
        for qubits, lanes in chunks:
            for lane in range(lanes):
                bits = [q >> lane & 1 for q in qubits]
                pairs.append((int("".join(map(str, bits[:n])), 2),
                              int("".join(map(str, bits[n:2 * n])), 2), bits[2 * n:]))
        assert pairs == [(a, b, [0, 0]) for a in range(1 << n) for b in range(1 << n)]
