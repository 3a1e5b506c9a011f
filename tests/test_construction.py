"""Trusted construction and the one-walk compile: the builders make their
gates with the unchecked ``GateOp._trusted`` and hand whole instruction lists
to the unchecked ``Circuit._trusted``, so these tests re-check their output
through the validating path, and check the runners' compile walk against the
public census and permutation checks. Also the register width cap at every
front end, the soundness sweeps' backend names, and the lane transpose."""

import random
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import comparator, qasm
from qbsc.circuit import (
    BLOCK_BEGIN,
    BLOCK_END,
    MAX_WIDTH,
    BarrierOp,
    Circuit,
    GateKind,
    GateOp,
    circuit_from_json,
    circuit_to_json,
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
)
from qbsc.gates import decompose_ccx, lower_circuit
from qbsc.simulate import ClassicalRunner, DenseRunner, _compile

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
        assert permutation_only == c.is_permutation_only()
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

    @pytest.mark.parametrize("max_bits", [(MAX_WIDTH - 2) // 2 + 1, 10**12])
    def test_verify_max_bits(self, max_bits, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a circuit before checking --max-bits")

        monkeypatch.setattr("qbsc.cli.soundness_check_exhaustive", refuse)
        monkeypatch.setattr("qbsc.cli.soundness_check_random", refuse)
        result = CliRunner().invoke(main, ["verify", "--max-bits", str(max_bits)])
        assert result.exit_code == EXIT_BAD_INPUT
        assert "cap" in result.output


class TestSweepBackends:
    SWEEPS = [
        lambda backend: comparator.soundness_check_exhaustive(3, backend=backend),
        lambda backend: comparator.soundness_check_random(20, 30, 5, backend=backend),
    ]

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_unknown_backend_raises(self, sweep, monkeypatch):
        monkeypatch.setattr(comparator, "DenseRunner", None)  # nothing may run
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            sweep("bogus")

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_auto_resolves_to_classical(self, sweep, monkeypatch):
        expected = sweep("classical")
        monkeypatch.setattr(comparator, "DenseRunner", None)
        assert sweep("auto") == expected
        assert expected[1] == 0


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
    @pytest.mark.parametrize("dtype", [np.uint64, None])
    def test_index_arrays_match_string_transpose(self, n, dtype):
        """The exhaustive sweep's operands: halves of a run of pair indices
        (uint64, or the narrowest type the sweep uses), at the first, a
        middle and the last chunk."""
        lanes = min(1 << 2 * n, 256)
        dtype = dtype or np.min_scalar_type((1 << 2 * n) - 1)
        for start in (0, (1 << 2 * n) // 3 // lanes * lanes, (1 << 2 * n) - lanes):
            index = np.arange(start, start + lanes, dtype=dtype)
            for values in (index >> n, index & ((1 << n) - 1)):
                assert (comparator._transpose(values, n)
                        == transpose_reference(values.tolist(), n))


class TestExhaustiveLaneOrder:
    @pytest.mark.parametrize("n, max_lanes", [(1, 1 << 16), (2, 1 << 16), (3, 16), (4, 64)])
    def test_lane_l_of_chunk_c_holds_pair_c_lanes_plus_l(self, monkeypatch, n, max_lanes):
        """Lane a*2^n + b holds the pair (a, b), chunk after chunk."""
        chunks = []
        flag_lanes = comparator._flag_lanes

        def recording(runner, qubits, lanes):
            chunks.append((qubits, lanes))
            return flag_lanes(runner, qubits, lanes)

        monkeypatch.setattr(comparator, "_flag_lanes", recording)
        monkeypatch.setattr(comparator, "MAX_LANES", max_lanes)
        assert comparator.soundness_check_exhaustive(n) == (1 << 2 * n, 0)
        pairs = []
        for qubits, lanes in chunks:
            for lane in range(lanes):
                bits = [q >> lane & 1 for q in qubits]
                pairs.append((int("".join(map(str, bits[:n])), 2),
                              int("".join(map(str, bits[n:2 * n])), 2), bits[2 * n:]))
        assert pairs == [(a, b, [0, 0]) for a in range(1 << n) for b in range(1 << n)]
