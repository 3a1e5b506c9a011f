"""Comparator builder, operand encoding, output interpretation, and the
classical flag oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc.circuit import (
    BLOCK_BEGIN,
    BLOCK_END,
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateKind,
    GateOp,
    MeasureOp,
    static_census,
)
from qbsc.comparator import (
    BuilderVariant,
    ComparisonClass,
    Operands,
    build_1bc,
    build_gqbsc,
    compare,
    encode_operands,
    interpret,
    reference_flags,
    soundness_check_exhaustive,
    soundness_check_random,
)
from qbsc.errors import (DuplicateTarget, EmptyOperand, InvalidBitstring, OperandError,
                         SimulationArgumentError)
from qbsc.gates import lower_circuit
from qbsc.resources import gate_growth
from qbsc.simulate import ClassicalRunner, DenseRunner, run_classical, run_dense

from _oracles import int_compare_class

FIGURE = BuilderVariant.FIGURE
ALGORITHMIC = BuilderVariant.ALGORITHMIC


class TestEncodeOperands:
    def test_ints_pad_to_common_width(self):
        ops = encode_operands(7, 3)
        assert ops.a_bits == (1, 1, 1)
        assert ops.b_bits == (0, 1, 1)
        assert ops.n == 3

    def test_zero_zero_is_one_bit(self):
        ops = encode_operands(0, 0)
        assert ops.a_bits == (0,) and ops.b_bits == (0,) and ops.n == 1

    def test_eleven_bit_pair(self):
        ops = encode_operands(560, 1137)
        assert "".join(map(str, ops.a_bits)) == "01000110000"
        assert "".join(map(str, ops.b_bits)) == "10001110001"
        assert ops.n == 11

    def test_bitstrings_keep_explicit_width(self):
        ops = encode_operands("0011", "01")
        assert ops.a_bits == (0, 0, 1, 1)
        assert ops.b_bits == (0, 0, 0, 1)

    def test_index_zero_is_most_significant(self):
        assert encode_operands(4, 0).a_bits[0] == 1

    def test_invalid_characters(self):
        with pytest.raises(InvalidBitstring):
            encode_operands("012", "000")

    def test_empty_bitstring(self):
        with pytest.raises(EmptyOperand):
            encode_operands("", "1")

    def test_negative_int(self):
        with pytest.raises(InvalidBitstring):
            encode_operands(-1, 0)


class TestOneBitBlock:
    def test_exact_instruction_sequence(self):
        instrs = build_1bc(0, 1, 2, 3, 0, 1)
        assert instrs == [
            GateOp(GateKind.X, (1,)),
            GateOp(GateKind.CCX, (0, 1, 2)),
            GateOp(GateKind.X, (0,)),
            GateOp(GateKind.X, (1,)),
            GateOp(GateKind.CCX, (0, 1, 3)),
            GateOp(GateKind.X, (0,)),
            MeasureOp(2, 0),
            MeasureOp(3, 1),
        ]

    def test_distinct_qubits_required(self):
        with pytest.raises(DuplicateTarget):
            build_1bc(0, 0, 2, 3, 0, 1)

    @pytest.mark.parametrize("a,b,flags", [
        (0, 0, (0, 0)),
        (1, 0, (1, 0)),
        (0, 1, (0, 1)),
        (1, 1, (0, 0)),
    ])
    def test_flag_semantics(self, a, b, flags):
        c = Circuit(4, 2)
        for instr in build_1bc(0, 1, 2, 3, 0, 1):
            c.append(instr)
        assert run_dense(c, (a, b, 0, 0)).classical_bits == flags
        assert run_classical(c, (a, b, 0, 0)).classical_bits == flags

    def test_inputs_restored(self):
        c = Circuit(4, 2)
        for instr in build_1bc(0, 1, 2, 3, 0, 1):
            c.append(instr)
        runner = ClassicalRunner(c)
        for a in (0, 1):
            for b in (0, 1):
                assert runner._run_lanes([a, b, 0, 0], 1)[0][:2] == [a, b]


def block_condition_values(circuit):
    """Condition value of each block's first gate, None when unconditioned."""
    values = []
    it = iter(circuit.instructions)
    for instr in it:
        if isinstance(instr, BarrierOp) and instr.label == BLOCK_BEGIN:
            first_gate = next(it)
            values.append(None if first_gate.condition is None
                          else first_gate.condition.value)
    return values


def site_positions(circuit):
    """1-indexed block numbers after which a conditional flip site appears."""
    positions, block = [], 0
    for instr in circuit.instructions:
        if isinstance(instr, BarrierOp) and instr.label == BLOCK_END:
            block += 1
        elif (isinstance(instr, GateOp) and instr.gate is GateKind.X
              and instr.condition is not None and instr.condition.value == 2):
            positions.append(block)
    return positions


class TestBuilder:
    def test_widths_and_labels(self):
        circuit = build_gqbsc(encode_operands(5, 3))
        assert circuit.num_qubits == 8 and circuit.num_clbits == 2
        assert circuit.labels[0] == "a_0"
        assert circuit.labels[3] == "b_0"
        assert circuit.labels[6] == "r_0" and circuit.labels[7] == "r_1"

    def test_input_prep_matches_set_bits(self):
        circuit = build_gqbsc(encode_operands(2, 3))  # a=10, b=11
        prep = [i.targets[0] for i in circuit.instructions[:3]]
        assert prep == [0, 2, 3]

    def test_first_block_unconditioned_rest_gated_on_zero(self):
        circuit = build_gqbsc(encode_operands("00000", "00000"))
        assert block_condition_values(circuit) == [None, 0, 0, 0, 0]

    def test_figure_sites_after_even_numbered_blocks(self):
        # width 2: one site after block 2; width 5: after blocks 2 and 4
        assert site_positions(build_gqbsc(encode_operands("00", "00"))) == [2]
        assert site_positions(build_gqbsc(encode_operands("00000", "00000"))) == [2, 4]
        assert site_positions(build_gqbsc(encode_operands("0" * 10, "0" * 10))) \
            == [2, 4, 6, 8, 10]

    def test_algorithmic_sites_after_every_block_past_first(self):
        circuit = build_gqbsc(encode_operands("00000", "00000"), ALGORITHMIC)
        assert site_positions(circuit) == [2, 3, 4, 5]

    def test_each_site_remeasures_flag_zero(self):
        circuit = build_gqbsc(encode_operands("000", "000"))
        instrs = circuit.instructions
        for i, instr in enumerate(instrs):
            if (isinstance(instr, GateOp) and instr.condition is not None
                    and instr.condition.value == 2):
                assert instrs[i + 1] == MeasureOp(circuit.num_qubits - 2, 0)

    def test_structure_counts(self):
        for n in (1, 2, 3, 7, 16):
            census = static_census(build_gqbsc(Operands((0,) * n, (0,) * n)))
            assert census.block_count_1bc == n
            assert census.ccx == 2 * n
            assert census.measure_count == 2 * n + n // 2
            assert census.block_measure_count == 2 * n

    def test_width_one_is_single_block_plus_prep(self):
        body = build_gqbsc(Operands((0,), (0,)))
        prep = build_gqbsc(Operands((1,), (0,)))
        assert site_positions(body) == []
        assert prep.instructions[0] == GateOp(GateKind.X, (0,))
        assert prep.instructions[1:] == body.instructions


class TestInterpret:
    @pytest.mark.parametrize("r0,r1,expected", [
        (0, 0, ComparisonClass.EQUAL),
        (1, 0, ComparisonClass.GREATER),
        (0, 1, ComparisonClass.LESS),
        (1, 1, ComparisonClass.LESS),
    ])
    def test_flag_table(self, r0, r1, expected):
        assert interpret(r0, r1) is expected


class TestReferenceFlags:
    def test_greater_at_second_bit(self):
        assert reference_flags(encode_operands("110", "101")) == (1, 0)

    def test_less_then_corrected(self):
        # verdict at the top bit, figure site after block 2 flips the zero flag
        assert reference_flags(encode_operands("011", "111"), FIGURE) == (1, 1)

    def test_equal_never_sets_flags(self):
        for n in (1, 4, 9):
            ops = Operands((1, 0) * (n // 2) + (1,) * (n % 2),
                           (1, 0) * (n // 2) + (1,) * (n % 2))
            assert reference_flags(ops) == (0, 0)

    def test_variants_may_disagree_on_flag_zero_only(self):
        # less-than lands at the last block of three: the figure layout has no
        # later site, the algorithmic one does
        ops = encode_operands("110", "111")
        assert reference_flags(ops, FIGURE) == (0, 1)
        assert reference_flags(ops, ALGORITHMIC) == (1, 1)

    def test_late_less_with_even_width_gets_flipped_in_both(self):
        ops = encode_operands("10", "11")
        assert reference_flags(ops, FIGURE) == (1, 1)
        assert reference_flags(ops, ALGORITHMIC) == (1, 1)

    @pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (1, 1)])
    def test_python_ints_for_numpy_bits(self, a, b):
        flags = reference_flags(Operands((np.int64(a),), (np.int64(b),)))
        assert [type(f) for f in flags] == [int, int]
        outcome = compare(a, b)
        assert flags == (outcome.r0, outcome.r1)

    @pytest.mark.parametrize("ops", [Operands((1, 0), (1,)), Operands((1,), (1, 1))])
    def test_unequal_widths_refused(self, ops):
        with pytest.raises(ValueError):
            reference_flags(ops)

    @staticmethod
    def closed_form(a: int, b: int, n: int, variant: BuilderVariant) -> tuple[int, int]:
        """(a > b, 0) when a >= b; else (c, 1), c set when a correction site
        lies at or after the first differing index k (MSB first)."""
        if a >= b:
            return int(a > b), 0
        k = n - (a ^ b).bit_length()
        if variant is FIGURE:  # sites after every odd index
            return int(k + (k % 2 == 0) <= n - 1), 1
        return int(n >= 2), 1  # a site after every index >= 1

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    def test_every_pair_to_width_6_matches_the_closed_form(self, variant):
        for n in range(1, 7):
            for a in range(1 << n):
                for b in range(1 << n):
                    ops = Operands(tuple(map(int, format(a, f"0{n}b"))),
                                   tuple(map(int, format(b, f"0{n}b"))))
                    assert reference_flags(ops, variant) == self.closed_form(a, b, n, variant)


class TestCompare:
    @pytest.mark.parametrize("a,b,expected", [
        (1500, 1500, ComparisonClass.EQUAL),
        (127, 63, ComparisonClass.GREATER),
        (100, 127, ComparisonClass.LESS),
        (700, 420, ComparisonClass.GREATER),
    ])
    def test_reference_rows(self, a, b, expected):
        assert compare(a, b).comparison is expected

    def test_outcome_carries_run_metadata(self):
        outcome = compare(6, 5)
        assert (outcome.backend, outcome.n) == ("classical", 3)
        assert outcome.variant is FIGURE

    def test_flags_equal_oracle_for_both_variants(self):
        for variant in (FIGURE, ALGORITHMIC):
            for a, b in [(9, 12), (12, 9), (5, 5), (0, 15), (15, 0), (6, 7)]:
                outcome = compare(a, b, variant=variant)
                assert (outcome.r0, outcome.r1) == reference_flags(
                    encode_operands(a, b), variant)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.sampled_from([FIGURE, ALGORITHMIC]))
    def test_class_is_integer_comparison(self, a, b, variant):
        outcome = compare(a, b, variant=variant)
        assert outcome.comparison.value == int_compare_class(a, b)
        assert (outcome.r0, outcome.r1) == reference_flags(encode_operands(a, b), variant)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1),
           st.sampled_from([FIGURE, ALGORITHMIC]))
    def test_backends_agree(self, a, b, variant):
        # compare runs its body classically; dense runs it to the same bits,
        # trace and executed census
        outcome = compare(a, b, variant=variant)
        dense = DenseRunner(outcome.body).run(encode_operands(a, b).initial_qubit_bits())
        assert dense == outcome.run
        assert (outcome.r0, outcome.r1) == dense.classical_bits

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2**14), st.sampled_from([FIGURE, ALGORITHMIC]))
    def test_variants_agree_on_class_and_less_flag(self, seed, variant):
        import random
        rng = random.Random(seed)
        a, b = rng.getrandbits(10), rng.getrandbits(10)
        fig = compare(a, b, variant=FIGURE)
        alg = compare(a, b, variant=ALGORITHMIC)
        assert fig.comparison is alg.comparison
        assert fig.r1 == alg.r1


class TestInputPreservation:
    def test_dense_harness_with_appended_operand_measures(self):
        # widen the classical register and measure the operand qubits at the
        # end; the conditions' (0, 1) masks keep their meaning unchanged
        for a, b in [(5, 2), (2, 5), (7, 7)]:
            ops = encode_operands(a, b)
            built = build_gqbsc(ops)
            n = ops.n
            harness = Circuit(built.num_qubits, 2 + 2 * n)
            for instr in built.instructions:
                harness.append(instr)
            for q in range(2 * n):
                harness.measure(q, 2 + q)
            bits = run_dense(harness).classical_bits
            assert bits[2:] == ops.a_bits + ops.b_bits

    def test_classical_final_qubits_preserved(self):
        for a, b in [(9, 3), (3, 9), (12, 12)]:
            ops = encode_operands(a, b)
            runner = ClassicalRunner(build_gqbsc(ops))
            final = runner._run_lanes([0] * runner.num_qubits, 1)[0]
            assert tuple(final[:2 * ops.n]) == ops.a_bits + ops.b_bits


class TestSoundnessSweeps:
    def test_exhaustive_counts_pairs(self):
        pairs, mismatches = soundness_check_exhaustive(1)
        assert (pairs, mismatches) == (4, 0)

    def test_exhaustive_medium_width_both_variants(self):
        for variant in (FIGURE, ALGORITHMIC):
            pairs, mismatches = soundness_check_exhaustive(5, variant)
            assert (pairs, mismatches) == (1024, 0)

    def test_random_is_deterministic_per_seed(self):
        first = soundness_check_random(64, 50, seed=9)
        second = soundness_check_random(64, 50, seed=9)
        assert first == second == (50, 0)


def _drop_first_ccx(circuit: Circuit) -> Circuit:
    ccx = [i for i, ins in enumerate(circuit.instructions)
           if isinstance(ins, GateOp) and ins.gate is GateKind.CCX]
    instructions = list(circuit.instructions)
    del instructions[ccx[0]]
    return Circuit(circuit.num_qubits, circuit.num_clbits, instructions)


def _retarget_last_ccx(circuit: Circuit) -> Circuit:
    ccx = [i for i, ins in enumerate(circuit.instructions)
           if isinstance(ins, GateOp) and ins.gate is GateKind.CCX]
    instructions = list(circuit.instructions)
    last = instructions[ccx[-1]]
    r0 = circuit.num_qubits - 2
    instructions[ccx[-1]] = GateOp(GateKind.CCX, last.targets[:2] + (r0,), last.condition)
    return Circuit(circuit.num_qubits, circuit.num_clbits, instructions)


def _patch_builder(monkeypatch, mutate):
    import qbsc.comparator as comparator

    original = comparator.build_gqbsc
    monkeypatch.setattr(comparator, "build_gqbsc",
                        lambda ops, variant=FIGURE: mutate(original(ops, variant)))


class TestSweepsCatchBrokenCircuits:
    """The sweeps must be able to fail: a comparator with one gate dropped or
    retargeted has to show mismatches."""

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    @pytest.mark.parametrize("mutate", [_drop_first_ccx, _retarget_last_ccx])
    def test_exhaustive_sweeps_report_mismatches(self, monkeypatch, mutate, variant):
        _patch_builder(monkeypatch, mutate)
        assert soundness_check_exhaustive(4, variant)[1] > 0

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    @pytest.mark.parametrize("mutate", [_drop_first_ccx, _retarget_last_ccx])
    def test_dense_runs_agree_with_classical(self, mutate, variant):
        # The sweeps run on the classical engine only; the dense runner must
        # read the same flags, pair by pair, off the same broken body.
        from qbsc.comparator import _random_pairs

        wrong = 0
        for n in (1, 2, 3, 4, 5, 9):
            body = mutate(build_gqbsc(Operands((0,) * n, (0,) * n), variant))
            dense, classical = DenseRunner(body), ClassicalRunner(body)
            pairs = (itertools.product(range(1 << n), repeat=2) if n <= 4
                     else _random_pairs(n, 40, 9))
            for a, b in pairs:
                ops = encode_operands(format(a, f"0{n}b"), format(b, f"0{n}b"))
                bits = ops.initial_qubit_bits()
                flags = classical.run_bits(bits)
                assert dense.run(bits).classical_bits == flags, (n, a, b)
                wrong += flags != reference_flags(ops, variant)
        assert wrong > 0

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    def test_random_sweep_reports_dropped_gate(self, monkeypatch, variant):
        _patch_builder(monkeypatch, _drop_first_ccx)
        assert soundness_check_random(64, 50, seed=9, variant=variant)[1] > 0

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    def test_random_sweep_reports_retargeted_last_block(self, monkeypatch, variant):
        # Uniform pairs reach the last block only when every earlier bit ties
        # (probability 2^-(n-1)), so this mutant needs a narrow width.
        _patch_builder(monkeypatch, _retarget_last_ccx)
        assert soundness_check_random(3, 50, seed=9, variant=variant)[1] > 0

    @pytest.mark.parametrize("mutate", [_drop_first_ccx, _retarget_last_ccx])
    def test_lane_chunks_count_like_one_pass(self, monkeypatch, mutate):
        import qbsc.comparator as comparator

        _patch_builder(monkeypatch, mutate)
        whole = [soundness_check_exhaustive(n) for n in (3, 4, 5)]
        drawn = soundness_check_random(3, 100, seed=4)
        monkeypatch.setattr(comparator, "MAX_LANES", 16)
        assert [soundness_check_exhaustive(n) for n in (3, 4, 5)] == whole
        assert soundness_check_random(3, 100, seed=4) == drawn

    def test_exhaustive_across_several_chunks(self):
        assert soundness_check_exhaustive(9) == (4 ** 9, 0)


class TestDenseOnTheLoweredBody:
    """The lowered CV/CV-dagger/CX body the cost model charges for, at the
    paper's width n = 1000 (2002 qubits), reads on the dense runner the flags
    the classical runner reads on the unlowered body and the oracle reads."""

    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    def test_dense_equals_classical_and_oracle(self, variant):
        from qbsc.comparator import _random_pairs

        n = 1000
        body = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
        dense, classical = DenseRunner(lower_circuit(body)), ClassicalRunner(body)
        live = []  # amplitudes held after each fired op
        for a, b in _random_pairs(n, 20, 7):
            ops = encode_operands(format(a, f"0{n}b"), format(b, f"0{n}b"))
            bits = ops.initial_qubit_bits()
            got = dense._execute(bits, None, None, fired=lambda _, amps, cl: live.append(len(amps)))
            assert got == classical.run_bits(bits) == reference_flags(ops, variant), (a, b)
        assert max(live) == 2


class TestMalformedSweepArguments:
    """Both verification sweeps refuse a width or a pair count they cannot
    check with a toolkit error, before they build a comparator."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: soundness_check_exhaustive(2.5), OperandError,
         "width must be an integer, got 2.5"),
        (lambda: soundness_check_random(2.5, 3), OperandError,
         "width must be an integer, got 2.5"),
        (lambda: soundness_check_exhaustive(True), OperandError,
         "width must be an integer, got True"),
        (lambda: soundness_check_random(True, 3), OperandError,
         "width must be an integer, got True"),
        (lambda: soundness_check_exhaustive(0), EmptyOperand, "comparator needs at least one bit"),
        (lambda: soundness_check_random(-2, 3), EmptyOperand, "comparator needs at least one bit"),
        (lambda: soundness_check_random(4, -5), SimulationArgumentError,
         "samples must be an integer >= 0, got -5"),
        (lambda: soundness_check_random(4, 2.5), SimulationArgumentError,
         "samples must be an integer >= 0, got 2.5"),
        (lambda: soundness_check_random(4, True), SimulationArgumentError,
         "samples must be an integer >= 0, got True"),
        (lambda: soundness_check_random(4, "3"), SimulationArgumentError,
         "samples must be an integer >= 0, got '3'"),
        (lambda: soundness_check_random(4, 3, 2.5), SimulationArgumentError,
         "seed must be an integer, got 2.5"),
        (lambda: soundness_check_random(4, 3, "3"), SimulationArgumentError,
         "seed must be an integer, got '3'"),
        (lambda: soundness_check_random(4, 3, None), SimulationArgumentError,
         "seed must be an integer, got None"),
        (lambda: soundness_check_random(4, 3, True), SimulationArgumentError,
         "seed must be an integer, got True"),
    ], ids=["exhaustive-float", "random-float", "exhaustive-bool", "random-bool", "exhaustive-0",
            "random-negative-width", "samples-negative", "samples-float", "samples-bool",
            "samples-str", "seed-float", "seed-str", "seed-none", "seed-bool"])
    def test_refused_before_building(self, monkeypatch, call, error, message):
        import qbsc.comparator as comparator

        built = []
        original = comparator.build_gqbsc
        monkeypatch.setattr(comparator, "build_gqbsc",
                            lambda ops, variant=FIGURE: built.append(original(ops, variant)))
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message
        assert not built

    def test_zero_samples_is_an_empty_check(self):
        assert soundness_check_random(4, 0) == (0, 0)

    def test_numpy_integer_seed_draws_as_its_int(self, monkeypatch):
        import qbsc.comparator as comparator

        drawn = []
        original = comparator._random_pairs
        monkeypatch.setattr(comparator, "_random_pairs",
                            lambda n, samples, seed: drawn.append(seed) or original(n, samples, seed))
        assert soundness_check_random(40, 30, np.int64(3)) == soundness_check_random(40, 30, 3)
        assert drawn == [3, 3] and type(drawn[0]) is int


class TestOneOperandShapeRule:
    """``build_gqbsc`` and ``reference_flags`` refuse the same operands with
    the same error."""

    @pytest.mark.parametrize("ops, error, message", [
        (Operands((), ()), EmptyOperand, "comparator needs at least one bit"),
        (Operands((1, 0), (1,)), InvalidBitstring, "operand widths differ: 2 and 1"),
        (Operands((1,), (1, 1)), InvalidBitstring, "operand widths differ: 1 and 2"),
        (Operands((2,), (0,)), InvalidBitstring, "operand bits must be 0 or 1, got 2"),
        (Operands((0, 1), (1, -1)), InvalidBitstring, "operand bits must be 0 or 1, got -1"),
        (Operands((0, "1"), (1, 0)), InvalidBitstring, "operand bits must be 0 or 1, got '1'"),
        (Operands((1.0,), (0,)), InvalidBitstring, "operand bits must be 0 or 1, got 1.0"),
        (Operands((np.float64(0.0),), (0,)), InvalidBitstring,
         f"operand bits must be 0 or 1, got {np.float64(0.0)!r}"),
        (Operands((True,), (0,)), InvalidBitstring, "operand bits must be 0 or 1, got True"),
        (Operands((np.True_,), (0,)), InvalidBitstring,
         f"operand bits must be 0 or 1, got {np.True_!r}"),
        (Operands((1, 1.0), (0, 1)), InvalidBitstring, "operand bits must be 0 or 1, got 1.0"),
    ], ids=["empty", "b-shorter", "b-longer", "bit-2", "bit-negative", "bit-str", "bit-float",
            "bit-numpy-float", "bit-bool", "bit-numpy-bool", "bit-float-after-equal-int"])
    @pytest.mark.parametrize("function", [build_gqbsc, reference_flags],
                             ids=["build_gqbsc", "reference_flags"])
    def test_same_error_from_both(self, function, ops, error, message):
        with pytest.raises(error) as err:
            function(ops)
        assert type(err.value) is error and str(err.value) == message


class TestOneVariantRule:
    """Every entry point that takes a builder variant refuses anything but a
    ``BuilderVariant`` instead of building the algorithmic circuit."""

    @pytest.mark.parametrize("variant", ["figure", "bogus", None], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: compare(6, 7, variant=v),
        lambda v: build_gqbsc(Operands((1, 1, 0), (1, 1, 1)), v),
        lambda v: reference_flags(Operands((1, 1, 0), (1, 1, 1)), v),
        lambda v: gate_growth([3], v),
        lambda v: soundness_check_exhaustive(2, v),
        lambda v: soundness_check_random(3, 10, 0, v),
    ], ids=["compare", "build_gqbsc", "reference_flags", "gate_growth", "exhaustive", "random"])
    def test_refused(self, call, variant):
        with pytest.raises(OperandError) as err:
            call(variant)
        assert type(err.value) is OperandError
        assert str(err.value) == f"builder variant must be a BuilderVariant, got {variant!r}"


class TestOperandTypes:
    @pytest.mark.parametrize("a, b", [(True, 0), (0, False)])
    def test_bool_operand_rejected(self, a, b):
        with pytest.raises(InvalidBitstring):
            compare(a, b)


class TestRandomLadderReachesLateBlocks:
    @pytest.mark.parametrize("variant", [FIGURE, ALGORITHMIC])
    def test_retargeted_last_block_shows_at_width_64(self, monkeypatch, variant):
        _patch_builder(monkeypatch, _retarget_last_ccx)
        assert soundness_check_random(64, 50, seed=9, variant=variant)[1] > 0

    @pytest.mark.parametrize("n, samples", [(1, 5), (9, 100), (64, 50), (1000, 100)])
    def test_tied_prefixes_cover_both_ends_and_every_verdict(self, n, samples):
        from qbsc.comparator import _random_pairs

        pairs = list(_random_pairs(n, samples, seed=3))
        assert len(pairs) == samples
        assert all(0 <= v < 1 << n for pair in pairs for v in pair)
        tied = pairs[1::2]
        first_difference = {n - (a ^ b).bit_length() for a, b in tied}
        assert {0, n - 1} <= first_difference
        if samples >= 4 * n:
            assert first_difference == set(range(n))
        # a tie length is drawn with a < b first, then with a > b
        verdicts = {k: {a < b for a, b in tied if n - (a ^ b).bit_length() == k}
                    for k in (0, n - 1)}
        assert verdicts[0] == {True, False} and True in verdicts[n - 1]

    def test_draws_depend_only_on_seed(self):
        from qbsc.comparator import _random_pairs

        assert list(_random_pairs(40, 30, 7)) == list(_random_pairs(40, 30, 7))
        assert list(_random_pairs(40, 30, 7)) != list(_random_pairs(40, 30, 8))
