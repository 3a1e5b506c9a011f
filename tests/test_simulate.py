"""Backends: dense statevector, classical fast path, sampling, and noise."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import circuit as circuit_module
from qbsc.circuit import (BarrierOp, Circuit, ClassicalCondition, GateKind, GateOp,
                          MeasureOp)
from qbsc import simulate
from qbsc.comparator import Operands, build_gqbsc, compare, encode_operands, reference_flags
from qbsc.errors import (NonClassicalGate, NormDrift, QbscError, SimulationArgumentError,
                         SimulationError)
from qbsc.gates import lower_circuit
from qbsc.simulate import (
    ClassicalRunner,
    DenseRunner,
    Histogram,
    NoiseModel,
    run_classical,
    run_dense,
    sample,
)

from _oracles import reference_sample


def bits_for(a: int, b: int, n: int) -> tuple[int, ...]:
    a_bits = tuple((a >> (n - 1 - k)) & 1 for k in range(n))
    b_bits = tuple((b >> (n - 1 - k)) & 1 for k in range(n))
    return a_bits + b_bits + (0, 0)


class TestDenseBackend:
    def test_one_bit_comparator_greater(self):
        result = run_dense(build_gqbsc(encode_operands(1, 0)))
        assert result.classical_bits == (1, 0)

    def test_one_bit_comparator_equal(self):
        result = run_dense(build_gqbsc(encode_operands(0, 0)))
        assert result.classical_bits == (0, 0)

    def test_x_only_circuit_has_empty_register(self):
        c = Circuit(3, 0).x(0).x(2)
        result = run_dense(c)
        assert result.classical_bits == ()
        assert result.measurement_trace == ()

    def test_initial_bits_set_the_basis_state(self):
        c = Circuit(2, 2).measure(0, 0).measure(1, 1)
        assert run_dense(c, "10").classical_bits == (1, 0)

    def test_initial_bits_length_checked(self):
        with pytest.raises(SimulationError):
            run_dense(Circuit(2, 0), "1")

    def test_amplitude_bound(self):
        # CVs from one set control leave each target superposed: each doubles the map
        fan_out = Circuit(30, 0).x(0)
        for t in range(1, 30):
            fan_out.cv(0, t)
            if t == 16:  # 2^16 amplitudes, the most the map may hold
                assert run_dense(fan_out).classical_bits == ()
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError,
                               match="^dense state holds 131072 amplitudes, more than 65536$") as info:
                run_dense(fan_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(info.value) is SimulationError
        assert peak < 64 << 20
        # 30 qubits of basis states hold one amplitude each
        assert run_dense(Circuit(30, 1).x(29).measure(29, 0)).classical_bits == (1,)

    def test_measurement_of_basis_state_is_seed_independent(self):
        c = Circuit(1, 1).x(0).measure(0, 0)
        values = {run_dense(c, seed=s).classical_bits for s in range(5)}
        assert values == {(1,)}

    def test_measurement_of_superposition_follows_born_rule(self):
        # CV on a set control leaves the target in an even superposition
        c = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
        outcomes = [run_dense(c, seed=s).classical_bits[0] for s in range(200)]
        assert 60 < sum(outcomes) < 140  # ~Binomial(200, 1/2)

    def test_superposition_measurement_requires_seed(self):
        c = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
        with pytest.raises(SimulationError):
            run_dense(c)

    def test_no_reset_after_measurement(self):
        # measuring twice without gates in between reads the same value
        c = Circuit(1, 2).x(0).measure(0, 0).measure(0, 1)
        assert run_dense(c).classical_bits == (1, 1)

    def test_condition_gates_on_current_register(self):
        c = Circuit(2, 2)
        c.x(0)
        c.measure(0, 0)
        c.x(1, condition=ClassicalCondition((0, 1), 1))
        c.measure(1, 1)
        assert run_dense(c).classical_bits == (1, 1)
        skip = Circuit(2, 2)
        skip.measure(0, 0)
        skip.x(1, condition=ClassicalCondition((0, 1), 1))
        skip.measure(1, 1)
        assert run_dense(skip).classical_bits == (0, 0)

    def test_long_v_chain_preserves_norm(self):
        # 200 alternating CV/CV† pairs; the internal norm guard must not trip
        c = Circuit(2, 1).x(0)
        for _ in range(200):
            c.cv(0, 1)
            c.cvdg(0, 1)
        c.measure(1, 0)
        assert run_dense(c).classical_bits == (0,)


class TestNormDrift:
    """A state whose norm strays past ``_NORM_TOL`` raises; a tolerance below 0
    makes every check fail."""

    def test_after_a_born_measurement(self, monkeypatch):
        monkeypatch.setattr(simulate, "_NORM_TOL", -1.0)
        born = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
        with pytest.raises(NormDrift, match="after measuring qubit 1"):
            run_dense(born, seed=3)

    def test_at_the_end_of_a_run(self, monkeypatch):
        monkeypatch.setattr(simulate, "_NORM_TOL", -1.0)
        with pytest.raises(NormDrift, match="final norm"):
            run_dense(Circuit(2, 1).x(0).measure(0, 0))


class TestClassicalBackend:
    def test_eleven_bit_greater(self):
        result = run_classical(build_gqbsc(encode_operands(1400, 200)))
        assert result.classical_bits == (1, 0)

    def test_thousand_bit_adjacent_values(self):
        result = run_classical(build_gqbsc(encode_operands(2**1000 - 1, 2**1000 - 2)))
        assert result.classical_bits == (1, 0)

    def test_rejects_non_classical_gates(self):
        lowered = lower_circuit(build_gqbsc(encode_operands(1, 0)))
        with pytest.raises(NonClassicalGate):
            run_classical(lowered)

    def test_trace_covers_every_measure(self):
        circuit = build_gqbsc(encode_operands(5, 3))  # n=3: 6 block + 1 site measure
        result = run_classical(circuit)
        assert len(result.measurement_trace) == 7

    def test_executed_census_skips_unfired_gates(self):
        circuit = build_gqbsc(encode_operands(2, 1))  # n=2, greater at the MSB
        executed = run_classical(circuit).executed_census
        # verdict lands at block 1, so block 2's gates and the flip site skip
        assert executed.ccx == 2
        assert executed.measure_count == 5  # measures always run
        static = ClassicalRunner(circuit)._static
        assert executed.total_unit_cost <= static.total_unit_cost

    def test_final_qubits_restore_operands(self):
        n = 6
        body = build_gqbsc(Operands((0,) * n, (0,) * n))
        runner = ClassicalRunner(body)
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
            bits = bits_for(a, b, n)
            final = runner._run_lanes(list(bits), 1)[0]
            assert tuple(final[:2 * n]) == bits[:2 * n]

    @pytest.mark.parametrize("bits", [[0.5, 0], "0x", ["0", "1"], 5, [0, 2], (True, 0),
                                      (np.True_, 0)])
    def test_malformed_initial_bits_rejected(self, bits):
        c = Circuit(2, 0)
        with pytest.raises(SimulationError):
            run_classical(c, bits)


@st.composite
def permutation_circuits(draw, max_qubits=6, max_clbits=3, max_len=24):
    """Random X/CX/CCX circuits with conditions, some one object shared by
    several gates, and mid-circuit measurements."""
    nq = draw(st.integers(1, max_qubits))
    nc = draw(st.integers(0, max_clbits))
    circuit = Circuit(nq, nc)
    conditions = []  # drawn for this circuit; a later gate may reuse one object
    kinds = [k for k in (GateKind.X, GateKind.CX, GateKind.CCX) if k.arity <= nq]
    for _ in range(draw(st.integers(0, max_len))):
        if nc and draw(st.integers(0, 3)) == 0:
            circuit.measure(draw(st.integers(0, nq - 1)), draw(st.integers(0, nc - 1)))
            continue
        kind = draw(st.sampled_from(kinds))
        targets = draw(st.permutations(range(nq)))[:kind.arity]
        condition = None
        if nc and draw(st.booleans()):
            if conditions and draw(st.booleans()):
                condition = draw(st.sampled_from(conditions))
            else:
                mask = sorted(draw(st.sets(st.integers(0, nc - 1), min_size=1)))
                condition = ClassicalCondition(tuple(mask),
                                               draw(st.integers(0, (1 << len(mask)) - 1)))
                conditions.append(condition)
        circuit.append(GateOp(kind, tuple(targets), condition))
    return circuit


class TestLaneInterpreter:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_lane_matches_dense(self, data):
        circuit = data.draw(permutation_circuits())
        nq = circuit.num_qubits
        batch = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * nq), min_size=1, max_size=20))
        lane_ints = [sum(bits[q] << lane for lane, bits in enumerate(batch)) for q in range(nq)]
        classical, dense = ClassicalRunner(circuit), DenseRunner(circuit)
        final_q, cl = classical._run_lanes(lane_ints, len(batch))  # a fresh list
        for lane, bits in enumerate(batch):
            expected = dense.run(bits)
            assert tuple((c >> lane) & 1 for c in cl) == expected.classical_bits
            assert [(q >> lane) & 1 for q in final_q] == classical._run_lanes(list(bits), 1)[0]
        one, reference = classical.run(batch[0]), dense.run(batch[0])
        assert one.executed_census == reference.executed_census
        assert one.measurement_trace == reference.measurement_trace

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_noisy_one_lane_run_matches_dense(self, data):
        # a noisy classical shot is a one-lane run drawing in dense's order
        circuit = data.draw(permutation_circuits())
        bits = data.draw(st.tuples(*[st.integers(0, 1)] * circuit.num_qubits))
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = NoiseModel(0.05, 0.05)
        classical, dense = ClassicalRunner(circuit), DenseRunner(circuit)
        for shot in range(8):
            assert (classical.run_value(bits, np.random.default_rng([seed, shot]), noise)
                    == dense.run_value(bits, np.random.default_rng([seed, shot]), noise))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_shared_run_matches_dense(self, data):
        # one run() for both backends: same bits, trace and executed census,
        # noisy or not, under one seed
        circuit = data.draw(permutation_circuits())
        bits = data.draw(st.tuples(*[st.integers(0, 1)] * circuit.num_qubits))
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from([None, NoiseModel(0.05, 0.05), NoiseModel(0.5, 0.3)]))
        assert (ClassicalRunner(circuit).run(bits, seed, noise)
                == DenseRunner(circuit).run(bits, seed, noise))

    def test_seeded_noiseless_permutation_run_draws_nothing(self, monkeypatch):
        # a row of the n=1000 comparator is ~30,000 uniforms
        def no_row(census):
            raise AssertionError("drew a row")

        monkeypatch.setattr(simulate, "_draw_bound", no_row)
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        bits = bits_for(5, 6, 3)
        for runner in (ClassicalRunner(body), DenseRunner(body)):
            assert runner.run(bits, seed=1234).classical_bits == (1, 1)
            rng = np.random.default_rng(1)
            state = rng.bit_generator.state
            assert runner.run_value(bits, rng, None) == 3
            assert rng.bit_generator.state == state
        assert compare("1" * 1000, "1" * 999 + "0").comparison.value == "Greater"

    def test_noiseless_permutation_sample_is_one_run_on_dense(self, monkeypatch):
        execute, calls = DenseRunner._execute, []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(DenseRunner, "_execute", counted)
        circuit = build_gqbsc(encode_operands(5, 6))
        got = simulate._sample(DenseRunner(circuit), None, 64, None, 3)
        value = sum(b << k for k, b in enumerate(run_classical(circuit).classical_bits))
        assert got == Histogram(64, {value: 64})
        assert len(calls) == 1

    def test_numpy_condition_guards_lanes_past_64_bits(self):
        cond = ClassicalCondition((np.int64(0),), np.int64(1))
        circuit = Circuit(2, 1).measure(0, 0).x(1, cond).measure(1, 0)
        lanes = 1 << 99 | 1
        assert ClassicalRunner(circuit)._run_lanes([lanes, 0], 100) == ([lanes, lanes], [lanes])


def held_condition_circuit():
    """One condition object, c0 == 1, guards the X on qubit 1 and later the X
    on qubit 2; between them a measurement turns c0 from qubit 0's input b
    into its complement. Noiseless, the final clbits read (b, not b)."""
    cond = ClassicalCondition((0,), 1)
    return (Circuit(3, 2).measure(0, 0).x(1, cond).x(0).measure(0, 0).x(2, cond)
            .measure(1, 0).measure(2, 1))


class TestHeldCondition:
    """An interpreter tests a condition once per run of ops between
    measurements; a measurement must make it test the condition again."""

    def test_lanes_that_disagree(self):
        # lane 0 reads b = 1, lane 1 b = 0
        final_q, cl = ClassicalRunner(held_condition_circuit())._run_lanes([0b01, 0, 0], 2)
        assert cl == [0b01, 0b10]
        assert final_q == [0b10, 0b01, 0b10]

    @pytest.mark.parametrize("b", [0, 1])
    def test_noisy_one_lane_run_with_certain_readout_flips(self, b):
        # every measurement records the complement: c0 reads not b at the
        # first gate and b at the second, and the last two read not q1, not q2
        circuit, noise = held_condition_circuit(), NoiseModel(0.0, 1.0)
        for runner in (ClassicalRunner(circuit), DenseRunner(circuit)):
            value = runner.run_value((b, 0, 0), np.random.default_rng(5), noise)
            assert value == b + 2 * (1 - b), runner.backend

    @pytest.mark.parametrize("b", [0, 1])
    def test_dense_backend(self, b):
        run = DenseRunner(held_condition_circuit()).run((b, 0, 0))
        assert run.classical_bits == (b, 1 - b)
        assert run.executed_census.x == 2

    @pytest.mark.parametrize("backend", ["classical", "dense"])
    def test_sample_resumes_between_the_gates(self, monkeypatch, backend):
        circuit, bits, noise = held_condition_circuit(), (1, 0, 0), NoiseModel(0.1, 0.1)
        resumed = []
        cls = {"classical": ClassicalRunner, "dense": DenseRunner}[backend]
        execute = cls._execute

        def recording(self, bits, draw, noise, start=None, fired=None):
            resumed.append(None if start is None else start[0])
            return execute(self, bits, draw, noise, start, fired)

        monkeypatch.setattr(cls, "_execute", recording)
        got = simulate._sample(cls(circuit), bits, 400, noise, 3)
        assert got == reference_sample(circuit, bits, 400, noise, 3)
        # program indices: the guarded gates are ops 1 and 4, the measurement op 3
        assert {2, 3, 4} & set(resumed), resumed


class TestBackendAgreement:
    def test_exhaustive_small_widths(self):
        for n in (1, 2, 3):
            body = build_gqbsc(Operands((0,) * n, (0,) * n))
            classical = ClassicalRunner(body)
            dense = DenseRunner(body)
            for a in range(1 << n):
                for b in range(1 << n):
                    bits = bits_for(a, b, n)
                    assert (classical.run_bits(bits)
                            == tuple(dense.run(bits).classical_bits)), (n, a, b)

    @pytest.mark.parametrize("n,pairs", [(5, 400), (6, 300), (7, 200), (8, 100)])
    def test_sampled_larger_widths(self, n, pairs):
        body = build_gqbsc(Operands((0,) * n, (0,) * n))
        classical = ClassicalRunner(body)
        dense = DenseRunner(body)
        rng = np.random.default_rng(n)
        for _ in range(pairs):
            a, b = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
            bits = bits_for(a, b, n)
            assert classical.run_bits(bits) == tuple(dense.run(bits).classical_bits)

    def test_full_run_results_match(self):
        circuit = build_gqbsc(encode_operands(5, 6))
        classical, dense = run_classical(circuit), run_dense(circuit)
        assert classical.classical_bits == dense.classical_bits
        assert classical.measurement_trace == dense.measurement_trace
        assert classical.executed_census == dense.executed_census


class _TaggedGate(GateOp):
    """A gate of another class, as a front end outside the library might make."""


class _TaggedMeasure(MeasureOp):
    """A measurement of another class."""


def _recast(circuit: Circuit, gate_cls=GateOp, measure_cls=MeasureOp) -> Circuit:
    """The circuit with each gate and measurement remade as the given classes."""
    out = []
    for instr in circuit.instructions:
        if isinstance(instr, GateOp):
            instr = gate_cls(instr.gate, instr.targets, instr.condition)
        elif isinstance(instr, MeasureOp):
            instr = measure_cls(instr.qubit, instr.clbit)
        out.append(instr)
    return Circuit(circuit.num_qubits, circuit.num_clbits, out)


class TestRunsTheCircuitsObjects:
    """The interpreters run the gate and measurement objects the circuit held
    when the runner was built, whatever their class."""

    @pytest.mark.parametrize("cls", [ClassicalRunner, DenseRunner])
    def test_appending_after_the_runner_is_built_changes_nothing(self, cls):
        circuit, noise = build_gqbsc(encode_operands(5, 6)), NoiseModel(0.05, 0.05)
        runner = cls(circuit)
        before = runner.run(), simulate._sample(runner, None, 200, noise, 3)
        r1 = circuit.num_qubits - 1
        circuit.instructions += [GateOp(GateKind.X, (r1,)), MeasureOp(r1, 1)]
        assert (runner.run(), simulate._sample(runner, None, 200, noise, 3)) == before
        c0, c1 = before[0].classical_bits
        assert cls(circuit).run().classical_bits == (c0, 1 - c1)  # a new runner sees them

    def _assert_runs_alike(self, recast, circuit, runners):
        noise = NoiseModel(0.05, 0.05)
        for cls in runners:
            got, want = cls(recast), cls(circuit)
            for a, b in itertools.product(range(4), repeat=2):
                bits = bits_for(a, b, 2)
                assert got.run(bits, seed=1) == want.run(bits, seed=1), (cls, a, b)
                assert (simulate._sample(got, bits, 100, noise, a + 4 * b)
                        == simulate._sample(want, bits, 100, noise, a + 4 * b)), (cls, a, b)

    def test_a_gate_subclass_runs_like_a_gate(self):
        body = build_gqbsc(Operands((0,) * 2, (0,) * 2))
        tagged = _recast(body, gate_cls=_TaggedGate)
        assert {type(i) for i in tagged.instructions} == {_TaggedGate, MeasureOp, BarrierOp}
        self._assert_runs_alike(tagged, body, [ClassicalRunner, DenseRunner])
        self._assert_runs_alike(_recast(lower_circuit(body), gate_cls=_TaggedGate),
                                lower_circuit(body), [DenseRunner])

    def test_a_measure_subclass_runs_like_a_measurement(self):
        body = build_gqbsc(Operands((0,) * 2, (0,) * 2))
        tagged = _recast(body, measure_cls=_TaggedMeasure)
        assert {type(i) for i in tagged.instructions} == {GateOp, _TaggedMeasure, BarrierOp}
        self._assert_runs_alike(tagged, body, [ClassicalRunner, DenseRunner])
        self._assert_runs_alike(_recast(lower_circuit(body), measure_cls=_TaggedMeasure),
                                lower_circuit(body), [DenseRunner])


class TestBackendSelection:
    def test_auto_prefers_classical_for_permutation_circuits(self):
        assert type(simulate._runner(build_gqbsc(encode_operands(3, 1)))) is ClassicalRunner

    def test_auto_uses_dense_when_v_gates_present(self):
        lowered = lower_circuit(build_gqbsc(encode_operands(3, 1)))
        assert type(simulate._runner(lowered)) is DenseRunner

    def test_runner_walks_the_census_once(self, monkeypatch):
        walks = []
        for module in (circuit_module, simulate):
            walk = module.census_walk
            monkeypatch.setattr(module, "census_walk",
                                lambda *args, walk=walk: walks.append(1) or walk(*args))
        body = build_gqbsc(encode_operands(3, 1))
        lowered = lower_circuit(body)
        for circuit, cls in [(body, ClassicalRunner), (lowered, DenseRunner)]:
            walks.clear()
            runner = simulate._runner(circuit)
            assert type(runner) is cls
            assert len(walks) == 1, cls
            # what it runs is the circuit's own gates and measurements
            ops = [i for i in circuit.instructions if not isinstance(i, BarrierOp)]
            assert list(map(id, runner._prog)) == list(map(id, ops)), cls
            walks.clear()
            sample(circuit, shots=8, noise=NoiseModel(0.01, 0.02), seed=1)
            assert len(walks) == 1
        # the runners keep their refusals, classes and messages
        with pytest.raises(NonClassicalGate, match="^cv is not a classical permutation gate$"):
            ClassicalRunner(lowered)
        # past 24 qubits (n = 12) the lowered body runs on the dense runner too
        ops = encode_operands(2**11, 1)
        wide = simulate._runner(lower_circuit(build_gqbsc(ops)))
        assert type(wide) is DenseRunner and wide.num_qubits == 26
        assert wide.run().classical_bits == reference_flags(ops)


class TestArgumentErrors:
    CALLS = {
        "p above 1": lambda c: NoiseModel(1.5, 0),
        "p nan": lambda c: NoiseModel(math.nan, 0),
        "q below 0": lambda c: NoiseModel(0, -0.1),
        "q nan": lambda c: NoiseModel(0, math.nan),
        "zero shots": lambda c: sample(c, shots=0),
        "bool shots": lambda c: sample(c, shots=True),
        "float shots": lambda c: sample(c, shots=2.0),
        "bool bit": lambda c: run_classical(c, (True, 0, 0, 0)),
        "numpy bool bit": lambda c: run_dense(c, (np.True_, 0, 0, 0)),
        "bool bit in sample": lambda c: sample(c, (True, 0, 0, 0), shots=2),
        "float bit": lambda c: run_classical(c, (0.5, 0, 0, 0)),
        "bits too short": lambda c: run_classical(c, (1, 0)),
        "negative seed": lambda c: sample(c, seed=-1),
        "noisy run without generator": lambda c: ClassicalRunner(c).run_value(
            None, None, NoiseModel(0.1, 0.1)),
        "int generator": lambda c: ClassicalRunner(c).run_value(None, 5, NoiseModel(0.1, 0.1)),
        "int generator on dense": lambda c: DenseRunner(c).run_value(
            None, 5, NoiseModel(0.1, 0.1)),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_typed_error_that_is_a_value_error(self, call):
        with pytest.raises(SimulationArgumentError) as err:
            call(build_gqbsc(encode_operands(1, 0)))
        assert isinstance(err.value, QbscError) and isinstance(err.value, ValueError)


class TestNoiseArguments:
    """A noise probability is an int or a float (numpy's too, not a bool), and
    a run's ``noise`` is None or a NoiseModel; anything else raises
    SimulationArgumentError."""

    NOT_A_MODEL = "noise must be a NoiseModel or None, got (0.1, 0.1)"
    CALLS = {
        "p str": (lambda c: NoiseModel("a", 0), "depolarizing probability must be a number: 'a'"),
        "p None": (lambda c: NoiseModel(None, 0),
                   "depolarizing probability must be a number: None"),
        "p bool": (lambda c: NoiseModel(True, 0),
                   "depolarizing probability must be a number: True"),
        "q numpy bool": (lambda c: NoiseModel(0, np.True_),
                         f"readout-flip probability must be a number: {np.True_!r}"),
        "sample tuple": (lambda c: sample(c, noise=(0.1, 0.1), seed=1), NOT_A_MODEL),
        "run tuple": (lambda c: ClassicalRunner(c).run(None, 1, (0.1, 0.1)), NOT_A_MODEL),
        "dense run tuple": (lambda c: run_dense(c, seed=1, noise=(0.1, 0.1)), NOT_A_MODEL),
        "run_value tuple": (lambda c: DenseRunner(c).run_value(None, np.random.default_rng(1),
                                                               (0.1, 0.1)), NOT_A_MODEL),
    }

    @pytest.mark.parametrize("call, message", CALLS.values(), ids=CALLS.keys())
    def test_refused(self, call, message):
        with pytest.raises(SimulationArgumentError) as err:
            call(build_gqbsc(encode_operands(1, 0)))
        assert type(err.value) is SimulationArgumentError and str(err.value) == message

    def test_numpy_numbers_accepted(self):
        noise = NoiseModel(np.float64(0.25), np.int64(0))
        circuit = build_gqbsc(encode_operands(1, 0))
        assert sample(circuit, shots=8, noise=noise, seed=1) == sample(
            circuit, shots=8, noise=NoiseModel(0.25, 0), seed=1)


class TestSampling:
    def test_noiseless_deterministic_circuit_is_single_bin(self):
        histogram = sample(build_gqbsc(encode_operands(0, 1)), shots=1024, seed=3)
        assert histogram.counts == {2: 1024}  # r1 set -> register value 2

    def test_reproducible(self):
        circuit = build_gqbsc(encode_operands(2, 3))
        noise = NoiseModel(0.05, 0.05)
        first = sample(circuit, shots=256, noise=noise, seed=11)
        second = sample(circuit, shots=256, noise=noise, seed=11)
        assert first == second

    def test_seed_changes_noisy_histogram(self):
        circuit = build_gqbsc(encode_operands(2, 3))
        noise = NoiseModel(0.05, 0.05)
        assert (sample(circuit, shots=256, noise=noise, seed=1)
                != sample(circuit, shots=256, noise=noise, seed=2))

    def test_counts_sum_to_shots(self):
        circuit = build_gqbsc(encode_operands(1, 2))
        histogram = sample(circuit, shots=500, noise=NoiseModel(0.02, 0.02), seed=5)
        assert sum(histogram.counts.values()) == 500

    @pytest.mark.parametrize("shots, counts", [
        (10, {0: 3}),            # counts short of shots
        (0, {}),                 # no shot: argmax would have no count to pick
        (-1, {0: -1}),
        (2, {0: 3, 1: -1}),      # sums to shots through a negative count
        (True, {1: 1}),          # a bool shot count
        (np.True_, {1: 1}),
        (3.0, {0: 3}),           # a float shot count
        (3, {1: 2.0, 2: 1.0}),   # float counts
        (1, {0: True}),          # a bool count
        (1, {-1: 1}),            # a negative register value
        (1, {0.0: 1}),           # a float register value
        (1, {True: 1}),          # a bool register value
        (1, [(0, 1)]),           # counts not a dict
    ])
    def test_histogram_invariant_enforced(self, shots, counts):
        with pytest.raises(SimulationArgumentError):
            Histogram(shots, counts)
        assert issubclass(SimulationArgumentError, ValueError)

    def test_histogram_takes_numpy_integers(self):
        histogram = Histogram(np.int64(3), {np.uint8(1): np.int64(2), 2: np.int32(1)})
        assert histogram.argmax() == 1 and histogram == Histogram(3, {1: 2, 2: 1})

    def test_noisy_argmax_is_expected_state(self):
        circuit = build_gqbsc(encode_operands(0, 0))
        noise = NoiseModel(0.01, 0.02)
        hits = sum(sample(circuit, shots=256, noise=noise, seed=s).argmax() == 0
                   for s in range(10))
        assert hits >= 9

    def test_dense_and_classical_agree_under_shared_seed(self):
        # permutation circuits stay in the basis, so the trajectory model is
        # identical draw-for-draw on both backends
        circuit = build_gqbsc(encode_operands("010", "011"))
        noise = NoiseModel(0.05, 0.05)
        for seed in range(5):
            assert (sample(circuit, shots=64, noise=noise, seed=seed)
                    == simulate._sample(DenseRunner(circuit), None, 64, noise, seed))

    def test_noise_probabilities_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_per_gate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=-0.1)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample(build_gqbsc(encode_operands(0, 0)), shots=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2**32 - 1))
    def test_noiseless_sampling_matches_single_run(self, a, b, seed):
        circuit = build_gqbsc(encode_operands(a, b))
        histogram = sample(circuit, shots=16, seed=seed)
        value = sum(b << k for k, b in enumerate(run_classical(circuit).classical_bits))
        assert histogram.counts == {value: 16}


class TestNoisyRunNeedsGenerator:
    @pytest.mark.parametrize("runner", [ClassicalRunner, DenseRunner])
    def test_noisy_run_value_without_generator(self, runner):
        body = build_gqbsc(encode_operands(1, 0))
        with pytest.raises(SimulationError, match="noisy run needs a generator"):
            runner(body).run_value((1, 0, 0, 0), None, NoiseModel(0.1, 0.1))
