"""Shot streams: ``sample`` reads shot s's uniforms from a pre-drawn row that
must equal ``np.random.default_rng([seed, s]).random(K)``.

The rows come from a transcription of numpy's seeding run over blocks of
shots, so they are pinned here against numpy itself, and whole histograms
against per-shot runs on generators numpy builds and against the numpy
reference engine, which keeps its own buffered stream.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import simulate, streams
from qbsc.circuit import Circuit
from qbsc.comparator import BuilderVariant, Operands, build_gqbsc, encode_operands
from qbsc.errors import SimulationArgumentError
from qbsc.gates import lower_circuit
from qbsc.simulate import (ClassicalRunner, DenseRunner, Histogram, NoiseModel, run_classical,
                           sample)

from _oracles import reference_sample
from test_simulate import bits_for, permutation_circuits
from test_statevector import statevector_circuits

K = 13
SEEDS = [0, 7, 123456789, 2**32 - 1, 2**32, 2**64 + 3, np.int64(5)]
BENCH_NOISE = NoiseModel(0.01, 0.02)
NOISES = [NoiseModel(0.2, 0.1), BENCH_NOISE]
# with the noise models where no shot, or every shot, is calm
CALM_NOISES = NOISES + [NoiseModel(0, 0), NoiseModel(1.0, 1.0)]
VARIANTS = (BuilderVariant.FIGURE, BuilderVariant.ALGORITHMIC)


RUNNERS = {"classical": ClassicalRunner, "dense": DenseRunner}


def sample_on(backend: str, circuit, bits, shots: int, noise, seed) -> Histogram:
    """``sample`` on the named runner, whichever the circuit would pick."""
    return simulate._sample(RUNNERS[backend](circuit), bits, shots, noise, seed)


def rows(seed, start: int, stop: int, k: int = K) -> list[list[float]]:
    return [row.tolist() for block in streams._shot_rows(int(seed), start, stop, k)
            for row in block]


def numpy_rows(seed, start: int, stop: int, k: int = K) -> list[list[float]]:
    return [np.random.default_rng([seed, s]).random(k).tolist() for s in range(start, stop)]


def per_shot(runner, bits, shots: int, noise, seed: int) -> Histogram:
    """``sample`` as one ``run_value`` per shot on numpy's own generators."""
    counts: dict[int, int] = {}
    for s in range(shots):
        value = runner.run_value(bits, np.random.default_rng([seed, s]), noise)
        counts[value] = counts.get(value, 0) + 1
    return Histogram(shots, dict(sorted(counts.items())))


def count_lanes(monkeypatch, cls=ClassicalRunner, name="_run_lanes") -> list:
    """Record each entry into a backend's interpreter (by default the
    classical one) from here on."""
    entered = []
    interpreter = getattr(cls, name)

    def counted(self, *args, **kwargs):
        entered.append(1)
        return interpreter(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return entered


def _basis_input(data, nq: int) -> tuple[int, ...]:
    return tuple(data.draw(st.lists(st.integers(0, 1), min_size=nq, max_size=nq)))


class TestSeedingPinnedToNumpy:
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_rows_across_block_boundaries(self, seed, monkeypatch):
        monkeypatch.setattr(streams, "_SEED_BLOCK", 3)
        assert rows(seed, 0, 10) == numpy_rows(seed, 0, 10)

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_rows_in_one_block(self, seed):
        assert rows(seed, 0, 40, 101) == numpy_rows(seed, 0, 40, 101)

    @pytest.mark.parametrize("block", [3, 1024])
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_block_starting_below_2_32(self, seed, block, monkeypatch):
        # shot 2^32 is the first with two entropy words
        monkeypatch.setattr(streams, "_SEED_BLOCK", block)
        start = 2**32 - 2
        assert rows(seed, start, start + 7) == numpy_rows(seed, start, start + 7)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True, np.True_, np.int64(-1)], ids=repr)
    @pytest.mark.parametrize("backend, noise", [("classical", None), ("classical", BENCH_NOISE),
                                                ("dense", None), ("dense", BENCH_NOISE)])
    def test_rejected_seeds_raise_the_typed_error(self, seed, backend, noise):
        circuit, refused = build_gqbsc(encode_operands(1, 0)), "^seed must be an integer >= 0, got "
        with pytest.raises(SimulationArgumentError, match=refused):
            sample_on(backend, circuit, None, 4, noise, seed)
        if seed is not None:  # run's None means fresh entropy
            with pytest.raises(SimulationArgumentError, match=refused):
                RUNNERS[backend](circuit).run(None, seed, noise)

    @pytest.mark.parametrize("integer", [np.int64, np.uint8, np.uint64])
    def test_numpy_integer_seed_draws_as_its_int(self, integer):
        circuit = build_gqbsc(encode_operands(5, 6))
        assert (sample(circuit, shots=256, noise=NOISES[0], seed=integer(7))
                == sample(circuit, shots=256, noise=NOISES[0], seed=7))
        for runner in (ClassicalRunner(circuit), DenseRunner(circuit)):
            assert runner.run(None, integer(7), NOISES[0]) == runner.run(None, 7, NOISES[0])


class TestShotsValidated:
    @pytest.mark.parametrize("shots", [True, False, 2.5, 3.0, np.float64(2), "3", None, np.True_],
                             ids=repr)
    def test_non_integer_counts_rejected(self, shots):
        with pytest.raises(ValueError):
            sample(build_gqbsc(encode_operands(0, 0)), shots=shots)

    def test_numpy_integer_count_accepted(self):
        histogram = sample(build_gqbsc(encode_operands(0, 1)), shots=np.int64(3),
                           noise=BENCH_NOISE, seed=1)
        assert histogram.shots == 3 and type(histogram.shots) is int


class TestNoiselessClassicalSample:
    def test_interpreter_entered_once(self, monkeypatch):
        entered = []
        run_lanes = ClassicalRunner._run_lanes

        def counted(self, *args, **kwargs):
            entered.append(1)
            return run_lanes(self, *args, **kwargs)

        monkeypatch.setattr(ClassicalRunner, "_run_lanes", counted)
        circuit = build_gqbsc(encode_operands(5, 6))
        histogram = sample(circuit, shots=1024, seed=3)
        assert len(entered) == 1
        value = sum(b << k for k, b in enumerate(run_classical(circuit).classical_bits))
        assert histogram == Histogram(1024, {value: 1024})

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_per_shot_runs(self, variant):
        n = 3
        body = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
        runner = ClassicalRunner(body)
        for a in range(1 << n):
            for b in range(1 << n):
                bits = bits_for(a, b, n)
                assert sample(body, bits, shots=5, seed=a) == per_shot(runner, bits, 5, None, a)


class TestDifferentialHistograms:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permutation_circuits(self, data):
        circuit = data.draw(permutation_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**64))
        noise = data.draw(st.sampled_from(NOISES))
        want = reference_sample(circuit, bits, 12, noise, seed)
        assert per_shot(ClassicalRunner(circuit), bits, 12, noise, seed) == want
        for backend in RUNNERS:
            assert sample_on(backend, circuit, bits, 12, noise, seed) == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lowered_circuits(self, data):
        circuit = lower_circuit(data.draw(permutation_circuits(max_qubits=5)))
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from(NOISES + [None]))
        got = sample_on("dense", circuit, bits, 8, noise, seed)
        assert got == reference_sample(circuit, bits, 8, noise, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_statevector_circuits(self, data):
        circuit = data.draw(statevector_circuits(max_qubits=4))
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from(NOISES))
        got = sample_on("dense", circuit, bits, 8, noise, seed)
        assert got == reference_sample(circuit, bits, 8, noise, seed)
        assert got == per_shot(DenseRunner(circuit), bits, 8, noise, seed)

    def test_draw_bound_reached(self):
        # every touched qubit hits and the measured qubit is superposed, so a
        # shot draws exactly K = 2 * (1 + 2) + 2 uniforms
        circuit = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
        noise = NoiseModel(1.0, 0.5)
        assert simulate._draw_bound(DenseRunner(circuit)._static) == 8
        for seed in range(3):
            assert (sample(circuit, shots=32, noise=noise, seed=seed)
                    == reference_sample(circuit, None, 32, noise, seed))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_n3_pair_at_benchmark_noise(self, variant):
        n = 3
        body = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
        classical = ClassicalRunner(body)
        for a in range(1 << n):
            for b in range(1 << n):
                bits = bits_for(a, b, n)
                for seed in range(3):
                    got = sample(body, bits, shots=24, noise=BENCH_NOISE, seed=seed)
                    assert got == per_shot(classical, bits, 24, BENCH_NOISE, seed), (a, b, seed)
                    assert got == sample_on("dense", body, bits, 24, BENCH_NOISE, seed), (
                        a, b, seed)

    def test_memory_does_not_grow_with_shots(self):
        circuit = build_gqbsc(encode_operands(0, 0))
        sample(circuit, shots=10, noise=BENCH_NOISE, seed=1)
        tracemalloc.start()
        try:
            histogram = sample(circuit, shots=50_000, noise=BENCH_NOISE, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert histogram.shots == 50_000
        assert peak < 512 * 1024


class TestCalmShots:
    """A noisy classical ``sample`` settles each shot whose draws are all
    >= max(p, q) as the quiet run, and interprets only the others."""

    @pytest.mark.parametrize("shots", [1, 1024, 3000])
    def test_silent_noise_runs_once(self, shots, monkeypatch):
        circuit = build_gqbsc(encode_operands(5, 6))
        value = sum(b << k for k, b in enumerate(run_classical(circuit).classical_bits))
        want = Histogram(shots, {value: shots})
        entered = count_lanes(monkeypatch)
        assert sample(circuit, shots=shots, noise=NoiseModel(0, 0), seed=3) == want
        assert len(entered) == 1

    @pytest.mark.parametrize("noise", [NoiseModel(1.0, 0), NoiseModel(0, 1.0)])
    def test_certain_noise_runs_every_shot(self, noise, monkeypatch):
        circuit = build_gqbsc(encode_operands(5, 6))
        want = per_shot(ClassicalRunner(circuit), None, 40, noise, 9)
        entered = count_lanes(monkeypatch)
        assert sample(circuit, shots=40, noise=noise, seed=9) == want
        assert len(entered) == 1 + 40  # the quiet run, then every shot

    @pytest.mark.parametrize("noise", [NoiseModel(0.5, 0.25), NoiseModel(0.25, 0.5)])
    def test_uniform_equal_to_the_bar_is_calm(self, noise, monkeypatch):
        circuit = build_gqbsc(encode_operands(5, 6))
        runner = ClassicalRunner(circuit)
        bits = (0,) * circuit.num_qubits
        at_bar = [0.5] * simulate._draw_bound(runner._static)
        rows = [at_bar,
                [0.1] + at_bar[1:],  # the first depolarizing draw hits (Pauli Y)
                at_bar[:-1] + [0.0]]  # below the bar only past the quiet run's draws
        counts: dict[int, int] = {}
        for row in rows:
            value = simulate._register(runner._execute(bits, iter(row).__next__, noise))
            counts[value] = counts.get(value, 0) + 1
        monkeypatch.setattr(streams, "_shot_rows", lambda *args: iter([np.array(rows)]))
        entered = count_lanes(monkeypatch)
        assert sample(circuit, shots=3, noise=noise) == Histogram(3, dict(sorted(counts.items())))
        assert len(entered) == 2  # the quiet run and the second row

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_shot_reference_and_dense(self, data):
        circuit = data.draw(permutation_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**64))
        noise = data.draw(st.sampled_from(CALM_NOISES))
        got = sample(circuit, bits, shots=12, noise=noise, seed=seed)
        assert got == per_shot(ClassicalRunner(circuit), bits, 12, noise, seed)
        assert got == reference_sample(circuit, bits, 12, noise, seed)
        assert got == sample_on("dense", circuit, bits, 12, noise, seed)

    @pytest.mark.parametrize("row_bytes", [1, 8 * 76 * 3, 1 << 16])
    def test_row_blocks_leave_histograms_unchanged(self, row_bytes, monkeypatch):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        bits = bits_for(5, 6, 3)
        want = per_shot(ClassicalRunner(body), bits, 300, BENCH_NOISE, 4)
        monkeypatch.setattr(streams, "_ROW_BYTES", row_bytes)
        assert sample(body, bits, shots=300, noise=BENCH_NOISE, seed=4) == want

    def test_row_blocks_capped_at_n1000(self):
        # a shot's row holds K = 29,998 uniforms here, 240 kB: 8 rows in one
        # block would take 1.9 MB and 1024 rows 246 MB
        circuit = build_gqbsc(encode_operands("1" * 1000, "1" * 999 + "0"))
        runner = ClassicalRunner(circuit)
        assert simulate._draw_bound(runner._static) == 29_998
        sample(circuit, shots=1, noise=BENCH_NOISE, seed=1)
        tracemalloc.start()
        try:
            histogram = sample(circuit, shots=8, noise=BENCH_NOISE, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024
        assert histogram == per_shot(runner, None, 8, BENCH_NOISE, 1)


# the most quiet-run draws one full seeding block can pay to step
PAY_BOUND = streams._SEED_BLOCK // streams._STEP_SHOTS


class TestArrayStreams:
    """The calm prefix steps PCG64 in uint64 array arithmetic; its uniforms
    and the rows it leaves must be numpy's own."""

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_stepped_prefix_equals_numpy(self, seed):
        state = streams._block_states(streams._words(int(seed)), 0, 40)
        got = np.stack(list(streams._uniforms(state, PAY_BOUND)), axis=1)
        assert got.tolist() == numpy_rows(seed, 0, 40, PAY_BOUND)

    @pytest.mark.parametrize("block", [3, 1024])
    def test_prefix_rows_across_2_32_for_every_d(self, block, monkeypatch):
        monkeypatch.setattr(streams, "_SEED_BLOCK", block)
        monkeypatch.setattr(streams, "_STEP_SHOTS", 0)  # every block steps
        seed, start, stop = 2**64 + 3, 2**32 - 2, 2**32 + 5  # 4, then 5 entropy words
        full = numpy_rows(seed, start, stop, PAY_BOUND)
        for d in range(1, PAY_BOUND + 1):
            got = [row.tolist() for rows in streams._shot_rows(seed, start, stop, d,
                                                                np.full(d, 0.02))
                   for row in rows]
            assert got == [row[:d] for row in full if min(row[:d]) < 0.02], d

    def test_prefix_uniform_at_its_bound_is_calm(self, monkeypatch):
        monkeypatch.setattr(streams, "_STEP_SHOTS", 0)  # every block steps
        d = 20
        row = numpy_rows(7, 3, 4, d)[0]
        at = [r.tolist() for rows in streams._shot_rows(7, 3, 4, d, np.array(row)) for r in rows]
        above = [r.tolist() for rows in streams._shot_rows(7, 3, 4, d, np.nextafter(row, 1))
                 for r in rows]
        assert at == [] and above == [row]


class TestPerDrawBounds:
    """A shot is calm when each of the quiet run's draws is >= the p or q that
    draw is tested against, not only when all are >= max(p, q)."""

    @pytest.mark.parametrize("runner_class", [ClassicalRunner, DenseRunner])
    def test_n1_quiet_run_bounds(self, runner_class):
        runner = runner_class(build_gqbsc(Operands((0,), (0,))))
        p, q = 0.01, 0.02
        # every n=1 op fires: x q1; ccx q0,q1,q2; x q0; x q1; ccx q0,q1,q3;
        # x q0; measure q2; measure q3
        want = [p] + [p, p, p] + [p] + [p] + [p, p, p] + [p] + [q] + [q]
        for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            bits = bits_for(a, b, 1)
            quiet, bounds, _ = simulate._quiet_run(runner, bits, NoiseModel(p, q))
            assert bounds.tolist() == want
            assert quiet == runner._execute(bits, None, None)

    @pytest.mark.parametrize("noise, draw", [(NoiseModel(0.01, 0.02), 0),   # a gate draw
                                             (NoiseModel(0.02, 0.01), 10)])  # a readout draw
    def test_draw_under_max_but_over_its_own_bound_is_calm(self, noise, draw, monkeypatch):
        circuit = build_gqbsc(Operands((0,), (0,)))
        runner = ClassicalRunner(circuit)
        bits = (0,) * circuit.num_qubits
        row = [0.5] * simulate._draw_bound(runner._static)
        row[draw] = 0.015  # below max(p, q), not below the draw's own bound
        quiet = runner._execute(bits, None, None)
        assert runner._execute(bits, iter(row).__next__, noise) == quiet
        monkeypatch.setattr(streams, "_shot_rows", lambda *args: iter([np.array([row] * 16)]))
        entered = count_lanes(monkeypatch)
        want = Histogram(16, {simulate._register(quiet): 16})
        assert sample(circuit, shots=16, noise=noise) == want
        assert len(entered) == 1  # the quiet run only

    @pytest.mark.parametrize("backend", ["classical", "dense"])
    @pytest.mark.parametrize("noise", CALM_NOISES, ids=repr)
    @pytest.mark.parametrize("step_shots", [0, 10**9], ids=["steps", "never-steps"])
    def test_both_sides_of_the_pay_rule(self, step_shots, noise, backend, monkeypatch):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        bits = bits_for(5, 6, 3)
        want = per_shot(RUNNERS[backend](body), bits, 200, noise, 4)
        stepped = []
        uniforms = streams._uniforms
        monkeypatch.setattr(streams, "_uniforms",
                            lambda *args: stepped.append(1) or uniforms(*args))
        monkeypatch.setattr(streams, "_SEED_BLOCK", 64)
        monkeypatch.setattr(streams, "_STEP_SHOTS", step_shots)
        assert sample_on(backend, body, bits, 200, noise, 4) == want
        # a bound of 1.0 leaves no shot calm, so no block steps
        assert bool(stepped) == (step_shots == 0 and noise.depolarizing_per_gate < 1)


# CV on a set control leaves the target even, so its measurement is a Born draw
BORN = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)


class TestResumedShots:
    """The quiet run's marks: a shot that is not calm resumes from the last
    mark at or before its first event, on either backend, and a sample whose
    quiet run draws nothing is one run."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_shot_oracle(self, data):
        dense = data.draw(st.booleans())
        circuit = data.draw(statevector_circuits(max_qubits=4) if dense
                            else permutation_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**64))
        noise = data.draw(st.sampled_from([None, NoiseModel(0, 0), NoiseModel(1.0, 1.0),
                                           NoiseModel(0.2, 0.1), NoiseModel(0.1, 0.3), BENCH_NOISE]))
        shots = data.draw(st.integers(1, 40))
        runner = (DenseRunner if dense else ClassicalRunner)(circuit)
        # seeding blocks of 8 shots; some samples step every block
        with mock.patch.object(streams, "_SEED_BLOCK", 8), \
                mock.patch.object(streams, "_STEP_SHOTS", data.draw(st.sampled_from([0, 8]))):
            got = simulate._sample(runner, bits, shots, noise, seed)
        assert got == per_shot(runner, bits, shots, noise, seed)

    @pytest.mark.parametrize("noise", [None, BENCH_NOISE, NoiseModel(0.3, 0.2)], ids=repr)
    def test_born_draw_in_the_quiet_run(self, noise, monkeypatch):
        runner = DenseRunner(BORN)
        quiet, bounds, _ = simulate._quiet_run(runner, (0, 0), noise)
        assert quiet == (0,)  # a quiet Born draw of 1.0 reads 0
        if noise is None:
            assert bounds.tolist() == pytest.approx([0.5])
        else:
            p, q = noise.depolarizing_per_gate, noise.readout_flip
            assert bounds.tolist() == pytest.approx([p, p, p, 0.5, q])
        want = per_shot(runner, None, 64, noise, 5)
        assert want == reference_sample(BORN, None, 64, noise, 5)
        entered = count_lanes(monkeypatch, DenseRunner, "_execute")
        assert sample(BORN, shots=64, noise=noise, seed=5) == want
        assert 1 < len(entered) < 1 + 64  # some shots are calm, some are not

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_noiseless_lowered_sample_is_one_run(self, variant, monkeypatch):
        body = lower_circuit(build_gqbsc(Operands((0,) * 3, (0,) * 3), variant))
        bits = bits_for(5, 6, 3)
        want = per_shot(DenseRunner(body), bits, 16, None, 2)
        entered = count_lanes(monkeypatch, DenseRunner, "_execute")
        assert sample(body, bits, shots=16, seed=2) == want
        assert len(entered) == 1

    @pytest.mark.parametrize("backend", ["classical", "dense"])
    def test_every_mark_resumes_to_the_quiet_run(self, backend):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        if backend == "dense":
            body = lower_circuit(body)
        runner = simulate._runner(body)
        assert runner.backend == backend
        bits = bits_for(5, 6, 3)
        quiet, bounds, marks = simulate._quiet_run(runner, bits, BENCH_NOISE)
        k = simulate._draw_bound(runner._static)
        offsets = [offset for offset, _ in marks]
        assert offsets[0] == 0 and marks[0][1] is None
        assert offsets == sorted(set(offsets)) and offsets[-1] <= len(bounds)
        assert len(marks) > len(bounds) // 4  # one after each op that drew
        for offset, start in marks:
            assert runner._execute(bits, iter([1.0] * (k - offset)).__next__, BENCH_NOISE,
                                   start) == quiet

    def test_dropped_marks_leave_histograms_unchanged(self, monkeypatch):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        bits = bits_for(5, 6, 3)
        want = per_shot(ClassicalRunner(body), bits, 512, BENCH_NOISE, 4)
        quiet_run = simulate._quiet_run

        def every_third(*args):
            quiet, bounds, marks = quiet_run(*args)
            return quiet, bounds, marks[::3]

        monkeypatch.setattr(simulate, "_quiet_run", every_third)
        assert sample(body, bits, shots=512, noise=BENCH_NOISE, seed=4) == want

    @pytest.mark.parametrize("backend", ["classical", "dense"])
    def test_control_resuming_one_mark_late_changes_the_histogram(self, backend, monkeypatch):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        if backend == "dense":
            body = lower_circuit(body)
        bits = bits_for(5, 6, 3)
        shots = 512 if backend == "classical" else 64
        want = per_shot(RUNNERS[backend](body), bits, shots, BENCH_NOISE, 4)
        assert sample(body, bits, shots=shots, noise=BENCH_NOISE, seed=4) == want
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, v, side: np.minimum(searchsorted(a, v, side) + 1, len(a)))
        late = sample(body, bits, shots=shots, noise=BENCH_NOISE, seed=4)
        assert late != want

    def test_marks_bounded_at_n1000(self):
        circuit = build_gqbsc(encode_operands("1" * 1000, "1" * 999 + "0"))
        runner = ClassicalRunner(circuit)
        width = circuit.num_qubits + circuit.num_clbits
        bits = (0,) * circuit.num_qubits
        _, bounds, marks = simulate._quiet_run(runner, bits, BENCH_NOISE)
        assert (len(marks) - 1) * 8 * width <= streams._ROW_BYTES
        assert [offset for offset, _ in marks] == sorted({offset for offset, _ in marks})
        for _, start in marks[1:]:
            assert len(start[1]) == circuit.num_qubits and len(start[2]) == circuit.num_clbits
        # marks are taken until the budget runs out
        assert len(marks) == 1 + streams._ROW_BYTES // (8 * width) > 2

    def test_dense_marks_charged_by_amplitude(self):
        # CV on a set control doubles the amplitudes: 2^9 after nine of them
        circuit = Circuit(14, 1).x(0)
        for t in range(1, 10):
            circuit.cv(0, t)
        for _ in range(300):
            circuit.x(13)
        circuit.measure(13, 0)
        runner = DenseRunner(circuit)
        tracemalloc.start()
        try:
            quiet, bounds, marks = simulate._quiet_run(runner, (0,) * 14, BENCH_NOISE)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        words = [simulate._AMP_WORDS * len(amps) + len(cl) for _, (_, amps, cl) in marks[1:]]
        assert sum(words) * 8 <= streams._ROW_BYTES
        assert held - bounds.nbytes <= streams._ROW_BYTES  # the charge is not below the cost
        assert marks[-1][0] < len(bounds) // 2  # the budget runs out early in the run
        for offset, start in marks:
            assert runner._execute((0,) * 14, iter([1.0] * len(bounds)).__next__, BENCH_NOISE,
                                   start) == quiet
        assert (sample(circuit, shots=64, noise=BENCH_NOISE, seed=3)
                == per_shot(runner, None, 64, BENCH_NOISE, 3))

    @pytest.mark.parametrize("noise", [None, BENCH_NOISE], ids=repr)
    def test_zero_width_circuit(self, noise):
        assert sample(Circuit(0, 0), shots=4, noise=noise, seed=1) == Histogram(4, {0: 4})
