"""Shot streams: ``sample`` reads shot s's uniforms from a pre-drawn row that
must equal ``np.random.default_rng([seed, s]).random(K)``.

The rows come from a transcription of numpy's seeding run over blocks of
shots, so they are pinned here against numpy itself, and whole histograms
against per-shot runs on generators numpy builds and against the numpy
reference engine, which keeps its own buffered stream.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import simulate
from qbsc.circuit import new_circuit
from qbsc.comparator import BuilderVariant, Operands, build_gqbsc, encode_operands
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


def rows(seed, start: int, stop: int, k: int = K) -> list[list[float]]:
    return [row.tolist() for block in simulate._shot_rows(simulate._seed_words(seed), start, stop, k)
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


def count_lanes(monkeypatch) -> list:
    """Record each entry into the classical interpreter from here on."""
    entered = []
    run_lanes = ClassicalRunner._run_lanes

    def counted(self, *args, **kwargs):
        entered.append(1)
        return run_lanes(self, *args, **kwargs)

    monkeypatch.setattr(ClassicalRunner, "_run_lanes", counted)
    return entered


def _basis_input(data, nq: int) -> tuple[int, ...]:
    return tuple(data.draw(st.lists(st.integers(0, 1), min_size=nq, max_size=nq)))


class TestSeedingPinnedToNumpy:
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_rows_across_block_boundaries(self, seed, monkeypatch):
        monkeypatch.setattr(simulate, "_SEED_BLOCK", 3)
        assert rows(seed, 0, 10) == numpy_rows(seed, 0, 10)

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_rows_in_one_block(self, seed):
        assert rows(seed, 0, 40, 101) == numpy_rows(seed, 0, 40, 101)

    @pytest.mark.parametrize("block", [3, 1024])
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_block_starting_below_2_32(self, seed, block, monkeypatch):
        # shot 2^32 is the first with two entropy words
        monkeypatch.setattr(simulate, "_SEED_BLOCK", block)
        start = 2**32 - 2
        assert rows(seed, start, start + 7) == numpy_rows(seed, start, start + 7)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("backend, noise", [("classical", None), ("classical", BENCH_NOISE),
                                                ("dense", None), ("dense", BENCH_NOISE)])
    def test_rejected_seeds_raise_numpys_error(self, seed, backend, noise):
        with pytest.raises(Exception) as numpy_error:
            np.random.default_rng([seed, 0])
        assert numpy_error.type in (ValueError, TypeError)
        circuit = build_gqbsc(encode_operands(1, 0))
        with pytest.raises(numpy_error.type):
            sample(circuit, shots=4, noise=noise, seed=seed, backend=backend)


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
        assert histogram == Histogram(1024, {run_classical(circuit).register_value: 1024})

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
        for backend in ("classical", "dense"):
            assert sample(circuit, bits, shots=12, noise=noise, seed=seed, backend=backend) == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lowered_circuits(self, data):
        circuit = lower_circuit(data.draw(permutation_circuits(max_qubits=5)))
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from(NOISES + [None]))
        got = sample(circuit, bits, shots=8, noise=noise, seed=seed, backend="dense")
        assert got == reference_sample(circuit, bits, 8, noise, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_statevector_circuits(self, data):
        circuit = data.draw(statevector_circuits(max_qubits=4))
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from(NOISES))
        got = sample(circuit, bits, shots=8, noise=noise, seed=seed, backend="dense")
        assert got == reference_sample(circuit, bits, 8, noise, seed)
        assert got == per_shot(DenseRunner(circuit), bits, 8, noise, seed)

    def test_draw_bound_reached(self):
        # every touched qubit hits and the measured qubit is superposed, so a
        # shot draws exactly K = 2 * (1 + 2) + 2 uniforms
        circuit = new_circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
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
                    assert got == sample(body, bits, shots=24, noise=BENCH_NOISE, seed=seed,
                                         backend="dense"), (a, b, seed)

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
        want = Histogram(shots, {run_classical(circuit).register_value: shots})
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
            value = simulate._register(runner._shot(bits, iter(row).__next__, noise))
            counts[value] = counts.get(value, 0) + 1
        monkeypatch.setattr(simulate, "_shot_rows", lambda *args: iter([np.array(rows)]))
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
        got = sample(circuit, bits, shots=12, noise=noise, seed=seed, backend="classical")
        assert got == per_shot(ClassicalRunner(circuit), bits, 12, noise, seed)
        assert got == reference_sample(circuit, bits, 12, noise, seed)
        assert got == sample(circuit, bits, shots=12, noise=noise, seed=seed, backend="dense")

    @pytest.mark.parametrize("row_bytes", [1, 8 * 76 * 3, 1 << 16])
    def test_row_blocks_leave_histograms_unchanged(self, row_bytes, monkeypatch):
        body = build_gqbsc(Operands((0,) * 3, (0,) * 3))
        bits = bits_for(5, 6, 3)
        want = per_shot(ClassicalRunner(body), bits, 300, BENCH_NOISE, 4)
        monkeypatch.setattr(simulate, "_ROW_BYTES", row_bytes)
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
