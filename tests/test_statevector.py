"""The amplitude-map statevector engine against the numpy reference.

``DenseRunner`` keeps only nonzero amplitudes; ``_oracles.NumpyStatevector``
holds all 2^n of them in an array. Under one seed both must agree run for
run: classical bits, measurement trace, executed census and noisy register
values, which also pins the order in which the engine consumes its draws.
Only discrete outcomes are compared: the two sum measurement probabilities in
different orders, which can differ in the last digit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc.circuit import Circuit, ClassicalCondition, GateKind, GateOp
from qbsc.comparator import BuilderVariant, _body, build_gqbsc, encode_operands, reference_flags
from qbsc.errors import SimulationArgumentError, SimulationError
from qbsc.gates import lower_circuit
from qbsc.simulate import DenseRunner, NoiseModel, sample

from _oracles import NumpyStatevector, reference_sample

NOISY = NoiseModel(0.05, 0.05)
# every touched qubit takes a Pauli, so Y and Z are drawn as often as X
HEAVY = NoiseModel(1.0, 0.0)
GATES = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CV, GateKind.CVDG)


@st.composite
def statevector_circuits(draw, max_qubits=6, max_clbits=3, max_len=24):
    """Random X/CX/CCX/CV/CV-dagger circuits with conditions, some one object
    shared by several gates, and mid-circuit measurements."""
    nq = draw(st.integers(1, max_qubits))
    nc = draw(st.integers(0, max_clbits))
    circuit = Circuit(nq, nc)
    conditions = []  # drawn for this circuit; a later gate may reuse one object
    kinds = [k for k in GATES if k.arity <= nq]
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


def _basis_input(data, nq: int) -> tuple[int, ...]:
    return tuple(data.draw(st.lists(st.integers(0, 1), min_size=nq, max_size=nq)))


class TestAgainstNumpyReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_run_results_equal(self, data):
        circuit = data.draw(statevector_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from([None, NOISY, HEAVY]))
        assert (DenseRunner(circuit).run(bits, seed, noise)
                == NumpyStatevector(circuit).run(bits, seed, noise))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_noisy_run_values_equal(self, data):
        circuit = data.draw(statevector_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = data.draw(st.sampled_from([NOISY, HEAVY]))
        got = DenseRunner(circuit).run_value(bits, np.random.default_rng(seed), noise)
        want = NumpyStatevector(circuit).run_value(bits, np.random.default_rng(seed), noise)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_unseeded_superposition_fails_alike(self, data):
        circuit = data.draw(statevector_circuits())
        bits = _basis_input(data, circuit.num_qubits)
        try:
            want = NumpyStatevector(circuit).run(bits)
        except SimulationError:
            with pytest.raises(SimulationError, match="needs a seed"):
                DenseRunner(circuit).run(bits)
        else:
            assert DenseRunner(circuit).run(bits) == want

    @pytest.mark.parametrize("seed, noise", [pytest.param(s, NOISY, id=str(s)) for s in range(5)]
                             + [pytest.param(s, HEAVY, id=f"{s}-heavy") for s in range(5)])
    def test_lowered_comparator_histograms_equal(self, seed, noise):
        n = 3
        variant = (BuilderVariant.FIGURE, BuilderVariant.ALGORITHMIC)[seed % 2]
        lowered = lower_circuit(build_gqbsc(encode_operands("0" * n, "0" * n), variant))
        a, b = (5, 5) if seed < 3 else (2, 3)  # equal and last-bit pairs fire every block
        bits = tuple(int(ch) for ch in f"{a:03b}{b:03b}") + (0, 0)
        got = sample(lowered, bits, shots=48, noise=noise, seed=seed)
        assert got == reference_sample(lowered, bits, 48, noise, seed)


class TestSparseState:
    def test_lowered_comparator_at_the_cap(self):
        # 24 qubits: 2^24 amplitudes if stored densely, a few in the map
        n = 11
        lowered = lower_circuit(build_gqbsc(encode_operands("0" * n, "0" * n)))
        assert lowered.num_qubits == 24
        runner = DenseRunner(lowered)
        for a, b in ((1137, 1137), (1137, 1136), (560, 1137)):
            ops = encode_operands(f"{a:011b}", f"{b:011b}")
            assert runner.run(ops.initial_qubit_bits()).classical_bits == reference_flags(ops)


class TestSeedlessRun:
    def test_superposed_measurement_is_an_argument_error(self):
        circuit = Circuit(2, 1).x(0).cv(0, 1).measure(1, 0)
        with pytest.raises(SimulationArgumentError, match="needs a seed"):
            DenseRunner(circuit).run()

    def test_certain_measurements_need_no_seed(self):
        """A lowered comparator has CV gates but, on basis inputs, measures
        only certain outcomes, so it runs without a seed."""
        runner = DenseRunner(lower_circuit(_body(3, BuilderVariant.FIGURE)))
        for a, b in ((5, 6), (6, 5), (3, 3)):
            ops = encode_operands(f"{a:03b}", f"{b:03b}")
            assert runner.run(ops.initial_qubit_bits()).classical_bits == reference_flags(ops)
