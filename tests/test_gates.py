"""Gate algebra, unitaries, and the Toffoli lowering pass."""

import numpy as np
import pytest

from qbsc.circuit import (
    Circuit,
    ClassicalCondition,
    GateKind,
    GateOp,
    MeasureOp,
    new_circuit,
    static_census,
    structural_depth,
)
from qbsc.comparator import BuilderVariant, Operands, build_gqbsc
from qbsc.errors import CircuitError, NotACCX
from qbsc.gates import V, VDG, decompose_ccx, lower_circuit, unitary_of
from qbsc.simulate import DenseRunner

from _oracles import compose_circuit_unitary, embed_unitary


class TestExactAlgebra:
    """Identities that hold with zero error: every entry of V and V† is a half."""

    def test_v_times_v_dagger_is_identity(self):
        assert np.array_equal(V @ VDG, np.eye(2))
        assert np.array_equal(VDG @ V, np.eye(2))

    def test_v_squared_is_x(self):
        # the quarter turn composed twice is the half turn
        x = np.array([[0, 1], [1, 0]])
        assert np.array_equal(V @ V, x)
        assert np.array_equal(VDG @ VDG, x)

    def test_vdg_is_adjoint_of_v(self):
        assert np.array_equal(VDG, V.conj().T)

    def test_float_projection_is_exact_too(self):
        # all entries are halves, representable exactly in binary floats
        assert np.max(np.abs(V @ VDG - np.eye(2))) < 1e-15
        assert np.array_equal(V @ V, unitary_of(GateKind.X))


class TestUnitaries:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_unitarity(self, kind):
        u = unitary_of(kind)
        assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12

    def test_x_is_bit_flip(self):
        assert np.array_equal(unitary_of(GateKind.X), np.array([[0, 1], [1, 0]]))

    def test_ccx_truth_table(self):
        u = unitary_of(GateKind.CCX)
        for basis in range(8):
            vec = np.zeros(8)
            vec[basis] = 1.0
            out = u @ vec
            a, b, c = (basis >> 2) & 1, (basis >> 1) & 1, basis & 1
            expected = (a << 2) | (b << 1) | (c ^ (a & b))
            assert out[expected] == 1.0 and np.count_nonzero(out) == 1

    def test_cv_acts_only_when_control_set(self):
        u = unitary_of(GateKind.CV)
        psi = np.array([0.6, 0.8], dtype=complex)
        low = np.concatenate([psi, [0, 0]])    # |0> control
        high = np.concatenate([[0, 0], psi])   # |1> control
        assert np.allclose(u @ low, low)
        assert np.allclose((u @ high)[2:], V @ psi)

    def test_unitary_of_returns_a_copy(self):
        unitary_of(GateKind.X)[0, 0] = 9
        assert unitary_of(GateKind.X)[0, 0] == 0

    @pytest.mark.parametrize("kind", ["x", None, []])
    def test_unitary_of_refuses_what_is_not_a_gate_kind(self, kind):
        with pytest.raises(CircuitError, match="not a gate kind"):
            unitary_of(kind)


class TestDecomposeCCX:
    def test_exact_sequence(self):
        out = decompose_ccx(GateOp(GateKind.CCX, (0, 1, 2)))
        assert [(g.gate, g.targets) for g in out] == [
            (GateKind.CV, (0, 2)),
            (GateKind.CV, (1, 2)),
            (GateKind.CX, (0, 1)),
            (GateKind.CVDG, (1, 2)),
            (GateKind.CX, (0, 1)),
        ]

    def test_cost_is_five(self):
        out = decompose_ccx(GateOp(GateKind.CCX, (0, 1, 2)))
        assert sum(g.gate.unit_cost for g in out) == 5 == GateKind.CCX.unit_cost

    def test_composition_equals_toffoli(self):
        # independent oracle: embed each factor into the 8x8 space and multiply
        out = decompose_ccx(GateOp(GateKind.CCX, (0, 1, 2)))
        composed = compose_circuit_unitary(out, 3, unitary_of)
        target = embed_unitary(unitary_of(GateKind.CCX), (0, 1, 2), 3)
        assert np.max(np.abs(composed - target)) < 1e-12

    def test_composition_on_scrambled_targets(self):
        out = decompose_ccx(GateOp(GateKind.CCX, (2, 0, 1)))
        composed = compose_circuit_unitary(out, 3, unitary_of)
        target = embed_unitary(unitary_of(GateKind.CCX), (2, 0, 1), 3)
        assert np.max(np.abs(composed - target)) < 1e-12

    def test_decomposed_sequence_flips_110(self):
        c = Circuit(3, 3)
        for g in decompose_ccx(GateOp(GateKind.CCX, (0, 1, 2))):
            c.append(g)
        for q in range(3):
            c.measure(q, q)
        result = DenseRunner(c).run((1, 1, 0))
        assert result.classical_bits == (1, 1, 1)

    def test_rejects_non_ccx(self):
        with pytest.raises(NotACCX):
            decompose_ccx(GateOp(GateKind.X, (0,)))
        with pytest.raises(NotACCX):
            decompose_ccx(MeasureOp(0, 0))

    def test_rejects_conditioned_ccx(self):
        conditioned = GateOp(GateKind.CCX, (0, 1, 2), ClassicalCondition((0,), 1))
        with pytest.raises(NotACCX):
            decompose_ccx(conditioned)


class TestLowerCircuit:
    def test_lowered_one_bit_comparator_counts(self):
        lowered = lower_circuit(build_gqbsc(Operands((0,), (0,))))
        census = static_census(lowered)
        assert (census.ccx, census.cx, census.cv, census.cvdg) == (0, 4, 4, 2)

    def test_no_ccx_means_identity_pass(self):
        c = new_circuit(2, 1).x(0).cx(0, 1).measure(1, 0)
        assert lower_circuit(c) == c

    def test_total_cost_preserved(self):
        for n in (1, 2, 5):
            circuit = build_gqbsc(Operands((0,) * n, (1,) * n))
            assert (static_census(lower_circuit(circuit)).total_unit_cost
                    == static_census(circuit).total_unit_cost)

    def test_conditions_carried_onto_all_five_gates(self):
        cond = ClassicalCondition((0, 1), 0)
        c = Circuit(3, 2)
        c.ccx(0, 1, 2, condition=cond)
        lowered = lower_circuit(c)
        assert len(lowered.instructions) == 5
        assert all(g.condition == cond for g in lowered.instructions)

    def test_depth_never_increases(self):
        # expanding the atomic 5-delay CCX exposes parallelism, so the lowered
        # critical path can only shrink or stay
        for n in (1, 2, 3):
            circuit = build_gqbsc(Operands((0,) * n, (1,) * n))
            assert structural_depth(lower_circuit(circuit)) <= structural_depth(circuit)

    def test_lowered_comparator_matches_original_exhaustively(self):
        # all operand pairs for n <= 3: identical classical outcomes
        for n in (1, 2, 3):
            original = build_gqbsc(Operands((0,) * n, (0,) * n))
            lowered = lower_circuit(original)
            runner_orig = DenseRunner(original)
            runner_low = DenseRunner(lowered)
            for a in range(1 << n):
                for b in range(1 << n):
                    bits = tuple((a >> (n - 1 - k)) & 1 for k in range(n)) \
                        + tuple((b >> (n - 1 - k)) & 1 for k in range(n)) + (0, 0)
                    assert (runner_orig.run(bits).classical_bits
                            == runner_low.run(bits).classical_bits), (n, a, b)

    def test_labels_preserved(self):
        circuit = build_gqbsc(Operands((1,), (0,)))
        assert lower_circuit(circuit).labels == circuit.labels
