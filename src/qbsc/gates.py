"""Gate identities: exact matrices, unitaries, and the Toffoli lowering pass.

The controlled square-root-of-NOT pair is stored with exact complex-rational
entries so algebraic identities (V·V† = I, V² = X) hold with zero error; the
simulator boundary converts to complex floats.

Tensor-index convention (applied everywhere): qubit 0 is the most significant
position of a basis label, so a controlled gate's matrix is block-diagonal
[I, U] with the control as the first listed target.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import Circuit, GateKind, GateOp, Instruction
from .errors import NotACCX

# GateKind members read per instruction, bound once: a member read is a call.
_CX, _CCX, _CV, _CVDG = GateKind.CX, GateKind.CCX, GateKind.CV, GateKind.CVDG


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with rational real/imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


def _ec(re, im=0) -> ExactComplex:
    return ExactComplex(Fraction(re), Fraction(im))


ExactMatrix = tuple[tuple[ExactComplex, ...], ...]


def exact_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), _ec(0)) for j in range(m))
        for i in range(n)
    )


def exact_adjoint(a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0])))


_H = Fraction(1, 2)

#: V, the square root of NOT: a quarter turn where X is the half turn.
V_EXACT: ExactMatrix = (
    (ExactComplex(_H, _H), ExactComplex(_H, -_H)),
    (ExactComplex(_H, -_H), ExactComplex(_H, _H)),
)
#: V†, its inverse.
VDG_EXACT: ExactMatrix = exact_adjoint(V_EXACT)
X_EXACT: ExactMatrix = ((_ec(0), _ec(1)), (_ec(1), _ec(0)))
I_EXACT: ExactMatrix = ((_ec(1), _ec(0)), (_ec(0), _ec(1)))


def _to_numpy(m: ExactMatrix) -> np.ndarray:
    return np.array([[e.to_complex() for e in row] for row in m], dtype=complex)


V = _to_numpy(V_EXACT)
VDG = _to_numpy(VDG_EXACT)
_X = _to_numpy(X_EXACT)


def _controlled(u: np.ndarray) -> np.ndarray:
    dim = u.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = u
    return out


_UNITARIES = {
    GateKind.X: _X,
    GateKind.CX: _controlled(_X),
    GateKind.CCX: _controlled(_controlled(_X)),
    GateKind.CV: _controlled(V),
    GateKind.CVDG: _controlled(VDG),
}


def unitary_of(kind: GateKind) -> np.ndarray:
    """Full 2^arity × 2^arity matrix in the computational basis (copy)."""
    return _UNITARIES[kind].copy()


def decompose_ccx(instr: Instruction) -> list[GateOp]:
    """Expand one unconditioned CCX into its five-gate primitive sequence.

    Emits [CV(a→c), CV(b→c), CX(a→b), CV†(b→c), CX(a→b)] for CCX on (a, b, c);
    total unit cost 5, and the composed unitary equals the Toffoli.
    """
    if not isinstance(instr, GateOp) or instr.gate is not _CCX:
        raise NotACCX(f"expected a CCX gate, got {instr!r}")
    if instr.condition is not None:
        raise NotACCX("expected an unconditioned CCX (lower_circuit handles conditions)")
    a, b, c = instr.targets
    return _ccx_expansion(a, b, c, None)


def _ccx_expansion(a: int, b: int, c: int, condition) -> list[GateOp]:
    """The expansion of a valid CCX on (a, b, c): its qubits are distinct, so
    each gate is made unchecked."""
    gate = GateOp._trusted
    cx = gate(_CX, (a, b), condition)
    return [
        gate(_CV, (a, c), condition),
        gate(_CV, (b, c), condition),
        cx,
        gate(_CVDG, (b, c), condition),
        cx,
    ]


def lower_circuit(circuit: Circuit) -> Circuit:
    """Replace every CCX by its five-gate expansion; conditions are carried
    onto each emitted gate. Everything else passes through untouched. The
    input is valid and the expansion keeps its qubits, so nothing is re-checked.
    """
    instructions = []
    for instr in circuit.instructions:
        if isinstance(instr, GateOp) and instr.gate is _CCX:
            instructions += _ccx_expansion(*instr.targets, instr.condition)
        else:
            instructions.append(instr)
    return Circuit._trusted(circuit.num_qubits, circuit.num_clbits, instructions,
                            labels=dict(circuit.labels) if circuit.labels else None)
