"""Gate identities: exact matrices, unitaries, and the Toffoli lowering pass.

The controlled square-root-of-NOT pair is stored as complex float matrices
whose entries are all halves, which binary floats hold exactly, so algebraic
identities (V·V† = I, V² = X) hold with zero error.

Tensor-index convention (applied everywhere): qubit 0 is the most significant
position of a basis label, so a controlled gate's matrix is block-diagonal
[I, U] with the control as the first listed target.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateKind, GateOp, Instruction
from .errors import CircuitError, NotACCX

# GateKind members read per instruction, bound once: a member read is a call.
_CX, _CCX, _CV, _CVDG = GateKind.CX, GateKind.CCX, GateKind.CV, GateKind.CVDG

#: V, the square root of NOT: a quarter turn where X is the half turn.
V = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
#: V†, its inverse.
VDG = V.conj().T.copy()
_X = np.array([[0, 1], [1, 0]], dtype=complex)


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
    if not isinstance(kind, GateKind):
        raise CircuitError(f"not a gate kind: {kind!r}")
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
