"""Gate identities: exact matrices, unitaries, and the Toffoli lowering pass.

The controlled square-root-of-NOT pair is stored as row-major 2x2 tuples of
Python complex numbers whose entries are all halves, which binary floats hold
exactly, so algebraic identities (V·V† = I, V² = X) hold with zero error. The
dense backend applies these tuples as they are; :func:`unitary_of` builds its
numpy matrices from them on each call, so numpy is imported only there, and
``lower_circuit`` and the rest of the toolkit's building start without it.

Tensor-index convention (applied everywhere): qubit 0 is the most significant
position of a basis label, so a controlled gate's matrix is block-diagonal
[I, U] with the control as the first listed target.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .circuit import Circuit, GateKind, GateOp, _check_circuit
from .errors import CircuitError

if TYPE_CHECKING:  # imported by unitary_of alone
    import numpy as np

# GateKind members read per instruction, bound once: a member read is a call.
_CX, _CCX, _CV, _CVDG = GateKind.CX, GateKind.CCX, GateKind.CV, GateKind.CVDG

#: V, the square root of NOT: a quarter turn where X is the half turn.
V = ((0.5 + 0.5j, 0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j))
#: V†, its inverse (the conjugate transpose).
VDG = tuple(tuple(V[c][r].conjugate() for c in range(2)) for r in range(2))
_NOT = ((0j, 1 + 0j), (1 + 0j, 0j))
# The 2x2 each kind applies to its last target where its controls are set.
_TARGET_BLOCKS = {GateKind.X: _NOT, _CX: _NOT, _CCX: _NOT, _CV: V, _CVDG: VDG}


def unitary_of(kind: GateKind) -> np.ndarray:
    """Full 2^arity × 2^arity matrix in the computational basis (a new array):
    the identity with the target block in its last two rows and columns, where
    every control (a leading, more significant qubit) is set."""
    if not isinstance(kind, GateKind):
        raise CircuitError(f"not a gate kind: {kind!r}")
    import numpy as np
    out = np.eye(1 << kind.arity, dtype=complex)
    out[-2:, -2:] = _TARGET_BLOCKS[kind]
    return out


def _ccx_expansion(a: int, b: int, c: int, condition) -> list[GateOp]:
    """The expansion of a valid CCX on (a, b, c), [CV(a→c), CV(b→c), CX(a→b),
    CV†(b→c), CX(a→b)]: total unit cost 5, and the composed unitary equals the
    Toffoli. Its qubits are distinct, so each gate is made unchecked."""
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
    _check_circuit(circuit)
    instructions = []
    for instr in circuit.instructions:
        if isinstance(instr, GateOp) and instr.gate is _CCX:
            instructions += _ccx_expansion(*instr.targets, instr.condition)
        else:
            instructions.append(instr)
    return Circuit._trusted(circuit.num_qubits, circuit.num_clbits, instructions,
                            labels=dict(circuit.labels) if circuit.labels else None)
