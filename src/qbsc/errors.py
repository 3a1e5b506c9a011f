"""Exception types raised across the toolkit.

Everything derives from :class:`QbscError` so callers (notably the CLI) can
catch the whole family at once. Construction-time validation errors double as
``ValueError`` for interop with generic callers.
"""


class QbscError(Exception):
    """Base class for all toolkit errors."""


class CircuitError(QbscError, ValueError):
    """Invalid circuit construction or query."""


class IndexOutOfRange(CircuitError):
    """A qubit/clbit index (or condition value) exceeds the declared width."""


class ArityMismatch(CircuitError):
    """Gate target count does not match the gate's arity."""


class DuplicateTarget(CircuitError):
    """The same qubit appears twice in one instruction."""


class SimulationError(QbscError):
    """Execution-time failure in a backend."""


class SimulationArgumentError(SimulationError, ValueError):
    """A noise probability, shot count or other run argument out of range."""


class TooManyQubits(SimulationError):
    """Circuit exceeds the dense backend's qubit cap."""


class NormDrift(SimulationError):
    """Statevector norm drifted beyond tolerance during execution."""


class NonClassicalGate(SimulationError):
    """The classical backend saw a gate outside {X, CX, CCX}."""


class OperandError(QbscError, ValueError):
    """Invalid comparator operand."""


class InvalidBitstring(OperandError):
    """Operand contains characters outside {0, 1} or is not encodable."""


class EmptyOperand(OperandError):
    """Operand has zero bits."""


class UnknownMethod(QbscError, ValueError):
    """Resource model requested for an unknown comparator method."""


class ResourceArgumentError(QbscError, ValueError):
    """A resource-model width below 1, an unknown metric or no widths."""


class QasmError(QbscError):
    """Serialization/deserialization failure."""


class UnsupportedInstruction(QasmError):
    """Circuit contains a form the text grammar cannot express."""


class QasmSyntaxError(QasmError):
    """Malformed source text; carries a 1-based position and the expectation."""

    def __init__(self, message: str, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: {message} (expected {expected})")
        self.line = line
        self.column = column
        self.expected = expected


class UndeclaredRegister(QasmError):
    """Statement references a register name that was never declared."""
