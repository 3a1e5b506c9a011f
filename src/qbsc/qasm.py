"""Text serialization in an OpenQASM-3-flavoured subset.

Grammar (one statement per line, ``//`` comments, LF endings):

    OPENQASM 3.0;
    qubit[N] q;                    // omitted when N = 0
    bit[M] cr;                     // omitted when M = 0
    x q[i];
    cx q[i], q[j];
    ccx q[i], q[j], q[k];
    cv q[i], q[j];                 // controlled square-root-of-NOT
    cvdg q[i], q[j];               // its inverse (both nonstandard names)
    cr[k] = measure q[i];
    if (cr == V) { ... }           // whole-register equality, decimal V

Dialect notes, both load-bearing for round-tripping:
    - measurements are unconditional by construction in this IR, so a measure
      statement inside an ``if`` block re-reads its qubit unconditionally (the
      enclosing condition applies to gate statements only);
    - barriers have no statement form; the exporter writes them as
      ``// barrier <label>`` comments and the parser reconstructs exactly
      that form, so parse(export(c)) reproduces the instruction list verbatim.
"""
from __future__ import annotations

import re

from .circuit import (
    GATE_NAMES,
    MAX_WIDTH,
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateKind,
    GateOp,
    MeasureOp,
)
from .errors import (
    IndexOutOfRange,
    QasmSyntaxError,
    UndeclaredRegister,
    UnsupportedInstruction,
)

_INDENT = "  "
# The scanner's freedom between tokens, and its (ASCII) decimal integer.
_WS = "[ \t]*"
_INT = "([0-9]+)"


def export(circuit: Circuit) -> str:
    """Deterministic text form of ``circuit``.

    Consecutive gates sharing one condition are grouped into a single ``if``
    block; measurements issued inside that run stay inside the block (see the
    dialect notes). Raises UnsupportedInstruction for conditions that do not
    cover the whole classical register.
    """
    lines = ["OPENQASM 3.0;"]
    if circuit.num_qubits:
        lines.append(f"qubit[{circuit.num_qubits}] q;")
    if circuit.num_clbits:
        lines.append(f"bit[{circuit.num_clbits}] cr;")

    full_mask = tuple(range(circuit.num_clbits))
    open_value: int | None = None

    def close_block():
        nonlocal open_value
        if open_value is not None:
            lines.append("}")
            open_value = None

    for instr in circuit.instructions:
        if isinstance(instr, BarrierOp):
            close_block()
            lines.append("// barrier" if instr.label is None else f"// barrier {instr.label}")
        elif isinstance(instr, MeasureOp):
            stmt = f"cr[{instr.clbit}] = measure q[{instr.qubit}];"
            lines.append(_INDENT + stmt if open_value is not None else stmt)
        else:
            stmt = f"{instr.gate.value} " + ", ".join(f"q[{t}]" for t in instr.targets) + ";"
            if instr.condition is None:
                close_block()
                lines.append(stmt)
            else:
                if circuit.num_clbits == 0 or instr.condition.mask != full_mask:
                    raise UnsupportedInstruction(
                        f"only whole-register conditions serialize: {instr.condition}"
                    )
                if open_value != instr.condition.value:
                    close_block()
                    lines.append(f"if (cr == {instr.condition.value}) {{")
                    open_value = instr.condition.value
                lines.append(_INDENT + stmt)
    close_block()
    return "\n".join(lines) + "\n"


class _Scanner:
    """Single-line cursor with 1-based error positions."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def error(self, message: str, expected: str) -> QasmSyntaxError:
        return QasmSyntaxError(message, self.line_no, self.pos + 1, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            got = self.text[self.pos:self.pos + len(literal)] or "end of line"
            raise self.error(f"found {got!r}", repr(literal))
        self.pos += len(literal)

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                              or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("not an identifier", "identifier")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("not a number", "decimal integer")
        return int(self.text[start:self.pos])

    def end_of_line(self):
        if not self.at_end():
            raise self.error(f"trailing text {self.text[self.pos:]!r}", "end of line")


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.qreg: str | None = None
        self.creg: str | None = None
        self.num_qubits = 0
        self.num_clbits = 0
        self.instructions = []
        self.condition: ClassicalCondition | None = None
        self.saw_version = False
        self.saw_statement = False
        # Whole-line patterns for gate and measure statements, made once the
        # registers they name are declared (see _compile_patterns).
        self.gate_line: re.Pattern | None = None
        self.measure_line: re.Pattern | None = None

    def parse(self) -> Circuit:
        """Read each line in order. Once the first statement is read, the
        registers are fixed (a declaration can only raise), so what a line
        does depends on its text and the open condition alone: a line that
        parsed is recorded in that condition's table, and where it recurs
        under that condition it is replayed instead of parsed again."""
        instructions = self.instructions
        # Open condition value (None outside a block) -> {raw line: (the
        # instruction it appended or None, the condition it left open, that
        # condition's table)}.
        tables: dict[int | None, dict] = {None: {}}
        table = tables[None]
        for line_no, raw in enumerate(self.lines, start=1):
            seen = table.get(raw)
            if seen is not None:
                instr, self.condition, table = seen
                if instr is not None:
                    instructions.append(instr)
                continue
            count = len(instructions)
            self._line(raw, line_no)
            if self.saw_statement:
                condition = self.condition
                after = tables.setdefault(None if condition is None else condition.value, {})
                table[raw] = (instructions[-1] if len(instructions) > count else None,
                              condition, after)
                table = after
        if not self.saw_version:
            raise QasmSyntaxError("empty document", 1, 1, "'OPENQASM 3.0;'")
        if self.condition is not None:
            raise QasmSyntaxError("unterminated if block", len(self.lines), 1, "'}'")
        # every index was range-checked against the declarations above
        return Circuit._trusted(self.num_qubits, self.num_clbits, self.instructions)

    def _line(self, raw: str, line_no: int):
        if self.gate_line is not None and self._matched_statement(raw):
            return
        stripped = raw.strip()
        if not stripped:
            return
        if stripped.startswith("//"):
            self._comment(stripped)
            return
        self._statement(_Scanner(raw, line_no))

    def _compile_patterns(self):
        """Patterns accepting exactly what the scanner accepts for a gate or
        measure line: the same tokens, ``[ \\t]*`` between them, and at
        least one blank between a gate name and the register name, which
        the scanner would otherwise read as one identifier."""
        ref = re.escape(self.qreg) + f"{_WS}\\[{_WS}{_INT}{_WS}\\]"
        more = f"(?:{_WS},{_WS}{ref})?"
        self.gate_line = re.compile(f"{_WS}([a-z]+)[ \\t]+{ref}{more}{more}{_WS};{_WS}")
        # A bit register named like a statement keyword never heads a measure.
        if self.creg is not None and self.creg not in GATE_NAMES \
                and self.creg not in ("qubit", "bit", "if"):
            self.measure_line = re.compile(
                f"{_WS}{re.escape(self.creg)}{_WS}\\[{_WS}{_INT}{_WS}\\]{_WS}={_WS}"
                f"measure{_WS}{ref}{_WS};{_WS}")

    def _matched_statement(self, raw: str) -> bool:
        """Take a well-formed, in-range gate or measure line by pattern.

        False leaves the line to the scanner, which parses it the same way or
        raises the error with its position.
        """
        m = self.gate_line.fullmatch(raw)
        if m is not None:
            kind = GATE_NAMES.get(m[1])
            targets = tuple(int(t) for t in m.groups()[1:] if t is not None)
            if kind is None or len(targets) != kind.arity or max(targets) >= self.num_qubits:
                return False
            self.saw_statement = True
            self.instructions.append(GateOp(kind, targets, self.condition))
            return True
        m = self.measure_line.fullmatch(raw) if self.measure_line is not None else None
        if m is None:
            return False
        clbit, qubit = int(m[1]), int(m[2])
        if clbit >= self.num_clbits or qubit >= self.num_qubits:
            return False
        self.saw_statement = True
        self.instructions.append(MeasureOp(qubit, clbit))
        return True

    def _comment(self, stripped: str):
        body = stripped[2:].strip()
        if body == "barrier":
            self.instructions.append(BarrierOp(None))
        elif body.startswith("barrier "):
            self.instructions.append(BarrierOp(body[len("barrier "):].strip()))
        # anything else is an ordinary comment

    def _statement(self, sc: _Scanner):
        if not self.saw_version:
            sc.expect("OPENQASM")
            sc.expect("3.0")
            sc.expect(";")
            sc.end_of_line()
            self.saw_version = True
            return
        if sc.peek() == "}":
            sc.expect("}")
            sc.end_of_line()
            if self.condition is None:
                raise sc.error("no open if block", "statement")
            self.condition = None
            return
        head = sc.ident()
        if head in ("qubit", "bit"):
            self._declaration(sc, head)
        elif head == "if":
            self._open_if(sc)
        elif head in GATE_NAMES:
            self._gate(sc, GATE_NAMES[head])
        elif sc.peek() == "[":
            self._measure(sc, head)
        else:
            raise sc.error(f"unknown statement {head!r}", "gate, measure, if, or declaration")

    def _declaration(self, sc: _Scanner, kind: str):
        if self.saw_statement:
            raise sc.error("declaration after statements", "declarations before statements")
        sc.expect("[")
        size = sc.integer()
        if size > MAX_WIDTH:  # before a condition value or pattern is sized by it
            raise sc.error(f"register size {size} exceeds the cap", f"at most {MAX_WIDTH}")
        sc.expect("]")
        name = sc.ident()
        sc.expect(";")
        sc.end_of_line()
        if kind == "qubit":
            if self.qreg is not None:
                raise sc.error("second qubit register", "a single qubit register")
            self.qreg, self.num_qubits = name, size
        else:
            if self.creg is not None:
                raise sc.error("second bit register", "a single bit register")
            self.creg, self.num_clbits = name, size
        if self.qreg is not None:
            self._compile_patterns()

    def _qubit_ref(self, sc: _Scanner) -> int:
        name = sc.ident()
        if name != self.qreg:
            raise UndeclaredRegister(f"line {sc.line_no}: unknown qubit register {name!r}")
        sc.expect("[")
        idx = sc.integer()
        sc.expect("]")
        if idx >= self.num_qubits:
            raise IndexOutOfRange(
                f"line {sc.line_no}: q[{idx}] outside declared qubit[{self.num_qubits}]"
            )
        return idx

    def _gate(self, sc: _Scanner, kind: GateKind):
        self.saw_statement = True
        targets = [self._qubit_ref(sc)]
        for _ in range(kind.arity - 1):
            sc.expect(",")
            targets.append(self._qubit_ref(sc))
        sc.expect(";")
        sc.end_of_line()
        self.instructions.append(GateOp(kind, tuple(targets), self.condition))

    def _measure(self, sc: _Scanner, head: str):
        self.saw_statement = True
        if head != self.creg:
            raise UndeclaredRegister(f"line {sc.line_no}: unknown bit register {head!r}")
        sc.expect("[")
        clbit = sc.integer()
        sc.expect("]")
        if clbit >= self.num_clbits:
            raise IndexOutOfRange(
                f"line {sc.line_no}: cr[{clbit}] outside declared bit[{self.num_clbits}]"
            )
        sc.expect("=")
        sc.expect("measure")
        qubit = self._qubit_ref(sc)
        sc.expect(";")
        sc.end_of_line()
        # Measures never carry a condition, even inside an if block.
        self.instructions.append(MeasureOp(qubit, clbit))

    def _open_if(self, sc: _Scanner):
        self.saw_statement = True
        if self.condition is not None:
            raise sc.error("nested if block", "a flat if block")
        sc.expect("(")
        name = sc.ident()
        if name != self.creg:
            raise UndeclaredRegister(f"line {sc.line_no}: unknown bit register {name!r}")
        sc.expect("==")
        value = sc.integer()
        sc.expect(")")
        sc.expect("{")
        sc.end_of_line()
        if value >= (1 << self.num_clbits):
            raise IndexOutOfRange(
                f"line {sc.line_no}: condition value {value} too large for"
                f" bit[{self.num_clbits}]"
            )
        self.condition = ClassicalCondition(tuple(range(self.num_clbits)), value)


def parse(text: str) -> Circuit:
    """Parse the subset grammar back into a circuit."""
    return _Parser(text).parse()
