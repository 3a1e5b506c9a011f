"""Text serialization: exporter output, parser errors, and roundtrips."""

import gc
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc.circuit import (BarrierOp, Circuit, ClassicalCondition, circuit_from_json,
                          circuit_to_json)
from qbsc.comparator import BuilderVariant, Operands, build_gqbsc, encode_operands
from qbsc import qasm
from qbsc.errors import (
    CircuitError,
    DuplicateTarget,
    IndexOutOfRange,
    QasmSyntaxError,
    QbscError,
    UndeclaredRegister,
    UnsupportedInstruction,
)
from qbsc.qasm import export, parse
from qbsc.simulate import ClassicalRunner

from test_circuit import circuit_strategy


class TestExport:
    def test_minimal_circuit(self):
        assert export(Circuit(1, 0).x(0)) == "OPENQASM 3.0;\nqubit[1] q;\nx q[0];\n"

    def test_empty_circuit_is_header_only(self):
        assert export(Circuit(0, 0)) == "OPENQASM 3.0;\n"

    def test_one_bit_comparator_statement_counts(self):
        text = export(build_gqbsc(encode_operands(0, 0)))
        lines = [line.strip() for line in text.splitlines()]
        assert sum(line.startswith("ccx ") for line in lines) == 2
        assert sum("measure" in line for line in lines) == 2

    def test_two_bit_figure_flip_site(self):
        text = export(build_gqbsc(encode_operands("00", "00")))
        lines = text.splitlines()
        at = lines.index("if (cr == 2) {")
        assert lines[at + 1].strip() == "x q[4];"
        assert lines[at + 2].strip() == "cr[0] = measure q[4];"
        assert lines[at + 3] == "}"

    def test_blocks_grouped_under_one_condition(self):
        text = export(build_gqbsc(encode_operands("000", "000")))
        assert text.count("if (cr == 0) {") == 2  # blocks 2 and 3
        assert text.count("if (cr == 2) {") == 1

    def test_barriers_exported_as_comments(self):
        text = export(Circuit(1, 0).barrier("1bc").x(0).barrier())
        assert "// barrier 1bc\n" in text
        assert "\n// barrier\n" in text

    def test_byte_determinism(self):
        circuit = build_gqbsc(encode_operands(37, 21))
        assert export(circuit).encode() == export(circuit).encode()

    def test_partial_mask_condition_unsupported(self):
        c = Circuit(1, 2)
        c.x(0, condition=ClassicalCondition((1,), 1))
        with pytest.raises(UnsupportedInstruction):
            export(c)

    def test_lowered_gates_have_statement_forms(self):
        from qbsc.gates import lower_circuit
        text = export(lower_circuit(build_gqbsc(encode_operands(1, 0))))
        assert "cv q[" in text and "cvdg q[" in text


class TestBarrierLabels:
    """A label QASM's ``// barrier <label>`` comment cannot carry intact is
    refused where a barrier is made, so every barrier round-trips."""

    ACCEPTED = [None, "1bc", "/1bc", "a b", "x\ty", "a // b", "barrier", "é"]
    REJECTED = ["", " ", "  pad ", " x", "x ", "\tx", "a\nb", "x\n", ["x"], 5, b"x"]

    @pytest.mark.parametrize("label", ACCEPTED)
    def test_accepted_label_round_trips(self, label):
        circuit = Circuit(1, 0).barrier(label).x(0).barrier(label)
        assert parse(export(circuit)) == circuit
        assert circuit_from_json(circuit_to_json(circuit)) == circuit

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_every_accepted_text_round_trips(self, label):
        try:
            circuit = Circuit(1, 0).barrier(label)
        except CircuitError:
            return
        assert parse(export(circuit)) == circuit

    @pytest.mark.parametrize("label", REJECTED)
    def test_rejected_label_raises(self, label):
        with pytest.raises(CircuitError, match="barrier label"):
            BarrierOp(label)
        with pytest.raises(CircuitError, match="barrier label"):
            Circuit(1, 0).barrier(label)
        with pytest.raises(CircuitError, match="barrier label"):
            circuit_from_json({"qubits": 1, "clbits": 0, "instr": [{"b": label}]})


class TestParseErrors:
    HEADER = "OPENQASM 3.0;\nqubit[3] q;\nbit[2] cr;\n"

    def test_missing_comma_position(self):
        bad = self.HEADER + "ccx q[0] q[1], q[2];\n"
        with pytest.raises(QasmSyntaxError) as err:
            parse(bad)
        assert err.value.line == 4
        assert err.value.column == 10  # points at the second operand
        assert err.value.expected == "','"

    def test_condition_value_too_large(self):
        with pytest.raises(IndexOutOfRange):
            parse(self.HEADER + "if (cr == 4) {\nx q[0];\n}\n")

    def test_qubit_index_out_of_declared_range(self):
        with pytest.raises(IndexOutOfRange):
            parse(self.HEADER + "x q[3];\n")

    def test_clbit_index_out_of_declared_range(self):
        with pytest.raises(IndexOutOfRange):
            parse(self.HEADER + "cr[2] = measure q[0];\n")

    def test_undeclared_qubit_register(self):
        with pytest.raises(UndeclaredRegister):
            parse(self.HEADER + "x r[0];\n")

    def test_undeclared_bit_register(self):
        with pytest.raises(UndeclaredRegister):
            parse(self.HEADER + "out[0] = measure q[0];\n")

    @pytest.mark.parametrize("text", ["", "// only a comment\n", "\n  \n// c\n"],
                             ids=["empty", "comment-only", "blank-and-comment"])
    def test_empty_document(self, text):
        with pytest.raises(QasmSyntaxError, match="empty document") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, 1)

    def test_missing_version_header(self):
        with pytest.raises(QasmSyntaxError):
            parse("qubit[1] q;\nx q[0];\n")

    def test_unknown_statement(self):
        with pytest.raises(QasmSyntaxError) as err:
            parse(self.HEADER + "h q[0];\n")
        assert "h" in str(err.value)

    def test_nested_if_rejected(self):
        text = self.HEADER + "if (cr == 0) {\nif (cr == 1) {\nx q[0];\n}\n}\n"
        with pytest.raises(QasmSyntaxError):
            parse(text)

    def test_unterminated_if_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse(self.HEADER + "if (cr == 0) {\nx q[0];\n")

    def test_declaration_after_statement_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse(self.HEADER + "x q[0];\nqubit[2] p;\n")

    def test_trailing_text_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse(self.HEADER + "x q[0]; x q[1];\n")

    def test_stray_close_brace_rejected(self):
        with pytest.raises(QasmSyntaxError):
            parse(self.HEADER + "}\n")

    @pytest.mark.parametrize("text, error, message", [
        ("OPENQASM 3.0;\nqubit[2] q;\nqubit[1] p;\n", QasmSyntaxError,
         "line 3, column 12: second qubit register (expected a single qubit register)"),
        ("OPENQASM 3.0;\nqubit[2] q;\nbit[1] c;\nbit[1] d;\n", QasmSyntaxError,
         "line 4, column 10: second bit register (expected a single bit register)"),
        (HEADER + "cr[0] = measure q[0]; x\n", QasmSyntaxError,
         "line 4, column 23: trailing text 'x' (expected end of line)"),
        (HEADER + "if (c == 1) {\nx q[0];\n}\n", UndeclaredRegister,
         "line 4: unknown bit register 'c'"),
    ], ids=["second-qubit-register", "second-bit-register", "text-after-measure",
            "if-on-unknown-register"])
    def test_scanner_only_error(self, text, error, message):
        with pytest.raises(error) as err:
            parse(text)
        assert type(err.value) is error and str(err.value) == message


class TestRoundtrip:
    def test_builder_outputs_small_widths(self):
        for variant in BuilderVariant:
            for n in (1, 2, 3, 5, 8):
                circuit = build_gqbsc(Operands((0, 1) * (n // 2) + (1,) * (n % 2),
                                               (0,) * n), variant)
                assert parse(export(circuit)) == circuit

    def test_comments_and_blank_lines_ignored(self):
        text = "// leading note\n\nOPENQASM 3.0;\n\nqubit[1] q;\n// mid note\nx q[0];\n"
        parsed = parse(text)
        assert parsed.num_qubits == 1 and len(parsed.instructions) == 1

    def test_semantic_equivalence_on_random_operands(self):
        rng = random.Random(13)
        for n in (3, 7, 12):
            body = build_gqbsc(Operands((0,) * n, (0,) * n))
            original = ClassicalRunner(body)
            reparsed = ClassicalRunner(parse(export(body)))
            for _ in range(40):
                a_bits = tuple(rng.randint(0, 1) for _ in range(n))
                b_bits = tuple(rng.randint(0, 1) for _ in range(n))
                bits = a_bits + b_bits + (0, 0)
                assert original.run_bits(bits) == reparsed.run_bits(bits)

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy())
    def test_random_circuits_roundtrip(self, circuit):
        assert parse(export(circuit)) == circuit


# Malformed gate and measure lines after HEADER, with the error each raises:
# (line, class, column, expected) for syntax errors, (line, class, None,
# message) otherwise. The values are those of the scanner-only parser.
MALFORMED_LINES = [
    ("cx q[0] q[1];", QasmSyntaxError, 9, "','"),
    ("cx q[0], q[1]", QasmSyntaxError, 14, "';'"),
    ("cx q[0, q[1];", QasmSyntaxError, 7, "']'"),
    ("cx q[0], q1];", UndeclaredRegister, None, "unknown qubit register 'q1'"),
    ("ccx q[0], q[1] q[2];", QasmSyntaxError, 16, "','"),
    ("x q[0]", QasmSyntaxError, 7, "';'"),
    ("x q[0;", QasmSyntaxError, 6, "']'"),
    ("x q0];", UndeclaredRegister, None, "unknown qubit register 'q0'"),
    ("x\tq[ 0 ]  ;x", QasmSyntaxError, 12, "end of line"),
    ("cx q[0],, q[1];", QasmSyntaxError, 9, "identifier"),
    ("ccx q[0], q[1];", QasmSyntaxError, 15, "','"),
    ("cx q[0], r[1];", UndeclaredRegister, None, "unknown qubit register 'r'"),
    ("cx r[0], q[1];", UndeclaredRegister, None, "unknown qubit register 'r'"),
    ("ccx q[0], q[1], p[2];", UndeclaredRegister, None, "unknown qubit register 'p'"),
    ("ccx q[3], q[1], q[2];", IndexOutOfRange, None, "q[3] outside declared qubit[3]"),
    ("ccx q[0], q[3], q[2];", IndexOutOfRange, None, "q[3] outside declared qubit[3]"),
    ("ccx q[0], q[1], q[3];", IndexOutOfRange, None, "q[3] outside declared qubit[3]"),
    ("cx q[0], q[1], q[2];", QasmSyntaxError, 14, "';'"),
    ("xq[0];", UndeclaredRegister, None, "unknown bit register 'xq'"),
    ("x q[0]; x q[1];", QasmSyntaxError, 9, "end of line"),
    ("cx q[0], q[0];", DuplicateTarget, None, "repeated qubit in cx(0, 0)"),
    ("cr[0] measure q[0];", QasmSyntaxError, 7, "'='"),
    ("cr[0] = measure q[0]", QasmSyntaxError, 21, "';'"),
    ("cr[0 = measure q[0];", QasmSyntaxError, 6, "']'"),
    ("cr[0] = measure q[0;", QasmSyntaxError, 20, "']'"),
    ("cr[0] = measure r[0];", UndeclaredRegister, None, "unknown qubit register 'r'"),
    ("c[0] = measure q[0];", UndeclaredRegister, None, "unknown bit register 'c'"),
    ("cr[2] = measure q[0];", IndexOutOfRange, None, "cr[2] outside declared bit[2]"),
    ("cr[0] = measure q[3];", IndexOutOfRange, None, "q[3] outside declared qubit[3]"),
    ("cr[0] = measur q[0];", QasmSyntaxError, 9, "'measure'"),
    ("cr[0], = measure q[0];", QasmSyntaxError, 6, "'='"),
    ("cr[0] == measure q[0];", QasmSyntaxError, 8, "'measure'"),
]


class TestMalformedStatementLines:
    HEADER = TestParseErrors.HEADER

    @pytest.mark.parametrize("in_block", [False, True])
    @pytest.mark.parametrize("line, error, column, detail", MALFORMED_LINES)
    def test_error_class_and_position(self, line, error, column, detail, in_block):
        text = self.HEADER + ("if (cr == 0) {\n  " + line + "\n}\n" if in_block else line + "\n")
        line_no, indent = (5, 2) if in_block else (4, 0)
        with pytest.raises(error) as err:
            parse(text)
        if column is None:
            prefix = "" if error is DuplicateTarget else f"line {line_no}: "
            assert str(err.value) == prefix + detail
        else:
            assert (err.value.line, err.value.column, err.value.expected) == (
                line_no, column + indent, detail)

    # superscript two passes str.isdigit but not int(); Arabic-Indic one
    # passes both, and must still not count as 1
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
    @pytest.mark.parametrize("line", ["x q[{}];", "cr[0] = measure q[{}];"])
    def test_non_ascii_digit_in_index(self, line, digit):
        with pytest.raises(QasmSyntaxError) as err:
            parse(TestParseErrors.HEADER + line.format(digit) + "\n")
        assert (err.value.line, err.value.column, err.value.expected) == (
            4, line.index("{") + 1, "decimal integer")

    def test_non_ascii_digit_in_declaration(self):
        with pytest.raises(QasmSyntaxError) as err:
            parse("OPENQASM 3.0;\nqubit[\u00b2] q;\n")
        assert (err.value.line, err.value.column, err.value.expected) == (2, 7, "decimal integer")


_TOKEN = re.compile(r"==|[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|\S")
_WORDISH = re.compile(r"[A-Za-z0-9_]")


def _respace(text: str, rnd: random.Random) -> str:
    """Random spaces and tabs around and between the tokens of every
    statement line; two word-like tokens keep at least one blank."""
    blanks = ("", " ", "\t", "  ", " \t ")
    lines = []
    for line in text.split("\n"):
        if not line.strip() or line.lstrip().startswith("//"):
            lines.append(line)
            continue
        out = rnd.choice(blanks)
        tokens = _TOKEN.findall(line)
        for left, right in zip(tokens, tokens[1:] + [""]):
            out += left
            if right:
                gap = rnd.choice(blanks)
                if not gap and _WORDISH.match(left[-1]) and _WORDISH.match(right[0]):
                    gap = " "
                out += gap
        lines.append(out + rnd.choice(blanks))
    return "\n".join(lines)


class _RecordingParser(qasm._Parser):
    """Notes the lines left to the scanner."""

    def __init__(self, text):
        super().__init__(text)
        self.scanned = []

    def _statement(self, sc):
        self.scanned.append(sc.text.strip())
        super()._statement(sc)


class TestStatementPatterns:
    @settings(max_examples=80, deadline=None)
    @given(circuit_strategy(), st.randoms(use_true_random=False))
    def test_blanks_between_tokens_roundtrip(self, circuit, rnd):
        text = _respace(export(circuit), rnd)
        assert parse(text) == circuit
        recording = _RecordingParser(text)
        assert recording.parse() == circuit
        # gate and measure lines never reach the scanner
        heads = {_TOKEN.search(line).group() for line in recording.scanned}
        assert heads <= {"OPENQASM", "qubit", "bit", "if", "}"}

    def test_register_named_like_a_gate(self):
        text = "OPENQASM 3.0;\nqubit[2] x;\nbit[1] cx;\nx x[0];\ncx x[0], x[1];\n"
        circuit = parse(text)
        assert len(circuit.instructions) == 2
        with pytest.raises(QasmSyntaxError):
            parse(text + "cx[0] = measure x[1];\n")


class _Unique(str):
    """A line equal to no other line."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other


class _ScanningParser(qasm._Parser):
    """The parser with no line ever replayed: each line is distinct."""

    def __init__(self, text):
        super().__init__(text)
        self.lines = [_Unique(line) for line in self.lines]


def _outcome(parser):
    """The circuit ``parser`` gives, or its error's class and message."""
    try:
        return parser.parse()
    except QbscError as err:
        return type(err), str(err)


class TestLineReplay:
    HEADER = TestParseErrors.HEADER

    def test_same_gate_text_under_each_condition(self):
        body = ["x q[0];", "if (cr == 1) {", "x q[0];", "}", "x q[0];", "if (cr == 2) {",
                "x q[0];", "}", "if (cr == 1) {", "x q[0];", "}", "x q[0];", "cx q[0], q[1];",
                "if (cr == 2) {", "cx q[0], q[1];", "}"]
        expected = Circuit(3, 2)
        for value in (None, 1, None, 2, 1, None):
            expected.x(0, None if value is None else ClassicalCondition((0, 1), value))
        expected.cx(0, 1).cx(0, 1, ClassicalCondition((0, 1), 2))
        assert parse(self.HEADER + "\n".join(body) + "\n") == expected

    @pytest.mark.parametrize("body, line, column, expected", [
        # a block's closing brace again, after the block has closed
        (["if (cr == 1) {", "x q[0];", "}", "}"], 7, 2, "statement"),
        # an if line again, inside the block it opened before
        (["if (cr == 1) {", "x q[0];", "}", "if (cr == 1) {", "if (cr == 1) {"], 8, 3,
         "a flat if block"),
        # the declarations and the header again, after statements
        (["x q[0];", "qubit[3] q;"], 5, 6, "declarations before statements"),
        (["x q[0];", "bit[2] cr;"], 5, 4, "declarations before statements"),
        (["x q[0];", "OPENQASM 3.0;"], 5, 10, "gate, measure, if, or declaration"),
    ])
    def test_repeated_state_changing_line_raises_at_its_position(self, body, line, column,
                                                                 expected):
        text = self.HEADER + "\n".join(body) + "\n"
        with pytest.raises(QasmSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)
        assert _outcome(qasm._Parser(text)) == _outcome(_ScanningParser(text))

    @pytest.mark.parametrize("variant", list(BuilderVariant))
    def test_parsed_export_shares_instructions(self, variant):
        rng = random.Random(variant.value)
        built = build_gqbsc(Operands(tuple(rng.getrandbits(1) for _ in range(1000)),
                                     tuple(rng.getrandbits(1) for _ in range(1000))), variant)
        text = export(built)
        parsed = parse(text)
        assert parsed == built
        assert len({id(i) for i in parsed.instructions}) <= len(set(text.split("\n")))
        scanned = _ScanningParser(text).parse()  # the reference replays nothing
        assert scanned == built
        assert len({id(i) for i in scanned.instructions}) == len(scanned.instructions)

    @pytest.mark.parametrize("n", [3, 1000])
    def test_tables_freed_without_the_cycle_collector(self, n):
        text = export(build_gqbsc(encode_operands("1" * n, "0" * n)))
        gc.collect()
        gc.disable()
        try:
            parsed = parse(text)
            last = weakref.ref(parsed.instructions[-1])
            del parsed
            alive = last() is not None
        finally:
            gc.enable()
        assert not alive

    @settings(max_examples=150, deadline=None)
    @given(circuit_strategy(num_qubits=3), st.randoms(use_true_random=False))
    def test_replay_matches_parsing_every_line(self, circuit, rnd):
        """Shuffled, repeated and dropped lines of an export parse, or fail,
        exactly as they do with no line replayed."""
        lines = export(circuit).split("\n")
        for _ in range(rnd.randrange(6)):
            k = rnd.randrange(len(lines))
            edit = rnd.randrange(3)
            if edit == 0:
                lines.insert(rnd.randrange(len(lines) + 1), lines[k])
            elif edit == 1:
                j = rnd.randrange(len(lines))
                lines[k], lines[j] = lines[j], lines[k]
            elif len(lines) > 1:
                del lines[k]
        text = "\n".join(lines)
        assert _outcome(qasm._Parser(text)) == _outcome(_ScanningParser(text))
