"""CLI behavior: outputs, exit codes, determinism, file emission."""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from qbsc.circuit import MAX_WIDTH
from qbsc.cli import main
from qbsc.errors import OperandError, SimulationError, TooManyQubits
from qbsc.qasm import parse


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestCompare:
    def test_greater(self, runner):
        result = invoke(runner, "compare", "--a", "700", "--b", "420")
        assert result.exit_code == 0
        assert "class: Greater" in result.output

    def test_equal_flags(self, runner):
        result = invoke(runner, "compare", "--a", "0", "--b", "0")
        assert result.exit_code == 0
        assert "class: Equal" in result.output
        assert "r0: 0" in result.output and "r1: 0" in result.output

    def test_binary_operands(self, runner):
        result = invoke(runner, "compare", "--a", "bin:01", "--b", "bin:11")
        assert result.exit_code == 0
        assert "class: Less" in result.output
        assert "n: 2" in result.output

    def test_json_format(self, runner):
        result = invoke(runner, "compare", "--a", "6", "--b", "7", "--format", "json")
        payload = json.loads(result.output)
        assert payload["class"] == "Less"
        assert payload["resources"]["ancilla"] == 2

    def test_resource_summary_reflects_early_verdict(self, runner):
        # 700 > 420 is decided at the first block: 14 of the body's 145 units
        result = invoke(runner, "compare", "--a", "700", "--b", "420",
                        "--format", "json")
        resources = json.loads(result.output)["resources"]
        assert resources["static_cost"] == 145
        assert resources["executed_cost"] == 14

    def test_invalid_operand_exits_2(self, runner):
        result = runner.invoke(main, ["compare", "--a", "0b1", "--b", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["compare", "build", "export"])
    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_invalid_operand_names_its_flag(self, runner, command, flag):
        args = {"--a": "1", "--b": "1", flag: "0b1"}
        result = runner.invoke(main, [command, "--a", args["--a"], "--b", args["--b"]])
        assert result.exit_code == 2 and result.stdout == ""
        assert f"Invalid value for '{flag}'" in result.stderr
        assert "operand must be decimal or bin:<bits>, got '0b1'" in result.stderr

    def test_retired_flags_exit_2(self, runner):
        for args in (["compare", "--a", "3", "--b", "5", "--seed", "5"],
                     ["compare", "--a", "3", "--b", "5", "--backend", "dense"],
                     ["verify", "--backend", "dense"],
                     ["build", "--a", "1", "--b", "2", "--emit", "json"]):
            proc = subprocess.run([sys.executable, "-m", "qbsc", *args],
                                  capture_output=True, text=True)
            assert proc.returncode == 2, args
            assert "Traceback" not in proc.stderr and proc.stdout == ""
            assert f"Error: No such option '{args[-2]}'" in proc.stderr
        # verify's seed picks its random pairs through random.Random, which takes any int
        assert invoke(runner, "verify", "--max-bits", "2", "--seed", "-1").exit_code == 0

    def test_dense_backend_cap_exits_3(self, runner, monkeypatch):
        # no flag reaches the dense engine, so its cap error is injected
        def too_wide(*args, **kwargs):
            raise TooManyQubits("202 qubits exceeds dense cap 24")

        monkeypatch.setattr("qbsc.cli.compare", too_wide)
        result = runner.invoke(main, ["compare", "--a", str(2**99), "--b", "1"])
        assert result.exit_code == 3 and result.stdout == ""
        assert result.stderr == "error: 202 qubits exceeds dense cap 24\n"


class TestVerify:
    @pytest.mark.parametrize("limit", ["13", str(10**9)])
    def test_exhaustive_limit_over_cap_exits_2(self, runner, limit, monkeypatch):
        def refuse(*args):
            raise AssertionError("swept before checking --exhaustive-limit")

        monkeypatch.setattr("qbsc.cli.soundness_check_exhaustive", refuse)
        monkeypatch.setattr("qbsc.cli.soundness_check_random", refuse)
        result = runner.invoke(main, ["verify", "--max-bits", "1", "--exhaustive-limit", limit])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--exhaustive-limit" in result.stderr

    def test_single_width(self, runner):
        result = invoke(runner, "verify", "--max-bits", "1")
        assert result.exit_code == 0
        assert "4 pairs, 0 mismatches" in result.output

    def test_exhaustive_totals(self, runner):
        result = invoke(runner, "verify", "--max-bits", "3", "--format", "json")
        payload = json.loads(result.output)
        assert payload["pairs"] == 4 + 16 + 64
        assert payload["mismatches"] == 0

    def test_random_widths_use_doubling_ladder(self, runner):
        result = invoke(runner, "verify", "--max-bits", "24", "--exhaustive-limit", "4",
                        "--samples", "5", "--format", "json")
        payload = json.loads(result.output)
        sampled = [row["n"] for row in payload["per_n"] if row["n"] > 4]
        assert sampled == [5, 10, 20, 24]
        assert payload["pairs"] == 4 + 16 + 64 + 256 + 4 * 5
        assert payload["mismatches"] == 0

    def test_both_variants(self, runner):
        result = invoke(runner, "verify", "--max-bits", "2", "--variant", "both",
                        "--format", "json")
        payload = json.loads(result.output)
        assert payload["pairs"] == 2 * (4 + 16)

    def test_bad_range_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--max-bits", "0"])
        assert result.exit_code == 2


class TestSweep:
    def test_cost_row(self, runner):
        result = invoke(runner, "sweep", "--metric", "cost", "--n", "80")
        assert "Proposed,80,Equal,cost,1120" in result.output

    def test_header(self, runner):
        result = invoke(runner, "sweep", "--metric", "cost", "--n", "80")
        assert result.output.splitlines()[0] == "method,n,case,metric,value"

    def test_ancilla_at_one(self, runner):
        result = invoke(runner, "sweep", "--metric", "ancilla", "--n", "1")
        assert "Xia,1,-,ancilla,1" in result.output
        assert "Proposed,1,-,ancilla,2" in result.output

    def test_notes_go_to_stderr_not_stdout(self, runner):
        result = runner.invoke(main, ["sweep", "--metric", "delay", "--n", "2"],
                               catch_exceptions=False)
        assert "note:" not in result.stdout

    def test_json_format(self, runner):
        result = invoke(runner, "sweep", "--metric", "delay", "--n", "1",
                        "--method", "Xia", "--format", "json")
        payload = json.loads(result.output)
        assert payload == [{"method": "Xia", "n": 1, "case": "-",
                            "metric": "delay", "value": 33}]

    def test_bad_width_exits_2(self, runner):
        result = runner.invoke(main, ["sweep", "--metric", "cost", "--n", "0"])
        assert result.exit_code == 2


class TestCensus:
    def test_width_ten_x_count(self, runner):
        result = invoke(runner, "census", "--n", "10")
        assert "Proposed,10,-,x,45" in result.output
        assert "Proposed,10,-,ccx,20" in result.output
        assert "Proposed,10,-,block_measures,20" in result.output

    def test_default_grid_covers_one_to_hundred(self, runner):
        result = invoke(runner, "census")
        assert "Proposed,1,-,x,4" in result.output
        assert "Proposed,100,-,x,450" in result.output


class TestBuildAndExport:
    def test_build_summary(self, runner):
        result = invoke(runner, "build", "--a", "5", "--b", "3")
        assert "qubits: 8" in result.output
        assert "blocks_1bc: 3" in result.output

    def test_build_json_is_circuit_schema(self, runner):
        result = invoke(runner, "build", "--a", "1", "--b", "0", "--format", "json")
        payload = json.loads(result.output)
        assert payload["qubits"] == 4 and payload["clbits"] == 2
        assert any(entry.get("g") == "ccx" for entry in payload["instr"])

    def test_export_parses_back(self, runner):
        result = invoke(runner, "export", "--a", "2", "--b", "3")
        circuit = parse(result.output)
        assert circuit.num_qubits == 6

    def test_out_writes_file_atomically(self, runner, tmp_path):
        target = tmp_path / "sweep.csv"
        result = invoke(runner, "sweep", "--metric", "cost", "--n", "80",
                        "--out", str(target))
        assert result.exit_code == 0
        assert result.output == ""
        assert "Proposed,80,Equal,cost,1120" in target.read_text()
        assert not list(tmp_path.glob(".qbsc-*"))  # no temp litter

    def test_failed_rename_leaves_no_temporary(self, runner, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("qbsc.cli.os.replace", fail)
        target = tmp_path / "sweep.csv"
        with pytest.raises(OSError, match="rename refused"):
            invoke(runner, "sweep", "--metric", "cost", "--n", "80", "--out", str(target))
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("compare", "--a", "700", "--b", "420", "--format", "json"),
        ("sweep", "--metric", "cost"),
        ("sweep", "--metric", "delay", "--format", "json"),
        ("census", "--n", "7"),
        ("verify", "--max-bits", "4", "--format", "json"),
    ])
    def test_identical_invocations_are_byte_identical(self, runner, args):
        first = invoke(runner, *args).stdout_bytes
        second = invoke(runner, *args).stdout_bytes
        assert first == second

    def test_verify_text_report_is_byte_identical(self, runner):
        first, second = (invoke(runner, "verify", "--max-bits", "4") for _ in range(2))
        assert first.stdout_bytes == second.stdout_bytes
        assert first.stdout.endswith("\ntotal: 340 pairs, 0 mismatches\n")
        assert first.stderr.startswith("verify took ")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbsc", "compare", "--a", "9", "--b", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "class: Greater" in proc.stdout


def _reference_compare_payload(a: str, b: str, variant: str, engine: str) -> str:
    """``compare --format json`` stdout composed the two-build way: compare()
    for the verdict, measured_report of a separately built body for the
    resources. With ``engine`` "dense", that body's dense run gives both."""
    from qbsc.comparator import (BuilderVariant, Operands, build_gqbsc, compare,
                                 encode_operands, interpret)
    from qbsc.resources import measured_report
    from qbsc.simulate import DenseRunner

    ops = encode_operands(a, b)
    body = build_gqbsc(Operands((0,) * ops.n, (0,) * ops.n), BuilderVariant(variant))
    if engine == "dense":
        run = DenseRunner(body).run(ops.initial_qubit_bits())
        r0, r1 = run.classical_bits
        measured = measured_report(body, run=run)
    else:
        outcome = compare(a, b, variant=BuilderVariant(variant))
        r0, r1 = outcome.r0, outcome.r1
        measured = measured_report(body, ops)
    return json.dumps({
        "class": interpret(r0, r1).value,
        "r0": r0,
        "r1": r1,
        "n": ops.n,
        "backend": "classical",  # what compare reports: it runs its body classically
        "variant": variant,
        "resources": {
            "qubits": measured.qubits,
            "width": measured.width_total,
            "ancilla": 2,
            "static_cost": measured.static_cost,
            "executed_cost": measured.executed_cost,
            "structural_delay": measured.structural_delay,
        },
    }, indent=2, sort_keys=True) + "\n"


def _compare_cases():
    import random

    rng = random.Random(11)
    for n in (1, 2, 3, 17, 1000):
        pairs = [(format(rng.getrandbits(n), f"0{n}b"), format(rng.getrandbits(n), f"0{n}b")),
                 ("1" * n, "1" * (n - 1) + "0"), ("0" * (n - 1) + "1", "1" * n)]
        engines = ("classical", "dense") if n <= 3 else ("classical",)
        for variant in ("figure", "algorithmic"):
            for engine in engines:
                for a, b in pairs:
                    yield pytest.param(a, b, variant, engine, id=f"{n}-{variant}-{engine}")


class TestCompareRunsOnce:
    @pytest.mark.parametrize("a, b, variant, engine", _compare_cases())
    def test_json_equals_two_build_reference(self, runner, a, b, variant, engine):
        result = invoke(runner, "compare", "--a", "bin:" + a, "--b", "bin:" + b,
                        "--variant", variant, "--format", "json")
        assert result.exit_code == 0
        assert result.stdout == _reference_compare_payload(a, b, variant, engine)

    def test_one_build_per_compare(self, runner, monkeypatch):
        import qbsc.cli as cli
        import qbsc.comparator as comparator

        calls = []
        build = comparator.build_gqbsc
        for module in (comparator, cli):  # every binding the command can reach
            monkeypatch.setattr(module, "build_gqbsc",
                                lambda *args: calls.append(args) or build(*args))
        assert invoke(runner, "compare", "--a", "700", "--b", "420").exit_code == 0
        assert len(calls) == 1


def assert_one_error_line(result, code):
    assert result.exit_code == code
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestErrorBoundary:
    """The command group maps every toolkit error to one exit code: 2 for bad
    input, the register width cap included, 3 for any other."""

    OVER_CAP = (MAX_WIDTH - 2) // 2 + 1  # 524,288 bits: two qubits over the cap

    @pytest.mark.parametrize("command", ["build", "export", "compare"])
    def test_over_cap_operand_exits_2(self, runner, command):
        operand = "bin:" + "1" * self.OVER_CAP
        result = invoke(runner, command, "--a", operand, "--b", operand)
        line = assert_one_error_line(result, 2)
        assert f"cap of {MAX_WIDTH}" in line

    def test_over_cap_census_exits_2(self, runner):
        result = invoke(runner, "census", "--n", str(self.OVER_CAP))
        line = assert_one_error_line(result, 2)
        assert line == (f"error: register widths {2 * self.OVER_CAP + 2}, 2"
                        f" exceed the cap of {MAX_WIDTH}")

    @pytest.mark.parametrize("target, args", [
        ("compare", ["compare", "--a", "3", "--b", "5"]),
        ("build_gqbsc", ["build", "--a", "3", "--b", "5"]),
        ("build_gqbsc", ["export", "--a", "3", "--b", "5"]),
        ("soundness_check_exhaustive", ["verify", "--max-bits", "2"]),
        ("sweep", ["sweep", "--metric", "cost", "--n", "4"]),
        ("gate_growth", ["census", "--n", "4"]),
    ], ids=["compare", "build", "export", "verify", "sweep", "census"])
    @pytest.mark.parametrize("error, code", [(SimulationError, 3), (OperandError, 2)],
                             ids=["backend", "input"])
    def test_exit_code_policy(self, runner, monkeypatch, target, args, error, code):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(f"qbsc.cli.{target}", fail)
        line = assert_one_error_line(invoke(runner, *args), code)
        assert line == "error: injected"

    def test_mismatch_exits_1_with_its_report(self, runner, monkeypatch):
        monkeypatch.setattr("qbsc.cli.soundness_check_exhaustive", lambda *args: (4, 1))
        result = invoke(runner, "verify", "--max-bits", "1")
        assert result.exit_code == 1
        assert result.stdout.endswith("total: 4 pairs, 1 mismatches\n")
        assert "error:" not in result.stderr
