"""Start-up without numpy: ``import qbsc`` and the CLI commands that compute
with no array leave numpy unloaded, and the paths that do load it on first
use give the results they give with numpy loaded up front.

Each check runs in a fresh interpreter, since this process has numpy loaded.
This module imports no numpy, so the second check can import its
``array_paths`` there.
"""

import os
import subprocess
import sys
from pathlib import Path

import qbsc
from qbsc import (GateKind, NoiseModel, Operands, build_gqbsc, encode_operands, lower_circuit,
                  sample, unitary_of)
from qbsc.comparator import soundness_check_exhaustive

N64 = ("bin:" + "10" * 32, "bin:" + "10" * 31 + "01")


def fresh(script: str) -> str:
    """Stdout of ``script`` in a new interpreter that imports this qbsc and
    this directory's modules; it must exit 0."""
    path = [str(Path(qbsc.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def array_paths() -> list:
    """A noisy classical and a noisy lowered dense sample, an exhaustive sweep
    and a unitary: paths that import numpy on first use."""
    noise = NoiseModel(0.01, 0.02)
    lowered = lower_circuit(build_gqbsc(Operands((0,) * 3, (0,) * 3)))
    return [sample(build_gqbsc(encode_operands(5, 6)), shots=512, noise=noise, seed=3),
            sample(lowered, (1, 0, 1, 1, 1, 0, 0, 0), shots=256, noise=noise, seed=3),
            soundness_check_exhaustive(3),
            unitary_of(GateKind.CV).tolist()]


def test_cli_commands_leave_numpy_unloaded():
    # then verify, whose clock (each read records whether numpy is loaded)
    # must leave out the import
    a, b = N64
    out = fresh(f"""
import sys, time, types
import qbsc, qbsc.cli
from click.testing import CliRunner
runner = CliRunner()
for args in (["compare", "--a", "{a}", "--b", "{b}"], ["build", "--a", "{a}", "--b", "{b}"],
             ["export", "--a", "{a}", "--b", "{b}"], ["sweep", "--metric", "cost", "--n", "64"],
             ["census", "--n", "64"]):
    result = runner.invoke(qbsc.cli.main, args)
    assert result.exit_code == 0, (args, result.output)
print("numpy" in sys.modules)
reads = []
qbsc.cli.time = types.SimpleNamespace(
    monotonic=lambda: reads.append("numpy" in sys.modules) or time.monotonic())
assert runner.invoke(qbsc.cli.main, ["verify", "--max-bits", "2"]).exit_code == 0
print(reads)
""")
    assert out == "False\n[True, True]\n"


def test_paths_that_load_numpy_give_the_same_results():
    out = fresh("""
import sys
import qbsc
assert "numpy" not in sys.modules
from test_startup import array_paths
print(repr(array_paths()))
print("numpy" in sys.modules)
""")
    assert out == f"{array_paths()!r}\nTrue\n"
