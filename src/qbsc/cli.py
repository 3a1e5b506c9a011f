"""Command-line front end.

Subcommands: build, compare, verify, sweep, census, export. Output is
deterministic for a fixed invocation (including --seed, which defaults to a
constant); json/csv bytes are stable across runs. Files are written to a
temporary sibling and renamed into place so an error never leaves a partial
file behind.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input (operands,
widths over the register cap, method names, flag ranges), 3 backend or
resource errors. The command group maps every toolkit error to its code in
one place and prints it as one ``error:`` line; click checks flag ranges and
reports them in its ``Invalid value for '--flag'`` form.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time

import click

from . import qasm
from .circuit import circuit_to_json
from .comparator import (
    BuilderVariant,
    _check_width,
    build_gqbsc,
    compare,
    encode_operands,
    soundness_check_exhaustive,
    soundness_check_random,
)
from .errors import CircuitError, OperandError, QbscError, UnknownMethod
from .resources import Case, Method, SweepRow, gate_growth, measured_report, sweep, sweep_notes

DEFAULT_SEED = 1234
_SWEEP_GRID = (1, 80, 160, 240, 320, 400, 480, 560, 640, 720, 800, 880, 960, 1000)
_CENSUS_GRID = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

#: Widest --exhaustive-limit verify takes: 4^12 (about 16.8M) pairs per variant.
MAX_EXHAUSTIVE_LIMIT = 12

EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_BACKEND = 3


class _Operand(click.ParamType):
    """A decimal operand, or ``bin:<bits>``; click names the flag of a bad one."""

    name = "operand"

    def convert(self, value, param, ctx):
        if value.startswith("bin:"):
            return value[len("bin:"):]
        try:
            return int(value, 10)
        except ValueError:
            self.fail(f"operand must be decimal or bin:<bits>, got {value!r}", param, ctx)


def _emit(payload: str, out: str | None):
    """Write atomically to --out, or to stdout."""
    if out is None:
        click.echo(payload, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qbsc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_payload(rows: list[SweepRow], fmt: str) -> str:
    records = [dataclasses.asdict(row) for row in rows]
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    lines = [",".join(f.name for f in dataclasses.fields(SweepRow))]
    lines += [",".join(str(v) for v in record.values()) for record in records]
    return "\n".join(lines) + "\n"


variant_option = click.option(
    "--variant", type=click.Choice([v.value for v in BuilderVariant]),
    default=BuilderVariant.FIGURE.value, show_default=True)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None,
                          help="Write output to this file (atomic).")


class _ExitCodeGroup(click.Group):
    """Command group that turns a toolkit error into its exit code: 2 for bad
    input (at the CLI a ``CircuitError`` is the register width cap), 3 for
    any other."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except QbscError as exc:
            click.echo(f"error: {exc}", err=True)
            bad_input = isinstance(exc, (OperandError, UnknownMethod, CircuitError))
            sys.exit(EXIT_BAD_INPUT if bad_input else EXIT_BACKEND)


@click.group(cls=_ExitCodeGroup)
def main():
    """Bit-string comparator toolkit: build, run, verify, and cost circuits."""


@main.command("compare")
@click.option("--a", type=_Operand(), required=True, help="Decimal or bin:<bits>.")
@click.option("--b", type=_Operand(), required=True, help="Decimal or bin:<bits>.")
@variant_option
@click.option("--backend", type=click.Choice(["auto", "dense", "classical"]), default="auto",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@out_option
def cmd_compare(a, b, variant, backend, fmt, out):
    """Compare two operands and report the class, flags, and resources."""
    outcome = compare(a, b, backend=backend, variant=BuilderVariant(variant))
    # resource numbers refer to the value-independent body compare() ran
    # once, with the operands as the initial state (no prep gates)
    measured = measured_report(outcome.body, run=outcome.run)
    verdict = {
        "class": outcome.comparison.value,
        "r0": outcome.r0,
        "r1": outcome.r1,
        "n": outcome.n,
        "backend": outcome.backend,
        "variant": outcome.variant.value,
    }
    resources = {
        "qubits": measured.qubits,
        "width": measured.width_total,
        "ancilla": measured.ancilla,
        "static_cost": measured.static_cost,
        "executed_cost": measured.executed_cost,
        "structural_delay": measured.structural_delay,
    }
    if fmt == "json":
        payload = json.dumps({**verdict, "resources": resources}, indent=2, sort_keys=True) + "\n"
    else:
        payload = "".join(f"{k}: {v}\n" for k, v in {**verdict, **resources}.items())
    _emit(payload, out)


@main.command("build")
@click.option("--a", type=_Operand(), required=True)
@click.option("--b", type=_Operand(), required=True)
@variant_option
@click.option("--format", "--emit", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@out_option
def cmd_build(a, b, variant, fmt, out):
    """Build the comparator circuit and print a summary or its JSON form."""
    ops = encode_operands(a, b)
    circuit = build_gqbsc(ops, BuilderVariant(variant))
    if fmt == "json":
        payload = json.dumps(circuit_to_json(circuit), indent=2, sort_keys=True) + "\n"
    else:
        measured = measured_report(circuit)
        payload = "\n".join([
            f"n: {ops.n}",
            f"qubits: {circuit.num_qubits}",
            f"clbits: {circuit.num_clbits}",
            f"instructions: {len(circuit.instructions)}",
            f"x: {measured.census.x}",
            f"ccx: {measured.census.ccx}",
            f"blocks_1bc: {measured.census.block_count_1bc}",
            f"measures: {measured.census.measure_count}",
            f"static_cost: {measured.static_cost}",
            f"structural_delay: {measured.structural_delay}",
        ]) + "\n"
    _emit(payload, out)


@main.command("export")
@click.option("--a", type=_Operand(), required=True)
@click.option("--b", type=_Operand(), required=True)
@variant_option
@out_option
def cmd_export(a, b, variant, out):
    """Serialize the comparator circuit to the textual subset."""
    ops = encode_operands(a, b)
    _emit(qasm.export(build_gqbsc(ops, BuilderVariant(variant))), out)


def _random_widths(exhaustive_limit: int, max_bits: int) -> list[int]:
    """Doubling ladder of widths above the exhaustive range, ending at the max."""
    widths = []
    w = exhaustive_limit + 1
    while w < max_bits:
        widths.append(w)
        w *= 2
    if max_bits > exhaustive_limit:
        widths.append(max_bits)
    return widths


@main.command("verify")
@click.option("--max-bits", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=100, show_default=True,
              help="Random pairs per sampled width beyond the exhaustive threshold.")
@click.option("--exhaustive-limit", type=click.IntRange(0, MAX_EXHAUSTIVE_LIMIT), default=8,
              show_default=True, help="Widths up to this are checked over all 4^n pairs.")
@click.option("--variant", type=click.Choice(["figure", "algorithmic", "both"]),
              default="figure", show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@out_option
def cmd_verify(max_bits, samples, exhaustive_limit, variant, seed, fmt, out):
    """Check circuit outcomes against integer comparison over many pairs.

    Every width up to --exhaustive-limit is swept over all 4^n operand pairs;
    beyond that, seeded random pairs are drawn at a doubling ladder of widths
    ending at --max-bits.
    """
    _check_width(max_bits)
    variants = ([BuilderVariant.FIGURE, BuilderVariant.ALGORITHMIC]
                if variant == "both" else [BuilderVariant(variant)])
    widths = [(n, True) for n in range(1, min(max_bits, exhaustive_limit) + 1)]
    if samples > 0:
        widths += [(n, False) for n in _random_widths(exhaustive_limit, max_bits)]
    started = time.monotonic()
    per_n = []
    total_pairs = total_mismatches = 0
    for v in variants:
        for n, exhaustive in widths:
            if exhaustive:
                pairs, bad = soundness_check_exhaustive(n, v)
            else:
                pairs, bad = soundness_check_random(n, samples, seed, v)
            per_n.append({"variant": v.value, "n": n, "pairs": pairs, "mismatches": bad})
            total_pairs += pairs
            total_mismatches += bad
    elapsed = time.monotonic() - started
    if fmt == "json":
        payload = json.dumps({
            "pairs": total_pairs,
            "mismatches": total_mismatches,
            "per_n": per_n,
        }, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"variant={row['variant']} n={row['n']}: {row['pairs']} pairs,"
                 f" {row['mismatches']} mismatches" for row in per_n]
        lines.append(f"total: {total_pairs} pairs, {total_mismatches} mismatches")
        payload = "\n".join(lines) + "\n"
        click.echo(f"verify took {elapsed:.2f}s", err=True)  # keeps stdout byte-identical
    _emit(payload, out)
    if total_mismatches:
        sys.exit(EXIT_MISMATCH)


@main.command("sweep")
@click.option("--metric", type=click.Choice(["ancilla", "cost", "delay"]), required=True)
@click.option("--n", "n_values", type=click.IntRange(min=1), multiple=True,
              help="Width(s); repeatable. Defaults to the standard grid.")
@click.option("--method", "methods", multiple=True,
              help="Method name(s); defaults to all seven.")
@click.option("--case", type=click.Choice(["equal", "unequal", "both"]), default="both",
              show_default=True, help="Cost/delay case for the Proposed method.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@out_option
def cmd_sweep(metric, n_values, methods, case, fmt, out):
    """Emit closed-form resource values as CSV or JSON rows."""
    ns = list(n_values) if n_values else list(_SWEEP_GRID)
    chosen_case = {"equal": Case.EQUAL, "unequal": Case.UNEQUAL, "both": None}[case]
    rows = sweep(list(methods) or None, ns, metric, chosen_case)
    for note in sweep_notes(rows):
        click.echo(note, err=True)
    _emit(_rows_payload(rows, fmt), out)


@main.command("census")
@click.option("--n", "n_values", type=click.IntRange(min=1), multiple=True,
              help="Width(s); repeatable. Defaults to the growth grid.")
@variant_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@out_option
def cmd_census(n_values, variant, fmt, out):
    """Gate census of the built comparator body at each width."""
    ns = list(n_values) if n_values else list(_CENSUS_GRID)
    growth = gate_growth(ns, BuilderVariant(variant))
    rows = []
    for g in growth:
        for metric, value in (("x", g.x_gates), ("ccx", g.ccx_gates),
                              ("1bc", g.blocks_1bc), ("block_measures", g.block_measures),
                              ("total_measures", g.total_measures), ("qubits", g.qubits),
                              ("width", g.width)):
            rows.append(SweepRow(Method.PROPOSED.value, g.n, "-", metric, value))
    _emit(_rows_payload(rows, fmt), out)


if __name__ == "__main__":
    main()
