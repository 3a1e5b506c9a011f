"""qbsc benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload {verify,wide,sample} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` of the
same checkout (nothing is installed). Workloads are closed loops in a single
process and thread; see ``workloads.py`` for what each op does and why.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds, in
whole rounds of ops (each round holds every kind of op in fixed shares). Op
and set-up times are CPU seconds of the one benchmark thread or probe
process: ops do no I/O and wait on nothing, so on an idle machine these equal
wall time, and time the scheduler gives to other processes stays out. The
host's own speed drifts by tens of percent within minutes, so every op and
set-up time is scaled to a fixed machine speed by a reference timed between
ops and between set-up probes, near it (``speed.py``); the unscaled figures
are printed beside them and kept in the result file.

    setup_s      fresh interpreter to first op (interpreter start-up,
                 ``import qbsc`` and the workload's fixtures), median of 11
                 fresh processes
    items_per_s  pairs checked (verify), jobs (wide) or shots (sample) per
                 second of op time
    op_p50_ms    median op latency: one wide job or one sample() call; for
                 verify, whose runs hold three or four passes, the mean pass:
                 the sum over its per-width ops of each one's mean
    op_p90_ms    tail op latency: p90 when at least ten ops lie beyond it,
                 else the highest percentile that has ten ops beyond it, and
                 never below p50 (verify's one pass figure gives p50); the
                 percentile used and the op count are printed
    peak_rss_mb  the workload process's peak resident set size
    ok_frac      1 - failed_frac: ops whose checks all passed over ops
                 attempted (a raised op counts as failed)

``--trace 1`` runs the workload's fixed op prefix (whatever ``--seconds``
says, so per-layer totals and counts cover the same ops on every commit),
each op once untraced and once with ``tracing.Tracer`` installed, and
reports the per-layer metrics of the traced runs and the workload's
fixtures, per-module self time and ``trace.overhead_frac`` (traced over
untraced op time, minus one).

Every run also checks outputs with the benchmark's own oracles, runs a
negative control (mutated comparators must fail the same checks), compares
an exact-count fingerprint of the fixed op prefix with the previous run of
the same workload and seed in this checkout and with ``fingerprints.json``
(the digests of seeds 1-10 when the benchmark was defined; a mismatch is a
behaviour change, reported apart from timing and correctness), and writes a
result file with provenance to ``perfbench/out/``. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11
# Not used while the benchmark was written; later claims re-check on it.
HELD_OUT_SEED = 104729


def _import_library():
    """Put this checkout's ``src`` first on the path and import qbsc from it,
    with numpy's BLAS held to one thread (set-up probes inherit this)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    if not (src / "qbsc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qbsc package under {src}")
    sys.path.insert(0, str(src))
    import qbsc

    if Path(qbsc.__file__).resolve().parent != (src / "qbsc").resolve():
        raise SystemExit(f"error: imported qbsc from {qbsc.__file__}, not {src}")


# -- measurement -------------------------------------------------------------

# Op time is the benchmark thread's CPU time. An op does no I/O and waits on
# nothing, so on an otherwise idle machine this is its wall time; it leaves
# out time the scheduler hands to other processes.
op_clock = time.thread_time


@dataclass
class Record:
    """One op: its index, wall start and end, op seconds and items (None if
    it raised), failed checks and fingerprint statistics (fixed prefix only)."""

    i: int
    start: float
    end: float
    seconds: float | None
    items: int | None
    problems: list[str]
    facts: dict | None


def run_one(workload, i: int, tracer=None) -> Record:
    """Run, time and check op ``i``; with a tracer the op runs traced."""
    inp = workload.op(i)
    gc.collect()
    seconds = items = None
    facts: dict = {}
    start = time.perf_counter()
    try:
        if tracer is None:
            t0 = op_clock()
            out = workload.run(inp)
            seconds = op_clock() - t0
        else:
            tracer.install()
            try:
                t0 = op_clock()
                out = tracer.run_op(i, workload.run, inp)
                seconds = op_clock() - t0
            finally:
                tracer.uninstall()
        end = time.perf_counter()
        items = workload.items(inp, out)
        problems = workload.check(inp, out, facts)
    except Exception:
        end = time.perf_counter()
        problems = [f"op {i} raised:\n{traceback.format_exc()}"]
    for line in problems[:3]:
        print(f"FAILED {workload.name} op {i}: {line}", file=sys.stderr)
    return Record(i, start, end, seconds, items, problems, facts if i < workload.fixed_ops else None)


def run_ops(workload, seconds: float, speed) -> list[Record]:
    """Closed loop: run whole rounds of ops until the time is used up.

    A round (``workload.round_ops`` ops) holds every kind of op in fixed
    shares, so each run measures the same mix. At least the fixed prefix
    runs; after it a new round starts only if a typical round (median so far,
    checks included) still fits in ``seconds``. ``speed`` probes the
    machine before the first op, between ops and after the last.
    """
    records: list[Record] = []
    round_times: list[float] = []
    started = time.perf_counter()
    speed.probe()
    while len(records) < workload.fixed_ops or (
            time.perf_counter() - started + statistics.median(round_times) <= seconds):
        t_round = time.perf_counter()
        for _ in range(workload.round_ops):
            speed.maybe_probe()
            records.append(run_one(workload, len(records)))
        round_times.append(time.perf_counter() - t_round)
    speed.probe()
    return records


def run_traced(workload, tracer) -> tuple[list[Record], list[Record]]:
    """The fixed prefix, each op once untraced and once traced.

    The two runs of an op are back to back, alternating which goes first,
    so warm-up and drift fall on both sides of the overhead estimate.
    """
    plain, traced = [], []
    for i in range(workload.fixed_ops):
        for use in ((False, True) if i % 2 == 0 else (True, False)):
            if use:
                traced.append(run_one(workload, i, tracer))
            else:
                plain.append(run_one(workload, i))
    return plain, traced


def measure_setup(workload: str, seed: int, speed) -> tuple[list[float], list[float], list]:
    """Fresh interpreters up to their 'ready' line: the CPU seconds each
    reports (interpreter start-up included), the wall seconds from spawn and
    the wall interval. ``speed`` probes the machine around every probe, while
    none is alive."""
    cpu, wall, spans = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        for _ in range(2):
            speed.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        said = line.split()
        if len(said) != 2 or said[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        cpu.append(float(said[1]))
        wall.append(elapsed)
        spans.append((t0, t0 + elapsed))
    for _ in range(2):
        speed.probe()
    return cpu, wall, spans


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(count: int) -> float:
    """p90, or the highest quantile with at least ten ops beyond it, >= p50."""
    return min(0.9, max(0.5, (count - 10) / count))


def op_latencies(workload, records: list[Record], scale) -> list[float]:
    """Op seconds, each times ``scale(record)``; for a workload whose latency
    is a whole round (a verify pass, of which a run holds only a few), one
    figure: the mean pass, the sum over the round's ops of each op's mean."""
    done = [r for r in records if r.seconds is not None]
    if not getattr(workload, "latency_per_round", False):
        return [r.seconds * scale(r) for r in done]
    per_op: dict[int, list[float]] = {}
    for r in done:
        per_op.setdefault(r.i % workload.round_ops, []).append(r.seconds * scale(r))
    return [sum(statistics.fmean(v) for v in per_op.values())]


def end_to_end(workload, records: list[Record], setup: list[float],
               scale=lambda r: 1.0) -> dict:
    """The end-to-end metrics, each op's seconds multiplied by
    ``scale(record)``, its machine-speed factor; ``setup`` is already scaled
    (the defaults give the unscaled figures)."""
    done = [r for r in records if r.seconds is not None]
    if not done:
        raise SystemExit("error: no op completed")
    failed = sum(1 for r in records if r.problems)
    lat = op_latencies(workload, records, scale)
    op_s = sum(r.seconds * scale(r) for r in done)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(r.items for r in done if r.items is not None) / op_s, "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(lat, tail_quantile(len(lat))), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / len(records), "frac"),
    }


# -- fingerprint, control, provenance ----------------------------------------

def fingerprint(workload, records: list[Record], seed: int) -> dict:
    """Exact statistics of the fixed op prefix, compared with earlier runs."""
    facts = [r.facts for r in records[:workload.fixed_ops]]
    text = json.dumps(facts, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    previous_file = OUT / f"fingerprint-{workload.name}-seed{seed}.json"
    status = []
    if previous_file.is_file():
        previous = json.loads(previous_file.read_text())
        status.append("matches previous run" if previous["digest"] == digest
                      else f"BEHAVIOUR CHANGE vs previous run ({previous['digest']})")
    else:
        status.append("first run of this seed in this checkout")
    reference = json.loads((HERE / "fingerprints.json").read_text())
    ref = reference.get(workload.name, {}).get(str(seed))
    if ref is not None:
        status.append("matches fingerprints.json" if ref == digest
                      else f"BEHAVIOUR CHANGE vs fingerprints.json ({ref})")
    previous_file.write_text(json.dumps({"digest": digest, "facts": facts}, sort_keys=True))
    return {"digest": digest, "ops": len(facts), "status": status, "facts": facts}


def negative_control(workload) -> dict:
    """Each mutant must fail at least one op of the workload's check path."""
    per = workload.control()
    return {name: {"attempted": tried, "failed": failed, "failed_frac": failed / tried}
            for name, (tried, failed) in per.items()}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "commit": _git_commit(),
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- main ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "wide", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            workload = tracer.run_op(-1, WORKLOADS[args.workload], args.seed)
        finally:
            tracer.uninstall()
    else:
        workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    report: dict = {"workload": args.workload, "trace": args.trace,
                    "provenance": provenance(args.seed)}
    lines = [f"qbsc benchmark: workload={args.workload} seed={args.seed} trace={args.trace}",
             "provenance: " + " ".join(f"{k}={v}" for k, v in report["provenance"].items())]

    if args.trace == 0:
        from speed import REFERENCE_S, Speed

        setup_speed, op_speed = Speed(), Speed()
        setup, setup_wall, setup_spans = measure_setup(args.workload, args.seed, setup_speed)
        records = run_ops(workload, args.seconds, op_speed)
        factors = {r.i: op_speed.factor(r.start, r.end) for r in records}
        metrics = end_to_end(workload, records,
                             [s * setup_speed.factor(*span) for s, span in zip(setup, setup_spans)],
                             lambda r: factors[r.i])
        raw = end_to_end(workload, records, setup)
        report.update(setup_probes_cpu_s=setup, setup_probes_wall_s=setup_wall,
                      op_seconds=[r.seconds for r in records],
                      op_factors=[factors[r.i] for r in records],
                      reference_s={"setup": [s for _, s in setup_speed.samples],
                                   "ops": [s for _, s in op_speed.samples]},
                      unscaled_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw.items()})
        completed = sum(1 for r in records if r.seconds is not None)
        latencies = len(op_latencies(workload, records, lambda r: 1.0))
        report["op_p90_quantile"] = tail_quantile(latencies)
        lines.append(f"ops: {len(records)} ({completed} completed) in "
                     f"{len(records) // workload.round_ops} rounds; "
                     + (f"op_p90_ms is p{100 * report['op_p90_quantile']:.0f} of them"
                        if latencies == completed else
                        "latency is the mean pass, op_p50_ms = op_p90_ms")
                     + f"; set-up wall time median {statistics.median(setup_wall):.4f} s")
        lines.append(
            f"machine speed: reference {1e3 * setup_speed.mean_s():.3f} ms in set-up "
            f"({len(setup_speed.samples)} probes), {1e3 * op_speed.mean_s():.3f} ms in ops "
            f"({len(op_speed.samples)} probes), defined as {1e3 * REFERENCE_S:g} ms; unscaled: "
            + ", ".join(f"{k} {_fmt(v)} {u}" for k, (v, u) in raw.items()
                        if k in ("setup_s", "items_per_s", "op_p50_ms", "op_p90_ms")))
        if hasattr(workload, "kind"):
            spent: dict[str, float] = {}
            for r in records:
                if r.seconds is not None:
                    spent[workload.kind(r.i)] = spent.get(workload.kind(r.i), 0.0) + r.seconds
            report["time_share"] = {k: v / sum(spent.values()) for k, v in spent.items()}
            lines.append("op time share: " + ", ".join(
                f"{k} {v:.0%}" for k, v in report["time_share"].items()))
        if hasattr(workload, "floors"):
            report["floors"] = []
            for label, seconds, limit in workload.floors(records):
                verdict = "PASS" if seconds < limit else "FAIL"
                report["floors"].append({"floor": label, "median_s": seconds,
                                         "limit_s": limit, "verdict": verdict})
                lines.append(f"floor: {label}: {seconds:.3f} s < {limit:g} s  {verdict}")
    else:
        baseline, traced = run_traced(workload, tracer)
        untraced_s = sum(r.seconds for r in baseline if r.seconds is not None)
        traced_s = sum(r.seconds for r in traced if r.seconds is not None)
        metrics = tracer.metrics(traced_s / untraced_s - 1)
        records = baseline + traced
        report["modules"] = tracer.modules()
        report["missing"] = tracer.missing
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.span_dump()))
        lines.append(f"traced {len(traced)} ops ({traced_s:.3f} s), each also run untraced "
                     f"({untraced_s:.3f} s); spans in {spans_file.relative_to(ROOT)}")
        lines.append(f"{'module':<11} {'self_s':>10} {'share':>7} {'calls':>9}")
        for module, row in report["modules"].items():
            gone = f"  MISSING {', '.join(row['missing'])}" if row["missing"] else ""
            lines.append(f"{module:<11} {row['self_s']:>10.4f} {row['share']:>7.1%}"
                         f" {row['calls']:>9}{gone}")
        other = tracer.untraced()
        lines.append(f"{'(untraced)':<11} {other:>10.4f} {other / tracer.wall():>7.1%}")

    failed = sum(1 for r in records if r.problems)
    control = negative_control(workload)
    control_ok = all(c["failed"] > 0 for c in control.values())
    print_fp = fingerprint(workload, records if args.trace == 0 else baseline, args.seed)
    report.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=len(records), failed=failed,
                  problems=[p for r in records for p in r.problems][:20],
                  negative_control=control, fingerprint=print_fp)

    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<32} {_fmt(value):>14} {unit}")
    lines.append(f"checks: {len(records)} ops attempted, {failed} failed "
                 f"(failed_frac {failed / len(records):.4g})")
    lines.append("negative control: " + ", ".join(
        f"{n} failed {c['failed']}/{c['attempted']} ops" for n, c in control.items())
        + ("; the checks can fail" if control_ok else "; CHECKS DID NOT CATCH A MUTANT"))
    lines.append(f"fingerprint {print_fp['digest']} over {print_fp['ops']} ops: "
                 + "; ".join(print_fp["status"]))
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1, sort_keys=True))
    lines.append(f"result file: {result_file.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and control_ok, "attempted": len(records),
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
