"""The three benchmark workloads: ``verify``, ``wide`` and ``sample``.

Each is a closed loop in one process and one thread: op ``i`` is generated
from ``(seed, i)``, run, and checked before op ``i + 1`` starts. A workload
object is built once (its fixtures are the set-up cost) and then exposes

    op(i)                  -> the inputs of op i (deterministic in seed, i)
    run(inp)               -> outputs; the only part that is timed
    items(inp, out)        -> items done by the op (pairs, jobs or shots)
    check(inp, out, facts) -> list of failed checks; fills ``facts`` with the
                              op's deterministic statistics (the fingerprint)
    control()              -> {mutant: (attempted, failed)} through the same
                              check path, on deliberately broken comparators

``round_ops`` ops make a round, which holds every kind of op in fixed shares;
a run measures whole rounds. ``fixed_ops`` (whole rounds too) is the op
prefix every run completes: the fingerprint covers it and a traced run
replays exactly it.

All library calls go through module attributes (``comparator.build_gqbsc``),
so the tracer's wrappers see the benchmark's calls as well as the library's.
"""
from __future__ import annotations

import json
import math
import random

from qbsc import cli, comparator, gates, qasm, resources, simulate
from qbsc import circuit as ir
from qbsc.comparator import BuilderVariant, Operands
from qbsc.simulate import NoiseModel

from oracles import (
    VARIANTS,
    bits_of,
    check_compare_payload,
    expected_flags,
    expected_register,
    initial_bits,
    mutants,
    operand_pair,
    structured_pairs,
)


def _body(n: int, variant: str):
    """Value-independent comparator body (zero operands, no input prep)."""
    return comparator.build_gqbsc(Operands((0,) * n, (0,) * n), BuilderVariant(variant))


def _gate_counts(circuit) -> dict:
    """Instruction census counted here, not by the library."""
    counts: dict[str, int] = {}
    for instr in circuit.instructions:
        if isinstance(instr, ir.GateOp):
            key = instr.gate.value
        elif isinstance(instr, ir.MeasureOp):
            key = "measure"
        else:
            key = "barrier"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _flag_problems(runner, n: int, variant: str, pairs) -> list[str]:
    """Run pairs on a compiled body and compare (r0, r1) with the oracle."""
    problems = []
    for a, b in pairs:
        cl = runner.run_bits(initial_bits(a, b, n))
        want = expected_flags(a, b, n, variant)
        if (cl[0], cl[1]) != want:
            problems.append(f"n={n} {variant} a={a:x} b={b:x}: flags {cl[:2]}, want {want}")
    return problems


EXHAUSTIVE = tuple(range(1, 9))
LADDER = (9, 18, 36, 72, 144, 288, 576, 1000)


class Verify:
    """``qbsc verify --max-bits 1000 --variant both``, one op per width.

    A pass is a round of 32 ops: for each variant, widths 1..8 exhaustive
    (87,380 pairs per variant), then 100 seeded pairs at each width of the
    CLI's doubling ladder up to 1000. Its latency is the whole pass.
    """

    name = "verify"
    UNITS = tuple((v, n) for v in VARIANTS for n in EXHAUSTIVE + LADDER)
    round_ops = fixed_ops = len(UNITS)
    latency_per_round = True
    SAMPLES = 100

    def __init__(self, seed: int):
        self.seed = seed
        self._runners: dict = {}

    def op(self, i: int) -> tuple[int, str, int]:
        p, u = divmod(i, len(self.UNITS))
        return (p, *self.UNITS[u])

    def run(self, inp) -> tuple[int, int]:
        p, v, n = inp
        if n in EXHAUSTIVE:
            return comparator.soundness_check_exhaustive(n, BuilderVariant(v))
        unit_seed = random.Random(f"verify/{self.seed}/{p}/{v}/{n}").getrandbits(32)
        return comparator.soundness_check_random(n, self.SAMPLES, unit_seed, BuilderVariant(v))

    def items(self, inp, out) -> int:
        return out[0]

    def _runner(self, v: str, n: int):
        if (v, n) not in self._runners:
            self._runners[v, n] = simulate.ClassicalRunner(_body(n, v))
        return self._runners[v, n]

    def check(self, inp, out, facts: dict) -> list[str]:
        p, v, n = inp
        pairs, bad = out
        problems = []
        want = 4 ** n if n in EXHAUSTIVE else self.SAMPLES
        if pairs != want:
            problems.append(f"{v} n={n}: {pairs} pairs checked, want {want}")
        if bad:
            problems.append(f"{v} n={n}: {bad} mismatches reported")
        facts.update(variant=v, n=n, pairs=pairs, mismatches=bad)
        spot = structured_pairs(n, f"verify-spot/{self.seed}/{p}/{v}/{n}")
        if n <= 3:
            spot += [(a, b) for a in range(1 << n) for b in range(1 << n)]
        return problems + _flag_problems(self._runner(v, n), n, v, spot)

    def control(self) -> dict:
        n = 4
        every_pair = [(a, b) for a in range(1 << n) for b in range(1 << n)]
        out = {}
        for v in VARIANTS:
            for name, broken in mutants(_body(n, v)).items():
                bad = _flag_problems(simulate.ClassicalRunner(broken), n, v, every_pair)
                tried, failed = out.get(name, (0, 0))
                out[name] = (tried + 1, failed + bool(bad))
        return out

    def floors(self, records) -> list[tuple[str, float, float]]:
        """The paper's speed floors on unscaled op seconds, each as (label,
        median over whole passes, limit)."""
        per_pass: dict[tuple, float] = {}
        for r in records:
            if r.seconds is None:
                continue
            p, v, n = self.op(r.i)
            key = (p, v, "exhaustive" if n in EXHAUSTIVE else n)
            per_pass[key] = per_pass.get(key, 0.0) + r.seconds
        passes = len(records) // self.round_ops
        out = []
        for v in VARIANTS:
            for part, label, limit in (("exhaustive", f"87,380 exhaustive pairs, {v}", 30.0),
                                       (1000, f"100 pairs at n=1000, {v}", 10.0)):
                times = sorted(per_pass.get((p, v, part), math.inf) for p in range(passes))
                out.append((label, times[len(times) // 2], limit))
        return out


class Wide:
    """One fresh job at width 1000 per op, nothing reused.

    A job runs CLI ``compare --format json`` in-process, builds the circuit,
    exports and re-parses its QASM, round-trips its JSON and lowers it.
    Operands cycle random (verdict in the first block or two), equal and
    differing only in the last bit (all n blocks fire); the variant switches
    every four jobs, so each meets every kind of operands, and a round is
    those eight jobs. One width keeps op latencies in one cluster, so their
    percentiles are steady.
    """

    name = "wide"
    round_ops = fixed_ops = 8
    WIDTH = 1000
    KINDS = ("random", "equal", "random", "last")

    def __init__(self, seed: int):
        from click.testing import CliRunner

        self.seed = seed
        self.cli_runner = CliRunner()

    def op(self, i: int) -> tuple:
        n = self.WIDTH
        kind = self.KINDS[i % 4]
        a, b = operand_pair(random.Random(f"wide/{self.seed}/{i}"), n, kind)
        return n, VARIANTS[(i // 4) % 2], kind, a, b

    def run(self, inp) -> dict:
        n, v, _, a, b = inp
        a_bits, b_bits = bits_of(a, n), bits_of(b, n)
        result = self.cli_runner.invoke(
            cli.main, ["compare", "--a", "bin:" + a_bits, "--b", "bin:" + b_bits,
                       "--format", "json", "--variant", v], catch_exceptions=False)
        built = comparator.build_gqbsc(comparator.encode_operands(a_bits, b_bits),
                                       BuilderVariant(v))
        text = qasm.export(built)
        parsed = qasm.parse(text)
        doc = json.dumps(ir.circuit_to_json(built))
        loaded = ir.circuit_from_json(json.loads(doc))
        lowered = gates.lower_circuit(built)
        return {"exit": result.exit_code, "stdout": result.stdout, "built": built,
                "text": text, "parsed": parsed, "doc": doc, "loaded": loaded,
                "lowered": lowered}

    def items(self, inp, out) -> int:
        return 1

    def check(self, inp, out, facts: dict) -> list[str]:
        n, v, kind, a, b = inp
        if out["exit"] != 0:
            return [f"compare exited {out['exit']}: {out['stdout'][:200]!r}"]
        payload = json.loads(out["stdout"])
        problems = check_compare_payload(payload, a, b, n, v)
        built = out["built"]
        if out["parsed"] != built:
            problems.append(f"n={n} {v}: parse(export(c)) != c")
        if out["loaded"] != built:
            problems.append(f"n={n} {v}: JSON round trip changed the circuit")
        census = _gate_counts(built)
        lowered = _gate_counts(out["lowered"])
        ccx = census.get("ccx", 0)
        if ccx != 2 * n or lowered.get("ccx", 0) or (
                sum(lowered.values()) != sum(census.values()) + 4 * ccx):
            problems.append(f"n={n} {v}: lowering census {lowered} from {census}")
        facts.update(n=n, variant=v, kind=kind, resources=payload.get("resources"),
                     census=census, lowered=lowered,
                     qasm_bytes=len(out["text"].encode()), json_bytes=len(out["doc"]))
        return problems

    def control(self) -> dict:
        n = 8
        out = {}
        for v in VARIANTS:
            for name, broken in mutants(_body(n, v)).items():
                for a, b in structured_pairs(n, f"wide-control/{v}"):
                    bits = initial_bits(a, b, n)
                    r0, r1 = simulate.run_classical(broken, bits).classical_bits[:2]
                    ops = comparator.encode_operands(bits_of(a, n), bits_of(b, n))
                    measured = resources.measured_report(broken, ops)
                    payload = {"class": comparator.interpret(r0, r1).value, "r0": r0,
                               "r1": r1, "n": n, "resources": {
                                   "qubits": measured.qubits,
                                   "static_cost": measured.static_cost,
                                   "executed_cost": measured.executed_cost}}
                    bad = check_compare_payload(payload, a, b, n, v)
                    tried, failed = out.get(name, (0, 0))
                    out[name] = (tried + 1, failed + bool(bad))
        return out


NOISE = NoiseModel(0.01, 0.02)


class Sample:
    """One noisy ``sample()`` call per op, ``NoiseModel(0.01, 0.02)``.

    Ops alternate: a call of 1024 shots on the n=3 comparator (classical
    backend, the noise-trend setting), then a call on the CV/CV-dagger-lowered
    comparator at n=5 (24 shots) or n=6 (9 shots) on the dense backend. Shot
    counts make every call take about the same time, so each kind takes
    about half of the run and op latencies form one cluster whose p50 and p90
    are steady. Classical operands cycle through verdicts in the first,
    middle and last block and equality. Dense operands are equal or differ
    only in the last bit, so every block fires and each dense call of a width
    does the same work. A round of 16 ops meets every kind, width and
    variant in fixed shares.
    """

    name = "sample"
    round_ops = 16
    fixed_ops = 48
    CLASSICAL_KINDS = ("first", "mid", "last", "equal")
    DENSE_KINDS = ("last", "equal")
    CLASSICAL_SHOTS = 1024
    DENSE_SHOTS = {5: 24, 6: 9}
    NOISELESS_SHOTS = {"classical": 16, "dense": 2}
    # The noiseless answer keeps 0.85-0.93 of the noisy n=3 classical shots;
    # under 0.6 the noise model is misapplied and the argmax has no margin.
    MIN_SHARE = 0.6

    def __init__(self, seed: int):
        self.seed = seed
        self.bodies = {}
        for v in VARIANTS:
            self.bodies[3, v] = _body(3, v)
            for n in self.DENSE_SHOTS:
                self.bodies[n, v] = gates.lower_circuit(_body(n, v))

    def op(self, i: int) -> tuple:
        j, dense = divmod(i, 2)
        if not dense:
            n, shots, backend = 3, self.CLASSICAL_SHOTS, "classical"
            kind, v = self.CLASSICAL_KINDS[j % 4], VARIANTS[(j // 4) % 2]
        else:
            n = 5 if j % 2 == 0 else 6
            shots, backend = self.DENSE_SHOTS[n], "dense"
            kind, v = self.DENSE_KINDS[(j // 2) % 2], VARIANTS[(j // 4) % 2]
        rng = random.Random(f"sample/{self.seed}/{i}")
        a, b = operand_pair(rng, n, kind)
        return backend, n, v, kind, a, b, shots, rng.getrandbits(32)

    def kind(self, i: int) -> str:
        return self.op(i)[0]

    def run(self, inp):
        backend, n, v, _, a, b, shots, op_seed = inp
        return simulate.sample(self.bodies[n, v], initial_bits(a, b, n), shots=shots,
                               noise=NOISE, seed=op_seed)

    def items(self, inp, hist) -> int:
        return inp[6]

    def _check(self, circuit, inp, hist, facts: dict) -> list[str]:
        backend, n, v, kind, a, b, shots, op_seed = inp
        problems = []
        want = expected_register(a, b, n, v)
        counts = dict(hist.counts)
        if sum(counts.values()) != shots or any(not 0 <= k < 4 for k in counts):
            problems.append(f"{backend} n={n}: counts {counts} for {shots} shots")
        quiet = self.NOISELESS_SHOTS[backend]
        clean = dict(simulate.sample(circuit, initial_bits(a, b, n), shots=quiet,
                                     seed=op_seed).counts)
        if clean != {want: quiet}:
            problems.append(f"{backend} n={n} {v} a={a} b={b}: noiseless {clean}, want {want}")
        if backend == "classical":
            top = max(counts.values(), default=0)
            share = counts.get(want, 0) / shots
            if share < self.MIN_SHARE or [k for k, c in counts.items() if c == top] != [want]:
                problems.append(f"n={n} {v} a={a} b={b}: noisy counts {counts}, want {want}")
        facts.update(backend=backend, n=n, variant=v, kind=kind, noiseless=clean)
        return problems

    def check(self, inp, hist, facts: dict) -> list[str]:
        return self._check(self.bodies[inp[1], inp[2]], inp, hist, facts)

    def control(self) -> dict:
        n = 3
        out = {}
        for v in VARIANTS:
            for name, broken in mutants(_body(n, v)).items():
                for k, (a, b) in enumerate(structured_pairs(n, f"sample-control/{v}")):
                    inp = ("classical", n, v, "control", a, b, self.CLASSICAL_SHOTS, k)
                    hist = simulate.sample(broken, initial_bits(a, b, n),
                                           shots=self.CLASSICAL_SHOTS, noise=NOISE, seed=k)
                    bad = self._check(broken, inp, hist, {})
                    tried, failed = out.get(name, (0, 0))
                    out[name] = (tried + 1, failed + bool(bad))
        return out


WORKLOADS = {cls.name: cls for cls in (Verify, Wide, Sample)}
