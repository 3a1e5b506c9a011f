"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Every tolerance and budget is pinned here, not configurable.
"""

import json
import random
import time

import numpy as np
from click.testing import CliRunner

from qbsc.circuit import Circuit, GateKind, static_census
from qbsc.cli import main as cli_main
from qbsc.comparator import (
    BuilderVariant,
    Operands,
    build_gqbsc,
    compare,
    encode_operands,
    reference_flags,
    soundness_check_exhaustive,
    soundness_check_random,
)
from qbsc.gates import lower_circuit, unitary_of
from qbsc.qasm import export, parse
from qbsc.resources import Case, Method, formula_report, gate_growth
from qbsc.simulate import ClassicalRunner, DenseRunner, NoiseModel, sample

from _oracles import V, VDG, compose_circuit_unitary, embed_unitary

FIGURE, ALGORITHMIC = BuilderVariant.FIGURE, BuilderVariant.ALGORITHMIC


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _operand_bits(value: int, n: int) -> tuple[int, ...]:
    return tuple((value >> (n - 1 - k)) & 1 for k in range(n))


# -- 1. exhaustive soundness ---------------------------------------------------

def test_criterion_01_exhaustive_soundness():
    started = time.monotonic()
    pairs_per_variant = {}
    mismatches = 0
    for variant in (FIGURE, ALGORITHMIC):
        total = 0
        for n in range(1, 9):
            pairs, bad = soundness_check_exhaustive(n, variant)
            total += pairs
            mismatches += bad
        pairs_per_variant[variant] = total
    elapsed = time.monotonic() - started

    dense_checked = 0
    dense_flag_mismatch = 0
    for variant in (FIGURE, ALGORITHMIC):
        for n in range(1, 5):
            body = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
            classical, dense = ClassicalRunner(body), DenseRunner(body)
            for a in range(1 << n):
                for b in range(1 << n):
                    bits = _operand_bits(a, n) + _operand_bits(b, n) + (0, 0)
                    dense_checked += 1
                    if classical.run_bits(bits) != tuple(dense.run(bits).classical_bits):
                        dense_flag_mismatch += 1

    ok = (all(v == 87_380 for v in pairs_per_variant.values())
          and mismatches == 0 and elapsed < 30.0
          and dense_checked == 2 * 340 and dense_flag_mismatch == 0)
    _report(1, "exhaustive soundness", ok,
            f"87380 pairs x2 variants, {mismatches} bad, {elapsed:.1f}s classical;"
            f" dense {dense_checked // 2} pairs x2, {dense_flag_mismatch} flag diffs")


# -- 2. verification table reproduction ----------------------------------------

# (a, bin a, b, bin b, class); flags for the first three rows are exact under
# the figure layout: (r0, r1) = (0,0), (1,0), (0,1).
VERIFICATION_ROWS = [
    (0, "0", 0, "0", "Equal"),
    (1, "1", 0, "0", "Greater"),
    (0, "0", 1, "1", "Less"),
    (3, "11", 3, "11", "Equal"),
    (3, "11", 1, "01", "Greater"),
    (1, "01", 3, "11", "Less"),
    (7, "111", 7, "111", "Equal"),
    (7, "111", 3, "011", "Greater"),
    (3, "011", 7, "111", "Less"),
    (31, "11111", 31, "11111", "Equal"),
    (31, "11111", 30, "11110", "Greater"),
    (30, "11110", 31, "11111", "Less"),
    (120, "1111000", 120, "1111000", "Equal"),
    (127, "1111111", 63, "0111111", "Greater"),
    (100, "1100100", 127, "1111111", "Less"),
    (600, "1001011000", 600, "1001011000", "Equal"),
    (700, "1010111100", 420, "0110100100", "Greater"),
    (630, "1001110110", 800, "1100100000", "Less"),
    (1500, "10111011100", 1500, "10111011100", "Equal"),
    (1400, "10101111000", 200, "00011001000", "Greater"),
    (560, "01000110000", 1137, "10001110001", "Less"),
]


def test_criterion_02_verification_table():
    bad = []
    for row, (a, bin_a, b, bin_b, expected) in enumerate(VERIFICATION_ROWS, start=1):
        # the printed bitstrings are exactly the padded encodings of the values
        assert encode_operands(bin_a, bin_b) == encode_operands(a, b), row
        outcome = compare(bin_a, bin_b, variant=FIGURE)
        if outcome.comparison.value != expected:
            bad.append(row)
    flags = [(compare(r[1], r[3]).r0, compare(r[1], r[3]).r1)
             for r in VERIFICATION_ROWS[:3]]
    flags_ok = flags == [(0, 0), (1, 0), (0, 1)]
    _report(2, "verification table", not bad and flags_ok,
            f"21 rows class-checked, first three flags {flags}")


# -- 3. thousand-bit operands --------------------------------------------------

def test_criterion_03_thousand_bit_verify():
    started = time.monotonic()
    pairs, mismatches = soundness_check_random(1000, 100, seed=20240915)
    elapsed = time.monotonic() - started
    ok = pairs == 100 and mismatches == 0 and elapsed < 10.0
    _report(3, "1000-bit random verify", ok,
            f"{pairs} pairs, {mismatches} bad, {elapsed:.2f}s")


# -- 4. closed-form fidelity against the reference plots ------------------------

_GRID = (1, 80, 160, 240, 320, 400, 480, 560, 640, 720, 800, 880, 960, 1000)

ANCILLA_POINTS = {
    Method.WANG: (2, 160, 320, 480, 640, 800, 960, 1120, 1280, 1440, 1600, 1760, 1920, 2000),
    Method.AL_RABADI: (7, 481, 961, 1441, 1921, 2401, 2881, 3361, 3841, 4321, 4801, 5281, 5761, 6001),
    Method.THAPLIYAL: (1, 317, 637, 957, 1277, 1597, 1917, 2237, 2557, 2877, 3197, 3517, 3837, 3997),
    Method.VUDADHA: (2, 318, 638, 958, 1278, 1598, 1918, 2238, 2558, 2878, 3198, 3518, 3838, 3998),
    Method.OLIVEIRA: (4, 241, 481, 721, 961, 1201, 1441, 1681, 1921, 2161, 2401, 2641, 2881, 3001),
    Method.XIA: (1,) * 14,
    Method.PROPOSED: (2,) * 14,
}

COST_POINTS = {
    Method.WANG: (1, 6400, 25600, 57600, 102400, 160000, 230400, 313600, 409600, 518400, 640000, 774400, 921600, 1000000),
    Method.AL_RABADI: (48, 3129, 6249, 9369, 12489, 15609, 18729, 21849, 24969, 28089, 31209, 34329, 37449, 39009),
    Method.THAPLIYAL: (27, 1449, 2889, 4329, 5769, 7209, 8649, 10089, 11529, 12969, 14409, 15849, 17289, 18009),
    Method.VUDADHA: (14, 1120, 2240, 3360, 4480, 5600, 6720, 7840, 8960, 10080, 11200, 12320, 13440, 14000),
    Method.OLIVEIRA: (12, 7833, 15753, 23673, 31593, 39513, 47433, 55353, 63273, 71193, 79113, 87033, 94953, 98913),
    Method.XIA: (28, 2240, 4480, 6720, 8960, 11200, 13440, 15680, 17920, 20160, 22400, 24640, 26880, 28000),
    Method.PROPOSED: (14, 1120, 2240, 3360, 4480, 5600, 6720, 7840, 8960, 10080, 11200, 12320, 13440, 14000),
}

DELAY_POINTS = {  # n = 1..10
    Method.WANG: (1, 4, 9, 16, 25, 36, 49, 64, 81, 100),
    Method.AL_RABADI: (33, 57, 81, 105, 129, 153, 177, 201, 225, 249),
    Method.THAPLIYAL: (12, 18, 21, 23, 25, 26, 28, 29, 30, 30),
    Method.VUDADHA: (14, 15, 16, 17, 17, 17, 18, 18, 18, 19),
    Method.OLIVEIRA: (19, 29, 59, 79, 99, 119, 139, 159, 179, 199),
    Method.XIA: (33, 64, 95, 126, 157, 188, 219, 250, 281, 312),
    Method.PROPOSED: (4, 9, 13, 18, 22, 27, 31, 36, 40, 45),
}


def test_criterion_04_formula_fidelity():
    bad = []
    deviations = []

    for method, points in ANCILLA_POINTS.items():
        for n, plotted in zip(_GRID, points):
            computed = formula_report(method, n).ancilla
            if method is Method.OLIVEIRA:
                # known deviation: the plotted series is 3n+1, the formula 3n-1
                if plotted != computed + 2:
                    bad.append(("ancilla", method.value, n))
                deviations.append(("ancilla", method.value, n))
            elif computed != plotted:
                bad.append(("ancilla", method.value, n))

    for method, points in COST_POINTS.items():
        case = Case.EQUAL if method is Method.PROPOSED else None
        for n, plotted in zip(_GRID, points):
            if formula_report(method, n, case).cost != plotted:
                bad.append(("cost", method.value, n))

    for method, points in DELAY_POINTS.items():
        case = Case.UNEQUAL if method is Method.PROPOSED else None
        for n, plotted in zip(range(1, 11), points):
            computed = formula_report(method, n, case).delay
            if method is Method.OLIVEIRA and n == 2:
                # known deviation: plotted 29 against the formula's 39
                if not (plotted == 29 and computed == 39):
                    bad.append(("delay", method.value, n))
                deviations.append(("delay", method.value, n))
            elif computed != plotted:
                bad.append(("delay", method.value, n))

    checked = 14 * 7 * 2 + 10 * 7
    _report(4, "closed-form fidelity", not bad,
            f"{checked} plotted points, {len(deviations)} of them held as the two"
            f" known deviations, first failures: {bad[:3]}")


# -- 5. census fidelity ---------------------------------------------------------

def test_criterion_05_census_fidelity():
    bad = []
    growth = dict(gate_growth(range(1, 101)))
    for n in (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
        census = growth[n]
        expected_x = 4 * n + (n - 1 + 1) // 2  # 4n + ceil((n-1)/2)
        if (census.x, census.ccx, census.block_count_1bc, census.block_measure_count) \
                != (expected_x, 2 * n, n, 2 * n):
            bad.append(n)
    for n in range(1, 11):
        census = growth[n]
        if (census.width_qubits, census.width_total) != (2 * n + 2, 2 * n + 4):
            bad.append(("width", n))
    _report(5, "census fidelity", not bad, f"gate counts at 11 widths,"
            f" register widths at 10; failures: {bad}")


# -- 6. cost-model consistency ---------------------------------------------------

def test_criterion_06_cost_model_consistency():
    bad = []
    for n in range(1, 101):
        body = build_gqbsc(Operands((0,) * n, (0,) * n), FIGURE)
        static_cost = static_census(body).total_unit_cost
        formula = formula_report(Method.PROPOSED, n, Case.UNEQUAL).cost
        if static_cost != formula:
            bad.append((n, static_cost, formula))
    _report(6, "cost-model consistency", not bad,
            f"static body cost == 14n+ceil((n-1)/2) for n=1..100; failures: {bad[:3]}")


# -- 7. gate algebra --------------------------------------------------------------

def test_criterion_07_gate_algebra():
    identity_err = float(np.max(np.abs(V @ VDG - np.eye(2))))
    v_squared_exact = bool(np.array_equal(V @ V, unitary_of(GateKind.X)))

    composed = compose_circuit_unitary(
        lower_circuit(Circuit(3, 0).ccx(0, 1, 2)).instructions, 3, unitary_of)
    toffoli = embed_unitary(unitary_of(GateKind.CCX), (0, 1, 2), 3)
    decomposition_err = float(np.max(np.abs(composed - toffoli)))

    lowering_bad = 0
    for n in (1, 2, 3):
        original = build_gqbsc(Operands((0,) * n, (0,) * n), FIGURE)
        lowered = lower_circuit(original)
        run_orig, run_low = DenseRunner(original), DenseRunner(lowered)
        for a in range(1 << n):
            for b in range(1 << n):
                bits = _operand_bits(a, n) + _operand_bits(b, n) + (0, 0)
                if run_orig.run(bits).classical_bits != run_low.run(bits).classical_bits:
                    lowering_bad += 1

    ok = (identity_err < 1e-15 and v_squared_exact
          and decomposition_err < 1e-12 and lowering_bad == 0)
    _report(7, "gate algebra", ok,
            f"|VV+-I|={identity_err:.1e}, V^2==X exact={v_squared_exact},"
            f" |decomp-CCX|={decomposition_err:.1e}, lowering diffs={lowering_bad}/84")


# -- 8. noise trend ----------------------------------------------------------------

def test_criterion_08_noise_trend():
    started = time.monotonic()
    noise = NoiseModel(depolarizing_per_gate=0.01, readout_flip=0.02)
    circuit_1 = build_gqbsc(encode_operands("0", "0"), FIGURE)
    circuit_3 = build_gqbsc(encode_operands("000", "000"), FIGURE)
    argmax_hits = 0
    p_expected_1, p_expected_3 = [], []
    for seed in range(100):
        h1 = sample(circuit_1, shots=1024, noise=noise, seed=seed)
        h3 = sample(circuit_3, shots=1024, noise=noise, seed=seed)
        argmax_hits += h1.argmax() == 0
        p_expected_1.append(h1.counts.get(0, 0) / 1024)
        p_expected_3.append(h3.counts.get(0, 0) / 1024)
    elapsed = time.monotonic() - started
    mean_1, mean_3 = float(np.mean(p_expected_1)), float(np.mean(p_expected_3))
    ok = argmax_hits >= 95 and mean_3 < mean_1 and elapsed < 120.0
    _report(8, "noise trend", ok,
            f"argmax {argmax_hits}/100 seeds, P(expected) {mean_1:.3f} @n=1"
            f" vs {mean_3:.3f} @n=3, {elapsed:.1f}s")


# -- 9. serialization roundtrip ------------------------------------------------------

def test_criterion_09_roundtrip():
    widths = list(range(1, 17)) + [100]
    structural_bad = []
    for variant in (FIGURE, ALGORITHMIC):
        for n in widths:
            circuit = build_gqbsc(Operands((0,) * n, (0,) * n), variant)
            if parse(export(circuit)) != circuit:
                structural_bad.append((variant.value, n))

    rng = random.Random(77)
    semantic_pairs = semantic_bad = 0
    for n in widths:
        body = build_gqbsc(Operands((0,) * n, (0,) * n), FIGURE)
        original = ClassicalRunner(body)
        reparsed = ClassicalRunner(parse(export(body)))
        for _ in range(59):
            a_bits = _operand_bits(rng.getrandbits(n), n)
            b_bits = _operand_bits(rng.getrandbits(n), n)
            bits = a_bits + b_bits + (0, 0)
            semantic_pairs += 1
            if original.run_bits(bits) != reparsed.run_bits(bits):
                semantic_bad += 1

    ok = not structural_bad and semantic_pairs >= 1000 and semantic_bad == 0
    _report(9, "serialization roundtrip", ok,
            f"structural x{2 * len(widths)} circuits ok={not structural_bad},"
            f" semantic {semantic_pairs} pairs, {semantic_bad} diffs")


# -- 10. CLI determinism ----------------------------------------------------------------

def test_criterion_10_cli_determinism():
    runner = CliRunner()
    invocations = [
        ["compare", "--a", "700", "--b", "420", "--format", "json"],
        ["sweep", "--metric", "cost", "--format", "csv"],
        ["sweep", "--metric", "ancilla", "--format", "json"],
        ["census", "--format", "csv"],
        ["verify", "--max-bits", "5", "--format", "json"],
    ]
    stable = True
    for args in invocations:
        first = runner.invoke(cli_main, args, catch_exceptions=False).stdout_bytes
        second = runner.invoke(cli_main, args, catch_exceptions=False).stdout_bytes
        stable &= first == second
        if args[0] == "verify":
            stable &= json.loads(first)["mismatches"] == 0
    _report(10, "cli determinism", stable,
            f"{len(invocations)} invocations byte-stable on repeat")
