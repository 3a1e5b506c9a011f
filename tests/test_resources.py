"""Closed-form resource models, measured census, sweeps, and gate growth."""

import pytest

from qbsc.circuit import static_census
from qbsc.comparator import BuilderVariant, Operands, _body, build_gqbsc, encode_operands
from qbsc.errors import QbscError, ResourceArgumentError, UnknownMethod
from qbsc.resources import (
    Case,
    Method,
    METHOD_ORDER,
    formula_report,
    gate_growth,
    measured_report,
    sweep,
    sweep_notes,
)
from qbsc.simulate import DenseRunner


class TestFormulaReport:
    def test_thapliyal_at_80(self):
        estimate = formula_report(Method.THAPLIYAL, 80)
        assert estimate.cost == 1449
        assert estimate.ancilla == 317

    def test_proposed_equal_case_at_1(self):
        estimate = formula_report(Method.PROPOSED, 1, Case.EQUAL)
        assert (estimate.cost, estimate.delay, estimate.ancilla) == (14, 4, 2)

    def test_xia_delay_at_10(self):
        assert formula_report(Method.XIA, 10).delay == 312

    def test_proposed_unequal_delay_at_10(self):
        # 4n plus the ceiling of (n-1)/2 correction sites
        assert formula_report(Method.PROPOSED, 10, Case.UNEQUAL).delay == 45

    def test_proposed_unequal_half_integers_round_up(self):
        assert formula_report(Method.PROPOSED, 2, Case.UNEQUAL).delay == 9
        assert formula_report(Method.PROPOSED, 2, Case.UNEQUAL).cost == 29

    @pytest.mark.parametrize("n", [2**53 + 2, 2**53 + 3])
    def test_proposed_unequal_correction_exact_past_float_range(self, n):
        # ceil((n - 1) / 2) is 2^52 + 1 at both widths; a float (n - 1) / 2 rounds it down
        estimate = formula_report("Proposed", n, Case.UNEQUAL)
        assert (estimate.cost, estimate.delay) == (14 * n + 2**52 + 1, 4 * n + 2**52 + 1)

    def test_proposed_defaults_to_unequal(self):
        assert formula_report(Method.PROPOSED, 10).delay == 45

    def test_log_delays_round_half_up(self):
        # Vudadha: 5*log10(2n)+12 gives 13.5... at n=1 and 18.5... at n=10
        assert formula_report(Method.VUDADHA, 1).delay == 14
        assert formula_report(Method.VUDADHA, 10).delay == 19
        assert formula_report(Method.THAPLIYAL, 1).delay == 12
        assert formula_report(Method.THAPLIYAL, 10).delay == 30

    def test_oliveira_formulas(self):
        estimate = formula_report(Method.OLIVEIRA, 2)
        assert (estimate.ancilla, estimate.cost, estimate.delay) == (5, 111, 39)

    def test_wang_is_quadratic(self):
        estimate = formula_report(Method.WANG, 1000)
        assert (estimate.ancilla, estimate.cost, estimate.delay) == (2000, 10**6, 10**6)

    def test_proposed_ancilla_constant(self):
        assert all(formula_report(Method.PROPOSED, n).ancilla == 2
                   for n in (1, 10, 100, 1000))

    def test_method_accepts_names(self):
        assert formula_report("vudadha", 3) == formula_report(Method.VUDADHA, 3)

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            formula_report("Nobody", 3)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            formula_report(Method.WANG, 0)

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_monotone_in_width(self, method):
        prev = None
        for n in range(1, 301):
            estimate = formula_report(method, n)
            values = (estimate.ancilla, estimate.cost, estimate.delay)
            if prev is not None:
                assert all(v >= p for v, p in zip(values, prev)), (method, n)
            prev = values

    def test_proposed_equal_case_monotone(self):
        prev = None
        for n in range(1, 301):
            estimate = formula_report(Method.PROPOSED, n, Case.EQUAL)
            if prev is not None:
                assert estimate.cost >= prev.cost and estimate.delay >= prev.delay
            prev = estimate


class TestMeasuredReport:
    def test_body_census_at_10(self):
        report = measured_report(build_gqbsc(Operands((0,) * 10, (0,) * 10)))
        assert report.census.x == 45
        assert report.census.ccx == 20
        assert report.census.block_count_1bc == 10
        assert (report.qubits, report.width_total) == (22, 24)

    def test_executed_equals_static_at_width_one(self):
        ops = encode_operands(0, 0)
        report = measured_report(build_gqbsc(ops), ops)
        assert report.executed_cost == report.static_cost == 14
        # both Toffolis fire: 10 of the 14 units
        assert report.executed_cost - 4 == 10

    def test_executed_cost_requires_inputs(self):
        assert measured_report(build_gqbsc(encode_operands(0, 0))).executed_cost is None

    def _body(self, n):
        return build_gqbsc(Operands((0,) * n, (0,) * n))

    def test_executed_no_more_than_static(self):
        for a, b in [(9, 9), (12, 3), (3, 12), (0, 15)]:
            ops = encode_operands(a, b)
            report = measured_report(self._body(ops.n), ops)
            assert report.executed_cost <= report.static_cost

    def test_early_verdict_executes_less(self):
        ops = encode_operands("100000", "000000")
        report = measured_report(self._body(6), ops)
        # greater lands at the first block, so only its 14 units fire
        assert report.executed_cost == 14
        assert report.static_cost == formula_report(Method.PROPOSED, 6).cost

    def test_equal_operands_fire_every_block(self):
        ops = encode_operands("111", "111")
        report = measured_report(self._body(3), ops)
        # all blocks fire, the correction site does not
        assert report.executed_cost == 14 * 3

    def test_body_cost_matches_unequal_formula(self):
        for n in (1, 2, 3, 17, 64, 257, 1000):
            report = measured_report(build_gqbsc(Operands((0,) * n, (0,) * n)))
            assert report.static_cost == formula_report(Method.PROPOSED, n).cost

    def test_structural_delay_reported(self):
        report = measured_report(build_gqbsc(Operands((0,), (0,))))
        assert report.structural_delay == 13

    def test_measured_ancilla_is_two_at_every_width(self):
        for n in (1, 2, 7, 33, 128, 1000):
            report = measured_report(build_gqbsc(Operands((0,) * n, (0,) * n)))
            assert report.ancilla == 2


class TestSweep:
    def test_equal_case_row(self):
        rows = sweep([Method.PROPOSED], [80], "cost", Case.EQUAL)
        assert [(r.method, r.n, r.case, r.metric, r.value) for r in rows] \
            == [("Proposed", 80, "Equal", "cost", 1120)]

    def test_proposed_emits_both_cases_by_default(self):
        rows = sweep([Method.PROPOSED], [80], "cost")
        assert [(r.case, r.value) for r in rows] == [("Equal", 1120), ("Unequal", 1160)]

    def test_ancilla_extremes(self):
        rows = {r.method: r.value for r in sweep(None, [1000], "ancilla")}
        assert rows["Wang"] == 2000
        assert rows["AlRabadi"] == 6001
        assert rows["Proposed"] == 2
        assert rows["Xia"] == 1

    def test_cost_extremes(self):
        rows = {r.method: r.value for r in sweep(None, [1000], "cost")
                if r.case in ("-", "Equal")}
        assert rows["Vudadha"] == 14000
        assert rows["Oliveira"] == 98913

    def test_delay_at_one(self):
        rows = {r.method: r.value for r in sweep(None, [1], "delay")
                if r.case in ("-", "Equal")}
        assert rows["AlRabadi"] == 33
        assert rows["Xia"] == 33

    def test_ordering_by_method_then_width(self):
        rows = sweep([Method.XIA, Method.WANG], [10, 1], "cost")
        assert [(r.method, r.n) for r in rows] \
            == [("Wang", 1), ("Wang", 10), ("Xia", 1), ("Xia", 10)]

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            sweep(None, [], "cost")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            sweep(None, [1], "speed")

    @pytest.mark.parametrize("call, message", [
        (lambda: formula_report(Method.WANG, 0), "width must be >= 1, got 0"),
        (lambda: sweep(None, [0], "cost"), "width must be >= 1, got 0"),
        (lambda: sweep(None, [1], "speed"), "unknown metric 'speed'"),
        (lambda: sweep(None, [], "cost"), "no widths given"),
    ])
    def test_bad_arguments_raise_a_toolkit_error(self, call, message):
        # still a ValueError, so callers catching that keep working
        with pytest.raises(ResourceArgumentError, match=message) as raised:
            call()
        assert isinstance(raised.value, QbscError) and isinstance(raised.value, ValueError)

    def test_known_deviations_flagged(self):
        notes = sweep_notes(sweep(None, [1, 2], "delay"))
        assert any("n=2" in note for note in notes)
        notes = sweep_notes(sweep(None, [5], "ancilla"))
        assert any("3n+1" in note for note in notes)
        assert sweep_notes(sweep([Method.WANG], [2], "delay")) == []


class TestGateGrowth:
    def test_width_one(self):
        n, census = gate_growth([1])[0]
        assert (n, census.x, census.ccx, census.block_count_1bc, census.block_measure_count) \
            == (1, 4, 2, 1, 2)

    def test_width_hundred(self):
        _, census = gate_growth([100])[0]
        assert (census.x, census.ccx, census.block_count_1bc, census.block_measure_count) \
            == (450, 200, 100, 200)

    def test_register_widths(self):
        growth = dict(gate_growth(range(1, 11)))
        for n in range(1, 11):
            assert growth[n].width_qubits == 2 * n + 2
            assert growth[n].width_total == 2 * n + 4

    def test_total_measures_include_correction_sites(self):
        _, census = gate_growth([10])[0]
        assert census.measure_count == 25
        assert census.block_measure_count == 20

    def test_rows_sorted_and_deduplicated(self):
        assert [n for n, _ in gate_growth([5, 1, 5, 3])] == [1, 3, 5]

    def test_algorithmic_variant_pays_more_sites(self):
        _, figure = gate_growth([10], BuilderVariant.FIGURE)[0]
        _, algo = gate_growth([10], BuilderVariant.ALGORITHMIC)[0]
        assert algo.x == 4 * 10 + 9
        assert figure.x == 4 * 10 + 5

    def test_census_is_the_bodys_static_census(self):
        for variant in BuilderVariant:
            assert gate_growth([7], variant) == [(7, static_census(_body(7, variant)))]


class TestReportFromARun:
    @pytest.mark.parametrize("backend", ["classical", "dense"])
    @pytest.mark.parametrize("a, b", [("1010", "1001"), ("0110", "0111"), ("1111", "1111")])
    def test_compare_run_gives_the_same_report(self, a, b, backend):
        from qbsc.comparator import compare

        for variant in BuilderVariant:
            outcome = compare(a, b, variant=variant)
            ops = encode_operands(a, b)
            assert outcome.body == build_gqbsc(Operands((0,) * ops.n, (0,) * ops.n), variant)
            run = outcome.run  # compare's, classical
            if backend == "dense":
                run = DenseRunner(outcome.body).run(ops.initial_qubit_bits())
            assert measured_report(outcome.body, run=run) == measured_report(outcome.body, ops)
