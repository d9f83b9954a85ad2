"""Unit tests for the closed-form bounds, partition, and size-selection rules."""

import math

import numpy as np
import pytest

from votemargin.bounds import (
    BOUND_NAMES,
    BoundInputs,
    BoundReport,
    admissible_theta_floor,
    all_reports,
    breiman_report,
    build_partition,
    choose_N_main,
    choose_N_within_const,
    delta_allocation,
    gkl20_lower_report,
    gz13_report,
    sfbl98_report,
    theorem1_report,
)
from votemargin.core import PreconditionError
from votemargin.harness.checks import _DELTA_GRID_H, _DELTA_GRID_N


def inputs_A(**overrides) -> BoundInputs:
    """Pinned generic inputs used by the frozen-value tests."""
    base = dict(n=5000, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
    base.update(overrides)
    return BoundInputs(**base)


class TestBoundInputs:
    def test_derived_quantities(self):
        inp = inputs_A()
        assert inp.log_H == math.log(16)
        assert inp.complexity_rate == math.log(16) / (0.3**2 * 5000)
        assert inp.delta_term == (1.0 - math.log(0.05)) / 5000
        assert admissible_theta_floor(inp.n, inp.H_size) == math.sqrt(
            math.e * math.log(16) / 5000
        )

    def test_constant_is_required(self):
        with pytest.raises(TypeError, match="'c'"):
            BoundInputs(n=10, H_size=2, theta=0.5, delta=0.1, loss=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("n", 0),
            ("n", 2.5),
            ("H_size", 1),
            ("theta", 0.0),
            ("theta", 1.0001),
            ("delta", 0.0),
            ("delta", 1.0),
            ("loss", -0.1),
            ("loss", 1.1),
            ("c", -1.0),
            ("c", math.nan),
            ("c", math.inf),
            ("c", -math.inf),
            pytest.param("n", 10**400, id="n-huge"),
            pytest.param("H_size", 10**400, id="H_size-huge"),
        ],
    )
    def test_rejects_bad_fields(self, field, bad):
        with pytest.raises(ValueError, match=field.rstrip("_size")):
            inputs_A(**{field: bad})

    @pytest.mark.parametrize(
        "make", [theorem1_report, lambda inp: gkl20_lower_report(inp, tau=0.6)],
        ids=["theorem1", "gkl20-lower"],
    )
    def test_a_log_term_that_overflows_is_rejected(self, make):
        # n fits a float, but theta^2*n/ln|H| overflows to inf
        inp = BoundInputs(n=15 * 10**307, H_size=2, theta=1.0, delta=0.5, loss=0.1, c=1.0)
        with pytest.raises(ValueError, match="float"):
            make(inp)

    @pytest.mark.parametrize("theta", [1e-170, 1e-160])
    def test_a_margin_whose_rate_is_not_finite_is_rejected(self, theta):
        # theta^2 underflows to 0 at 1e-170; ln|H|/(theta^2*n) overflows at 1e-160
        with pytest.raises(ValueError, match="theta"):
            BoundInputs(n=1, H_size=2, theta=theta, delta=0.5, loss=0.1, c=1.0)

    def test_a_finite_rate_whose_log_term_overflows_is_rejected(self):
        # the rate is finite, but ln(theta^2*n/ln|H|) times it is -inf; the
        # ratio is far below 1, so it is refused before the term is formed
        inp = BoundInputs(n=1, H_size=2, theta=3e-154, delta=0.5, loss=0.1, c=1.0)
        assert math.isfinite(inp.complexity_rate)
        with pytest.raises(PreconditionError, match="theta = 3e-154 is too small"):
            gkl20_lower_report(inp, tau=0.5)


class TestFrozenBoundValues:
    """Each bound at the pinned inputs, against independently computed values."""

    def test_sfbl98(self):
        report = sfbl98_report(inputs_A())
        assert report.value == pytest.approx(0.3508163757539167, rel=5e-14)
        assert report.loss_offset == 0.12
        assert report.log_term == 0.0 and report.delta_term == 0.0

    def test_gz13(self):
        report = gz13_report(inputs_A())
        assert report.value == pytest.approx(0.25323333732111186, rel=5e-14)
        assert report.loss_offset == 0.12

    def test_theorem1(self):
        report = theorem1_report(inputs_A())
        assert report.value == pytest.approx(0.20117615985104717, rel=5e-14)

    def test_theorem1_zero_loss(self):
        report = theorem1_report(inputs_A(loss=0.0))
        assert report.sqrt_term == 0.0  # 0·ln(e/0) collapses to 0
        assert report.value == pytest.approx(0.032156916295060574, rel=5e-14)

    def test_breiman_zero_loss(self):
        report = breiman_report(inputs_A(loss=0.0))
        assert report.value == pytest.approx(0.053276199316173264, rel=5e-14)
        assert report.loss_offset == 0.0 and report.sqrt_term == 0.0
        assert report.log_term > 0.0 and report.delta_term > 0.0

    def test_gkl20_lower(self):
        report = gkl20_lower_report(inputs_A(), tau=0.2)
        assert report.value == pytest.approx(0.2880632394076174, rel=5e-14)
        assert report.loss_offset == 0.2
        assert report.delta_term == 0.0


class TestBoundRelations:
    def test_sharper_bounds_are_strictly_tighter(self):
        for inp in (inputs_A(), inputs_A(loss=0.3), inputs_A(n=20000, loss=0.05)):
            assert (
                theorem1_report(inp).value
                < gz13_report(inp).value
                < sfbl98_report(inp).value
            )

    def test_lower_bound_sits_below_theorem1(self):
        inp = inputs_A()
        tau = max(inp.loss, 1.0 / inp.n)
        assert gkl20_lower_report(inp, tau).value < theorem1_report(inp).value

    def test_deviation_scales_linearly_in_c(self):
        for make in (sfbl98_report, gz13_report, theorem1_report):
            assert make(inputs_A(c=2.0)).deviation == 2.0 * make(inputs_A()).deviation
            assert make(inputs_A(c=2.0)).loss_offset == 0.12

    def test_zero_constant_collapses_to_the_loss(self):
        for make in (sfbl98_report, gz13_report, theorem1_report):
            report = make(inputs_A(c=0.0))
            assert report.deviation == 0.0
            assert report.value == 0.12


class TestPreconditions:
    def test_breiman_requires_zero_loss(self):
        with pytest.raises(PreconditionError, match="loss"):
            breiman_report(inputs_A(loss=0.01))

    def test_theorem1_requires_theta_above_the_floor(self):
        floor = admissible_theta_floor(100, 16)
        with pytest.raises(PreconditionError, match="floor"):
            theorem1_report(inputs_A(n=100, theta=0.9 * floor, delta=0.1, loss=0.0))
        # exactly at the floor is also rejected
        with pytest.raises(PreconditionError, match="floor"):
            theorem1_report(inputs_A(n=100, theta=floor, delta=0.1, loss=0.0))


class TestLowerBoundWarnings:
    def test_clean_regime_has_no_warnings(self):
        report = gkl20_lower_report(inputs_A(c=0.5), tau=0.2)
        assert report.warnings == ()

    def test_small_tau_warns(self):
        report = gkl20_lower_report(inputs_A(c=0.5), tau=1.0 / 16)
        assert any("1/|H|" in w for w in report.warnings)

    def test_large_theta_warns(self):
        report = gkl20_lower_report(inputs_A(c=0.25), tau=0.2)
        assert any("not below c" in w for w in report.warnings)

    def test_small_n_warns(self):
        # theta^2*n/ln|H| = 1.3 lies above 1 and below 1/c = 2
        inp = BoundInputs(n=40, H_size=16, theta=0.3, delta=0.1, loss=0.0, c=0.5)
        report = gkl20_lower_report(inp, tau=0.2)
        assert any("below ln|H|" in w for w in report.warnings)

    def test_warnings_do_not_change_the_value(self):
        clean = gkl20_lower_report(inputs_A(c=0.5), tau=0.2)
        warned = gkl20_lower_report(inputs_A(c=0.5), tau=1.0 / 16)
        # same formula, different tau only
        assert warned.log_term == clean.log_term

    def test_tau_is_validated(self):
        with pytest.raises(ValueError, match="tau"):
            gkl20_lower_report(inputs_A(), tau=0.0)
        with pytest.raises(ValueError, match="tau"):
            gkl20_lower_report(inputs_A(), tau=1.0001)


class TestLowerBoundRegime:
    @pytest.mark.parametrize("n", [10, 30])
    def test_a_size_ratio_not_above_one_is_refused(self, n):
        # theta^2*n/ln|H| = 0.32 and 0.97: the log term would be negative
        inp = BoundInputs(n=n, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
        with pytest.raises(PreconditionError, match="theta = 0.3 is too small.*must exceed 1"):
            gkl20_lower_report(inp, tau=0.01)
        reason = all_reports(inp, tau=0.01)["gkl20-lower"]
        assert isinstance(reason, str) and "must exceed 1" in reason

    def test_just_above_one_the_log_term_is_positive(self):
        inp = BoundInputs(n=31, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
        assert gkl20_lower_report(inp, tau=0.01).log_term > 0.0


class TestAllReports:
    def test_applicable_bounds_are_reports(self):
        out = all_reports(inputs_A(loss=0.0), tau=0.2)
        assert set(out) == {"sfbl98", "gz13", "breiman", "theorem1", "gkl20-lower"}
        assert all(isinstance(r, BoundReport) for r in out.values())
        assert set(BOUND_NAMES) == set(out)

    def test_inapplicable_bounds_map_to_reasons(self):
        out = all_reports(inputs_A(loss=0.12), tau=None)
        assert isinstance(out["breiman"], str) and "loss" in out["breiman"]
        assert "gkl20-lower" not in out
        low_theta = inputs_A(n=100, theta=0.1, delta=0.1, loss=0.0)
        out = all_reports(low_theta, tau=None)
        assert isinstance(out["theorem1"], str) and "floor" in out["theorem1"]


class TestBoundReport:
    def test_term_arithmetic(self):
        report = BoundReport(
            name="x", loss_offset=0.1, sqrt_term=0.3, log_term=0.2, delta_term=0.05
        )
        assert report.value == 0.1 + 0.3 + 0.2 + 0.05
        assert report.deviation == 0.3 + 0.2 + 0.05
        assert report.dominating == "sqrt"
        assert report.warnings == ()

    def test_dominating_picks_the_largest_term(self):
        report = BoundReport(
            name="x", loss_offset=0.0, sqrt_term=0.0, log_term=0.4, delta_term=0.1
        )
        assert report.dominating == "log"

    @pytest.mark.parametrize("term", ["loss_offset", "sqrt_term", "log_term", "delta_term"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_term_that_is_not_finite(self, term, value):
        terms = dict(loss_offset=0.1, sqrt_term=0.3, log_term=0.2, delta_term=0.05)
        with pytest.raises(ValueError, match=f"x: {term} is"):
            BoundReport(name="x", **{**terms, term: value})


class TestPartition:
    def test_margin_cells_are_contiguous_dyadic_and_cover_the_range(self):
        scheme = build_partition(5000, 16)
        cells = scheme.theta_cells
        assert [c.index for c in cells] == list(range(len(cells)))
        s = math.sqrt(math.log(16) / 5000)
        assert cells[0].lo == math.e * 0.5 * s
        assert cells[0].lo < admissible_theta_floor(5000, 16)  # coverage reaches the floor
        for a, b in zip(cells, cells[1:]):
            assert b.lo == a.hi_dyadic
            assert a.hi_dyadic == 2.0 * a.lo
        assert cells[-1].hi == 1.0 and cells[-1].hi_dyadic >= 1.0
        # Every endpoint of both families, bit for bit, over the delta-allocation grid.
        for n in _DELTA_GRID_N:
            for H_size in _DELTA_GRID_H:
                scheme = build_partition(n, H_size)
                s = math.sqrt(math.log(H_size) / n)
                margin = [(math.e * 2.0 ** (i - 1) * s, math.e * 2.0**i * s)
                          for i in range(len(scheme.theta_cells))]
                loss = [(0.0, 1.0 / n)] + [(2.0 ** (j - 1) / n, 2.0**j / n)
                                           for j in range(1, len(scheme.loss_cells))]
                for cells, ends in ((scheme.theta_cells, margin), (scheme.loss_cells, loss)):
                    got = [(c.index, c.lo.hex(), c.hi.hex(), c.hi_dyadic.hex()) for c in cells]
                    assert got == [(i, lo.hex(), min(hi, 1.0).hex(), hi.hex())
                                   for i, (lo, hi) in enumerate(ends)], (n, H_size)
                    # the last cell is the first to reach 1
                    assert ends[-1][1] >= 1.0 and (len(ends) == 1 or ends[-2][1] < 1.0)

    def test_loss_cells_cover_the_unit_interval(self):
        scheme = build_partition(100, 4)
        cells = scheme.loss_cells
        assert cells[0].closed_left and cells[0].lo == 0.0 and cells[0].hi == 0.01
        for j, cell in enumerate(cells[1:], start=1):
            assert cell.lo == 2.0 ** (j - 1) / 100
            assert cell.hi_dyadic == 2.0**j / 100
        assert cells[-1].hi == 1.0 and cells[-1].hi_dyadic >= 1.0

    def test_locate_respects_right_closed_cells(self):
        scheme = build_partition(5000, 16)
        first = scheme.theta_cells[0]
        # a cell's dyadic upper endpoint belongs to that cell, not the next
        assert scheme.locate_theta(first.hi).index == 0
        assert scheme.locate_theta(math.nextafter(first.hi, 2.0)).index == 1
        assert scheme.locate_theta(1.0).index == scheme.theta_cells[-1].index
        assert scheme.locate_loss(0.0).index == 0
        assert scheme.locate_loss(1.0 / 5000).index == 0
        assert scheme.locate_loss(math.nextafter(1.0 / 5000, 1.0)).index == 1
        i = scheme.locate_theta(0.3).index
        j = scheme.locate_loss(0.12).index
        assert scheme.theta_cells[i].contains(0.3)
        assert scheme.loss_cells[j].contains(0.12)

    def test_contains_is_elementwise_on_arrays(self):
        scheme = build_partition(5000, 16)
        theta_cell, loss_cell = scheme.theta_cells[0], scheme.loss_cells[0]
        for cell, expected in ((theta_cell, [False, True, True, False]),
                               (loss_cell, [True, True, True, False])):
            xs = np.array([cell.lo, np.nextafter(cell.lo, 2.0), cell.hi,
                           np.nextafter(cell.hi, 2.0)])
            assert cell.contains(xs).tolist() == expected
            assert [cell.contains(float(x)) for x in xs] == expected

    def test_out_of_range_queries_raise(self):
        scheme = build_partition(5000, 16)
        with pytest.raises(ValueError, match="theta"):
            scheme.locate_theta(scheme.theta_cells[0].lo)  # left-open endpoint
        with pytest.raises(ValueError, match="loss"):
            scheme.locate_loss(1.0001)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="n"):
            build_partition(0, 16)
        with pytest.raises(ValueError, match="H_size"):
            build_partition(100, 1)
        with pytest.raises(ValueError, match="empty margin range"):
            build_partition(2, 16)  # n below e·ln|H|

    def test_n_up_to_2_1023_and_no_further(self):
        # 2^j/n for the last loss cell is 2^1023/n at n = 2^1023 and would be
        # 2^1024/n, which overflows, at any larger n
        scheme = build_partition(2**1023, 2)
        assert len(scheme.loss_cells) == 1024
        assert scheme.loss_cells[-1].hi_dyadic == 1.0
        for n in (2**1023 + 1, 10**308):
            with pytest.raises(ValueError, match="2\\*\\*1023"):
                build_partition(n, 2)


class TestDeltaAllocation:
    def test_budgets_stay_within_half_delta(self):
        scheme = build_partition(5000, 16)
        alloc = delta_allocation(0.1, scheme)
        assert alloc.delta == 0.1
        assert alloc.pair_sum <= 0.05
        assert alloc.cell_sum <= 0.05

    def test_every_cell_gets_a_budget(self):
        scheme = build_partition(200, 8)
        alloc = delta_allocation(0.2, scheme)
        assert set(alloc.cell_deltas) == {c.index for c in scheme.theta_cells}
        assert set(alloc.pair_deltas) == {
            (tc.index, lc.index)
            for tc in scheme.theta_cells
            for lc in scheme.loss_cells
        }

    def test_pair_budget_formula(self):
        scheme = build_partition(200, 8)
        alloc = delta_allocation(0.2, scheme)
        t_next = scheme.theta_cells[0].hi_dyadic
        l_next = scheme.loss_cells[0].hi_dyadic
        expected = (0.2 / math.e) ** 3 * math.exp(
            -math.log(math.e / l_next) * math.log(8) / t_next**2
        )
        assert alloc.pair_deltas[(0, 0)] == pytest.approx(expected, rel=1e-15)

    def test_cell_budget_formula(self):
        scheme = build_partition(200, 8)
        alloc = delta_allocation(0.2, scheme)
        t_next = scheme.theta_cells[1].hi_dyadic
        expected = (0.2 / math.e) ** 3 * math.exp(
            -math.log(math.e * t_next**2 * 200) * math.log(8) / t_next**2
        )
        assert alloc.cell_deltas[1] == pytest.approx(expected, rel=1e-15)

    def test_rejects_bad_delta(self):
        scheme = build_partition(200, 8)
        with pytest.raises(ValueError, match="delta"):
            delta_allocation(0.0, scheme)
        with pytest.raises(ValueError, match="delta"):
            delta_allocation(1.0, scheme)


class TestChooseN:
    def test_main_size_rule(self):
        expected = math.ceil(32.0 * 0.5**-2 * math.log(math.e / 0.25))
        assert choose_N_main(0.5, 0.25, 32.0) == expected
        assert expected > 32.0 * 0.5**-2  # rule beats the floor here

    def test_main_size_rule_clamps_to_the_floor(self):
        # at loss_next = 2 the log factor is small and the floor takes over
        assert choose_N_main(0.5, 2.0, 32.0) == math.ceil(32.0 * 0.5**-2)

    def test_main_size_grows_as_the_margin_shrinks(self):
        assert choose_N_main(0.25, 0.5, 32.0) > choose_N_main(0.5, 0.5, 32.0)

    def test_main_size_validation(self):
        with pytest.raises(ValueError, match="theta_next"):
            choose_N_main(0.0, 0.5, 32.0)
        with pytest.raises(ValueError, match="theta_next"):
            choose_N_main(2.0001, 0.5, 32.0)
        with pytest.raises(ValueError, match="loss_next"):
            choose_N_main(0.5, 0.0, 32.0)
        with pytest.raises(ValueError, match="loss_next"):
            choose_N_main(0.5, 2.1, 32.0)
        for c in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="c"):
                choose_N_main(0.5, 0.5, c=c)

    def test_within_const_size_rule(self):
        arg = 0.5**2 * 5000 / math.log(16)
        expected = math.ceil(2.0**11 * 0.5**-2 * math.log(arg))
        assert choose_N_within_const(0.5, 5000, 16) == expected

    def test_within_const_requires_wide_enough_margin(self):
        with pytest.raises(ValueError, match="exceed 1"):
            choose_N_within_const(0.05, 100, 16)

    def test_within_const_validation(self):
        with pytest.raises(ValueError, match="theta_next"):
            choose_N_within_const(0.0, 100, 16)
        with pytest.raises(ValueError, match="n"):
            choose_N_within_const(0.5, 0, 16)
        with pytest.raises(ValueError, match="H_size"):
            choose_N_within_const(0.5, 100, 1)
        with pytest.raises(ValueError, match="float"):
            choose_N_within_const(1.0, 15 * 10**307, 2)

    @pytest.mark.parametrize(
        "choose, args",
        [
            (choose_N_main, (1e-200, 0.5, 32.0)),  # θ⁻² overflows
            (choose_N_main, (0.5, 0.5, 1e308)),  # c·θ⁻²·ln(e/l) overflows
            (choose_N_within_const, (1e-150, 10**300, 2)),  # a 303-digit N
        ],
    )
    def test_an_N_no_tail_accepts_is_refused(self, choose, args):
        with pytest.raises(ValueError, match="above 2\\*\\*53"):
            choose(*args)
