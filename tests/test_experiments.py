import numpy as np
import pytest

import sparse_risk as sr
import sparse_risk.experiments as experiments_mod
from sparse_risk.experiments import (
    DEFAULT_GAMMA_POINTS,
    DEFAULT_N_LIST,
    DEFAULT_REPLICATIONS,
    SETUPS,
    THETA0,
    brute_force_univariate_min,
    count_local_maxima,
    hodges_risk_curve,
    lower_bound_diagnostic,
    moving_average_3,
    oracle_check,
    run_setup,
    worst_case_curve,
)
from sparse_risk.risk import RiskReport, RiskRow


def test_package_exports_resolve_once():
    assert len(set(sr.__all__)) == len(sr.__all__)
    for name in sr.__all__:
        assert hasattr(sr, name), name


@pytest.fixture
def recorded_cells(monkeypatch):
    """The (cell, keywords) of each run_mc call of run_setup, which are recorded
    in place of being run."""
    cells = []

    def record(*cell, **kwargs):
        cells.append((cell, kwargs))
        return []

    monkeypatch.setattr(experiments_mod, "run_mc", record)
    return cells


class TestSetupDefinitions:
    def test_directions(self):
        full = [0, 0, 1, 1, 0, 1, 1, 1]
        np.testing.assert_array_equal(SETUPS["I"].eta, full)
        np.testing.assert_array_equal(SETUPS["IV"].eta, full)
        np.testing.assert_array_equal(SETUPS["V"].eta, full)
        np.testing.assert_array_equal(SETUPS["VI"].eta, full)
        np.testing.assert_array_equal(SETUPS["II"].eta, [0, 0, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(
            SETUPS["III"].eta, [0, 0, 1, 1, 0, 0.1, 0.1, 0.1]
        )

    def test_gamma_ranges(self):
        assert SETUPS["I"].gamma_max == 8.0
        assert SETUPS["III"].gamma_max == 80.0
        grid = SETUPS["I"].gamma_grid()
        assert grid.size == 101
        assert grid[0] == 0.0 and grid[-1] == 8.0

    def test_gamma_points(self, recorded_cells):
        np.testing.assert_array_equal(SETUPS["I"].gamma_grid(2), [0.0, 8.0])
        assert SETUPS["I"].gamma_grid().size == DEFAULT_GAMMA_POINTS
        for points in (0, 1, -2):
            with pytest.raises(ValueError, match="at least 2"):
                SETUPS["I"].gamma_grid(points)
            with pytest.raises(ValueError, match="at least 2"):
                run_setup("I", n_list=(60,), replications=3, gamma_points=points)
        assert recorded_cells == []

    def test_grid_scales(self, recorded_cells):
        # run_setup hands every cell the setup's lambda-grid scale
        for setup_id, scale in (("I", "log_ratio"), ("IV", "pow10"), ("V", "pow4"),
                                ("VI", "unit")):
            assert SETUPS[setup_id].scale == scale
            recorded_cells.clear()
            run_setup(setup_id, n_list=(60,), gamma_points=2)
            assert [kw["scale"] for _, kw in recorded_cells] == [scale] * 2

    def test_defaults(self, recorded_cells):
        # every setup runs at the module defaults unless run_setup is told otherwise
        assert DEFAULT_N_LIST == (60, 120, 240, 480, 960)
        assert DEFAULT_REPLICATIONS == 500
        assert DEFAULT_GAMMA_POINTS == 101
        report = run_setup("II")
        assert report.replications == DEFAULT_REPLICATIONS
        assert len(recorded_cells) == len(DEFAULT_N_LIST) * DEFAULT_GAMMA_POINTS
        assert sorted({cell[0].n for cell, _ in recorded_cells}) == list(DEFAULT_N_LIST)
        assert {cell[4] for cell, _ in recorded_cells} == {DEFAULT_REPLICATIONS}

    def test_base_parameter(self):
        np.testing.assert_array_equal(THETA0, [3, 1.5, 0, 0, 2, 0, 0, 0])


class TestRunSetup:
    def test_small_run_shape_and_determinism(self):
        kwargs = dict(n_list=(60,), replications=25, gamma_points=3, master_seed=42)
        rep1 = run_setup("I", **kwargs)
        rep2 = run_setup("I", **kwargs)
        assert len(rep1.rows) == 3 * 2  # gamma cells x {scad, ls}
        assert rep1.rows == rep2.rows
        assert {r.setup for r in rep1.rows} == {"I"}
        assert set(rep1.estimator_labels) == {"scad", "ls"}

    def test_worker_processes_give_equal_rows(self):
        # the full rows, including failures, allzero_rate and mean_sq_err,
        # which never reach the CSV
        kwargs = dict(
            n_list=(40, 60), replications=12, gamma_points=3, master_seed=8,
            extra_estimators=["hard"],
        )
        assert run_setup("I", threads=2, **kwargs).rows == run_setup("I", **kwargs).rows

    def test_unknown_setup(self):
        with pytest.raises(ValueError):
            run_setup("VII")

    def test_extra_estimators_share_cells(self):
        rep = run_setup(
            "I", n_list=(60,), replications=10, gamma_points=2, master_seed=1,
            extra_estimators=["hard"],
        )
        assert set(rep.estimator_labels) == {"scad", "ls", "hard"}


class TestWorstCaseCurve:
    def test_constant_measure_ties_to_smallest_gamma(self):
        rep = run_setup("I", n_list=(60,), replications=10, gamma_points=4, master_seed=3)
        points = worst_case_curve(rep, "rel_median_me", "ls")
        assert len(points) == 1
        assert points[0].value == 1.0
        assert points[0].gamma == 0.0

    @staticmethod
    def report_of(values, gammas=(0.0, 4.0, 8.0)):
        rows = [
            RiskRow(setup="I", n=60, gamma=g, estimator="scad", rel_median_me=v, rel_mse=v,
                    sparsity_rate=0.0, mc_se=0.1, replications=10, master_seed=1)
            for g, v in zip(gammas, values)
        ]
        return RiskReport(rows=rows, master_seed=1, replications=10)

    @pytest.mark.parametrize("measure", ["rel_median_me", "rel_mse"])
    def test_nan_cell_does_not_hide_the_worst_case(self, measure):
        # a NaN row is an estimator that failed every replication of its cell
        (point,) = worst_case_curve(self.report_of([1.2, np.nan, 1.9]), measure)
        assert (point.value, point.gamma) == (1.9, 8.0)

    def test_every_cell_nan_gives_nan(self):
        (point,) = worst_case_curve(self.report_of([np.nan, np.nan, np.nan]))
        assert np.isnan(point.value)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            worst_case_curve(RiskReport(), "rel_median_me", "scad")

    def test_bad_measure_rejected(self):
        rep = run_setup("I", n_list=(60,), replications=5, gamma_points=2, master_seed=3)
        with pytest.raises(ValueError):
            worst_case_curve(rep, "median", "scad")


class TestLowerBoundDiagnostic:
    def test_zero_estimator_saturates_bound(self):
        s = np.zeros(8)
        s[2] = 5.0
        res = lower_bound_diagnostic(
            s, 60, "zero", replications=50, master_seed=7
        )
        assert res.p_hat == 1.0
        assert res.bound == pytest.approx(25.0)

    def test_least_squares_never_all_zero(self):
        s = np.zeros(8)
        s[2] = 5.0
        res = lower_bound_diagnostic(
            s, 60, "ls", replications=50, master_seed=7
        )
        assert res.p_hat == 0.0
        assert res.bound == 0.0

    def test_bound_never_exceeds_scaled_risk(self):
        s = np.zeros(8)
        s[2] = 2.0
        for estimator in ("zero", "scad"):
            res = lower_bound_diagnostic(s, 60, estimator, replications=80, master_seed=9)
            assert res.bound <= res.scaled_risk + 1e-9

    def test_no_replications_rejected_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("drew replications")

        monkeypatch.setattr(sr.risk, "_draw_grams", draw)
        with pytest.raises(ValueError, match="need at least one replication"):
            lower_bound_diagnostic(np.full(8, 5.0), 60, "ls", replications=0)


class TestHodgesRiskCurve:
    def test_pointwise_values(self):
        grid = np.linspace(-3, 3, 25)
        curve = hodges_risk_curve((10_000,), grid, replications=30_000, master_seed=5)
        at = {mu: v for mu, v in zip(curve.mu_grid, curve.values[0])}
        assert at[0.0] < 0.05
        assert at[3.0] == pytest.approx(1.0, abs=0.15)
        assert at[-3.0] == pytest.approx(1.0, abs=0.15)

    def test_divergence_with_n(self):
        grid = np.linspace(-1, 1, 41)
        curve = hodges_risk_curve((100, 10_000), grid, replications=20_000, master_seed=6)
        peaks = curve.max_per_n()
        assert peaks[1] / peaks[0] > 5

    def test_asymmetric_grid_rejected(self):
        # the second grid misses symmetry by 1e-6, inside np.allclose's default rtol
        for grid in ([0.0, 1.0], [-1.0, 0.0, 1.000001]):
            with pytest.raises(ValueError):
                hodges_risk_curve((100,), np.array(grid), 10, 1)

    @pytest.mark.parametrize("grid", [[-np.inf, 0.0, np.inf], [np.nan, 0.0, np.nan]])
    def test_non_finite_grid_rejected(self, grid):
        # unchecked, infinities pass the symmetry check and give NaN risks
        with pytest.raises(ValueError, match="finite"):
            hodges_risk_curve((100,), np.array(grid), 10, 1)

    # a non-integer n would otherwise run and be labelled truncated
    @pytest.mark.parametrize("n_list", [(0,), (100, -1), (100.5,), (100, np.inf)])
    def test_sample_size_validation(self, n_list):
        with pytest.raises(ValueError):
            hodges_risk_curve(n_list, [-1.0, 0.0, 1.0], 10)


class TestCurveHelpers:
    def test_moving_average(self):
        vals = np.array([0.0, 3.0, 6.0, 9.0])
        np.testing.assert_allclose(moving_average_3(vals), [1.5, 3.0, 6.0, 7.5])

    def test_count_local_maxima(self):
        assert count_local_maxima([0, 1, 0, 2, 0]) == 2
        assert count_local_maxima([0, 1, 2, 3]) == 0
        assert count_local_maxima([1, 0, 1]) == 0
        assert count_local_maxima([0, 1, 1, 0]) == 0  # plateau is not strict

    def test_brute_force_matches_closed_form_spot(self):
        assert brute_force_univariate_min(3.0, 1.0) == pytest.approx(4.4 / 1.7, abs=1e-4)
        assert brute_force_univariate_min(0.5, 1.0) == pytest.approx(0.0, abs=1e-4)
        assert brute_force_univariate_min(5.0, 1.0) == pytest.approx(5.0, abs=1e-4)


class TestOracleCheckSmoke:
    def test_small_run_passes(self):
        res = oracle_check(cases_brute=40, cases_solver=25, master_seed=3)
        assert res.passed
        assert res.brute_force_max_dev < 1e-4
        assert res.cd_max_dev < 1e-6

    @pytest.mark.parametrize("counts", [(0, 5), (5, 0), (-1, 5)])
    def test_needs_a_case_of_each_kind(self, counts):
        # no case leaves nothing to take a deviation over
        with pytest.raises(ValueError, match="at least one case"):
            oracle_check(*counts, master_seed=3)
