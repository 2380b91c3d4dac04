import dataclasses
import math

import pytest
from scipy import stats

from fas import analytic, bounds, mc, validation
from fas.analytic import outage_exact
from fas.validation import (ALL_CHECKS, GRID_PRESETS, MC_FAMILY_LEVEL,
                            ValidationSettings, check_mc_vs_exact,
                            run_validation)


def _settings(grid="quick", trials=50_000, seed=42, workers=1):
    return ValidationSettings(grid, mc.McSettings(trials, seed, workers))


class TestValidationSettings:
    def test_rejects_unknown_grid(self):
        with pytest.raises(ValueError, match="^grid must be one of "):
            _settings(grid="huge")

    def test_accepts_smallest_valid_values(self):
        s = _settings(grid="full", trials=mc.MIN_TRIALS, seed=0)
        assert s.mc.trials == mc.MIN_TRIALS

    def test_reports_a_whole_float_trial_count_as_an_int(self):
        # 20,000.0 trials was rejected; McSettings now keeps it as the int
        # checked_count makes of it, and the report reads 20000
        report = run_validation(_settings(trials=20_000.0))
        assert report == run_validation(_settings(trials=20_000))
        assert type(report["config"]["trials"]) is int


class TestExactPoints:
    def test_each_grid_point_is_evaluated_once_per_run(self, monkeypatch):
        # mc_vs_exact and bound_ordering read one block of exact outages,
        # and a second run's settings evaluate their own
        calls = []
        real = analytic.outage_exact_rows

        def counted(mu, x):
            calls.append(len(x))
            return real(mu, x)

        monkeypatch.setattr(analytic, "outage_exact_rows", counted)
        for runs in (1, 2):
            run_validation(_settings(trials=20_000))
            # one block of the quick grid's 8 points per run; the other
            # checks' blocks hold 30 and 12 rows
            assert calls.count(8) == runs
        assert sorted(calls) == [8, 8, 12, 12, 30, 30]

    @pytest.mark.parametrize("grid", sorted(GRID_PRESETS))
    def test_block_values_are_the_one_point_values(self, grid):
        # the grid's block rows give outage_exact's and outage_upper_bound's
        # values bit for bit
        settings = _settings(grid=grid)
        configs, mu, x = settings.grid_rows
        assert [e for _, e in settings.exact_points] \
            == [outage_exact(config) for config in configs]
        for kappa in (1.5, 2.0, 3.0):
            constants = bounds.bound_constants(kappa)
            assert bounds.outage_upper_bound_rows(mu, x, constants).tolist() \
                == [bounds.outage_upper_bound(config, constants)
                    for config in configs]


class TestChecks:
    def settings(self):
        return _settings()

    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_individual_checks_pass(self, name):
        result = ALL_CHECKS[name](self.settings())
        assert result["pass"], result

    def test_negative_control_faulty_marcum(self, monkeypatch):
        # a Marcum Q 1e-6 too high: errors of 1e-6 against a 1e-12 bound,
        # and of 6.6e-7 against 1e-8.  The identity is linear in Q1, so a
        # scaling fault would pass it
        real = validation.marcum_q1
        monkeypatch.setattr(validation, "marcum_q1",
                            lambda a, b: real(a, b) + 1e-6)
        for name in ("marcum_specials", "marcum_integral_identity"):
            result = ALL_CHECKS[name](self.settings())
            assert not result["pass"], name
            assert float(result["worst_error"]) > 5e-7

    def test_n2_closed_form_is_relative_in_the_deep_tail(self, monkeypatch):
        # its draws at -60 and -100 dB read outages near 1e-12 and 1e-20:
        # relative to them the two routes agree to rounding, and an absolute
        # fault of 1e-12, nothing beside 1e-8, fails the check
        result = ALL_CHECKS["n2_closed_form"](self.settings())
        assert float(result["worst_error"]) <= 1e-14
        real = analytic.outage_approx_rows
        monkeypatch.setattr(analytic, "outage_approx_rows",
                            lambda mu, x: real(mu, x) + 1e-12)
        assert not ALL_CHECKS["n2_closed_form"](self.settings())["pass"]

    @pytest.mark.parametrize("name", ["n2_closed_form",
                                      "special_case_independent"])
    def test_a_nan_outage_fails_the_check(self, monkeypatch, name):
        # the worst error is NaN, and fails, wherever the NaN stands
        real = analytic.outage_exact_rows

        def nan_last(mu, x):
            p = real(mu, x)
            p[-1] = math.nan
            return p

        monkeypatch.setattr(analytic, "outage_exact_rows", nan_last)
        result = ALL_CHECKS[name](self.settings())
        assert not result["pass"] and result["worst_error"] == "nan"

    def test_identity_is_met_to_rounding(self):
        # one G10/K21 round resolves the integrand, which is entire in t
        result = ALL_CHECKS["marcum_integral_identity"](self.settings())
        assert float(result["worst_error"]) <= 1e-14


class TestMcVsExact:
    def test_report_states_level_and_sidak_threshold(self):
        # 8 quick-grid points at a family-wise level of 1e-6: 5.286 s.e.
        result = check_mc_vs_exact(_settings(trials=20_000))
        assert result["family_level"] == repr(MC_FAMILY_LEVEL) == "1e-06"
        z = float(result["z_threshold"])
        per_point = 2.0 * stats.norm.sf(z)
        assert 1.0 - (1.0 - per_point) ** 8 == pytest.approx(MC_FAMILY_LEVEL,
                                                              rel=1e-9)
        assert z == pytest.approx(5.286029046, abs=1e-9)

    @pytest.mark.parametrize("seed", [87, 101, 441, 553])
    def test_seeds_that_failed_uncorrected_3_sigma_now_pass(self, seed):
        # largest |z| over the quick grid: 1.60, 0.62, 3.74 and 1.65 (3.40,
        # 2.87, 2.67 and 1.97 on Philox streams drawing |g_1|^2 for every
        # trial; 3.08, 3.93, 3.32 and 3.34 when every port of every trial
        # was drawn)
        settings = _settings(seed=seed)
        assert check_mc_vs_exact(settings)["pass"]

    def test_rejects_estimate_biased_by_7_se_at_one_point(self, monkeypatch):
        settings = _settings()
        unbiased = mc.mc_outage_fas
        for target, _ in settings.exact_points:
            def biased(config, mc_settings):
                est = unbiased(config, mc_settings)
                if config != target:
                    return est
                exact = outage_exact(config)
                se = math.sqrt(exact * (1.0 - exact) / settings.mc.trials)
                shift = math.copysign(7.0 * se, est.p_hat - exact)
                return dataclasses.replace(est, p_hat=est.p_hat + shift)

            monkeypatch.setattr(mc, "mc_outage_fas", biased)
            result = check_mc_vs_exact(settings)
            assert not result["pass"]
            assert [(m["n"], m["w"], m["x"]) for m in result["mismatches"]] \
                == [(target.n_ports, target.size_wavelengths,
                     target.snr_ratio)]


class TestRunValidation:
    def test_full_report_shape(self):
        report = run_validation(_settings(trials=20_000))
        assert set(report) == {"config", "results", "version", "all_passed"}
        assert set(report["results"]) == set(ALL_CHECKS)
        assert report["all_passed"]

    def test_report_holds_python_types(self):
        # numpy scalars would make json.dumps raise on np.bool_
        report = run_validation(_settings(trials=20_000))
        for result in report["results"].values():
            assert type(result["pass"]) is bool
            if "violations" in result and not isinstance(
                    result["violations"], list):
                assert type(result["violations"]) is int
            if "worst_error" in result:
                assert type(result["worst_error"]) is str
        assert type(report["all_passed"]) is bool

    def test_byte_identical_repeat(self):
        import json
        s = _settings(trials=20_000, seed=7)
        a = json.dumps(run_validation(s), sort_keys=True)
        b = json.dumps(run_validation(s), sort_keys=True)
        assert a == b

    def test_grid_presets_cover_acceptance_grid(self):
        full = GRID_PRESETS["full"]
        assert set(full["n"]) == {1, 2, 3, 5, 10, 20}
        assert set(full["w"]) == {0.2, 0.5, 1.0, 2.0, 5.0}
        assert set(full["x"]) == {0.1, 1.0, 10.0}
