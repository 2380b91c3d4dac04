import dataclasses
import math

import pytest
from scipy import stats

from fas import mc
from fas.analytic import outage_exact
from fas.validation import (ALL_CHECKS, GRID_PRESETS, MC_FAMILY_LEVEL,
                            ValidationSettings, _grid_configs,
                            adaptive_simpson, check_mc_vs_exact,
                            run_validation)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        got = adaptive_simpson(lambda t: t ** 3, 0.0, 2.0, 1e-12)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_oscillatory(self):
        got = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_loose_tolerance_degrades(self):
        # the negative-control path: a huge abs_tol must actually be honored
        tight = adaptive_simpson(lambda t: math.exp(-t) * math.sin(40 * t),
                                 0.0, 3.0, 1e-12)
        loose = adaptive_simpson(lambda t: math.exp(-t) * math.sin(40 * t),
                                 0.0, 3.0, 10.0)
        assert abs(loose - tight) > 1e-4


class TestValidationSettings:
    @pytest.mark.parametrize("field, bad", [
        ("grid", "huge"),
        ("trials", mc.MIN_TRIALS - 1),
        ("trials", math.nan),
        ("trials", 20_000.0),
        ("workers", 0),
        ("workers", True),
        ("seed", -1),
        ("seed", 1.5),
        ("quad_abs_tol", 0.0),
        ("quad_abs_tol", -1e-10),
        ("quad_abs_tol", math.nan),
        ("quad_abs_tol", math.inf),
    ])
    def test_rejects_invalid_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ValidationSettings(**{field: bad})

    def test_accepts_smallest_valid_values(self):
        s = ValidationSettings(grid="full", trials=mc.MIN_TRIALS, workers=1,
                               seed=0, quad_abs_tol=10.0)
        assert s.trials == mc.MIN_TRIALS


class TestChecks:
    def settings(self):
        return ValidationSettings(grid="quick", trials=50_000, seed=42)

    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_individual_checks_pass(self, name):
        result = ALL_CHECKS[name](self.settings())
        assert result["pass"], result

    def test_negative_control_tolerance(self):
        bad = ValidationSettings(grid="quick", trials=50_000, seed=42,
                                 quad_abs_tol=10.0)
        result = ALL_CHECKS["marcum_integral_identity"](bad)
        assert not result["pass"]


class TestMcVsExact:
    def test_report_states_level_and_sidak_threshold(self):
        # 8 quick-grid points at a family-wise level of 1e-6: 5.286 s.e.
        result = check_mc_vs_exact(ValidationSettings(trials=20_000))
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
        settings = ValidationSettings(grid="quick", trials=50_000, seed=seed)
        assert check_mc_vs_exact(settings)["pass"]

    def test_rejects_estimate_biased_by_7_se_at_one_point(self, monkeypatch):
        settings = ValidationSettings(grid="quick", trials=50_000, seed=42)
        unbiased = mc.mc_outage_fas
        for target in _grid_configs("quick"):
            def biased(config, mc_settings):
                est = unbiased(config, mc_settings)
                if config != target:
                    return est
                exact = outage_exact(config)
                se = math.sqrt(exact * (1.0 - exact) / settings.trials)
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
        report = run_validation(ValidationSettings(grid="quick",
                                                   trials=20_000, seed=42))
        assert set(report) == {"config", "results", "version", "all_passed"}
        assert set(report["results"]) == set(ALL_CHECKS)
        assert report["all_passed"]

    def test_byte_identical_repeat(self):
        import json
        s = ValidationSettings(grid="quick", trials=20_000, seed=7)
        a = json.dumps(run_validation(s), sort_keys=True)
        b = json.dumps(run_validation(s), sort_keys=True)
        assert a == b

    def test_grid_presets_cover_acceptance_grid(self):
        full = GRID_PRESETS["full"]
        assert set(full["n"]) == {1, 2, 3, 5, 10, 20}
        assert set(full["w"]) == {0.2, 0.5, 1.0, 2.0, 5.0}
        assert set(full["x"]) == {0.1, 1.0, 10.0}
