"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is asserted at its stated tolerance.  One sub-claim is known
not to hold numerically and is kept as stated rather than loosened, so its
test fails honestly:
  - criterion 4: the exact-outage crossing of the 8-branch MRC level at
    W=5 lands at N=26, outside the stated 23 +/- 2 window.

Criterion 6 follows the diagonal of Q1 toward 1/2 with the identity
Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2.  The gaps |Q1(a, a) - 1/2| must
fall over a = 1, 2, 4, 8, 16, and Q1(a, a) at a = 32 and 50, the edge of
marcum_q1's documented range, must meet the identity within the documented
1e-10.  The stated "|Q1(16,16) - 1/2| < 0.01" is not asserted: the identity
puts that gap at exp(-256) I0(256) / 2 ~ 0.01247 for any accurate Q1.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy import special as sp

from fas import analytic, cli
from fas.analytic import (db_to_linear, outage_exact, outage_exact_profile,
                          outage_mrc, outage_n2_closed_form, quad)
from fas.bounds import bound_constants, outage_upper_bound
from fas.channel import DopplerTraceConfig, FasConfig, envelope_trace
from fas.design import DesignQuery, min_size, required_mu_and_size
from fas.mc import McSettings, mc_outage_fas
from fas.specfun import marcum_q1

GRID_N = (1, 2, 3, 5, 10, 20)
GRID_W = (0.2, 0.5, 1.0, 2.0, 5.0)
GRID_DB = (-10.0, 0.0, 10.0)


def report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} - {detail}")
    return ok


def first_crossing(level: float, size_wl: float, n_start: int,
                   n_stop: int) -> int:
    for n in range(n_start, n_stop + 1):
        c = FasConfig(n_ports=n, size_wavelengths=size_wl, snr_ratio=1.0)
        if outage_exact(c) < level:
            return n
    return -1


def test_criterion_1_mc_oracle_equivalence():
    start = time.time()
    trials = 1_000_000
    agree = 0
    total = 0
    for n in GRID_N:
        for w in GRID_W:
            for db in GRID_DB:
                x = db_to_linear(db)
                config = FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=x)
                exact = outage_exact(config)
                est = mc_outage_fas(config, McSettings(trials=trials, seed=42))
                se = math.sqrt(max(exact * (1.0 - exact), 0.0) / trials)
                total += 1
                if abs(est.p_hat - exact) <= 3.0 * se:
                    agree += 1
    elapsed = time.time() - start
    frac = agree / total
    ok = frac >= 0.95 and elapsed < 300.0
    assert report(1, ok, f"{agree}/{total} grid points within 3 s.e. "
                         f"({frac:.1%}), {elapsed:.0f}s")


def test_criterion_2_closed_form_cross_checks(monkeypatch):
    start = time.time()
    rng = np.random.default_rng(42)
    worst_n2 = 0.0
    for _ in range(100):
        mu2 = float(rng.uniform(-0.98, 0.98))
        x = float(rng.uniform(0.05, 8.0))
        gap = abs(outage_exact_profile([0.0, mu2], x)
                  - outage_n2_closed_form(mu2, x))
        worst_n2 = max(worst_n2, gap)

    worst_l3 = 0.0
    # the identity's quadratures alone take the tighter absolute tolerance
    monkeypatch.setattr(analytic, "_ABS_TOL", 1e-11)
    for _ in range(50):
        a, b, c = (float(v) for v in rng.uniform(0.1, 3.0, 3))
        lhs, _ = quad(lambda t: np.exp(-t) * marcum_q1(a * np.sqrt(t), b),
                      0.0, c)
        a2 = a * a + 2.0
        rhs = (math.exp(-b * b / a2)
               * marcum_q1(math.sqrt(c * a2), a * b / math.sqrt(a2))
               - math.exp(-c) * marcum_q1(a * math.sqrt(c), b))
        worst_l3 = max(worst_l3, abs(lhs - rhs))
    elapsed = time.time() - start
    ok = worst_n2 <= 1e-8 and worst_l3 <= 1e-8 and elapsed < 10.0
    assert report(2, ok, f"N=2 worst gap {worst_n2:.2e}, integral identity "
                         f"worst gap {worst_l3:.2e}, {elapsed:.1f}s")


def test_criterion_3_special_case_exactness():
    worst = 0.0
    for n in (1, 2, 3, 5, 10):
        for x in (0.1, 1.0, 10.0):
            got = outage_exact_profile(np.zeros(n), x)
            worst = max(worst, abs(got - (1.0 - math.exp(-x)) ** n))

    worst_append = 0.0
    for mu in ([0.0, 0.5], [0.0, 0.3, 0.8], [0.0, 0.9, 0.9, 0.2]):
        base = outage_exact_profile(mu, 1.0)
        appended = outage_exact_profile(list(mu) + [1.0 - 1e-12], 1.0)
        worst_append = max(worst_append, abs(appended - base))

    ok = worst <= 1e-9 and worst_append < 1e-6
    assert report(3, ok, f"independent-profile worst gap {worst:.2e}, "
                         f"degenerate-append worst shift {worst_append:.2e}")


def test_criterion_4_reference_crossings():
    start = time.time()
    levels = {2: outage_mrc(2, 1.0), 5: outage_mrc(5, 1.0),
              8: outage_mrc(8, 1.0)}
    n_2_w02 = first_crossing(levels[2], 0.2, 2, 15)
    n_5_w02 = first_crossing(levels[5], 0.2, 40, 100)
    n_8_w5 = first_crossing(levels[8], 5.0, 2, 40)
    n_5_w5 = first_crossing(levels[5], 5.0, 2, 30)
    elapsed = time.time() - start
    ok = (abs(n_2_w02 - 7) <= 1 and abs(n_5_w02 - 70) <= 10
          and abs(n_8_w5 - 23) <= 2 and abs(n_5_w5 - 12) <= 2
          and elapsed < 120.0)
    assert report(4, ok, f"crossings: L2/W0.2 N={n_2_w02} (want 7+/-1), "
                         f"L5/W0.2 N={n_5_w02} (want 70+/-10), "
                         f"L8/W5 N={n_8_w5} (want 23+/-2), "
                         f"L5/W5 N={n_5_w5} (want 12+/-2), {elapsed:.0f}s")


def test_criterion_5_bound_ordering():
    violations = 0
    checked = 0
    for kappa in (1.5, 2.0, 3.0):
        constants = bound_constants(kappa)
        for n in GRID_N:
            for w in GRID_W:
                for db in GRID_DB:
                    config = FasConfig(n_ports=n, size_wavelengths=w,
                                       snr_ratio=db_to_linear(db))
                    checked += 1
                    if outage_exact(config) > \
                            outage_upper_bound(config, constants) + 1e-12:
                        violations += 1
    ok = violations == 0
    assert report(5, ok, f"{violations} ordering violations over "
                         f"{checked} (config, kappa) pairs")


def test_criterion_6_marcum_property_suite():
    worst_special = 0.0
    for a in (0.3, 1.0, 3.7, 10.0):
        worst_special = max(worst_special, abs(marcum_q1(a, 0.0) - 1.0))
    for b in (0.3, 1.0, 2.0, 5.0):
        worst_special = max(worst_special,
                            abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)))

    gaps = [abs(marcum_q1(a, a) - 0.5) for a in (1, 2, 4, 8, 16)]
    monotone = all(x > y for x, y in zip(gaps, gaps[1:]))
    # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2: the gap exp(-a^2) I0(a^2) / 2
    # shrinks like 1 / (2 a sqrt(2 pi)), about 0.0125 at a=16.  Follow the
    # diagonal on to the edge of marcum_q1's documented a, b <= 50 range.
    far = (32.0, 50.0)
    worst_far = max(abs(marcum_q1(a, a) - 0.5 * (1.0 + float(sp.i0e(a * a))))
                    for a in far)

    rng = np.random.default_rng(6)
    viol_l4 = 0
    for _ in range(500):
        b = float(rng.uniform(1e-3, 20.0))
        a = float(rng.uniform(0.0, 0.999 * b))
        if marcum_q1(a, b) >= (b / (b - a)) / math.sqrt(1.0 + 2.0 * a * b):
            viol_l4 += 1
    viol_l6 = 0
    for kappa in (1.5, 2.0, 3.0):
        rho = bound_constants(kappa).rho
        for _ in range(300):
            b = float(rng.uniform(10.0, 30.0))
            a = b * float(rng.uniform(0.05, 0.999))
            lower = rho * math.sqrt(b / a) * math.exp(
                -0.5 * kappa * (b - a) ** 2)
            if marcum_q1(a, b) < lower:
                viol_l6 += 1

    ok = (worst_special <= 1e-12 and monotone and worst_far <= 1e-10
          and viol_l4 == 0 and viol_l6 == 0)
    assert report(6, ok, f"special cases worst {worst_special:.1e}, "
                         f"diagonal gaps monotone={monotone}, "
                         f"|Q1(16,16)-0.5|={gaps[-1]:.5f}, "
                         f"Q1(a,a) identity error at a={far} "
                         f"{worst_far:.1e} (want <= 1e-10), "
                         f"inequality violations {viol_l4}+{viol_l6}")


def test_criterion_7_design_round_trip():
    constants = bound_constants(2.0)
    frontier = []
    recheck_worst = 0.0
    for n in range(4, 301):
        q = DesignQuery(mrc_branches=2, snr_ratio=1.0, constants=constants)
        answer = min_size(n, q)
        if not answer.feasible:
            continue
        frontier.append((n, answer.value))
        half = n // 2
        # recheck: the conservative factor at mu*(W) meets the MRC level
        mu_star = required_mu_and_size(half, q).value.mu_star
        factor = 1.0 - constants.rho * math.exp(
            -constants.kappa / (1.0 - mu_star ** 2))
        lhs = (1.0 - math.exp(-1.0)) * factor ** (half - 1)
        recheck_worst = max(recheck_worst, abs(lhs - outage_mrc(2, 1.0)))
    sizes = [w for _, w in frontier]
    nonincreasing = all(a >= b - 1e-12 for a, b in zip(sizes, sizes[1:]))

    # kappa-sweep report for the reference anchor (N=25, W=4.2): documented,
    # not asserted, because the anchor's kappa is unknown
    anchor_hits = []
    for kappa in np.linspace(1.05, 3.0, 40):
        q = DesignQuery(mrc_branches=2, snr_ratio=1.0,
                        constants=bound_constants(float(kappa)))
        answer = min_size(25, q)
        if answer.feasible and abs(answer.value - 4.2) <= 0.42:
            anchor_hits.append(round(float(kappa), 3))
    anchor_note = (f"kappa values reproducing W=4.2 at N=25 within 10%: "
                   f"{anchor_hits if anchor_hits else 'none in (1,3]'}")

    ok = bool(frontier) and nonincreasing and recheck_worst <= 1e-9
    assert report(7, ok, f"{len(frontier)} feasible N, nonincreasing="
                         f"{nonincreasing}, recheck worst {recheck_worst:.1e}; "
                         + anchor_note)


def test_criterion_8_envelope_trace():
    start = time.time()
    config = FasConfig(n_ports=100, size_wavelengths=2.0, snr_ratio=1.0)
    doppler = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                                 duration_s=10.0, sample_rate_hz=1000.0)
    rng = np.random.Generator(np.random.Philox(42))
    table = np.concatenate([block.copy() for block in
                            envelope_trace(config, doppler, rng)])
    t_norm, port_db, fas_db = table[:, 0], table[:, 1:-2], table[:, -2]
    spread = port_db.max(axis=1) - port_db.min(axis=1)
    spread_frac = float(np.mean(spread >= 30.0))
    fas_var = float(fas_db.var())
    min_port_var = float(port_db.var(axis=0).min())
    elapsed = time.time() - start
    ok = (t_norm.size == 10_000 and spread_frac >= 0.01
          and fas_var < min_port_var and elapsed < 30.0)
    assert report(8, ok, f">=30dB spread at {spread_frac:.1%} of samples, "
                         f"selection var {fas_var:.2f} < min port var "
                         f"{min_port_var:.2f}, {elapsed:.0f}s")


def test_criterion_9_validate_determinism(tmp_path):
    args = ["validate", "--grid", "quick", "--trials", "20000", "--seed", "42"]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    code_a = cli.main(args + ["--out", str(path_a)])
    code_b = cli.main(args + ["--out", str(path_b)])
    identical = path_a.read_bytes() == path_b.read_bytes()
    passed = json.loads(path_a.read_text())["all_passed"]
    ok = identical and passed and code_a == 0 and code_b == 0
    assert report(9, ok, f"byte-identical={identical}, all checks "
                         f"passed={passed}")
