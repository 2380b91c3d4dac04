"""Tests of the benchmark itself: each output check rejects a perturbed
output, every workload runs one clean pass, and the traced run's counts
repeat.  Run with

    python3 -m pytest -q bench/test_bench.py

(about two minutes; the repository's own suite under tests/ does not
collect this file).
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from fas import cli, specfun  # noqa: E402

import oracles as o  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def run_fas(argv, out: Path) -> Path:
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out


def edit_csv(path: Path, column: str, change) -> None:
    """Apply `change(value, row)` to one column of a CSV written by fas."""
    lines = path.read_text().splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = table[0].index(column)
    for row in table[1:]:
        row[col] = repr(change(float(row[col]), row))
    path.write_text("".join(comments)
                    + "".join(",".join(row) + "\n" for row in table))


def test_curve_check_rejects_exact_scaled_by_1e_6(tmp_path):
    sweep = o.Sweep("n_ports", (5, 50, 95), 10, 0.5, 0.0)
    argv = ["outage-curve", "--sweep-n=5:95:45", "--size-wl", "0.5"]
    out = run_fas(argv, tmp_path / "curve.csv")
    assert o.check_curve(out, sweep, "outage-curve") == []
    edit_csv(out, "exact", lambda v, row: v * (1.0 + 1e-6))
    problems = o.check_curve(out, sweep, "outage-curve")
    assert len(problems) == 3 and all("chndtr" in p for p in problems)


def test_curve_check_rejects_nan(tmp_path):
    sweep = o.Sweep("n_ports", (5, 50), 10, 1.0, 0.0, mrc_l=(2,))
    argv = ["bounds-compare", "--sweep-n=5:50:45", "--size-wl", "1.0",
            "--mrc-l", "2"]
    out = run_fas(argv, tmp_path / "curve.csv")
    assert o.check_curve(out, sweep, "bounds-compare") == []
    edit_csv(out, "exact", lambda v, row: math.nan)
    problems = o.check_curve(out, sweep, "bounds-compare")
    assert len(problems) == 2 and all("not finite" in p for p in problems)
    # NaN in every numeric column at once
    for column in ("approx", "upper_bound", "mrc_2"):
        edit_csv(out, column, lambda v, row: math.nan)
    problems = o.check_curve(out, sweep, "bounds-compare")
    for column in ("exact", "approx", "upper_bound", "mrc_2"):
        assert sum(p.startswith(f"n_ports={n}: {column} nan")
                   for p in problems for n in (5, 50)) == 2


def test_curve_check_covers_the_deep_tail(tmp_path):
    values = (-20.0, -10.0)
    sweep = o.Sweep("snr_db", values, 100, 0.5, 0.0, mrc_l=(2, 8))
    argv = ["bounds-compare", "--sweep-snr-db=-20:-10:10", "--n-ports", "100",
            "--size-wl", "0.5", "--mrc-l", "2,8"]
    out = run_fas(argv, tmp_path / "tail.csv")
    assert o.check_curve(out, sweep, "bounds-compare") == []
    exact = float(o.read_csv(out).rows[0][1])
    assert exact < 1e-100
    assert o.point_oracle(100, 0.5, o.db_to_ratio(-20.0), 2.0)["exact"].applicable
    edit_csv(out, "mrc_8", lambda v, row: v * (1.0 + 1e-12))
    assert len(o.check_curve(out, sweep, "bounds-compare")) == 2


def test_mc_check_rejects_a_6_sigma_shift(tmp_path):
    trials = 1_000_000
    sweep = o.Sweep("n_ports", (1,), 1, 0.5, 0.0, trials=trials)
    argv = ["outage-curve", "--sweep-n=1:1:1", "--size-wl", "0.5",
            "--trials", str(trials), "--seed", "3"]
    out = run_fas(argv, tmp_path / "mc.csv")
    assert o.check_curve(out, sweep, "outage-curve") == []
    p = -math.expm1(-1.0)
    sigma = math.sqrt(p * (1.0 - p) / trials)

    def shift(v, row):
        moved = v + math.copysign(6.0 * sigma, v - p)
        # keep mc_ci consistent with the moved value, so only the z-score fails
        row[5] = repr(1.96 * math.sqrt(moved * (1.0 - moved) / trials))
        return moved

    edit_csv(out, "mc", shift)
    problems = o.check_curve(out, sweep, "outage-curve")
    assert len(problems) == 1 and "sigma" in problems[0]


@pytest.mark.parametrize("delta", [-1, 1])
def test_design_check_rejects_n_star_off_by_one(tmp_path, delta):
    spec = o.DesignSpec(4, 0.0)
    argv = ["design", "--size-wl", "1.0", "--mrc-l", "4", "--snr-db", "0"]
    out = run_fas(argv, tmp_path / "design.json")
    assert o.check_design_json(out, spec, 1.0, None) == []
    doc = json.loads(out.read_text())
    assert doc["results"]["min_ports"]["feasible"]
    doc["results"]["min_ports"]["value"] += delta
    out.write_text(json.dumps(doc))
    problems = o.check_design_json(out, spec, 1.0, None)
    assert len(problems) == 1
    assert ("not minimal" if delta > 0 else "does not beat") in problems[0]


def test_design_check_rejects_a_wrong_mu_star(tmp_path):
    spec = o.DesignSpec(2, 0.0)
    out = run_fas(["design", "--n-ports", "30", "--mrc-l", "2"],
                  tmp_path / "mu.json")
    assert o.check_design_json(out, spec, None, 30) == []
    doc = json.loads(out.read_text())
    mu = float(doc["results"]["required_mu"]["value"]["mu_star"])
    doc["results"]["required_mu"]["value"]["mu_star"] = repr(mu * (1 + 1e-6))
    out.write_text(json.dumps(doc))
    assert o.check_design_json(out, spec, None, 30) != []


@pytest.mark.parametrize("field", ["mu_star", "d_star_wl"])
def test_design_check_rejects_nan(tmp_path, field):
    spec = o.DesignSpec(2, 0.0)
    out = run_fas(["design", "--n-ports", "100", "--mrc-l", "2"],
                  tmp_path / "mu.json")
    assert o.check_design_json(out, spec, None, 100) == []
    doc = json.loads(out.read_text())
    assert doc["results"]["min_size_wl"]["feasible"]
    doc["results"]["required_mu"]["value"][field] = "nan"
    doc["results"]["min_size_wl"]["value"] = "nan"
    out.write_text(json.dumps(doc))
    problems = o.check_design_json(out, spec, None, 100)
    assert len(problems) == 2 and all("not finite" in p for p in problems)


def test_trace_check_rejects_fas_db_shifted_by_0_1_db(tmp_path):
    spec = workloads.TRACES[1]
    argv = workloads.trace(7, tmp_path)[1].argv
    out = run_fas(argv, tmp_path / "trace.csv")
    assert o.check_trace(out, spec) == []
    edit_csv(out, "fas_db", lambda v, row: v + 0.1)
    problems = o.check_trace(out, spec)
    assert len(problems) == 1 and "fas_db" in problems[0]


def test_tracer_restores_every_rebinding():
    import fas.analytic
    import fas.validation
    before = fas.analytic.marcum_q1
    tracer = tracing.Tracer()
    with tracer.installed():
        assert fas.analytic.marcum_q1 is not before
        assert fas.validation.marcum_q1 is fas.analytic.marcum_q1
        fas.analytic.outage_exact(fas.FasConfig(3, 1.0, 1.0))
    assert fas.analytic.marcum_q1 is before is specfun.marcum_q1
    assert tracer.missing == []
    values = tracing.layer_metrics(tracer, PER_LAYER, 0.0)
    assert values["analytic.outage_exact.calls"] == 1
    assert values["specfun.marcum_q1.calls"] > 0
    assert values["analytic.quad.evals"] > 0


def test_missing_hook_gives_null_metrics(monkeypatch):
    import fas.design
    monkeypatch.delattr(fas.design, "min_size_frontier")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["design.min_size_frontier"]
    values = tracing.layer_metrics(tracer, PER_LAYER, 0.0)
    assert values["design.min_size_frontier.self_s"] is None
    assert values["design.min_size.self_s"] == 0.0


def test_counted_hooks_run_only_in_the_counting_round():
    import fas.bounds
    config = fas.FasConfig(6, 1.0, 1.0)
    constants = fas.bounds.bound_constants()
    spans, counter = tracing.Tracer(), tracing.Tracer()
    with spans.installed():
        fas.bounds.outage_upper_bound(config, constants)
    with counter.installed(count_only=True):
        fas.bounds.outage_upper_bound(config, constants)
    assert spans.counts["bounds.per_port_bound_factor.calls"] == 0
    assert tracing.layer_metrics(spans, ["bounds.outage_upper_bound.calls"],
                                 0.0) == {"bounds.outage_upper_bound.calls": 1}
    assert counter.counts["bounds.per_port_bound_factor.calls"] == 5
    assert len(counter.start) == 0


class FakeCli:
    """`fas.cli.main` stand-in: writes `text` to --out, or raises."""

    def __init__(self, text):
        self.text = text

    def main(self, argv):
        if self.text is None:
            raise ValueError("fault in the program")
        Path(argv[argv.index("--out") + 1]).write_text(self.text)
        return 0


@pytest.mark.parametrize("text", [None, "n_ports,exact\n5,\n", ""])
def test_runner_counts_raising_ops_and_checks_as_failed(tmp_path, text):
    sweep = o.Sweep("n_ports", (5,), 10, 1.0, 0.0)
    op = workloads.Op(["outage-curve"], tmp_path / "op.csv",
                      lambda path: o.check_curve(path, sweep, "outage-curve"))
    runner = run.Runner(FakeCli(text))
    runner.run_round([op])
    runner.run_round([op])
    runner.check_outputs([op])
    assert (runner.attempted, runner.failed) == (2, 2)


def bench(*args, cwd=ROOT) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_clean_pass_of_every_workload(workload):
    result = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                   "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.build(workload, 11, Path(".")))
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_and_match_the_declared_metrics():
    runs = [bench("--workload", "montecarlo", "--seed", "5", "--seconds", "1",
                  "--trace", "1") for _ in range(2)]
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["mc.trials"] > 0 and counts[0]["cli.output_bytes"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "design",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
