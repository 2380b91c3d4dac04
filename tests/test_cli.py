import json
import math

import numpy as np
import pytest

from fas.analytic import db_to_linear, outage_mrc
from fas.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestArgumentHandling:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_sweep_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["outage-curve", "--sweep-n", "5:1:1"])
        assert exc.value.code == 2

    def test_two_sweeps_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["outage-curve", "--sweep-n", "1:5:1",
                  "--sweep-w", "0.1:1:0.1"])
        assert exc.value.code == 2

    def test_kappa_at_most_one_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--kappa", "1.0", "--n-ports", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["outage-curve", "--sweep-n", "1:3:1", "--trials", "500"],
        ["outage-curve", "--sweep-n", "1:3:1", "--trials", "-1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--kappa", "1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--workers", "0"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--kappa", "0.5"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--workers", "0"],
        ["envelope", "--n-ports", "0"],
        ["envelope", "--size-wl", "-1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--size-wl", "0"],
        ["design", "--n-ports", "10", "--mrc-l", "0"],
        ["validate", "--trials", "500"],
        ["outage-curve", "--sweep-n=0:3:1"],
        ["bounds-compare", "--sweep-w=0:1:0.5"],
    ])
    def test_out_of_range_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err


class TestOutageCurve:
    def test_sweep_n_monotone(self, capsys):
        code, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:30:1",
                            "--size-wl", "0.5", "--snr-db", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["n_ports", "exact", "approx", "upper_bound"]
        exact = [float(r[1]) for r in rows]
        assert len(exact) == 30
        assert all(a >= b - 1e-12 for a, b in zip(exact, exact[1:]))

    def test_provenance_comments(self, capsys):
        _, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:3:1")
        comments = [l for l in out.splitlines() if l.startswith("#")]
        joined = "\n".join(comments)
        assert "seed=" in joined
        assert "outage-curve" in joined

    def test_round_trip_precision(self, capsys):
        from fas.analytic import outage_exact
        from fas.channel import FasConfig
        _, out = run_cli(capsys, "outage-curve", "--sweep-n", "2:4:1",
                         "--size-wl", "0.7", "--snr-db", "3")
        _, rows = parse_csv(out)
        for row in rows:
            c = FasConfig(n_ports=int(row[0]), size_wavelengths=0.7,
                          snr_ratio=db_to_linear(3.0))
            assert float(row[1]) == outage_exact(c)

    def test_mc_columns_present_when_requested(self, capsys):
        _, out = run_cli(capsys, "outage-curve", "--sweep-n", "2:3:1",
                         "--trials", "20000", "--seed", "5")
        header, rows = parse_csv(out)
        i_mc = header.index("mc")
        for row in rows:
            p = float(row[i_mc])
            assert 0.0 <= p <= 1.0

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:3:1",
                            "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().count("\n") >= 4


class TestBoundsCompare:
    def test_mrc_levels_and_crossing(self, capsys):
        _, out = run_cli(capsys, "bounds-compare", "--sweep-n", "1:12:1",
                         "--size-wl", "0.2", "--snr-db", "0",
                         "--mrc-l", "2")
        header, rows = parse_csv(out)
        i_exact = header.index("exact")
        i_mrc = header.index("mrc_2")
        level = outage_mrc(2, 1.0)
        crossing = next(int(r[0]) for r in rows
                        if float(r[i_exact]) < float(r[i_mrc]))
        assert float(rows[0][i_mrc]) == pytest.approx(level, rel=1e-12)
        assert 6 <= crossing <= 8

    def test_negative_approx_marker(self, capsys):
        _, out = run_cli(capsys, "bounds-compare", "--sweep-n", "40:50:10",
                         "--size-wl", "0.5", "--snr-db", "0")
        header, rows = parse_csv(out)
        i_a = header.index("approx")
        i_m = header.index("approx_out_of_regime")
        for row in rows:
            assert (float(row[i_a]) < 0) == (row[i_m] == "1")


class TestDesign:
    def test_n_ports_query_json(self, capsys):
        code, out = run_cli(capsys, "design", "--n-ports", "60",
                            "--mrc-l", "2", "--snr-db", "0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "results", "guards", "version"}
        assert doc["results"]["min_size_wl"]["feasible"] is True
        assert float(doc["results"]["min_size_wl"]["value"]) > 0

    def test_infeasible_is_exit_zero(self, capsys):
        code, out = run_cli(capsys, "design", "--n-ports", "4",
                            "--mrc-l", "8", "--snr-db", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_size_wl"]["feasible"] is False
        assert doc["guards"]

    def test_size_query(self, capsys):
        code, out = run_cli(capsys, "design", "--size-wl", "5.0",
                            "--mrc-l", "2", "--snr-db", "0")
        assert code == 0
        doc = json.loads(out)
        answer = doc["results"]["min_ports"]
        assert answer["feasible"] is True
        assert answer["value"] >= 2

    def test_frontier_sweep_nonincreasing(self, capsys):
        code, out = run_cli(capsys, "design", "--sweep-n", "40:120:8",
                            "--mrc-l", "2", "--snr-db", "0")
        assert code == 0
        header, rows = parse_csv(out)
        w = [float(r[1]) for r in rows if r[2] == "1"]
        assert len(w) >= 5
        assert all(a >= b - 1e-12 for a, b in zip(w, w[1:]))


class TestEnvelope:
    def test_columns_and_selection(self, capsys):
        code, out = run_cli(capsys, "envelope", "--n-ports", "5",
                            "--duration-s", "0.2", "--rate-hz", "600",
                            "--seed", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "t_norm"
        assert header[-2:] == ["fas_db", "mrc_db"]
        assert len(header) == 5 + 3
        for row in rows[:20]:
            ports = [float(v) for v in row[1:6]]
            assert float(row[6]) == pytest.approx(max(ports), abs=1e-12)

    def test_nyquist_violation_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--rate-hz", "10"])
        assert exc.value.code == 2


class TestValidate:
    def test_quick_grid_passes(self, capsys):
        code, out = run_cli(capsys, "validate", "--grid", "quick",
                            "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True

    def test_negative_control_fails(self, capsys):
        code, out = run_cli(capsys, "validate", "--grid", "quick",
                            "--trials", "20000", "--quad-abs-tol", "10")
        assert code == 1
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert doc["results"]["marcum_integral_identity"]["pass"] is False

    def test_byte_identical_reports(self, capsys):
        _, first = run_cli(capsys, "validate", "--trials", "20000",
                           "--seed", "9")
        _, second = run_cli(capsys, "validate", "--trials", "20000",
                            "--seed", "9")
        assert first == second
