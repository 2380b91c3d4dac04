import argparse
import ast
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fas import __version__, analytic, cli, design, mc, validation
from fas.analytic import db_to_linear, outage_exact, outage_mrc
from fas.channel import (DopplerTraceConfig, FasConfig, envelope_trace,
                         port_mu)
from fas.cli import build_parser, main


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

    def test_kappa_whose_rho_overflows_rejected(self, capsys):
        # bounds.ConstantsError, a ValueError, is a usage error too
        with pytest.raises(SystemExit) as exc:
            main(["design", "--kappa", "1e200", "--n-ports", "10"])
        assert exc.value.code == 2
        assert "rho=inf outside (0, 0.5)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["outage-curve", "--sweep-n", "1:3:1", "--trials", "500"],
        ["outage-curve", "--sweep-n", "1:3:1", "--trials", "-1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--kappa", "1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--workers", "0"],
        # at most 1024 workers, and no more than --trials; rejected before
        # any stream is made
        ["outage-curve", "--sweep-n", "1:3:1", "--workers", "1025"],
        ["validate", "--workers", "1025"],
        ["outage-curve", "--sweep-n", "1:3:1", "--trials", "1000",
         "--workers", "1001"],
        ["validate", "--trials", "1000", "--workers", "1001"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--kappa", "0.5"],
        ["envelope", "--n-ports", "0"],
        ["envelope", "--size-wl", "-1"],
        ["outage-curve", "--sweep-n", "1:3:1", "--size-wl", "0"],
        ["design", "--n-ports", "10", "--mrc-l", "0"],
        ["validate", "--trials", "500"],
        ["outage-curve", "--sweep-n=0:3:1"],
        ["bounds-compare", "--sweep-w=0:1:0.5"],
        ["outage-curve", "--sweep-n", "1:3:1", "--snr-db", "nan"],
        ["outage-curve", "--sweep-n", "1:3:1", "--snr-db", "inf"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--snr-db=-inf"],
        ["design", "--size-wl", "1", "--snr-db", "inf"],
        ["design", "--n-ports", "10", "--snr-db", "inf"],
        ["design", "--n-ports", "10", "--snr-db", "nan"],
        # finite in dB, but the linear ratio overflows or is 0
        ["outage-curve", "--sweep-n", "1:3:1", "--snr-db", "4000"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--snr-db", "4000"],
        ["design", "--n-ports", "10", "--snr-db", "4000"],
        ["outage-curve", "--sweep-n", "1:3:1", "--snr-db=-4000"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--snr-db=-4000"],
        ["design", "--size-wl", "1", "--snr-db=-4000"],
        ["outage-curve", "--sweep-snr-db", "0:4000:1000"],
        ["bounds-compare", "--sweep-snr-db=-4000:0:1000"],
        ["design", "--n-ports", "0"],
        ["design", "--n-ports=-5"],
        ["design", "--n-ports", "1"],
        ["envelope", "--speed-kmh", "nan"],
        ["envelope", "--speed-kmh=-1"],
        ["envelope", "--freq-ghz", "inf"],
        ["envelope", "--duration-s", "nan"],
        ["envelope", "--rate-hz", "0"],
        ["envelope", "--scatterers", "0"],
        ["outage-curve", "--sweep-n", "1:3:1", "--seed=-1"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--seed=-1"],
        ["design", "--n-ports", "10", "--seed=-1"],
        ["envelope", "--seed=-1"],
        ["validate", "--seed=-1"],
        ["envelope", "--duration-s", "0.0004"],
        # more samples than doubles count exactly: rejected before any
        # row is computed
        ["envelope", "--duration-s", "1e300"],
        ["envelope", "--duration-s", "1e13"],
        ["outage-curve", "--sweep-w=0.1:1e9:1e-9"],
        # 10^10 points: rejected before any list of them is built
        ["outage-curve", "--sweep-n", "1:10000000000:1"],
    ])
    def test_out_of_range_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds-compare", "--sweep-n", "1:3:1", "--workers", "2"],
        ["design", "--n-ports", "10", "--workers", "2"],
        ["envelope", "--workers", "2"],
    ])
    def test_workers_only_where_monte_carlo_runs(self, argv, capsys):
        # only outage-curve and validate run Monte Carlo and take --workers
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, prog", [
        (["envelope", "--scatterers", "4"], "fas envelope"),
        (["envelope", "--speed-kmh=-1"], "fas envelope"),
        (["envelope", "--rate-hz", "10"], "fas envelope"),
        (["outage-curve", "--sweep-n", "1:3:1", "--sweep-w", "1:2:1"],
         "fas outage-curve"),
        (["bounds-compare"], "fas bounds-compare"),
        (["design"], "fas design"),
        (["envelope", "--duration-s", "0.0004"], "fas envelope"),
        (["design", "--n-ports", "10", "--size-wl", "2"], "fas design"),
        (["design", "--size-wl", "2", "--sweep-n", "4:8:4"], "fas design"),
        (["design", "--sweep-n=-8:4:4"], "fas design"),
        (["design", "--sweep-n", "1:5:1"], "fas design"),
        # about 2 TB of sum-of-sinusoids angles: rejected before any draw
        (["envelope", "--mrc-l", "1000000000"], "fas envelope"),
    ])
    def test_command_error_names_its_subcommand(self, argv, prog, capsys):
        # errors raised after parsing name the subcommand and show its usage
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{prog}: error:" in err
        assert err.startswith(f"usage: {prog} ")


def test_no_option_parses_with_bare_float_or_int():
    # a bare float accepts nan and inf, a bare int any sign: every numeric
    # option needs a checking type so that bad values are usage errors
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = [(sub.prog, action)
               for sub in (parser, *subparsers.choices.values())
               for action in sub._actions]
    bare = [(prog, action.dest) for prog, action in actions
            if action.type in (float, int)]
    # every option that takes a number, so that none escapes the check:
    # outage-curve 10, bounds-compare 9, design 7, envelope 9, validate 3
    typed = [(prog, action.dest) for prog, action in actions
             if action.type not in (None, str)]
    assert len(subparsers.choices) == 5
    assert bare == []
    assert len(typed) == 38


# one out-of-range value per numeric flag of each subcommand, and the
# message of the rule that rejects it: the library's, but for the dB
# conversion of an SNR flag
_SNR_DB_RULE = "must be a dB value whose linear ratio is finite and > 0, got "
_SWEEP_FLAG_RULES = [
    ("--n-ports", "0", "n_ports must be a whole number >= 1, got 0"),
    ("--size-wl", "0", "size_wl must be positive and finite, got 0.0"),
    ("--snr-db", "4000", _SNR_DB_RULE + "4000.0"),
    ("--kappa", "1", "kappa must be a finite real > 1, got 1.0"),
    ("--sweep-n", "0:3:1", "n_ports must be a whole number >= 1, got 0"),
    ("--sweep-w", "0:1:0.5", "size_wl must be positive and finite, got 0.0"),
    ("--sweep-snr-db", "0:4000:1000", _SNR_DB_RULE + "4000.0"),
    ("--seed", "-1", "seed must be a whole number >= 0, got -1"),
]
FLAG_RULES = [
    *(("outage-curve", *rule) for rule in _SWEEP_FLAG_RULES),
    ("outage-curve", "--trials", "500",
     "trials must be a whole number >= 1000, got 500"),
    ("outage-curve", "--workers", "1025", "workers must be <= 1024 "
     "(at most 1024 and at most trials), got 1025"),
    *(("bounds-compare", *rule) for rule in _SWEEP_FLAG_RULES),
    ("bounds-compare", "--mrc-l", "2,0",
     "mrc_l must be a whole number >= 1, got 0"),
    ("design", "--mrc-l", "0", "mrc_l must be a whole number >= 1, got 0"),
    ("design", "--snr-db", "nan", _SNR_DB_RULE + "nan"),
    ("design", "--kappa", "0.5", "kappa must be a finite real > 1, got 0.5"),
    ("design", "--n-ports", "1", "n_ports must be a whole number >= 2, got 1"),
    ("design", "--size-wl", "inf",
     "size_wl must be positive and finite, got inf"),
    ("design", "--sweep-n", "1:5:1",
     "n_ports must be a whole number >= 2, got 1"),
    ("design", "--seed", "-1", "seed must be a whole number >= 0, got -1"),
    ("envelope", "--n-ports", "0", "n_ports must be a whole number >= 1, got 0"),
    ("envelope", "--size-wl", "-1",
     "size_wl must be positive and finite, got -1.0"),
    ("envelope", "--freq-ghz", "inf",
     "freq_ghz must be positive and finite, got inf"),
    ("envelope", "--speed-kmh", "-1",
     "speed_kmh must be finite and nonnegative, got -1.0"),
    ("envelope", "--duration-s", "nan",
     "duration_s must be positive and finite, got nan"),
    ("envelope", "--rate-hz", "0", "rate_hz must be positive and finite, got 0.0"),
    ("envelope", "--scatterers", "4",
     "scatterers must be a whole number >= 8, got 4"),
    ("envelope", "--mrc-l", "0", "mrc_l must be a whole number >= 1, got 0"),
    ("envelope", "--seed", "-1", "seed must be a whole number >= 0, got -1"),
    ("validate", "--trials", "500",
     "trials must be a whole number >= 1000, got 500"),
    ("validate", "--workers", "0", "workers must be a whole number >= 1, got 0"),
    ("validate", "--seed", "-1", "seed must be a whole number >= 0, got -1"),
]


def _flag_argv(command, flag, value):
    """A command line whose one bad value is `flag`'s."""
    argv = [command, f"{flag}={value}"]
    if command in ("outage-curve", "bounds-compare") and "sweep" not in flag:
        argv += ["--sweep-n", "1:3:1"]
    if command == "design" and flag not in ("--n-ports", "--size-wl",
                                            "--sweep-n"):
        argv += ["--n-ports", "10"]
    return argv


@pytest.mark.parametrize("command, flag, value, message", FLAG_RULES,
                         ids=[f"{c}{f}" for c, f, _, _ in FLAG_RULES])
def test_flag_rejects_by_the_rule_its_value_feeds(command, flag, value,
                                                  message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_flag_argv(command, flag, value))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": {message}\n")


def test_flag_rules_cover_every_numeric_flag():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    typed = sorted((command, action.option_strings[0])
                   for command, sub in subparsers.choices.items()
                   for action in sub._actions
                   if action.type not in (None, str))
    assert typed == sorted((c, f) for c, f, _, _ in FLAG_RULES)


@pytest.mark.parametrize("argv", [
    ["design", "--size-wl", "{0}"],
    ["outage-curve", "--sweep-n", "3:3:1", "--size-wl", "{0}"],
    ["outage-curve", "--sweep-w", "{0}:{0}:1e307"],
])
def test_size_flags_keep_2_pi_size_finite(argv, capsys):
    # at 2.9e307, 2 pi W overflows: once a usage error that blamed mu, after
    # a numpy overflow warning
    with pytest.raises(SystemExit) as exc:
        main([a.format("2.9e307") for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        ": size_wl must keep 2 pi size_wl finite, got 2.9e+307\n")
    code, out = run_cli(capsys, *(a.format("2.8e307") for a in argv))
    assert code == 0 and out


def test_readme_commands_parse():
    # every `fas` line of README's shell blocks must parse (nothing runs),
    # so that the documentation names no removed or misspelled flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("fas ")]
    assert len(lines) == 7
    parser = build_parser()
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []


def test_main_reuses_one_parser(capsys):
    # main parses every call with one parser built on first use; each output
    # must be the one a fresh process prints, usage errors included
    runs = [
        (["outage-curve", "--sweep-n", "1:3:1"], 0),
        (["outage-curve", "--sweep-n", "5:1:1"], 2),
        (["bounds-compare", "--sweep-n", "1:3:1"], 0),
        (["design", "--n-ports", "10"], 0),
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    before = cli._shared_parser.cache_info()
    for argv, code in runs:
        fresh = subprocess.run([sys.executable, "-m", "fas.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert fresh.returncode == code
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        got = capsys.readouterr()
        assert (got.out, got.err) == (fresh.stdout, fresh.stderr)
    after = cli._shared_parser.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 4
    assert after.misses <= 1 and after.currsize == 1
    # the bounds-compare default is one list, shared by every call
    sub = next(a for a in cli._shared_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices["bounds-compare"].get_default("mrc_l") == [2, 5, 8]


def test_library_value_errors_are_caught_in_main_alone():
    # a command with its own `except ValueError` would be a second way out;
    # only main and the flag types _checked and _parse_range turn a
    # ValueError into a usage error
    tree = ast.parse(Path(cli.__file__).read_text())
    catchers = {"ValueError", "Exception", "BaseException"}

    def catches_value_error(handler):
        kinds = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        return any(kind is None or (isinstance(kind, ast.Name)
                                    and kind.id in catchers) for kind in kinds)

    owners = [getattr(top, "name", "<module>") for top in tree.body
              for node in ast.walk(top)
              if isinstance(node, ast.ExceptHandler) and catches_value_error(node)]
    assert sorted(owners) == ["_checked", "_parse_range", "main"]


@pytest.mark.parametrize("command", ["outage-curve", "bounds-compare"])
@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("sweep", [
    # point 2 alone holds the port at W = 0.5 of a 2-port row
    ["--sweep-w", "0.25:0.75:0.25", "--n-ports", "2"],
    # points 2 and 3 both hold it: the first is named
    ["--sweep-n", "1:3:1"],
])
def test_failed_exact_outage_is_one_stderr_line(command, to_file, sweep,
                                                tmp_path, capsys,
                                                monkeypatch):
    # the port cdf reads NaN for the port mu = J0(pi) at 0 dB, so the
    # quadrature of each sweep row that holds it fails: status 1, one line
    # naming the first such point on stderr, and nothing written anywhere
    real = analytic.port_cdf
    mu = float(port_mu(1, 2, 0.5))
    b2_failing = 2.0 / (1.0 - mu ** 2)

    def port_cdf(a2, b2):
        p = real(a2, b2)
        p[np.broadcast_to(b2, p.shape) == b2_failing] = math.nan
        return p

    monkeypatch.setattr(analytic, "port_cdf", port_cdf)
    path = tmp_path / "curve.csv"
    argv = [command, *sweep] + (["--out", str(path)] * to_file)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == (
        f"fas {command}: error: exact outage at n_ports=2 size_wl=0.5 "
        "snr_db=0: quadrature returned nan with error estimate nan after 21 "
        "integrand evaluations on 1 subintervals\n")
    assert not path.exists()


def _sweep_table(capsys, *argv) -> list:
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return parse_csv(out)[1]


# sweeps whose blocks mix the evaluators' branches: N = 1; every port
# degenerate (W = 1e-9); x beyond e^-x's underflow (30 dB); the
# approximation's two-port series (N = 2 below about 0 dB); the deep tail
# (N = 100, W = 0.5, -20 dB, about 1e-164); and points whose quadrature
# takes more than one round (N = 20, W = 0.2, 0 dB)
BRANCH_SWEEPS = [
    ["--sweep-n", "1:4:1"],
    ["--sweep-n", "1:7:3", "--size-wl", "1e-9"],
    ["--sweep-snr-db=20:30:5", "--n-ports", "5"],
    ["--sweep-snr-db=-20:5:5", "--n-ports", "2"],
    ["--sweep-snr-db=-20:-10:5", "--n-ports", "100"],
    ["--sweep-n", "2:41:3", "--size-wl", "0.2"],
    ["--sweep-w", "0.1:0.4:0.1", "--n-ports", "20"],
]


class TestSweepBlocks:
    """A sweep evaluates its points in blocks, one call of each evaluator
    per block, with the values the one-point functions give."""

    @pytest.mark.parametrize("sweep", BRANCH_SWEEPS)
    def test_cells_are_the_one_point_functions(self, sweep, capsys):
        parser = build_parser()
        args = parser.parse_args(["bounds-compare", *sweep])
        constants = cli.bounds.bound_constants(args.kappa)
        rows = _sweep_table(capsys, "bounds-compare", *sweep,
                            "--mrc-l", "1,3")
        variable = {"--sweep-n": "n_ports", "--sweep-w": "size_wl"}.get(
            sweep[0], "snr_db")
        for row in rows:
            point = {"n_ports": args.n_ports, "size_wl": args.size_wl,
                     "snr_db": args.snr_db,
                     variable: (int if variable == "n_ports" else float)(
                         row[0])}
            config = FasConfig(point["n_ports"], point["size_wl"],
                               db_to_linear(point["snr_db"]))
            x = config.snr_ratio
            approx = analytic.outage_approx(config)
            assert row[1:] == [
                repr(outage_exact(config)), repr(approx),
                repr(cli.bounds.outage_upper_bound(config, constants)),
                str(int(approx < 0)), repr(outage_mrc(1, x)),
                repr(outage_mrc(3, x))]

    @pytest.mark.parametrize("command", ["outage-curve", "bounds-compare"])
    def test_split_blocks_write_the_same_bytes(self, command, capsys,
                                               monkeypatch):
        # a cap of three 12-port rows' round cells splits a 12-point sweep
        # into blocks of rows N = 1-6, 7-9 and 10-12
        argv = [command, "--sweep-n", "1:12:1", "--size-wl", "0.3"]
        calls = []
        real = analytic.outage_exact_rows
        monkeypatch.setattr(analytic, "outage_exact_rows",
                            lambda mu, x: calls.append(len(mu)) or real(mu, x))
        whole = run_cli(capsys, *argv)
        assert calls == [12]
        calls.clear()
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS",
                            3 * analytic.ROUND_NODES * 12)
        split = run_cli(capsys, *argv)
        assert calls == [6, 3, 3]
        assert split == whole

    def test_one_kernel_call_per_quadrature_round(self, capsys, monkeypatch):
        # the exact outage calls port_cdf once per round for all 20 points,
        # the approximation twice, on the elements the one-point functions
        # take point by point
        real = analytic.port_cdf

        def counting(record):
            def port_cdf(a2, b2):
                record.append(np.broadcast(a2, b2).size)
                return real(a2, b2)
            return port_cdf

        def rounds_counted(record):
            real = analytic.quad

            def quad(f, lo, hi, full_output=0):
                def counted(*args):
                    record.append(1)
                    return f(*args)
                return real(counted, lo, hi, full_output)
            return quad

        sweep, rounds = [], []
        monkeypatch.setattr(analytic, "port_cdf", counting(sweep))
        monkeypatch.setattr(analytic, "quad", rounds_counted(rounds))
        run_cli(capsys, "outage-curve", "--sweep-n=5:100:5", "--size-wl",
                "0.5")
        assert len(sweep) <= 2 + len(rounds)
        assert len(sweep) < 20
        one_point = []
        monkeypatch.setattr(analytic, "port_cdf", counting(one_point))
        for n in range(5, 101, 5):
            config = FasConfig(n, 0.5, 1.0)
            outage_exact(config)
            analytic.outage_approx(config)
        assert sum(sweep) == sum(one_point)


class TestOutputSinks:
    @pytest.mark.parametrize("argv", [
        ["outage-curve", "--sweep-n", "1:3:1"],
        ["bounds-compare", "--sweep-n", "1:3:1", "--mrc-l", "2,4"],
        ["design", "--n-ports", "30", "--mrc-l", "4"],
        ["design", "--size-wl", "2", "--mrc-l", "2"],
        ["design", "--sweep-n", "2:12:2"],
        ["envelope", "--n-ports", "3", "--duration-s", "0.05"],
        ["validate", "--trials", "1000", "--seed", "3"],
    ])
    def test_file_matches_stdout(self, argv, tmp_path, capsys):
        code, printed = run_cli(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "")
        assert path.read_text() == printed
        assert printed.endswith("\n")

    def test_version_in_every_output(self, capsys):
        from fas import __version__
        _, text = run_cli(capsys, "design", "--n-ports", "10")
        assert json.loads(text)["version"] == __version__
        _, text = run_cli(capsys, "validate", "--trials", "1000")
        assert json.loads(text)["version"] == __version__
        _, text = run_cli(capsys, "outage-curve", "--sweep-n", "1:1:1")
        assert text.startswith(f"# fas {__version__} outage-curve\n")


class TestOutageCurve:
    def test_explicit_zero_trials_is_the_default(self, capsys):
        # --trials 0 disables Monte Carlo, as leaving the flag out does
        argv = ["outage-curve", "--sweep-n", "1:3:1"]
        assert run_cli(capsys, *argv, "--trials", "0") == run_cli(capsys, *argv)

    def test_sweep_n_monotone(self, capsys):
        code, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:30:1",
                            "--size-wl", "0.5", "--snr-db", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["n_ports", "exact", "approx", "upper_bound"]
        exact = [float(r[1]) for r in rows]
        assert len(exact) == 30
        assert all(a >= b - 1e-12 for a, b in zip(exact, exact[1:]))

    def test_exact_outage_below_the_smallest_double_reads_zero(self, capsys):
        # the model's outage at N = 10,000, W = 5, 0 dB is 10^-1843: its
        # clamp from below once stuck at the subnormal 5e-324
        _, out = run_cli(capsys, "outage-curve", "--sweep-n=10000:10000:1",
                         "--size-wl", "5", "--snr-db", "0")
        header, rows = parse_csv(out)
        assert rows[0][header.index("exact")] == "0.0"

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

    @pytest.mark.parametrize("snr_db, warned", [(-8.0, True), (0.0, False)])
    def test_warns_of_a_trial_plan_far_above_trials(self, snr_db, warned,
                                                    caplog, monkeypatch):
        # a point of --sweep-snr-db=-10:5:1 --n-ports 8 --size-wl 1
        # --trials 100000; at -8 dB the plan is 140,604,982 trials
        monkeypatch.setattr(mc, "mc_outage_fas", lambda config, settings:
                            mc.McEstimate(0.5, 0.0, settings.trials))
        config = FasConfig(n_ports=8, size_wavelengths=1.0,
                           snr_ratio=db_to_linear(snr_db))
        settings = mc.McSettings(trials=100_000, seed=42)
        with caplog.at_level(logging.WARNING, logger="fas"):
            cli._mc_columns(config, outage_exact(config), settings)
        records = [r for r in caplog.records if r.name == "fas"]
        if not warned:
            assert records == []
            return
        assert [r.levelno for r in records] == [logging.WARNING]
        assert records[0].getMessage() == (
            "Monte Carlo at n_ports=8 size_wl=1 snr_db=-8 plans 140604982 "
            "trials, 1406x --trials 100000")

    def test_plan_warning_goes_to_stderr_only(self, capsys):
        # -5 dB at N = 8, W = 1 plans 1,308,946 trials for --trials 1000
        argv = ["outage-curve", "--sweep-snr-db=-5:-5:1", "--n-ports", "8",
                "--size-wl", "1", "--trials", "1000"]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "fas.cli", *argv],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0
        assert run.stderr == ("Monte Carlo at n_ports=8 size_wl=1 snr_db=-5 "
                              "plans 1308946 trials, 1309x --trials 1000\n")
        _, out = run_cli(capsys, *argv)
        assert run.stdout == out

    def test_skip_warning_goes_to_stderr_only(self, capsys):
        # -10 dB at N = 8, W = 1 (exact 2.5e-8) needs 4e9 trials, above the
        # cap: the mc cells stay empty, and stderr says why
        argv = ["outage-curve", "--sweep-snr-db=-10:-10:1", "--n-ports", "8",
                "--size-wl", "1", "--trials", "100000"]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "fas.cli", *argv],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0
        assert run.stderr == ("Monte Carlo at n_ports=8 size_wl=1 snr_db=-10 "
                              "skipped: analytic p 2.51e-08 needs over "
                              "1000000000 trials\n")
        _, out = run_cli(capsys, *argv)
        assert run.stdout == out
        _, rows = parse_csv(out)
        assert rows[-1][-2:] == ["", ""]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:3:1",
                            "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().count("\n") >= 4

    @pytest.mark.parametrize("size_wl", ["0.02", "0.5"])
    def test_two_port_approx_in_the_deep_tail(self, size_wl, capsys):
        # N = 2 takes the two-port series here: the Marcum form read
        # -1.4e-34 at W = 0.02 and -200 dB, and -1.2e-32 at W = 0.5 and
        # -160 dB
        code, out = run_cli(capsys, "outage-curve",
                            "--sweep-snr-db=-200:-140:20", "--n-ports", "2",
                            "--size-wl", size_wl)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            exact, approx = float(row[1]), float(row[2])
            assert approx == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_two_port_approx_at_subnormal_snr(self, capsys):
        # the outage, about x^2, rounds to 0 at x = 1e-310; the Marcum form
        # read -1e-323 at N = 2.  N = 3 keeps the sum form, which cancels
        code, out = run_cli(capsys, "outage-curve", "--sweep-n", "1:3:1",
                            "--snr-db=-3100")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[:3] for row in rows[1:2]] == [["2", "0.0", "0.0"]]


class TestBoundsCompare:
    @pytest.mark.parametrize("sweep", [["--sweep-n", "1:12:1"],
                                       ["--sweep-w", "0.1:2:0.3"],
                                       ["--sweep-snr-db=-20:10:5"]])
    def test_shares_outage_cells_with_outage_curve(self, sweep, capsys):
        # one sweep, two commands: exact, approx and upper_bound text-equal
        def cells(*argv):
            header, rows = parse_csv(run_cli(capsys, *argv, *sweep,
                                             "--size-wl", "0.7")[1])
            return [row[:4] for row in rows], header[:4]
        curve = cells("outage-curve")
        assert curve == cells("bounds-compare", "--mrc-l", "3")
        assert curve[1][1:] == ["exact", "approx", "upper_bound"]
        assert len(curve[0]) >= 7

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

    def test_tiny_mu_star_answers(self, capsys):
        # mu* = 9.5e-5 puts d* some 1.1e7 wavelengths out; the envelope
        # inverse once raised a RuntimeError here, at a 729 MB peak
        code, out = run_cli(capsys, "design", "--n-ports", "10",
                            "--mrc-l", "2", "--snr-db=-3.628039843778")
        assert code == 0
        answer = json.loads(out)["results"]["required_mu"]["value"]
        mu_star = float(answer["mu_star"])
        assert mu_star == pytest.approx(9.5e-5, rel=0.01)
        # d* = eps* / (2 pi), with eps* within an arc of 2 / (pi mu*^2)
        assert float(answer["d_star_wl"]) == pytest.approx(
            1.0 / (math.pi * mu_star) ** 2, rel=1e-6)

    @pytest.mark.parametrize("n, key, want", [
        ("9", "required_mu", {"mu_star": "0.0", "d_star_wl": "inf"}),
        ("18", "min_size_wl", "inf")])
    def test_zero_mu_star_reports_an_infinite_size(self, capsys, n, key,
                                                   want):
        # mu* = 0 once ended in "target must be positive" and status 2
        code, out = run_cli(capsys, "design", "--n-ports", n, "--mrc-l", "2",
                            "--snr-db=-5.616559818940315")
        assert code == 0
        assert json.loads(out)["results"][key] == {
            "value": want, "feasible": True, "guard_report": ""}

    def test_infeasible_is_exit_zero(self, capsys):
        code, out = run_cli(capsys, "design", "--n-ports", "4",
                            "--mrc-l", "8", "--snr-db", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_size_wl"]["feasible"] is False
        assert doc["guards"]

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_fewer_than_four_ports_reports_the_size_guard(self, capsys, n):
        code, out = run_cli(capsys, "design", "--n-ports", n, "--mrc-l", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["min_size_wl"] == {
            "value": None, "feasible": False,
            "guard_report": design.GUARD_TOO_FEW_PORTS}
        assert design.GUARD_TOO_FEW_PORTS in doc["guards"]

    def test_four_ports_document(self, capsys):
        code, out = run_cli(capsys, "design", "--n-ports", "4", "--mrc-l", "2")
        assert code == 0
        assert json.loads(out) == {
            "config": {"kappa": 2.0, "mrc_l": 2, "n_ports": 4,
                       "size_wl": None, "snr_db": 0.0},
            "guards": [design.GUARD_LOG_NEGATIVE, design.GUARD_COMPLEX_MU],
            "results": {
                "min_size_wl": {"feasible": False, "value": None,
                                "guard_report": design.GUARD_LOG_NEGATIVE},
                "required_mu": {"feasible": False, "value": None,
                                "guard_report": design.GUARD_COMPLEX_MU}},
            "version": __version__}

    def test_size_query(self, capsys):
        code, out = run_cli(capsys, "design", "--size-wl", "5.0",
                            "--mrc-l", "2", "--snr-db", "0")
        assert code == 0
        doc = json.loads(out)
        answer = doc["results"]["min_ports"]
        assert answer["feasible"] is True
        assert answer["value"] >= 2

    def test_single_branch_reference(self, capsys):
        code, out = run_cli(capsys, "design", "--n-ports", "10",
                            "--mrc-l", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["required_mu"]["value"] == {
            "mu_star": "1.0", "d_star_wl": "0.0"}
        assert doc["results"]["min_size_wl"]["value"] == "0.0"

    @pytest.mark.parametrize("snr_db", ["-30", "-20", "-10", "0", "5"])
    def test_single_branch_size_query_needs_two_ports(self, capsys, snr_db):
        # -20 and -10 dB once answered 1, where P(1, x) rounds an ulp above
        # the single-port outage
        code, out = run_cli(capsys, "design", "--size-wl", "0.5",
                            "--mrc-l", "1", f"--snr-db={snr_db}")
        assert code == 0
        assert json.loads(out)["results"]["min_ports"]["value"] == 2

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

    def test_cells_are_shortest_round_trip_of_trace(self, tmp_path, capsys):
        argv = ["envelope", "--n-ports", "3", "--size-wl", "1.5",
                "--duration-s", "0.3", "--rate-hz", "500", "--scatterers", "16",
                "--seed", "5"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        config = FasConfig(n_ports=3, size_wavelengths=1.5, snr_ratio=1.0)
        doppler = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                                     duration_s=0.3, sample_rate_hz=500.0,
                                     n_scatterers=16)
        want = np.concatenate([block.copy() for block in envelope_trace(
            config, doppler, np.random.Generator(np.random.Philox(5)))])
        lines = out.splitlines()
        assert lines[:4] == [
            f"# fas {__version__} envelope trace",
            "# n_ports=3 size_wl=1.5 freq_ghz=5.0 speed_kmh=30.0 "
            "duration_s=0.3 rate_hz=500.0 scatterers=16 mrc_l=2",
            "# seed=5",
            "t_norm,port_1_db,port_2_db,port_3_db,fas_db,mrc_db",
        ]
        cells = [line.split(",") for line in lines[4:]]
        assert len(cells) == 150
        assert cells == [[repr(float(v)) for v in row] for row in want]
        path = tmp_path / "trace.csv"
        path.write_text(out)
        got = np.loadtxt(path, delimiter=",", skiprows=4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("flag, a, b", [("--duration-s", "0.05", "0.06"),
                                            ("--scatterers", "16", "32")])
    def test_comments_name_every_trace_flag(self, flag, a, b, capsys):
        # two traces that differ in one flag must say so in their comments
        def comments(value):
            _, out = run_cli(capsys, "envelope", "--n-ports", "2", flag, value)
            return [l for l in out.splitlines() if l.startswith("#")]
        assert comments(a) != comments(b)

    @staticmethod
    def traced_peak(argv):
        # numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_default_trace_memory_stays_bounded(self, tmp_path):
        # the trace streams through one ~8 MB row buffer; a second table
        # alive at once, or a (T, N) complex array of gains, adds 8-16 MB
        peak = self.traced_peak(["envelope", "--out", str(tmp_path / "t.csv")])
        assert peak <= 12 * 2**20

    def test_trace_memory_does_not_grow_with_duration(self, tmp_path):
        # 40 s is four chunks of the 100-port trace, 10 s is one
        out = ["--out", str(tmp_path / "t.csv")]
        short = self.traced_peak(["envelope", "--duration-s", "10"] + out)
        long = self.traced_peak(["envelope", "--duration-s", "40"] + out)
        assert long <= short + 2**20

    def test_nyquist_violation_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--rate-hz", "10"])
        assert exc.value.code == 2


# Cells where orjson's notation departs from repr, or sits next to where it
# does: signed zeros, non-finite values, subnormals and both sides of 1e-4
# and 1e16.
_EDGE_CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308,
               1e-5, 1e15, 1e22]
_EDGE_CELLS += [x for edge in (1e-4, 1e16)
                for x in (math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, math.inf))]
_EDGE_CELLS += [-v for v in _EDGE_CELLS]
_ROWS = st.one_of(st.integers(1, 4),
                  st.sampled_from([cli._ROW_BLOCK - 1, cli._ROW_BLOCK,
                                   cli._ROW_BLOCK + 1]))
_CELLS = st.one_of(st.sampled_from(_EDGE_CELLS),
                   st.floats(width=64),
                   st.floats(min_value=1e-4, max_value=1e16,
                             exclude_max=True),
                   st.floats(min_value=-1e16, max_value=-1e-4,
                             exclude_min=True))


class TestFloatRowWriter:
    """`cli._write_float_rows`, the envelope writer: orjson blocks with a
    repr fallback must print every cell exactly as repr does."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(hnp.arrays(np.float64, st.tuples(_ROWS, st.integers(1, 6)),
                      elements=_CELLS))
    @example(np.array([_EDGE_CELLS]))
    @example(np.array(_EDGE_CELLS).reshape(-1, 1))
    def test_text_is_repr_of_every_cell(self, table):
        out = io.StringIO()
        cli._write_float_rows(out, table)
        assert out.getvalue() == "".join(
            ",".join(map(repr, row.tolist())) + "\n" for row in table)


class TestValidate:
    def test_quick_grid_passes(self, capsys):
        code, out = run_cli(capsys, "validate", "--grid", "quick",
                            "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True

    def test_negative_control_fails(self, capsys, monkeypatch):
        # a Marcum Q 1e-6 too high; the identity is linear in Q1, so a
        # scaling fault would pass it
        real = validation.marcum_q1
        monkeypatch.setattr(validation, "marcum_q1",
                            lambda a, b: real(a, b) + 1e-6)
        code, out = run_cli(capsys, "validate", "--grid", "quick",
                            "--trials", "20000")
        assert code == 1
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert doc["results"]["marcum_specials"]["pass"] is False
        assert doc["results"]["marcum_integral_identity"]["pass"] is False

    def test_byte_identical_reports(self, capsys):
        _, first = run_cli(capsys, "validate", "--trials", "20000",
                           "--seed", "9")
        _, second = run_cli(capsys, "validate", "--trials", "20000",
                            "--seed", "9")
        assert first == second
