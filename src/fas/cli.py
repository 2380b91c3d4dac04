"""Command-line surface: reproducible sweeps, design queries, fading traces,
and the self-validation suite.

Conventions: SNR flags are in dB and converted once at this boundary; sweep
output is CSV with '#' provenance comments; single answers and validation
reports are JSON.  Exit status 0 means success (including infeasible design
answers), 1 a validation failure or an exact outage that could not be
evaluated (nothing is written), 2 a usage error: a bad flag or any library
ValueError after parsing.  Each numeric flag is checked by the library rule
it feeds; the CLI's own rules are SNR flags' dB conversion and the sweep cap.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import sys
from typing import Optional, Sequence, TextIO

import numpy as np
import orjson

from . import __version__, analytic, bounds, design, mc
from .channel import (DopplerTraceConfig, FasConfig, checked_count,
                      checked_nonnegative, checked_positive, checked_size,
                      envelope_trace)
from .validation import GRID_PRESETS, ValidationSettings, run_validation

_log = logging.getLogger("fas")

_ROW_BLOCK = 128  # rows per block of the envelope CSV writer
# Most points a sweep flag accepts: each costs an exact outage (about a
# millisecond), so a larger sweep is a typo whose list of points could
# exhaust memory.  The count is checked before any list is built.
_SWEEP_POINTS_MAX = 10 ** 6


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_head(out: TextIO, comments: list[str], header: list[str]) -> None:
    for line in comments:
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")


def _write_csv(out: TextIO, comments: list[str], header: list[str],
               rows: list[list]) -> None:
    _write_head(out, comments, header)
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _write_float_rows(out: TextIO, table: np.ndarray) -> None:
    """Write each row of a float64 table as a CSV line of `repr` texts.

    orjson prints the same shortest round-trip digits as `repr` (by Ryu) in
    a fraction of the time, one block of rows per call.  Its notation differs
    only outside 1e-4 <= |v| < 1e16 (`1e-5`, `1e16` where `repr` writes
    `1e-05`, `1e+16`) and for inf and nan (`null`); rows holding a nonzero
    cell there are formatted with `repr` instead.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    for start in range(0, len(table), _ROW_BLOCK):
        block = table[start:start + _ROW_BLOCK]
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        lines = text[2:-2].decode().split("],[")
        mag = np.abs(block)
        plain = (block == 0) | ((mag >= 1e-4) & (mag < 1e16))
        for i in np.flatnonzero(~plain.all(axis=1)):
            lines[i] = ",".join(map(repr, block[i].tolist()))
        out.write("\n".join(lines) + "\n")


def _parse_range(kind: type, first):
    """Type for a start:stop:step flag: the ascending list of `kind` values.
    The start and stop are parsed by the flag type `first`, which thereby
    checks the range of every value."""
    def start_stop_step(text: str) -> list:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:step, got {text!r}")
        try:
            step = kind(parts[2])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        start, stop = first(parts[0]), first(parts[1])
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need start <= stop and step > 0")
        count = (stop - start) // step + 1  # nan for an infinite span
        if not count <= _SWEEP_POINTS_MAX:
            raise argparse.ArgumentTypeError(
                f"must be at most {_SWEEP_POINTS_MAX} points, got {count:.0f}")
        if kind is int:
            return list(range(start, stop + 1, step))
        values = np.arange(start, stop + step * 0.5, step)
        if not values.size:  # stop + step / 2 rounds back to start
            raise argparse.ArgumentTypeError("sweep value list is empty")
        return [float(v) for v in values]
    return start_stop_step


def _checked(parse, check=lambda value: None):
    """Type for a flag whose text `parse` reads and whose value the library
    rule `check` takes: a ValueError from either is a usage error.  A flag
    without a check is checked by its command."""
    def flag_type(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    return flag_type


def _count(name: str, least: int = 1):
    return _checked(int, lambda n: checked_count(n, name, least))


def _positive(name: str):
    return _checked(float, lambda v: checked_positive(v, name))


def _check_snr_db(value: float) -> None:
    """An SNR in dB must have a linear ratio that is finite and > 0."""
    try:
        ratio = analytic.db_to_linear(value)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError("must be a dB value whose linear ratio is finite "
                         f"and > 0, got {value}")


_snr_db = _checked(float, _check_snr_db)
_size_wl = _checked(float, lambda v: checked_size(v, "size_wl"))
_kappa = _checked(float, bounds.bound_constants)
_mrc_l = _count("mrc_l")
# McSettings' worker rule at the most trials, 1..WORKERS_MAX; each command
# checks workers <= trials once it knows --trials
_workers = _checked(int, lambda n: mc.McSettings(mc.TRIALS_CAP, 0, n))


def _mrc_list(text: str):
    values = [_mrc_l(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of branch counts, got {text!r}")
    return values


_SWEEP_HELP = ("start:stop:step; a negative start needs the = form, "
               "e.g. --sweep-snr-db=-20:10:1")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    """The fixed point and the one swept variable of a sweep command."""
    parser.add_argument("--n-ports", type=_count("n_ports"), default=10)
    parser.add_argument("--size-wl", type=_size_wl, default=0.5)
    parser.add_argument("--snr-db", type=_snr_db, default=0.0)
    parser.add_argument("--kappa", type=_kappa, default=bounds.DEFAULT_KAPPA)
    sweep = parser.add_mutually_exclusive_group(required=True)
    for flag, kind, first in (("--sweep-n", int, _count("n_ports")),
                              ("--sweep-w", float, _size_wl),
                              ("--sweep-snr-db", float, _snr_db)):
        sweep.add_argument(flag, type=_parse_range(kind, first),
                           metavar="A:B:S", help=_SWEEP_HELP)


def _add_common(parser: argparse.ArgumentParser) -> None:
    # numpy seeds are nonnegative
    parser.add_argument("--seed", type=_count("seed", 0), default=42)
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """Stream for a command's output: stdout, or the file at `path`, which
    is closed on exit."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as out:
            yield out


def _sweep_config(variable: str, value, args) -> FasConfig:
    point = {"n_ports": args.n_ports, "size_wl": args.size_wl,
             "snr_db": args.snr_db, variable: value}
    return FasConfig(point["n_ports"], point["size_wl"],
                     analytic.db_to_linear(point["snr_db"]))


def _point(config: FasConfig) -> str:  # a sweep point, as stderr names it
    return "n_ports=%d size_wl=%g snr_db=%g" % (
        config.n_ports, config.size_wavelengths, 10 * math.log10(config.snr_ratio))


def _run_sweep(args, fixed: str, run: str, extra_header: list[str],
               extra_cells) -> int:
    """Exact, approximate and bound outage at each sweep point, as CSV, then
    the command's own `extra_cells(config, exact, approx)`; `fixed` ends the
    fixed-point comment and `run` is the last comment line."""
    # argparse admits exactly one swept variable
    variable, values = next((name, values) for name, values in
                            [("n_ports", args.sweep_n), ("size_wl", args.sweep_w),
                             ("snr_db", args.sweep_snr_db)] if values is not None)
    constants = bounds.bound_constants(args.kappa)
    rows = []
    for value in values:
        config = _sweep_config(variable, value, args)
        try:
            exact = analytic.outage_exact(config)
        except analytic.QuadratureError as exc:
            args.parser.exit(1, f"{args.parser.prog}: error: exact outage at "
                                f"{_point(config)}: {exc}\n")
        approx = analytic.outage_approx(config)
        ub = bounds.outage_upper_bound(config, constants)
        rows.append([value, exact, approx, ub,
                     *extra_cells(config, exact, approx)])
    with _output(args.out) as out:
        _write_csv(out, [
            f"fas {__version__} {args.command}",
            f"sweep={variable} fixed: n_ports={args.n_ports} size_wl={args.size_wl} "
            f"snr_db={args.snr_db} kappa={args.kappa}{fixed}",
            run,
        ], [variable, "exact", "approx", "upper_bound", *extra_header], rows)
    return 0


def _mc_columns(config: FasConfig, exact: float,
                settings: Optional[mc.McSettings]) -> tuple:
    if settings is None:
        return None, None  # MC off: analytic only
    planned = mc.plan_trials(exact, settings.trials)
    if planned is None:
        _log.warning("Monte Carlo at %s skipped: analytic p %.3g needs over "
                     "%d trials", _point(config), exact, mc.TRIALS_CAP)
        return None, None
    if planned > 10 * settings.trials:
        _log.warning("Monte Carlo at %s plans %d trials, %.0fx --trials %d",
                     _point(config), planned, planned / settings.trials,
                     settings.trials)
    est = mc.mc_outage_fas(config, dataclasses.replace(settings,
                                                       trials=planned))
    return est.p_hat, est.half_width_95


def cmd_outage_curve(args) -> int:
    # each point plans at least --trials trials, so a worker count these
    # settings take is taken at every point
    settings = (mc.McSettings(trials=args.trials, seed=args.seed,
                              workers=args.workers) if args.trials else None)
    return _run_sweep(
        args, "",
        f"seed={args.seed} trials={args.trials} workers={args.workers}",
        ["mc", "mc_ci"],
        lambda config, exact, approx: _mc_columns(config, exact, settings))


def cmd_bounds_compare(args) -> int:
    return _run_sweep(
        args, f" mrc_l={args.mrc_l}", f"seed={args.seed}",
        ["approx_out_of_regime", *(f"mrc_{b}" for b in args.mrc_l)],
        lambda config, exact, approx: [
            1 if approx < 0 else 0,
            *(analytic.outage_mrc(b, config.snr_ratio) for b in args.mrc_l)])


def _answer_dict(answer: design.DesignAnswer) -> dict:
    value = answer.value
    if isinstance(value, design.MuSizeResult):
        value = {"mu_star": repr(value.mu_star),
                 "d_star_wl": repr(value.d_star_wavelengths)}
    elif isinstance(value, float):
        value = repr(value)
    return {"value": value, "feasible": answer.feasible,
            "guard_report": answer.guard_report}


def cmd_design(args) -> int:
    constants = bounds.bound_constants(args.kappa)
    x = analytic.db_to_linear(args.snr_db)
    query = design.DesignQuery(mrc_branches=args.mrc_l, snr_ratio=x,
                               constants=constants)
    if args.sweep_n is not None:
        # an infeasible answer has no value, a feasible one no guard report
        rows = [[n, answer.value, int(answer.feasible), answer.guard_report]
                for n, answer in design.min_size_frontier(query, args.sweep_n)]
        with _output(args.out) as out:
            _write_csv(out, [
                f"fas {__version__} design frontier",
                f"mrc_l={args.mrc_l} snr_db={args.snr_db} kappa={args.kappa}",
            ], ["n_ports", "w_min", "feasible", "guard"], rows)
        return 0

    results: dict = {}
    if args.n_ports is not None:
        results["min_size_wl"] = _answer_dict(
            design.min_size(args.n_ports, query))
        results["required_mu"] = _answer_dict(
            design.required_mu_and_size(args.n_ports, query))
    else:
        results["min_ports"] = _answer_dict(
            design.min_ports_for_size(args.size_wl, query))
    doc = {
        "config": {"mrc_l": args.mrc_l, "snr_db": args.snr_db,
                   "kappa": args.kappa, "n_ports": args.n_ports,
                   "size_wl": args.size_wl},
        "results": results,
        "guards": [r["guard_report"] for r in results.values()
                   if not r["feasible"]],
        "version": __version__,
    }
    with _output(args.out) as out:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_envelope(args) -> int:
    config = FasConfig(n_ports=args.n_ports, size_wavelengths=args.size_wl,
                       snr_ratio=1.0)
    rng = np.random.Generator(np.random.Philox(args.seed))
    doppler = DopplerTraceConfig(
        speed_mps=args.speed_kmh / 3.6,
        carrier_hz=args.freq_ghz * 1e9,
        duration_s=args.duration_s,
        sample_rate_hz=args.rate_hz,
        n_scatterers=args.scatterers)
    blocks = envelope_trace(config, doppler, rng, mrc_branches=args.mrc_l)
    header = ["t_norm"] + [f"port_{k + 1}_db" for k in range(args.n_ports)]
    header += ["fas_db", "mrc_db"]
    with _output(args.out) as out:
        _write_head(out, [
            f"fas {__version__} envelope trace",
            f"n_ports={args.n_ports} size_wl={args.size_wl} freq_ghz={args.freq_ghz} "
            f"speed_kmh={args.speed_kmh} duration_s={args.duration_s} "
            f"rate_hz={args.rate_hz} scatterers={args.scatterers} mrc_l={args.mrc_l}",
            f"seed={args.seed}",
        ], header)
        for block in blocks:
            _write_float_rows(out, block)
    return 0


def cmd_validate(args) -> int:
    report = run_validation(ValidationSettings(args.grid, mc.McSettings(
        trials=args.trials, seed=args.seed, workers=args.workers)))
    text = json.dumps(report, indent=2, sort_keys=True)
    with _output(args.out) as out:
        out.write(text + "\n")
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fas",
        description="Outage analysis and design tools for N-port "
                    "position-switching antennas over correlated Rayleigh fading")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outage-curve", help="exact/approx/bound outage sweep")
    _add_sweep(p)
    # 0 turns Monte Carlo off; any other count is McSettings' to check
    p.add_argument("--trials",
                   type=_checked(int, lambda n: n and mc.McSettings(n, 0)),
                   default=0, help="MC trials per point, >= 1000 (0 disables MC)")
    # --workers only where Monte Carlo runs: outage-curve and validate
    p.add_argument("--workers", type=_workers, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_outage_curve, parser=p)

    p = sub.add_parser("bounds-compare", help="sweep with MRC reference levels")
    _add_sweep(p)
    p.add_argument("--mrc-l", type=_mrc_list, default=[2, 5, 8])
    _add_common(p)
    p.set_defaults(func=cmd_bounds_compare, parser=p)

    p = sub.add_parser("design", help="minimum N / minimum size solvers")
    p.add_argument("--mrc-l", type=_mrc_l, default=2)
    p.add_argument("--snr-db", type=_snr_db, default=0.0)
    p.add_argument("--kappa", type=_kappa, default=bounds.DEFAULT_KAPPA)
    query = p.add_mutually_exclusive_group(required=True)
    # no design solver answers for fewer than two ports
    query.add_argument("--n-ports", type=_count("n_ports", 2))
    query.add_argument("--size-wl", type=_size_wl)
    query.add_argument("--sweep-n",
                       type=_parse_range(int, _count("n_ports", 2)),
                       metavar="A:B:S", help=_SWEEP_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_design, parser=p)

    p = sub.add_parser("envelope", help="time-selective fading trace CSV")
    p.add_argument("--n-ports", type=_count("n_ports"), default=100)
    p.add_argument("--size-wl", type=_size_wl, default=2.0)
    p.add_argument("--freq-ghz", type=_positive("freq_ghz"), default=5.0)
    p.add_argument("--speed-kmh", type=_checked(
        float, lambda v: checked_nonnegative(v, "speed_kmh")), default=30.0)
    p.add_argument("--duration-s", type=_positive("duration_s"), default=10.0)
    p.add_argument("--rate-hz", type=_positive("rate_hz"), default=1000.0)
    p.add_argument("--scatterers", type=_count("scatterers", 8), default=64)
    p.add_argument("--mrc-l", type=_mrc_l, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_envelope, parser=p)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--grid", choices=sorted(GRID_PRESETS), default="quick")
    p.add_argument("--trials",
                   type=_checked(int, lambda n: mc.McSettings(n, 0)),
                   default=200_000)
    p.add_argument("--workers", type=_workers, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_validate, parser=p)

    return parser


# main's parser, built on first use: building the tree costs more than a
# small command.  Parsing leaves it as it was; no command mutates a default
# it reads from args (bounds-compare's --mrc-l list is shared by every call).
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    # args.parser is the subcommand's own parser, so that usage errors name
    # the subcommand; every command checks its settings before any output
    try:
        return args.func(args)
    except ValueError as exc:
        args.parser.error(str(exc))


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
