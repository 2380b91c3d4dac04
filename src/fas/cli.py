"""Command-line surface: reproducible sweeps, design queries, fading traces,
and the self-validation suite.

Conventions: SNR flags are in dB and converted once at this boundary; sweep
output is CSV with '#' provenance comments; single answers and validation
reports are JSON.  Exit status 0 means success (including infeasible design
answers), 1 means a validation failure, 2 a usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence, TextIO

import numpy as np

from . import analytic, bounds, design, mc
from .channel import DopplerTraceConfig, FasConfig, envelope_trace
from .validation import VERSION, GRID_PRESETS, ValidationSettings, run_validation


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(out: TextIO, comments: list[str], header: list[str],
               rows: list[list]) -> None:
    for line in comments:
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_range(text: str, integer: bool):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        if integer:
            start, stop, step = (int(p) for p in parts)
        else:
            start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("need start <= stop and step > 0")
    if integer:
        return list(range(start, stop + 1, step))
    values = np.arange(start, stop + step * 0.5, step)
    return [float(v) for v in values]


def _int_range(text: str):
    return _parse_range(text, integer=True)


def _float_range(text: str):
    return _parse_range(text, integer=False)


def _mrc_list(text: str):
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("branch counts must be integers >= 1")
    return values


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _mc_trials(text: str) -> int:
    return _int_at_least(text, mc.MIN_TRIALS)


def _trials(text: str) -> int:
    """0 disables Monte Carlo; any other count must meet McSettings' floor."""
    if _int_at_least(text, 0) == 0:
        return 0
    return _mc_trials(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _kappa(text: str) -> float:
    try:
        return bounds.bound_constants(float(text)).kappa
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_SWEEP_HELP = ("start:stop:step; a negative start needs the = form, "
               "e.g. --sweep-snr-db=-20:10:1")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=_positive_int, default=1)
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w"), True


def _sweep_points(args, parser) -> tuple[str, list]:
    chosen = [(name, values) for name, values in
              [("n_ports", args.sweep_n), ("size_wl", args.sweep_w),
               ("snr_db", args.sweep_snr_db)] if values is not None]
    if len(chosen) != 1:
        parser.error("exactly one of --sweep-n / --sweep-w / --sweep-snr-db is required")
    name, values = chosen[0]
    if not values:
        parser.error("sweep value list is empty")
    # ranges ascend, so the start is the smallest value
    if name == "n_ports" and values[0] < 1:
        parser.error("--sweep-n values must be >= 1")
    if name == "size_wl" and not values[0] > 0:
        parser.error("--sweep-w values must be > 0")
    return name, values


def _sweep_config(variable: str, value, args) -> FasConfig:
    n = args.n_ports
    w = args.size_wl
    x = analytic.db_to_linear(args.snr_db)
    if variable == "n_ports":
        n = int(value)
    elif variable == "size_wl":
        w = float(value)
    else:
        x = analytic.db_to_linear(float(value))
    return FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=x)


def _mc_columns(config: FasConfig, exact: float, args) -> tuple:
    if args.trials <= 0:
        return None, None
    planned = mc.plan_trials(exact, args.trials)
    if planned is None:
        return None, None  # MC skipped, analytic only
    est = mc.mc_outage_fas(config, mc.McSettings(
        trials=planned, seed=args.seed, workers=args.workers))
    return est.p_hat, est.half_width_95


def cmd_outage_curve(args, parser) -> int:
    variable, values = _sweep_points(args, parser)
    constants = bounds.bound_constants(args.kappa)
    rows = []
    for value in values:
        config = _sweep_config(variable, value, args)
        exact = analytic.outage_exact(config)
        approx = analytic.outage_approx(config)
        ub = bounds.outage_upper_bound(config, constants)
        mc_p, mc_ci = _mc_columns(config, exact, args)
        rows.append([value, exact, approx, ub, mc_p, mc_ci])
    out, close = _open_out(args.out)
    try:
        _write_csv(out, [
            f"fas {VERSION} outage-curve",
            f"sweep={variable} fixed: n_ports={args.n_ports} size_wl={args.size_wl} "
            f"snr_db={args.snr_db} kappa={args.kappa}",
            f"seed={args.seed} trials={args.trials} workers={args.workers}",
        ], [variable, "exact", "approx", "upper_bound", "mc", "mc_ci"], rows)
    finally:
        if close:
            out.close()
    return 0


def cmd_bounds_compare(args, parser) -> int:
    variable, values = _sweep_points(args, parser)
    constants = bounds.bound_constants(args.kappa)
    mrc_levels = {}
    rows = []
    for value in values:
        config = _sweep_config(variable, value, args)
        for branches in args.mrc_l:
            mrc_levels[branches] = analytic.outage_mrc(branches, config.snr_ratio)
        exact = analytic.outage_exact(config)
        approx = analytic.outage_approx(config)
        ub = bounds.outage_upper_bound(config, constants)
        row = [value, exact, approx, ub, 1 if approx < 0 else 0]
        row.extend(mrc_levels[branches] for branches in args.mrc_l)
        rows.append(row)
    header = [variable, "exact", "approx", "upper_bound", "approx_out_of_regime"]
    header.extend(f"mrc_{branches}" for branches in args.mrc_l)
    out, close = _open_out(args.out)
    try:
        _write_csv(out, [
            f"fas {VERSION} bounds-compare",
            f"sweep={variable} fixed: n_ports={args.n_ports} size_wl={args.size_wl} "
            f"snr_db={args.snr_db} kappa={args.kappa} mrc_l={args.mrc_l}",
            f"seed={args.seed}",
        ], header, rows)
    finally:
        if close:
            out.close()
    return 0


def _design_json(args, results: dict, guards: list[str]) -> str:
    doc = {
        "config": {"mrc_l": args.mrc_l, "snr_db": args.snr_db,
                   "kappa": args.kappa, "n_ports": args.n_ports,
                   "size_wl": args.size_wl},
        "results": results,
        "guards": guards,
        "version": VERSION,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _answer_dict(answer: design.DesignAnswer) -> dict:
    value = answer.value
    if isinstance(value, design.MuSizeResult):
        value = {"mu_star": repr(value.mu_star),
                 "d_star_wl": repr(value.d_star_wavelengths)}
    elif isinstance(value, float):
        value = repr(value)
    return {"value": value, "feasible": answer.feasible,
            "guard_report": answer.guard_report}


def cmd_design(args, parser) -> int:
    constants = bounds.bound_constants(args.kappa)
    x = analytic.db_to_linear(args.snr_db)
    query = design.DesignQuery(mrc_branches=args.mrc_l, snr_ratio=x,
                               constants=constants, n_ports=args.n_ports,
                               size_wavelengths=args.size_wl)
    guards: list[str] = []
    if args.sweep_n is not None:
        rows = []
        for n, answer in design.min_size_frontier(query, args.sweep_n):
            if answer.feasible:
                rows.append([n, answer.value, 1, ""])
            else:
                rows.append([n, None, 0, answer.guard_report])
        out, close = _open_out(args.out)
        try:
            _write_csv(out, [
                f"fas {VERSION} design frontier",
                f"mrc_l={args.mrc_l} snr_db={args.snr_db} kappa={args.kappa}",
            ], ["n_ports", "w_min", "feasible", "guard"], rows)
        finally:
            if close:
                out.close()
        return 0

    results: dict = {}
    if args.n_ports is not None:
        if args.n_ports >= 4:
            answer = design.min_size(query)
            results["min_size_wl"] = _answer_dict(answer)
            if not answer.feasible:
                guards.append(answer.guard_report)
        if args.n_ports >= 2:
            answer = design.required_mu_and_size(query)
            results["required_mu"] = _answer_dict(answer)
            if not answer.feasible:
                guards.append(answer.guard_report)
    elif args.size_wl is not None:
        answer = _min_ports_for_size(args.size_wl, query)
        results["min_ports"] = _answer_dict(answer)
        if not answer.feasible:
            guards.append(answer.guard_report)
    else:
        parser.error("design needs --n-ports, --size-wl, or --sweep-n")
    text = _design_json(args, results, guards)
    out, close = _open_out(args.out)
    try:
        out.write(text + "\n")
    finally:
        if close:
            out.close()
    return 0


def _min_ports_for_size(size_wl: float, query: design.DesignQuery,
                        n_max: int = 2000) -> design.DesignAnswer:
    """Smallest N whose geometry-derived bound at this aperture beats MRC.

    The profile changes with N (ports pack denser), so this scans N instead
    of consuming a fixed profile prefix.
    """
    target = analytic.outage_mrc(query.mrc_branches, query.snr_ratio)
    for n in range(1, n_max + 1):
        config = FasConfig(n_ports=n, size_wavelengths=size_wl,
                           snr_ratio=query.snr_ratio)
        if bounds.outage_upper_bound(config, query.constants) < target:
            return design.DesignAnswer(value=n, feasible=True)
    return design.DesignAnswer(value=None, feasible=False,
                               guard_report=design.GUARD_N_EXHAUSTED)


def cmd_envelope(args, parser) -> int:
    config = FasConfig(n_ports=args.n_ports, size_wavelengths=args.size_wl,
                       snr_ratio=1.0)
    try:
        doppler = DopplerTraceConfig(
            speed_mps=args.speed_kmh / 3.6,
            carrier_hz=args.freq_ghz * 1e9,
            duration_s=args.duration_s,
            sample_rate_hz=args.rate_hz,
            n_scatterers=args.scatterers)
    except ValueError as exc:
        parser.error(str(exc))
    rng = np.random.Generator(np.random.Philox(args.seed))
    trace = envelope_trace(config, doppler, rng, mrc_branches=args.mrc_l)
    header = ["t_norm"] + [f"port_{k + 1}_db" for k in range(args.n_ports)]
    header += ["fas_db", "mrc_db"]
    rows = [
        [trace.t_norm[i], *trace.port_db[i], trace.fas_db[i], trace.mrc_db[i]]
        for i in range(trace.t_norm.size)
    ]
    out, close = _open_out(args.out)
    try:
        _write_csv(out, [
            f"fas {VERSION} envelope trace",
            f"n_ports={args.n_ports} size_wl={args.size_wl} freq_ghz={args.freq_ghz} "
            f"speed_kmh={args.speed_kmh} rate_hz={args.rate_hz} mrc_l={args.mrc_l}",
            f"seed={args.seed}",
        ], header, rows)
    finally:
        if close:
            out.close()
    return 0


def cmd_validate(args, parser) -> int:
    settings = ValidationSettings(grid=args.grid, trials=args.trials,
                                  seed=args.seed, workers=args.workers,
                                  quad_abs_tol=args.quad_abs_tol)
    report = run_validation(settings)
    text = json.dumps(report, indent=2, sort_keys=True)
    out, close = _open_out(args.out)
    try:
        out.write(text + "\n")
    finally:
        if close:
            out.close()
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fas",
        description="Outage analysis and design tools for N-port "
                    "position-switching antennas over correlated Rayleigh fading")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outage-curve", help="exact/approx/bound outage sweep")
    p.add_argument("--n-ports", type=_positive_int, default=10)
    p.add_argument("--size-wl", type=_positive_float, default=0.5)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--kappa", type=_kappa, default=bounds.DEFAULT_KAPPA)
    p.add_argument("--trials", type=_trials, default=0,
                   help="MC trials per point, >= 1000 (0 disables MC)")
    p.add_argument("--sweep-n", type=_int_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    p.add_argument("--sweep-w", type=_float_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    p.add_argument("--sweep-snr-db", type=_float_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_outage_curve)

    p = sub.add_parser("bounds-compare", help="sweep with MRC reference levels")
    p.add_argument("--n-ports", type=_positive_int, default=10)
    p.add_argument("--size-wl", type=_positive_float, default=0.5)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--kappa", type=_kappa, default=bounds.DEFAULT_KAPPA)
    p.add_argument("--mrc-l", type=_mrc_list, default=[2, 5, 8])
    p.add_argument("--sweep-n", type=_int_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    p.add_argument("--sweep-w", type=_float_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    p.add_argument("--sweep-snr-db", type=_float_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_bounds_compare)

    p = sub.add_parser("design", help="minimum N / minimum size solvers")
    p.add_argument("--mrc-l", type=_positive_int, default=2)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--kappa", type=_kappa, default=bounds.DEFAULT_KAPPA)
    p.add_argument("--n-ports", type=int, default=None)
    p.add_argument("--size-wl", type=_positive_float, default=None)
    p.add_argument("--sweep-n", type=_int_range, default=None, metavar="A:B:S",
                   help=_SWEEP_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("envelope", help="time-selective fading trace CSV")
    p.add_argument("--n-ports", type=_positive_int, default=100)
    p.add_argument("--size-wl", type=_positive_float, default=2.0)
    p.add_argument("--freq-ghz", type=float, default=5.0)
    p.add_argument("--speed-kmh", type=float, default=30.0)
    p.add_argument("--duration-s", type=float, default=10.0)
    p.add_argument("--rate-hz", type=float, default=1000.0)
    p.add_argument("--scatterers", type=int, default=64)
    p.add_argument("--mrc-l", type=_positive_int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--grid", choices=sorted(GRID_PRESETS), default="quick")
    p.add_argument("--trials", type=_mc_trials, default=200_000)
    p.add_argument("--quad-abs-tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
