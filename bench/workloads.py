"""The benchmark's workloads: fixed lists of `fas` CLI commands.

A round runs one workload's list once; `rounds` fixes how many rounds a run
makes from its length in seconds, so a run always does the same work.  Each
op writes to its own file, which its check reads back.  The seed is passed
to every op as `--seed`: it drives the Monte-Carlo draws and the trace's
sum-of-sinusoids phases, and it orders the ops of the curves and design
rounds.  Their analytic inputs stay fixed, since a 1% change of the
aperture made one sweep's adaptive quadrature up to 50% costlier.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as o

# Rough untraced wall time of one round on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4, scipy 1.17); only sets the number of rounds.
ROUND_SECONDS = {"curves": 3.0, "design": 3.2, "montecarlo": 2.3, "trace": 5.8}
NAMES = tuple(ROUND_SECONDS)


@dataclass
class Op:
    argv: list            # `fas` arguments, without --out
    out: Path             # the op's output file
    check: Callable       # (output path) -> list of problems

    @property
    def command(self) -> str:
        return self.argv[0]


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _fmt(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _values(start: float, stop: float, step: float) -> tuple:
    return tuple(float(v) for v in np.arange(start, stop + 0.5 * step, step))


class _OpList:
    def __init__(self, outdir: Path, suffix: str):
        self.ops: list[Op] = []
        self.outdir = outdir
        self.suffix = suffix

    def add(self, argv: list, check: Callable, suffix: str = None) -> Op:
        out = self.outdir / f"{len(self.ops):02d}.{suffix or self.suffix}"
        op = Op(argv, out, check)
        self.ops.append(op)
        return op


def _sweep_op(b: _OpList, command: str, sweep: o.Sweep, extra=()) -> None:
    flag = {"n_ports": "--sweep-n", "size_wl": "--sweep-w",
            "snr_db": "--sweep-snr-db"}[sweep.variable]
    lo, hi = sweep.values[0], sweep.values[-1]
    step = sweep.values[1] - sweep.values[0] if len(sweep.values) > 1 else 1
    text = (f"{lo}:{hi}:{step}" if sweep.variable == "n_ports"
            else f"{_fmt(lo)}:{_fmt(hi)}:{_fmt(step)}")
    argv = [command, f"{flag}={text}", "--n-ports", str(sweep.n_ports),
            "--size-wl", repr(sweep.size_wl), "--snr-db", repr(sweep.snr_db),
            "--kappa", repr(sweep.kappa)]
    if sweep.mrc_l:
        argv += ["--mrc-l", ",".join(str(v) for v in sweep.mrc_l)]
    if sweep.trials:
        argv += ["--trials", str(sweep.trials)]
    argv += list(extra)
    b.add(argv, lambda path: o.check_curve(path, sweep, command))


def _shuffled(ops: list, seed: int) -> list:
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def curves(seed: int, outdir: Path) -> list:
    """The paper's figures with Monte Carlo off: N sweeps up to 100 at
    W = 0.2..5, MRC levels 2/5/8, and SNR sweeps down to -20 dB."""
    b = _OpList(outdir, "csv")
    seed_arg = ["--seed", str(seed)]

    def n_sweep(command, start, stop, step, w, mrc=()):
        sweep = o.Sweep("n_ports", tuple(range(start, stop + 1, step)), 10, w,
                        0.0, mrc_l=mrc)
        _sweep_op(b, command, sweep, seed_arg)

    n_sweep("outage-curve", 5, 100, 5, 0.5)
    for w in (0.2, 1.0, 5.0):
        n_sweep("outage-curve", 20, 100, 40, w)
    for w in (1.0, 5.0):
        n_sweep("bounds-compare", 5, 100, 19, w, (2, 5, 8))
    for n in (5, 20):
        sweep = o.Sweep("snr_db", _values(-20.0, 10.0, 5.0), n, 1.0, 0.0)
        _sweep_op(b, "outage-curve", sweep, seed_arg)
    # deep tail: N = 100, W = 0.5 reaches about 1e-164 at -20 dB
    sweep = o.Sweep("snr_db", _values(-20.0, 10.0, 5.0), 100, 0.5, 0.0,
                    mrc_l=(2, 5, 8))
    _sweep_op(b, "bounds-compare", sweep, seed_arg)
    sweep = o.Sweep("size_wl", _values(0.2, 5.0, 1.2), 20, 0.5, 0.0)
    _sweep_op(b, "outage-curve", sweep, seed_arg)
    return _shuffled(b.ops, seed)


# (W, L) pairs of the aperture-to-N question: W = 0.2 with L = 4 needs
# N = 1659; W = 0.01 has no N <= 2000, so its scan runs to the end.
SIZE_QUERIES = ((5.0, 2), (5.0, 4), (5.0, 8), (2.0, 2), (2.0, 4), (2.0, 8),
                (1.0, 2), (1.0, 4), (1.0, 8), (0.5, 2), (0.5, 4), (0.5, 8),
                (0.2, 2), (0.2, 4), (0.01, 2))


def design(seed: int, outdir: Path) -> list:
    """The paper's design questions: minimum N for an aperture, the
    minimum-size frontier, and the required mu*/d* for a port count."""
    b = _OpList(outdir, "json")
    common = ["--snr-db", "0.0", "--kappa", "2.0", "--seed", str(seed)]
    for w, l in SIZE_QUERIES:
        spec = o.DesignSpec(l, 0.0)
        b.add(["design", "--size-wl", repr(w), "--mrc-l", str(l)] + common,
              lambda path, w=w, spec=spec: o.check_design_json(path, spec, w, None))
    n_values = tuple(range(4, 201, 4))
    for l in (2, 4, 8):
        spec = o.DesignSpec(l, 0.0)
        b.add(["design", "--sweep-n", "4:200:4", "--mrc-l", str(l)] + common,
              lambda path, spec=spec: o.check_frontier(path, spec, n_values), "csv")
    for n in (10, 30, 100):
        for l in (2, 4, 8):
            spec = o.DesignSpec(l, 0.0)
            b.add(["design", "--n-ports", str(n), "--mrc-l", str(l)] + common,
                  lambda path, n=n, spec=spec: o.check_design_json(path, spec, None, n))
    return _shuffled(b.ops, seed)


def montecarlo(seed: int, outdir: Path) -> list:
    """Monte-Carlo columns at N = 1 (cheap trials, per-chunk overhead) and
    around N = 20 (bound by the draws), plus the quick validation grid run
    twice for byte-identical reports."""
    b = _OpList(outdir, "csv")
    mc = ["--seed", str(seed), "--workers", "1"]
    for snr in (-10.0, 0.0):
        sweep = o.Sweep("n_ports", (1,), 1, 0.5, snr, trials=2_000_000)
        _sweep_op(b, "outage-curve", sweep, mc)
    sweep = o.Sweep("n_ports", (18, 20, 22), 20, 2.0, 3.0, trials=100_000)
    _sweep_op(b, "outage-curve", sweep, mc)
    sweep = o.Sweep("n_ports", (20,), 20, 1.0, 0.0, trials=200_000)
    _sweep_op(b, "outage-curve", sweep, mc)
    # validate's 3-sigma grid check fails on some seeds (87, 101, 441 and 553
    # of 0..599 at 50,000 trials), so it keeps the CLI's default seed
    validate = ["validate", "--grid", "quick", "--trials", "50000",
                "--seed", "42", "--workers", "1"]
    first = b.add(validate, o.check_validate, "json")
    b.add(validate, lambda path: (o.check_validate(path)
                                  + o.check_identical(path, first.out)), "json")
    return b.ops


# The default trace (100 ports x 10,000 samples, 204 sum-of-sinusoids
# processes) is mostly compute; the long 4-port trace with 16 scatterers is
# mostly CSV output.  Mean powers stayed within 2% (ports) and 4.2% (MRC)
# of their expectation over seeds 0..39 (default) and 0..199 (long trace).
TRACES = (
    o.TraceSpec(n_ports=100, size_wl=2.0, duration_s=10.0, rate_hz=1000.0,
                freq_ghz=5.0, speed_kmh=30.0, mrc_l=2, power_rel_tol=0.1),
    o.TraceSpec(n_ports=4, size_wl=2.0, duration_s=60.0, rate_hz=1000.0,
                freq_ghz=5.0, speed_kmh=30.0, mrc_l=2, power_rel_tol=0.1),
)
TRACE_SCATTERERS = (64, 16)


def trace(seed: int, outdir: Path) -> list:
    """`fas envelope` two ways: the default trace and a long few-port one."""
    b = _OpList(outdir, "csv")
    for spec, scatterers in zip(TRACES, TRACE_SCATTERERS):
        argv = ["envelope", "--n-ports", str(spec.n_ports),
                "--size-wl", repr(spec.size_wl), "--freq-ghz", repr(spec.freq_ghz),
                "--speed-kmh", repr(spec.speed_kmh),
                "--duration-s", repr(spec.duration_s), "--rate-hz", repr(spec.rate_hz),
                "--scatterers", str(scatterers), "--mrc-l", str(spec.mrc_l),
                "--seed", str(seed)]
        b.add(argv, lambda path, spec=spec: o.check_trace(path, spec))
    return b.ops


_WORKLOADS = {"curves": curves, "design": design, "montecarlo": montecarlo,
            "trace": trace}


def build(workload: str, seed: int, outdir: Path) -> list:
    return _WORKLOADS[workload](seed, outdir)
