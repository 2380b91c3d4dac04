#!/usr/bin/env python3
"""Benchmark of the `fas` CLI, one workload per call.

    python3 bench/run.py --workload curves --seed 1 --seconds 15 --trace 0

Every op is one `fas` command, called in-process through `fas.cli.main`
with `--out` pointing into `bench/out/`, and every output is checked against
the independent oracles in `oracles.py` once the measured rounds are over.
The run is single-process and single-threaded.  The last line of stdout is a
JSON object: `{"correct", "attempted", "failed", "metrics"}`.  The metrics
and their units are the ones BENCHMARK.json declares: with `--trace 0` the
end-to-end ones; with `--trace 1` the per-layer ones from a traced round,
plus the tracing overhead against untraced rounds run alternately with
traced ones.  See bench/README.md.
"""
from __future__ import annotations

import os

# no BLAS/OpenMP worker threads: the benchmark runs in a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(build) -> float:
    """Median over fresh interpreters of `import fas.cli`, plus building the
    op list.  A first, untimed import writes the bytecode cache."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {str(SRC)!r}); import fas.cli"]
    subprocess.run(cmd, check=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        build()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Runner:
    """Runs ops and times each call of `fas.cli.main`.

    A call fails when it raises or exits non-zero.  Its output is checked
    later, by `check_outputs`, so that the checks' time and memory stay out
    of the measured rounds; until then the call keeps the output's digest.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.digests: dict = {}   # op index -> digests of its calls' outputs

    def _fail(self, i, op, why, calls=1, lines=()):
        self.failed += calls
        print(f"op {i} {why} ({calls} calls): fas {' '.join(op.argv)}",
              file=sys.stderr)
        for line in lines[:10]:
            print(f"  {line}", file=sys.stderr)

    def run_round(self, ops, tracer=None) -> list:
        times = []
        for i, op in enumerate(ops):
            op.out.parent.mkdir(parents=True, exist_ok=True)
            argv = op.argv + ["--out", str(op.out)]
            call = (lambda: self.cli.main(argv))
            if tracer is not None:
                call = (lambda c=call: tracer.root(i, f"cli.{op.command}", c))
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                status = call()
            except SystemExit as exc:
                status = exc.code
            except Exception:  # an op that raises is a failed op; go on
                traceback.print_exc()
                status = "exception"
            times.append(time.perf_counter() - t0)
            if status != 0:
                self._fail(i, op, f"failed with status {status}")
                continue
            try:
                self.output_bytes += op.out.stat().st_size
                self.digests.setdefault(i, []).append(_digest(op.out))
            except OSError as exc:
                self._fail(i, op, f"left no output ({exc})")
        return times

    def check_outputs(self, ops) -> None:
        """Check each op's last output against the oracles.  Outputs are
        deterministic for a seed, so an earlier call whose output has the
        same digest shares the verdict, and one whose output differs fails.
        A check that raises fails the op."""
        for i, digests in self.digests.items():
            op = ops[i]
            try:
                checked = _digest(op.out)
                problems = op.check(op.out)
            except Exception as exc:
                traceback.print_exc()
                checked, problems = None, [f"the check raised {exc!r}"]
            differing = sum(digest != checked for digest in digests)
            if problems:
                self._fail(i, op, "output is wrong", len(digests), problems)
            elif differing:
                self._fail(i, op, "output differs from the op's last output "
                           "for the same seed", differing)
        self.digests.clear()


def end_to_end(runner, ops, n_rounds, setup_s) -> dict:
    per_round = [runner.run_round(ops) for _ in range(n_rounds)]
    # read before the checks, whose oracles (scipy.stats, loaded traces)
    # would otherwise set the figure
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_outputs(ops)
    ops_per_s = sum(len(t) for t in per_round) / sum(sum(t) for t in per_round)
    op_ms = statistics.median(statistics.median(r[i] for r in per_round) * 1e3
                              for i in range(len(ops)))
    return {"setup_s": setup_s, "ops_per_s": ops_per_s, "op_ms_p50": op_ms,
            "peak_rss_mb": peak_mb}


def per_layer(runner, ops, workload, seed, names, pairs=3) -> dict:
    """Per-layer metrics of the first traced round.  Untraced and traced
    rounds alternate `pairs` times; the overhead is the median ratio of a
    traced round to the untraced round just before it.  A last round counts
    the COUNTED functions alone, so their counter does not slow the spans."""
    import tracing
    ratios = []
    tracer = None
    for _ in range(pairs):
        untraced = sum(runner.run_round(ops))
        pair_tracer = tracing.Tracer()
        bytes_before = runner.output_bytes
        with pair_tracer.installed():
            ratios.append(sum(runner.run_round(ops, pair_tracer)) / untraced)
        if tracer is None:
            tracer = pair_tracer
            tracer.counts["cli.output_bytes"] = runner.output_bytes - bytes_before
    counter = tracing.Tracer()
    with counter.installed(count_only=True):
        runner.run_round(ops)
    tracer.counts.update(counter.counts)
    tracer.missing += counter.missing
    runner.check_outputs(ops)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.npz")
    for hook in tracer.missing:
        print(f"hook {hook} not found; its metrics are reported as null",
              file=sys.stderr)
    return tracing.layer_metrics(tracer, names,
                                 (statistics.median(ratios) - 1.0) * 100.0)


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fas" / "cli.py").is_file():
        print(f"error: the fas package is not at {SRC / 'fas'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    outdir = OUT / args.workload
    setup_s = 0.0 if args.trace else measure_setup(
        lambda: workloads.build(args.workload, args.seed, outdir))

    sys.path.insert(0, str(SRC))
    from fas import cli
    if Path(cli.__file__).resolve().parent != SRC / "fas":
        print(f"error: imported fas from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, outdir)
    runner = Runner(cli)
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer(runner, ops, args.workload, args.seed,
                           [m["name"] for m in declared])
    else:
        values = end_to_end(runner, ops,
                            workloads.rounds(args.workload, args.seconds), setup_s)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
