"""The package's export list, import footprint, and the benchmark's traced
run: the names it hooks, and tiny commands run under it."""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fas
import reference
from fas.analytic import (outage_approx_profile, outage_approx_rows,
                          outage_exact_profile, outage_exact_rows)
from fas.bounds import (outage_upper_bound_profile, outage_upper_bound_rows,
                        per_port_bound_factors)
from fas.channel import checked_mu
from fas.design import min_size_frontier

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in fas.__all__ if not hasattr(fas, name)] == []


def test_no_duplicate_exports():
    assert len(set(fas.__all__)) == len(fas.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fas import *", namespace)
    assert set(fas.__all__) <= set(namespace)


# every public function that takes an SNR ratio x, called with x
SNR_TAKERS = {
    "FasConfig": lambda x: fas.FasConfig(1, 1.0, x),
    "DesignQuery": lambda x: fas.DesignQuery(2, x, fas.bound_constants()),
    "outage_exact_profile": lambda x: outage_exact_profile([0.0, 0.5], x),
    "outage_approx_profile": lambda x: outage_approx_profile([0.0, 0.5], x),
    # a block's second row: each row's ratio is checked
    "outage_exact_rows": lambda x: outage_exact_rows(
        [[0.0, 0.5], [0.0, 1.0]], [1.0, x]),
    "outage_approx_rows": lambda x: outage_approx_rows(
        [[0.0, 0.5], [0.0, 1.0]], [1.0, x]),
    "outage_upper_bound_rows": lambda x: outage_upper_bound_rows(
        [[0.0, 0.5], [0.0, 1.0]], [1.0, x], fas.bound_constants()),
    "outage_n2_closed_form": lambda x: fas.outage_n2_closed_form(0.5, x),
    "outage_mrc": lambda x: fas.outage_mrc(2, x),
    "outage_upper_bound_profile": lambda x: outage_upper_bound_profile(
        [0.0, 0.5], x, fas.bound_constants()),
    "per_port_bound_factors": lambda x: per_port_bound_factors(
        [0.5], x, fas.bound_constants()),
    "per_port_bound_factor": lambda x: fas.per_port_bound_factor(
        0.5, x, fas.bound_constants()),
    "BoundConstants.exactly_one_radius":
        lambda x: fas.bound_constants().exactly_one_radius(x),
    "BoundConstants.factor_falls_to":
        lambda x: fas.bound_constants().factor_falls_to(0.5, x),
}


@pytest.mark.parametrize("taker", sorted(SNR_TAKERS))
@pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
def test_every_snr_taker_checks_through_checked_snr(taker, x):
    # one rule, 0 < x < inf, in channel.checked_snr; all but FasConfig
    # once took inf
    with pytest.raises(ValueError,
                       match="snr_ratio must be positive and finite"):
        SNR_TAKERS[taker](x)


def _query():
    return fas.DesignQuery(2, 1.0, fas.bound_constants())


def _doppler_with(field, value):
    values = dict(speed_mps=1.0, carrier_hz=5e9, duration_s=1.0,
                  sample_rate_hz=1000.0)
    values[field] = value
    return fas.DopplerTraceConfig(**values)


# every public function that takes a value that must be positive and
# finite, other than an SNR ratio: (its name, a call with value v)
POSITIVE_TAKERS = {
    "FasConfig": ("size_wavelengths", lambda v: fas.FasConfig(1, v, 1.0)),
    "min_ports_for_size": ("size_wl", lambda v: fas.min_ports_for_size(
        v, _query())),
    "inv_besselj0_envelope": ("target", fas.inv_besselj0_envelope),
    **{f"DopplerTraceConfig.{field}": (
        field, lambda v, field=field: _doppler_with(field, v))
       for field in ("carrier_hz", "duration_s", "sample_rate_hz")},
}


@pytest.mark.parametrize("taker", sorted(POSITIVE_TAKERS))
@pytest.mark.parametrize("v", [0.0, -1.0, float("nan"), float("inf")])
def test_every_positive_taker_checks_through_checked_positive(taker, v):
    # one rule, 0 < v < inf, in channel.checked_positive, one message per
    # value
    name, call = POSITIVE_TAKERS[taker]
    with pytest.raises(ValueError,
                       match=f"^{name} must be positive and finite, got "):
        call(v)


@pytest.mark.parametrize("taker", ["FasConfig", "min_ports_for_size"])
def test_every_size_taker_keeps_2_pi_size_finite(taker):
    # 2 pi W overflows above 2.861e307; J0(inf) is NaN, and the error once
    # blamed mu.  One rule, channel.checked_size, names the size instead
    name, call = POSITIVE_TAKERS[taker]
    with pytest.raises(ValueError, match=fr"^{name} must keep 2 pi {name} "
                                         r"finite, got 2\.9e\+307$"):
        call(2.9e307)
    call(2.8e307)


def _mc(mu, x):
    return fas.mc_outage_fas(fas.FasConfig(3, 1.0, x), fas.McSettings(1000, 0),
                             mu=[0.0, 0.5, mu])


# every public function that takes a correlation mu, called with mu as the
# last port of a profile (or as the one mu it takes) at SNR ratio x
MU_TAKERS = {
    "checked_mu": lambda mu, x: checked_mu([0.0, 0.5, mu]),
    # the tests' reference helper, built on checked_mu and is_degenerate
    "active_mu": lambda mu, x: reference.active_mu([0.0, 0.5, mu]),
    "outage_exact_profile": lambda mu, x: outage_exact_profile(
        [0.0, 0.5, mu], x),
    "outage_approx_profile": lambda mu, x: outage_approx_profile(
        [0.0, 0.5, mu], x),
    # as a block's first row, above a padded second
    "outage_exact_rows": lambda mu, x: outage_exact_rows(
        [[0.0, 0.5, mu], [0.0, 0.3, 1.0]], [x, x]),
    "outage_approx_rows": lambda mu, x: outage_approx_rows(
        [[0.0, 0.5, mu], [0.0, 0.3, 1.0]], [x, x]),
    "outage_upper_bound_rows": lambda mu, x: outage_upper_bound_rows(
        [[0.0, 0.5, mu], [0.0, 0.3, 1.0]], [x, x], fas.bound_constants()),
    "outage_n2_closed_form": fas.outage_n2_closed_form,
    "outage_upper_bound_profile": lambda mu, x: outage_upper_bound_profile(
        [0.0, 0.5, mu], x, fas.bound_constants()),
    "per_port_bound_factors": lambda mu, x: per_port_bound_factors(
        [0.5, mu], x, fas.bound_constants()),
    "per_port_bound_factor": lambda mu, x: fas.per_port_bound_factor(
        mu, x, fas.bound_constants()),
    "min_ports_general": lambda mu, x: fas.min_ports_general(
        [0.0, 0.5, mu], fas.DesignQuery(2, x, fas.bound_constants())),
    "min_ports_homogeneous": lambda mu, x: fas.min_ports_homogeneous(
        mu, fas.DesignQuery(2, x, fas.bound_constants())),
    "joint_pdf": lambda mu, x: fas.joint_pdf([0.0, 0.5, mu], [x, x, x]),
    "joint_cdf": lambda mu, x: fas.joint_cdf([0.0, 0.5, mu], [x, x, x]),
    "mc_outage_fas": _mc,
}
# the takers that may answer mu = +-1 otherwise than +-(1 - 5e-10):
# checked_mu returns the profile itself, joint_pdf and joint_cdf reject
# |mu_k| = 1 as singular, and Monte Carlo is statistical
UNIT_MU_EXCEPTIONS = {"checked_mu", "joint_pdf", "joint_cdf", "mc_outage_fas"}


@pytest.mark.parametrize("taker", sorted(MU_TAKERS))
@pytest.mark.parametrize("mu", [1.5, -1.5, float("nan")])
def test_every_mu_taker_checks_through_checked_mu(taker, mu):
    # one rule, |mu| <= 1 and not NaN, in channel.checked_mu_range, which
    # checked_mu and the bound kernel call, one message
    with pytest.raises(ValueError, match=r"^\|mu_k\| must be <= 1"):
        MU_TAKERS[taker](mu, 1.0)


def _bits(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("taker", sorted(set(MU_TAKERS) - UNIT_MU_EXCEPTIONS))
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("x", [1e-12, 1.0, 10.0])
def test_every_mu_taker_answers_unit_mu_as_a_degenerate_port(taker, sign, x):
    # a port with |mu| > DEGENERATE_MU is port 1 again, |mu| = 1 included
    call = MU_TAKERS[taker]
    assert _bits(call(sign, x)) == _bits(call(sign * (1.0 - 5e-10), x))


def _doppler(n_scatterers=64):
    return fas.DopplerTraceConfig(1.0, 5e9, 1.0, 1000.0, n_scatterers)


# every public function that takes a count: (its name, the least count it
# takes, a call with count n)
COUNT_TAKERS = {
    "FasConfig": ("n_ports", 1, lambda n: fas.FasConfig(n, 1.0, 1.0)),
    "DesignQuery": ("mrc_branches", 1, lambda n: fas.DesignQuery(
        n, 1.0, fas.bound_constants())),
    "outage_mrc": ("branches", 1, lambda n: fas.outage_mrc(n, 1.0)),
    "min_ports_general": ("n_max", 0, lambda n: fas.min_ports_general(
        [0.0, 0.5], _query(), n_max=n)),
    "min_ports_for_size": ("n_max", 0, lambda n: fas.min_ports_for_size(
        1.0, _query(), n_max=n)),
    "min_ports_homogeneous": ("n_max", 0, lambda n: fas.min_ports_homogeneous(
        0.5, _query(), n_max=n)),
    "required_mu_and_size": ("n_ports", 2, lambda n: fas.required_mu_and_size(
        n, _query())),
    "min_size": ("n_ports", 1, lambda n: fas.min_size(n, _query())),
    "min_size_frontier": ("n_ports", 1, lambda n: min_size_frontier(
        _query(), [8, n])),
    "DopplerTraceConfig": ("n_scatterers", 8, _doppler),
    # whole float port and scatterer counts reach the draw as ints
    "envelope_trace": ("mrc_branches", 1, lambda n: fas.envelope_trace(
        fas.FasConfig(2.0, 1.0, 1.0), _doppler(64.0),
        np.random.default_rng(0), n)),
    "McSettings.trials": ("trials", fas.mc.MIN_TRIALS,
                          lambda n: fas.McSettings(n, 0)),
    "McSettings.workers": ("workers", 1,
                           lambda n: fas.McSettings(10_000, 0, n)),
    "McSettings.seed": ("seed", 0, lambda n: fas.McSettings(10_000, n)),
}


@pytest.mark.parametrize("taker", sorted(COUNT_TAKERS))
@pytest.mark.parametrize("bad", [True, 2.5, float("nan"), float("inf"),
                                 "least - 1", "100", None])
def test_every_count_taker_checks_through_checked_count(taker, bad):
    # one rule, a whole number >= least and not a bool, in
    # channel.checked_count; True once passed everywhere, and NaN, inf and
    # 8.5 scatterers, and any MRC branch count of the trace; a str or None
    # once raised TypeError from the comparison
    name, least, call = COUNT_TAKERS[taker]
    if bad == "least - 1":
        bad = least - 1
    with pytest.raises(ValueError,
                       match=f"^{name} must be a whole number >= {least}, "
                             "got "):
        call(bad)


@pytest.mark.parametrize("taker", sorted(COUNT_TAKERS))
def test_every_count_taker_takes_a_whole_float(taker):
    _, least, call = COUNT_TAKERS[taker]
    call(float(max(least, 8)))


def test_cli_import_leaves_out_heavy_scipy():
    # every command pays this import: scipy.stats alone takes about twice
    # the import time of all of fas.cli, and scipy.integrate and
    # scipy.optimize together add ~0.35 s and ~26 MB of resident memory
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys, fas.cli; print([m for m in {heavy!r} "
         "if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_import_and_envelope_load_no_scipy(tmp_path):
    # scipy.special is ~0.2 s of a fresh process's import; `fas envelope`
    # needs none of it (its J0 is specfun.j0), while `design` does, on its
    # first special-function call, as do outage-curve, bounds-compare and
    # validate
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "def scipy():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import fas\n"
        "print(scipy())\n"
        "import fas.cli\n"
        "print(scipy())\n"
        "fas.cli.main(['envelope', '--n-ports', '3', '--duration-s', '0.2',\n"
        f"              '--out', {out!r}])\n"
        "print(scipy())\n"
        f"fas.cli.main(['design', '--n-ports', '10', '--out', {out!r}])\n"
        "print('scipy.special' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n[]\n[]\nTrue\n"


def test_scipy_is_reached_through_the_handle_alone():
    # every module reaches scipy.special through fas._special's lazy
    # handles, which import it on first use: an import statement naming
    # scipy anywhere in the package would load it with the module
    found = []
    for path in sorted((ROOT / "src" / "fas").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_monte_carlo_shares_no_code_with_what_it_checks():
    # the oracle imports neither the evaluators and special functions it is
    # compared against nor scipy, in which they are written
    tree = ast.parse((ROOT / "src" / "fas" / "mc.py").read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        parts.update(part for name in names for part in name.split("."))
    assert {"numpy", "channel"} <= parts
    assert parts.isdisjoint({"analytic", "specfun", "bounds", "validation",
                             "scipy"})


def test_design_decides_the_mrc_reference_in_its_query_alone():
    # DesignQuery computes the MRC reference once, when it is built, and
    # every solver reads it there: no other code in design.py names
    # outage_mrc, or imports it under another name
    tree = ast.parse((ROOT / "src" / "fas" / "design.py").read_text())
    query = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef)
                 and node.name == "DesignQuery")
    inside = {id(node) for node in ast.walk(query)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "outage_mrc"
            or isinstance(node, ast.Attribute) and node.attr == "outage_mrc"]
    assert uses
    assert [node.lineno for node in uses if id(node) not in inside] == []
    assert all(alias.asname is None for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name == "outage_mrc")


def _names(tree, name):
    """Lines of tree that name `name`: as a name, an attribute or an
    import."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == name for alias in node.names)]


def test_bounds_decides_its_own_facts():
    # bounds.py alone knows the bound: design.py reads the scan's facts
    # from BoundConstants' methods, and .rho and .kappa only in the closed
    # form of required_mu_and_size; the kernel alone decides degenerate
    # ports, with no active_mu pass before it
    design = ast.parse((ROOT / "src" / "fas" / "design.py").read_text())
    closed_form = next(node for node in design.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "required_mu_and_size")
    inside = {id(node) for node in ast.walk(closed_form)}
    reads = [node for node in ast.walk(design)
             if isinstance(node, ast.Attribute)
             and node.attr in ("rho", "kappa")]
    assert reads
    assert sorted([node.lineno for node in reads if id(node) not in inside]
                  + _names(design, "DEGENERATE_MU")) == []
    bounds = ast.parse((ROOT / "src" / "fas" / "bounds.py").read_text())
    assert _names(bounds, "active_mu") == []


def test_channel_alone_rules_on_mu():
    # channel.py maps ports to mu, rules on mu's range and names the
    # degenerate ports: design.py reads its blocks and mu_W from there,
    # only channel.py builds the range message, and bounds.py uses
    # DEGENERATE_MU only in the proof clause of factor_falls_to
    src = ROOT / "src" / "fas"
    design = ast.parse((src / "design.py").read_text())
    assert [line for name in ("sp", "j0", "_J0_FIRST_ZERO")
            for line in _names(design, name)] == []
    builds = [path.name for path in sorted(src.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("|mu_k| must be <= 1")]
    assert builds == ["channel.py"]
    bounds = ast.parse((src / "bounds.py").read_text())
    proof = next(node for node in ast.walk(bounds)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "factor_falls_to")
    inside = {id(node) for node in ast.walk(proof)}
    uses = [node for node in ast.walk(bounds)
            if isinstance(node, ast.Name) and node.id == "DEGENERATE_MU"]
    assert uses and [node.lineno for node in uses
                     if id(node) not in inside] == []


def test_validate_and_cli_take_the_block_evaluators():
    # validation.py and cli.py evaluate an outage only through the block
    # forms (`*_rows`), so no one-point evaluator runs in a loop over points
    one_point = ("outage_exact", "outage_exact_profile", "outage_approx",
                 "outage_approx_profile", "outage_n2_closed_form",
                 "outage_upper_bound", "outage_upper_bound_profile")
    found = []
    for module in ("validation.py", "cli.py"):
        tree = ast.parse((ROOT / "src" / "fas" / module).read_text())
        found += [f"{module}:{line}" for name in one_point
                  for line in _names(tree, name)]
    assert found == []


def test_specfun_alone_calls_boosts_port_cdf():
    # specfun.port_cdf is the one caller of Boost's noncentral chi-square
    # cdf, and marcum_q1 of its survival function: no other module names
    # either; and fas._special makes one lazy handle
    found = []
    for path in sorted((ROOT / "src" / "fas").glob("*.py")):
        if path.name != "specfun.py":
            tree = ast.parse(path.read_text())
            found += [f"{path.name}:{line}" for name in ("chndtr", "_ncx2_sf")
                      for line in _names(tree, name)]
    assert found == []
    special = ast.parse((ROOT / "src" / "fas" / "_special.py").read_text())
    handles = [node.lineno for node in ast.walk(special)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name)
               and node.func.id == "_LazyModule"]
    assert len(handles) == 1


def _bench_tracing():
    """bench/tracing.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_hook_resolves():
    # bench/tracing.py reports every metric of a hook it cannot find as
    # null, so a hooked function that moves must fail here instead
    tracing = _bench_tracing()
    names = ([(module, func) for module, func, _, _ in tracing.HOOKS]
             + list(tracing.COUNTED) + [("analytic", "quad")])
    missing = [f"{module}.{func}" for module, func in names
               if not callable(getattr(importlib.import_module(f"fas.{module}"),
                                       func, None))]
    assert len(names) > 10
    assert missing == []


def test_traced_commands_report_every_layer(tmp_path):
    # the benchmark's traced run on tiny ops: a hook whose wrapper breaks
    # the call (a moved argument, a changed return type) fails an op here,
    # and every declared per-layer metric must come out as JSON
    import fas.cli
    tracing = _bench_tracing()
    ops = [["outage-curve", "--sweep-n", "2:6:2", "--trials", "1000"],
           ["design", "--n-ports", "10"],
           ["design", "--size-wl", "1"],
           ["envelope", "--n-ports", "3", "--duration-s", "0.2"]]
    tracer = tracing.Tracer()

    def run_ops():
        for i, argv in enumerate(ops):
            out = ["--out", str(tmp_path / f"{i}.out")]
            assert tracer.root(i, f"cli.{argv[0]}",
                               lambda: fas.cli.main(argv + out)) == 0

    with tracer.installed():
        run_ops()
    with tracer.installed(count_only=True):
        run_ops()
    assert tracer.missing == []
    assert tracer.counts["analytic.quad.evals"] > 0
    assert tracer.counts["mc.trials"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tracing.layer_metrics(tracer, [m["name"] for m in declared], 0.0)
    assert None not in metrics.values()
    json.dumps(metrics, allow_nan=False)
