"""The package's export list, import footprint, and the names the
benchmark's traced run hooks."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fas


def test_every_exported_name_resolves():
    assert [name for name in fas.__all__ if not hasattr(fas, name)] == []


def test_no_duplicate_exports():
    assert len(set(fas.__all__)) == len(fas.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fas import *", namespace)
    assert set(fas.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone takes about twice the import time of all of fas.cli
    # and adds tens of MB of resident memory to every command
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, fas.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_every_benchmark_hook_resolves():
    # bench/tracing.py reports every metric of a hook it cannot find as
    # null, so a hooked function that moves must fail here instead
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = ([(module, func) for module, func, _, _ in tracing.HOOKS]
             + list(tracing.COUNTED) + [("analytic", "quad")])
    missing = [f"{module}.{func}" for module, func in names
               if not callable(getattr(importlib.import_module(f"fas.{module}"),
                                       func, None))]
    assert len(names) > 10
    assert missing == []
