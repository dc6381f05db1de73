"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces the functions and methods in its TARGETS
list with timing wrappers and raises ``KeyError`` or ``AttributeError`` on
a name that the package no longer has. The tracer is loaded from its file
in a subprocess that writes no bytecode, so nothing under ``perfbench/``
changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

SCRIPT = """
import contextlib, importlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import gassoc.cli

def resolve(mod, attr):
    obj = importlib.import_module("gassoc." + mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__func__", obj)

before = [resolve(mod, attr) for mod, attr, _ in tracing.TARGETS]
tracer = tracing.Tracer()
tracer.install()
wrapped = [hasattr(resolve(mod, attr), "__wrapped__") for mod, attr, _ in tracing.TARGETS]
with contextlib.redirect_stdout(io.StringIO()):
    code = gassoc.cli.main(["enumerate", "--dot", sys.argv[2]])
tracer.uninstall()
after = [resolve(mod, attr) for mod, attr, _ in tracing.TARGETS]
print(json.dumps({
    "wrapped": all(wrapped),
    "restored": all(a is b for a, b in zip(before, after)),
    "code": code,
    "main_calls": tracer.calls["cli.main"],
    "flip_graph_calls": tracer.calls["flipgraph.explicit_flip_graph"],
}))
"""


def test_tracer_installs_on_every_target(tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("3 2\n1\n2\n3\n1 2\n2 3\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracing.py"), str(graph)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "wrapped": True,
        "restored": True,
        "code": 0,
        "main_calls": 1,
        "flip_graph_calls": 1,
    }
