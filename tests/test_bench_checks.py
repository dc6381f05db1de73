"""The benchmark's answer checks pass on the program as it is.

One pass of the ``dist``, ``diameter``, ``reduce`` and ``verify`` op
lists that ``perfbench/workloads.py`` builds at seed 1 runs through
``gassoc.cli.main`` in a temporary directory. Every call must exit 0,
pass its own check, and a repeated call must print what its first run
printed. ``workloads`` is
loaded in a subprocess that writes no bytecode, so nothing under
``perfbench/`` changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from gassoc.cli import main

problems, calls = [], 0
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for name in ("dist", "diameter", "reduce", "verify"):
        work = Path(tmp) / name
        work.mkdir()
        _, ops = workloads.BUILDERS[name](1, work)
        outs = []
        for op in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(op.argv)
            outs.append(buf.getvalue())
            if code != 0:
                problems.append(f"{name} {op.argv}: exit {code}")
        for op, out in zip(ops, outs):
            why = op.check(out, outs)
            if why is not None:
                problems.append(f"{name} {op.argv}: {why}")
            if op.same_as is not None and out != outs[op.same_as]:
                problems.append(f"{name} {op.argv}: repeat printed a different answer")
        calls += len(ops)
print(json.dumps({"calls": calls, "problems": problems[:10]}))
"""


def test_benchmark_op_lists_pass_their_checks():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["problems"] == []
    assert result["calls"] > 0
