"""Benchmark for the gassoc CLI.

    python3 perfbench/run.py --workload {dist,diameter,reduce,verify} \
        --seed N --seconds S --trace {0,1} [--inject {off-by-one,bad-swap}]

Run from the repository root; the program is imported from ``src/``.
One process issues the workload's fixed op list through
``gassoc.cli.main`` in a closed loop (each op starts when the previous
one returns; an op is one CLI call, or a few that run as a unit). Set-up
(import, input files, one warm-up op) is timed in this process and in
SETUP_PROBES fresh child processes. One full pass over the op list comes
first, and its answers are checked outside the timed window. The ops
then repeat in order while the next one is predicted to end within
``--seconds``, and each must print what it printed in the first pass.
Each op's time is the median of its samples; ``wall_s`` is their sum.
Every time is normalized to the host's speed by ``speed.Speed``.
``--trace 1`` runs one plain pass and one traced pass instead and
reports the per-layer figures. ``--inject`` corrupts the first call's
output every time it runs, to show that the checks catch a wrong answer.

The last stdout line is the result: correct, attempted, failed, metrics.
The line before it holds the details: environment, sample counts, raw
(not normalized) times and the first failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 4
BUNDLE_FILES = ("graph.txt", "t_ini.tree", "t_tar.tree", "weights.txt", "meta.json")


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:
        rc = f"exit {exc.code}"
    return rc, out.getvalue()


def run_op(sampler, cli, argv):
    """(exit code, stdout, normalized seconds, net seconds)."""
    (rc, out), raw, secs = sampler.timed(lambda: call(cli, argv))
    return rc, out, secs, raw


def setup(sampler, workload: str, seed: int, work: Path):
    """Returns (normalized seconds, net seconds), the cli module and the ops."""

    def body():
        cli = importlib.import_module("gassoc.cli")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        warm, ops = workloads.BUILDERS[workload](seed, work)
        rc, _ = call(cli, warm)
        if rc != 0:
            raise RuntimeError(f"warm-up op {warm} failed: {rc}")
        return cli, ops

    (cli, ops), raw, secs = sampler.timed(body)
    return (secs, raw), cli, ops


def probe_setup(args) -> tuple[float, float]:
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    secs, raw = map(float, proc.stdout.split()[-2:])
    return secs, raw


def corrupt(out: str, mode: str) -> str:
    lines = out.splitlines()
    for i, ln in enumerate(lines):
        parts = ln.split()
        if mode == "off-by-one" and len(parts) == 2 and parts[1].isdigit():
            lines[i] = f"{parts[0]} {int(parts[1]) + 1}"
            break
        if mode == "bad-swap" and parts[:1] == ["swap"]:
            lines[i] = f"swap {parts[2]} {parts[1]}"
            break
    return "\n".join(lines) + "\n"


def bundle_bytes(dirs) -> int:
    return sum((Path(d) / f).stat().st_size for d in dirs for f in BUNDLE_FILES
               if (Path(d) / f).exists())


def op_groups(ops) -> list[list[int]]:
    """Call indices per op: a call with ``joins`` set extends the op before."""
    groups: list[list[int]] = []
    for i, op in enumerate(ops):
        if op.joins and groups:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def run_calls(sampler, cli, ops, calls, inject, tracer=None):
    """Run the given calls in order. Returns [(rc, stdout, normalized
    seconds, net seconds)] and, when ``tracer`` is set, the largest
    self-time sum error of a call and the bundle bytes written."""
    results, sum_err, nbytes = [], 0.0, 0
    for i in calls:
        gc.collect()  # each call starts from a collected heap, as a fresh CLI process does
        if tracer:
            tracer.op, tracer.op_self, seen = i, 0.0, len(tracer.bundles)
        rc, out, secs, raw = run_op(sampler, cli, ops[i].argv)
        if tracer:
            sum_err = max(sum_err, abs(tracer.op_self - tracer.root_s))
            nbytes += bundle_bytes(tracer.bundles[seen:])
        if inject and i == 0:
            out = corrupt(out, inject)
        results.append((rc, out, secs, raw))
    return results, (sum_err, nbytes)


def stable(out: str) -> str:
    """Output without the elapsed-time line that `diameter` prints."""
    return "\n".join(ln for ln in out.splitlines() if not ln.startswith("seconds "))


def judge(ops, results, first=None):
    """Failure reason (or None) per call of a full pass. With ``first``, the
    first pass's (outputs, reasons), calls are compared with it instead."""
    outs = [r[1] for r in results]
    return outs, [judge_call(ops, i, rc, out, outs, first)
                  for i, (rc, out, *_) in enumerate(results)]


def judge_call(ops, i, rc, out, outs, first):
    if rc != 0:
        return f"exit {rc}"
    if first is not None:
        return first[1][i] or (None if stable(out) == stable(first[0][i])
                               else "output differs from the first pass")
    op = ops[i]
    try:
        why = op.check(out, outs)
    except Exception as exc:  # unreadable output is a wrong answer
        why = f"unreadable output: {type(exc).__name__}: {exc}"
    if why is None and op.same_as is not None and out != outs[op.same_as]:
        why = f"repeat of call {op.same_as} printed a different answer"
    return why


def environment() -> dict:
    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        top, head = (git.stdout.split() + [None, None])[:2]
        if git.returncode == 0 and top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    files = sorted((SRC / "gassoc").glob("*.py"))
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "commit": commit,
        "src_sha256": digest,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
    }


def unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    return {"elimtree.swaps_per_s": "1/s", "reductions.write_bundle.bytes": "B",
            "trace_overhead_frac": "ratio"}.get(name, "count")


def measure(args, sampler, cli, ops):
    """One full pass whose answers are checked, then the ops again in order
    while the next one is predicted to end within ``--seconds``; later
    answers must repeat the first pass. Returns the (normalized, net)
    seconds of each op's samples, the failure reason per op sample, the
    peak RSS in MB after the first pass, and the traced figures or None."""
    groups = op_groups(ops)
    start = perf_counter()
    results, _ = run_calls(sampler, cli, ops, range(len(ops)), args.inject)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = judge(ops, results)
    samples = [[tuple(sum(results[i][j] for i in g) for j in (2, 3))] for g in groups]
    fails = [next((first[1][i] for i in g if first[1][i]), None) for g in groups]
    k = 0
    while not args.trace and perf_counter() + samples[k][-1][1] < start + args.seconds:
        again, _ = run_calls(sampler, cli, ops, groups[k], args.inject)
        samples[k].append(tuple(sum(r[j] for r in again) for j in (2, 3)))
        fails.append(next((why for i, (rc, out, *_) in zip(groups[k], again)
                           if (why := judge_call(ops, i, rc, out, None, first))), None))
        k = (k + 1) % len(groups)
    if not args.trace:
        return samples, fails, rss_mb, None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, (sum_err, nbytes) = run_calls(sampler, cli, ops, range(len(ops)), args.inject,
                                              tracer)
    finally:
        tracer.uninstall()
    fails += [next((why for i in g if (why := judge_call(
        ops, i, traced[i][0], traced[i][1], None, first))), None) for g in groups]
    layer = tracer.metrics()
    layer["reductions.write_bundle.bytes"] = nbytes
    plain_s, traced_s = (sum(r[2] for r in rs) for rs in (results, traced))
    layer["trace_overhead_frac"] = traced_s / plain_s - 1
    spans = RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    info = {"plain_pass_s": plain_s, "traced_pass_s": traced_s,
            "self_time_sum_error_s": sum_err, "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped, "span_file": str(spans.relative_to(ROOT))}
    return samples, fails, rss_mb, (layer, info)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=("off-by-one", "bad-swap"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "gassoc" / "cli.py").is_file():
        print("perfbench: src/gassoc is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with speed.Speed() as sampler:
            secs, cli, ops = setup(sampler, args.workload, args.seed, work)
            if args.setup_probe:
                print(*secs)
                return 0
            if not Path(cli.__file__).resolve().is_relative_to(SRC):
                print(f"perfbench: imported gassoc from {cli.__file__}", file=sys.stderr)
                return 2
            setups = [secs] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            samples, fails, rss_mb, traced = measure(args, sampler, cli, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(why is not None for why in fails)
    attempted = len(fails)
    lat = [statistics.median(x for x, _ in s) for s in samples]
    cuts = statistics.quantiles(lat, n=20, method="inclusive")
    groups = op_groups(ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "ops": len(samples),
        "calls_per_op": max(len(g) for g in groups),
        "samples_per_op": [min(map(len, samples)), max(map(len, samples))],
        "latency_samples": len(lat),
        "above_p95": sum(x > cuts[18] for x in lat),
        "setup_samples_s": [x for x, _ in setups],
        "raw": {
            "wall_s": sum(statistics.median(r for _, r in s) for s in samples),
            "setup_s": statistics.median(r for _, r in setups),
            "reference_loop_us": 1e6 * statistics.median(sampler.recorded()),
            "reference_loop_samples": sampler.count,
        },
        "failures": [f"op {k} ({' '.join(ops[groups[k][0]].argv[:2])}): {why}"
                     for k, why in ((i % len(groups), why) for i, why in enumerate(fails))
                     if why][:10],
    }
    correct = failed == 0
    if traced:
        layer, info = traced
        detail["trace"] = info
        correct = correct and info["self_time_sum_error_s"] < 1e-6
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": sum(lat), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_p95_ms": {"value": 1e3 * cuts[18], "unit": "ms"},
            "setup_s": {"value": statistics.median(x for x, _ in setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
