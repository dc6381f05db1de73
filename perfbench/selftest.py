"""Check that the benchmark's answer checks catch wrong answers.

    python3 perfbench/selftest.py

Runs run.py once per case with ``--inject``, which corrupts the first
op's printed answer on every pass, and expects the result line to report
``correct`` false and a nonzero failure share. Exits 1 if any case slips
through. Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

CASES = [
    ("dist", "off-by-one"),  # distance d printed as d + 1
    ("dist", "bad-swap"),  # first swap line printed with its labels exchanged
    ("diameter", "off-by-one"),
    ("reduce", "off-by-one"),  # lambda one too high
    ("verify", "off-by-one"),  # checked count one too high
]


def main() -> int:
    run = Path(__file__).with_name("run.py")
    missed = 0
    for workload, mode in CASES:
        argv = [sys.executable, str(run), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "0", "--inject", mode]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_frac = res["failed"] / res["attempted"]
        caught = proc.returncode == 0 and not res["correct"] and fail_frac > 0
        print(f"{workload} {mode}: fail_frac {fail_frac:.4f} "
              f"({res['failed']}/{res['attempted']}) {'caught' if caught else 'MISSED'}")
        missed += not caught
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
