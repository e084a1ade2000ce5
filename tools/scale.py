"""User-scale timing of the `bsk` commands named in ROADMAP's `scale` rule.

Runs each command in fresh ``python -m bskit.cli`` processes, pinned to
one CPU (the lowest this process may run on), alternating two source
trees round by round (the first tree runs first in even rounds, the
second in odd ones), and prints the ``scale`` block of a ``BENCH_*.json`` as JSON: per command and tree, the wall time
(spawn to exit), CPU time (user + system) and peak RSS of every round,
their min and max, and the distinct stdout hashes.

    python3 tools/scale.py PARENT_TREE CHANGE_TREE --rounds 5

Each tree is a checkout whose ``src/`` holds ``bskit``.  Standard library
only; it exits nonzero if a command fails or the two trees print
different bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

COMMANDS = [
    ["--bs", "2", "3", "proper", "--lmax", "12", "-R", "1,2,4"],
    ["--bs", "2", "3", "c0", "--lmax", "12"],
    ["--bs", "1", "2", "proper", "--lmax", "12", "-R", "1,2,4"],
    ["--bs", "2", "3", "gram", "-L", "12"],
    ["--bs", "2", "3", "cocycle-check", "-L", "12"],
    ["--bs", "2", "3", "inject-check", "-L", "12"],
    ["--bs", "2", "3", "cocycle-check", "-L", "8", "--pairs", "20000"],
    ["--bs", "2", "3", "cocycle-check", "-L", "8", "--pairs", "100000"],
    ["--bs", "2", "3", "gram", "-L", "8", "--size", "1000"],
    ["--bs", "2", "3", "gram", "-L", "8", "--size", "1000", "--kernel",
     "witness"],
]


def run_once(tree: str, args: list) -> dict:
    """One fresh process of ``bsk args`` from ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               BSK_MAX_BALL="12")
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bskit.cli", *args], env=env,
            stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped
        proc.stdout.close()
        if proc.returncode:
            err.seek(0)
            sys.exit(f"{tree}: bsk {' '.join(args)} exited "
                     f"{proc.returncode}\n{err.read().decode()}")
    return {"wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # KiB on Linux
            "stdout_sha256": hashlib.sha256(out).hexdigest()[:16]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the tree measured as 'parent'")
    ap.add_argument("change", help="the tree measured as 'change'")
    ap.add_argument("--rounds", type=int, default=5)
    opts = ap.parse_args()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit it
    sides = {"parent": opts.parent, "change": opts.change}
    runs = {" ".join(c): {s: [] for s in sides} for c in COMMANDS}
    for i in range(opts.rounds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for args in COMMANDS:
            for side in order:
                runs[" ".join(args)][side].append(
                    run_once(sides[side], args))
    block = {}
    for command, per_side in runs.items():
        block[command] = {}
        for side, rows in per_side.items():
            cell = {f: [r[f] for r in rows]
                    for f in ("wall_s", "cpu_s", "peak_rss_mb")}
            cell["stdout_sha256"] = sorted({r["stdout_sha256"]
                                            for r in rows})
            cell["wall_s_min"] = min(cell["wall_s"])
            cell["peak_rss_mb_max"] = max(cell["peak_rss_mb"])
            block[command][side] = cell
    print(json.dumps({
        "method": "tools/scale.py: fresh `python -m bskit.cli` processes "
                  "with BSK_MAX_BALL=12 and PYTHONPATH set to the tree's "
                  f"src/, each pinned to CPU {cpu}; {opts.rounds} "
                  "rounds, each running every command on both trees, "
                  "parent first in even rounds and change first in odd "
                  "rounds; wall time from spawn to wait4, CPU time (user + "
                  "system) and peak RSS from the child's rusage; stdout "
                  "hashed (first 16 hex digits of SHA-256).",
        f"rounds_{opts.rounds}": block}, indent=1))
    if any(len({h for cell in cells.values() for h in cell["stdout_sha256"]})
           != 1 for cells in block.values()):
        sys.exit("the two trees printed different output")


if __name__ == "__main__":
    main()
