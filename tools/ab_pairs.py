#!/usr/bin/env python3
"""Time a parent revision against the working tree in interleaved pairs.

Run from anywhere inside a peskit checkout:

    python3 tools/ab_pairs.py HEAD~1 --workload circuit-beam --seed 2 --pairs 10

Both sides run from fresh ``git archive`` copies in one temporary
directory: one of ``PARENT_REV`` and one of the working tree (tracked and
untracked files that git does not ignore, written to a throwaway index so
the real one is untouched). Timing a git checkout against an archive copy
can skew the comparison, so neither side runs from the checkout itself.
Each pair runs ``perfbench/run.py --trace 0`` once per side for the
benchmark's run length (``run_seconds`` in ``BENCHMARK.json``), the parent
first in pairs 1, 3, ... and the change first in pairs 2, 4, .... The
script prints every pair, then per end-to-end metric the medians, the
quartiles, how many pairs the change won (lower is better, ties count
for neither side) and the change's median relative to the parent's, next
to the metric's ``bound`` in ``BENCHMARK.json``, then each side's failed
cells out of those attempted.
A run that exits nonzero or reports ``correct: false`` stops the script
with the side, the exit code and the tail of the run's stderr, where
run.py writes its traceback or its ``check failed: ...`` lines. It only
invokes ``perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s")
STDERR_TAIL = 20  # lines of a failed run's stderr to report


def _git(root, *args, env=None):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True, env=env).stdout.strip()


def _extract(root, treeish, dest):
    """Write the files of ``treeish`` into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(root), "archive", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _working_tree(root, workdir):
    """A tree object holding the working tree as ``git add -A`` would stage it."""
    env = dict(os.environ, GIT_INDEX_FILE=str(workdir / "index"))
    _git(root, "read-tree", "HEAD", env=env)
    _git(root, "add", "-A", env=env)
    return _git(root, "write-tree", env=env)


def _run(copy, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in ``copy``: its metric values
    and its ``failed`` and ``attempted`` cell counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL:])
        raise RuntimeError(f"{copy.name}: run.py exited with code "
                           f"{proc.returncode}, correct="
                           f"{result.get('correct')}; stderr ends:\n{tail}")
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    return dict(values, failed=result["failed"],
                attempted=result["attempted"])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, bounds):
    """Per metric: the medians, quartiles, the change's win count and its
    relative median change beside the metric's end-to-end ``bounds``."""
    lines = []
    for name in METRICS:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        (p1, p3), (c1, c3) = _quartiles(parent), _quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        lines.append(
            f"{name}: parent median {p_med:.3f} "
            f"[q1 {p1:.3f}, q3 {p3:.3f}]  change median "
            f"{c_med:.3f} [q1 {c1:.3f}, q3 {c3:.3f}]  "
            f"gap {p_med - c_med:+.3f} vs parent IQR {p3 - p1:.3f}  "
            f"change wins {wins}/{len(pairs)} (loses {losses})  "
            f"relative median change {(c_med - p_med) / p_med:+.3f} "
            f"vs bound {bounds[name]:g}")
    lines.append("failed cells: " + "  ".join(
        f"{side} {sum(run['failed'] for run in runs)}/"
        f"{sum(run['attempted'] for run in runs)}"
        for side, runs in zip(("parent", "change"), zip(*pairs))))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT_REV",
                   help="the revision to compare the working tree against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        workdir = Path(tmp)
        parent, change = workdir / "parent", workdir / "change"
        _extract(root, _git(root, "rev-parse", args.parent), parent)
        _extract(root, _working_tree(root, workdir), change)
        pairs = []
        for i in range(args.pairs):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            got = {copy: _run(copy, args.workload, args.seed, seconds)
                   for copy in order}
            pairs.append((got[parent], got[change]))
            first = "parent" if order[0] is parent else "change"
            print(f"pair {i + 1} ({first} first): " + "  ".join(
                f"{name} {got[parent][name]:.3f} -> {got[change][name]:.3f}"
                for name in METRICS), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s per run, parent {args.parent}:")
    print("\n".join(summarize(pairs, bounds)))


if __name__ == "__main__":
    main()
