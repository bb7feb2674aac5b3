#!/usr/bin/env python3
"""Print the rows, traces and winners of one run, every float as ``float.hex``.

Run from the root of a peskit checkout, with a benchmark workload and seed
(from ``perfbench/workloads.py``) or an ``ExperimentConfig`` JSON file:

    python3 tools/rows_digest.py circuit-beam 0 > after.txt
    python3 tools/rows_digest.py config.json > after.txt
    cmp before.txt after.txt
    python3 tools/rows_digest.py --golden

``--golden [DIR]`` writes the digest of each ``tests/golden/<name>.config.json``
to ``DIR/<name>.digest.txt``, and this machine's facts to
``DIR/machine.json``; DIR defaults to ``tests/golden``, so the bare flag
regenerates the golden files that ``tests/test_golden.py`` compares
against, for a change that moves rows on purpose.

The config runs through ``peskit.bench.run_interpolation`` from this
checkout's ``src``, with the BLAS thread count pinned to 1. Wall times are
left out, so two runs whose results are bitwise equal print the same bytes.
peskit's warnings (failed fits the searches recover from) are silenced, so
only errors reach stderr.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
GOLDEN = ROOT / "tests" / "golden"


def _hex(record):
    """The record's fields but ``wall_time``, floats as ``float.hex``."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in asdict(record).items() if k != "wall_time"}


def digest(doc):
    """The lines to print for one config document."""
    from peskit.bench import ExperimentConfig, run_interpolation
    table, artifacts = run_interpolation(ExperimentConfig.from_dict(doc))
    lines = ["row " + json.dumps(_hex(r)) for r in table.rows]
    for name, trace in sorted(artifacts["traces"].items()):
        lines += [f"trace_{name} " + json.dumps(_hex(r)) for r in trace]
    lines += [f"winner {name} {w}"
              for name, w in sorted(artifacts["winners"].items())]
    return lines


def machine():
    """The facts of ``perfbench/run.py``'s record that decide round-off:
    CPU, numpy, scipy and BLAS."""
    import run
    env = run.environment()
    return {"cpu_model": env["cpu_model"], "numpy": env["numpy"],
            "scipy": env["scipy"], "blas": [env["blas"].get("name"),
                                            env["blas"].get("version")]}


def write_golden(out):
    """Write the digest of each golden config, and the machine facts, to
    the directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for path in sorted(GOLDEN.glob("*.config.json")):
        name = path.name.removesuffix(".config.json")
        lines = digest(json.loads(path.read_text()))
        (out / f"{name}.digest.txt").write_text("\n".join(lines) + "\n")
    (out / "machine.json").write_text(json.dumps(machine(), indent=1) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("config", nargs="?",
                   help="a workload name or a config JSON file")
    p.add_argument("seed", type=int, nargs="?", default=0,
                   help="workload seed (ignored for a JSON file)")
    p.add_argument("--golden", type=Path, nargs="?", const=GOLDEN,
                   metavar="DIR", help="write the golden digests to DIR "
                   "(default tests/golden) instead")
    args = p.parse_args(argv)
    if (args.config is None) == (args.golden is None):
        p.error("give a config or --golden, not both")
    logging.getLogger("peskit").setLevel(logging.ERROR)
    if args.golden is not None:
        write_golden(args.golden)
        return
    import workloads
    if args.config in workloads.WORKLOADS:
        doc = workloads.config(args.config, args.seed)
    else:
        doc = json.loads(Path(args.config).read_text())
    print("\n".join(digest(doc)))


if __name__ == "__main__":
    main()
