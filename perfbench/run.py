#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of peskit.

Run from the root of a peskit checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

One process runs the workload's cells one after another
(``threads=1``) through ``peskit.bench.run_interpolation`` with the BLAS
thread count pinned to 1. ``--trace 0`` repeats the whole grid while another
pass fits in ``--seconds`` (at least once) and reports the end-to-end
metrics; ``--trace 1`` does the same untraced, then one more pass with
every layer wrapped by ``perfbench/tracer.py``, and reports the per-layer
metrics. The last line of standard output is one JSON object; a record of
the run, with the machine facts, goes to ``perfbench/out/``. Workloads,
metrics and scope are documented in ``perfbench/README.md``.
"""

import os

# Pin BLAS threads before numpy loads; PIN_FINDING below says why.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import logging
import math
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PIN_FINDING = ("2-core Xeon sandbox, one desk seed (10 cells): 3.9-5.4 s with "
               "1 BLAS thread, 13.9-14.5 s with default OpenBLAS threading; "
               "RMSE equal to 1e-11 relative, not bitwise, at n_train=200")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_peskit():
    """Import peskit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "peskit" / "__init__.py").is_file():
        raise BenchError(f"no peskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import peskit
    if Path(peskit.__file__).resolve().parent != (SRC / "peskit").resolve():
        raise BenchError(f"peskit imported from {peskit.__file__}, not {SRC}")
    warnings.filterwarnings("ignore", "The balance properties of Sobol")


def make_setup(workload, seed):
    """Everything before the first cell: config, dataset and splits.

    ``run_interpolation`` makes the dataset and the splits again inside each
    pass; they are made here too so that ``setup_s`` covers them.
    """
    import workloads
    from peskit.bench import ExperimentConfig, load_dataset
    from peskit.data import split_random
    from peskit.optimizer import stable_seed
    cfg = ExperimentConfig.from_dict(workloads.config(workload, seed))
    data = load_dataset(cfg.dataset)
    for n in cfg.n_train:
        for s in cfg.seeds:
            split_random(data, n, seed=stable_seed("interp", n, s))
    return cfg, data


def setup_probe(workload, seed):
    """Child side of ``measure_setup``: set up, then say so."""
    import_peskit()
    make_setup(workload, seed)
    print("ready", flush=True)


def measure_setup(workload, seed):
    """Median seconds from process start to the first cell, over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
        times.append(dt)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info():
    import numpy as np
    info = {"pinned_threads": BLAS_THREADS,
            "env": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"),
                    config=blas.get("openblas configuration"))
    except (KeyError, TypeError):
        pass
    try:  # the thread count the loaded OpenBLAS actually uses
        import ctypes
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("*openblas*"))))
        get = lib.scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        info["runtime_threads"] = int(get())
    except (OSError, StopIteration, AttributeError):
        info["runtime_threads"] = None
    return info


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "peskit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_pin_finding": PIN_FINDING,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
    }


# ---------------------------------------------------------------------------
# passes and checks


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def capture_log(path):
    """Send peskit's log records to ``path`` instead of the terminal."""
    logger = logging.getLogger("peskit")
    file_handler = logging.FileHandler(path, mode="w")
    file_handler.setFormatter(
        logging.Formatter("%(relativeCreated)d %(levelname)s %(name)s: %(message)s"))
    counter = _CountHandler()
    logger.addHandler(file_handler)
    logger.addHandler(counter)
    logger.propagate = False
    return counter


def run_pass(cfg):
    """One pass over the grid: (wall seconds, ResultTable, error text or None)."""
    from peskit.bench import run_interpolation
    t0 = time.perf_counter()
    try:
        table, _ = run_interpolation(cfg)
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, table, None


def _key(row):
    """A row without its wall time, comparable bitwise (NaN equals NaN)."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for name, v in asdict(row).items() if name != "wall_time")


class Checks:
    """Named output checks; the run is correct only if all pass."""

    def __init__(self):
        self.failures = {}
        self.names = set()

    def add(self, name, ok, detail=""):
        self.names.add(name)
        if not ok:
            self.failures.setdefault(name, detail)

    def report(self):
        return {n: self.failures.get(n, "ok") for n in sorted(self.names)}


def check_rows(table, n_cells, energy_sd, checks):
    """Check finite RMSE below the energy spread; return the failed cell count."""
    if table is None:
        checks.add("pass_completed", False, "run_interpolation raised")
        return n_cells
    checks.add("pass_completed", len(table.rows) == n_cells,
               f"{len(table.rows)} rows for {n_cells} cells")
    bad = [r for r in table.rows if not (math.isfinite(r.rmse) and r.rmse < energy_sd)]
    checks.add("rmse_below_energy_sd", not bad,
               "; ".join(f"{r.family} n={r.size} seed={r.seed} rmse={r.rmse}" for r in bad))
    return sum(not math.isfinite(r.rmse) for r in table.rows) + n_cells - len(table.rows)


def measure_passes(cfg, seconds, n_cells, energy_sd, checks):
    """Untraced passes while another one fits in ``seconds``; at least one.

    Returns (pass walls, result tables, cells attempted, cells failed).
    """
    walls, tables, attempted, failed = [], [], 0, 0
    t_start = time.perf_counter()
    while True:
        wall, table, err = run_pass(cfg)
        attempted += n_cells
        failed += check_rows(table, n_cells, energy_sd, checks)
        if err:
            print(err, file=sys.stderr)
            break
        walls.append(wall)
        tables.append(table)
        checks.add("passes_identical",
                   [_key(r) for r in table.rows] == [_key(r) for r in tables[0].rows],
                   "a repeated pass gave different rows")
        if time.perf_counter() - t_start + wall > seconds:
            break
    return walls, tables, attempted, failed


def per_family(tables):
    """family -> (median cell seconds over passes, median RMSE, cells per pass)."""
    out = {}
    for fam in sorted({r.family for r in tables[0].rows}):
        per_pass = [statistics.median(r.wall_time for r in t.rows if r.family == fam)
                    for t in tables]
        rmses = [r.rmse for r in tables[0].rows if r.family == fam]
        out[fam] = (statistics.median(per_pass), statistics.median(rmses), len(rmses))
    return out


def traced_pass(cfg, n_cells, energy_sd, checks, reference):
    """One pass with every layer wrapped; (wall, Tracer, failed cells)."""
    import tracer
    tr = tracer.Tracer()
    with tr:
        leftovers = tracer.unwrapped_references()
        checks.add("tracer_covers_all_references", not leftovers, str(leftovers))
        wall, table, err = run_pass(cfg)
    failed = check_rows(table, n_cells, energy_sd, checks)
    if err:
        print(err, file=sys.stderr)
    else:
        checks.add("traced_rows_equal_untraced",
                   [_key(r) for r in table.rows] == [_key(r) for r in reference.rows],
                   "tracing changed the result rows")
    evals, logged = tr.calls["optimizer.objective"], tr.counts["optimizer.logged_evals"]
    checks.add("evals_match_logged", evals == logged, f"{evals} != {logged}")
    checks.add("fits_cover_loglik",
               tr.calls["gp.fit"] >= tr.calls["gp.log_marginal_likelihood"])
    return wall, tr, failed


# ---------------------------------------------------------------------------
# main


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    return json.loads(path.read_text())


def as_metrics(values, spec):
    """Values in the order and units the spec lists; every one must be present."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run(args):
    import_peskit()
    import workloads
    spec = load_spec()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_counter = capture_log(OUT / f"{stem}.log")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": workloads.config(args.workload, args.seed), "env": env}

    if not args.trace:
        setup_s, record["setup_runs"] = measure_setup(args.workload, args.seed)
    cfg, data = make_setup(args.workload, args.seed)
    n_cells = len(cfg.families) * len(cfg.n_train) * len(cfg.seeds)
    energy_sd = float(data.y.std())
    checks = Checks()

    walls, tables, attempted, failed = measure_passes(cfg, args.seconds, n_cells,
                                                      energy_sd, checks)
    record["pass_walls"] = walls
    metrics = {}
    if tables:
        wall_s = statistics.median(walls)
        fam = per_family(tables)
        record["rows"] = [asdict(r) for r in tables[0].rows]
        record["families"] = {f: {"cell_s": c, "rmse": e, "cells": n}
                              for f, (c, e, n) in fam.items()}
        for f, (c, e, n) in fam.items():
            print(f"{f:17s} cells={n:3d} cell_s={c:.4f} rmse={e:.2f} cm-1", flush=True)
        if not args.trace:
            metrics = as_metrics({"wall_s": wall_s, "setup_s": setup_s},
                                 spec["end_to_end"])
        else:
            traced_wall, tr, traced_failed = traced_pass(cfg, n_cells, energy_sd,
                                                         checks, tables[0])
            attempted += n_cells
            failed += traced_failed
            layer = tr.metrics(n_cells)
            layer["trace.overhead_share"] = traced_wall / wall_s - 1.0
            layer["log.warnings"] = log_counter.count
            layer["cell_fail_share"] = failed / attempted
            for f in workloads.FAMILIES:
                c, e, n = fam.get(f, (0.0, 0.0, 0))
                layer[f"cell_s.{f}"], layer[f"rmse.{f}"], layer[f"cells.{f}"] = c, e, n
            metrics = as_metrics(layer, spec["per_layer"])
            record["traced_wall"] = traced_wall

    record.update(checks=checks.report(), metrics=metrics,
                  log_warnings=log_counter.count)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for name, detail in checks.failures.items():
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    result = {"correct": not checks.failures and bool(tables),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def parse_args(argv=None):
    sys.path.insert(0, str(HERE))
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


if __name__ == "__main__":
    _args = parse_args()
    try:
        if _args.setup_probe:
            setup_probe(_args.workload, _args.seed)
        else:
            run(_args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
