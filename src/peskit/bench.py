"""Experiment harness: interpolation/extrapolation protocols over seeds.

Runs structure searches and GP fits per (kernel family, sample size, seed)
cell, with identical splits across families at a fixed seed, and collects
RMSE / score rows plus plot-ready traces.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .circuit_search import search_circuit
from .data import PES_KINDS, Dataset, DataError, load_csv, \
    split_energy_threshold, split_random, standardize, synth_pes, write_rows
from .gp import TraceRow, bic, fit, predict, rmse
from .kernel_search import search_classical
from .kernels import ClassicalKernel, Leaf, param_vector
from .nngp import search_depth
from .optimizer import maximize_logl, stable_seed
# unused here; perfbench/tests/test_tracer.py reads bench.maximize
from .optimizer import maximize
from .quantum import build_fixed_ansatz

__all__ = ["ConfigError", "ComputeError", "ExperimentConfig", "ResultRow",
           "ResultTable", "FAMILIES", "run_interpolation", "run_extrapolation",
           "write_artifacts", "emit_reports", "load_dataset"]

log = logging.getLogger(__name__)

FAMILIES = ("rbf", "composite", "nngp", "quantum-fixed", "quantum-variable")


class ConfigError(RuntimeError):
    """Invalid experiment configuration."""


class ComputeError(RuntimeError):
    """A compute step failed fatally."""


# smallest allowed value of each count in the config; a training set
# needs two points
_LEAST = {"classical_budget": 1, "final_budget": 1, "nngp_budget": 1,
          "nngp_max_depth": 1, "max_depth": 1, "beam_width": 1,
          "refine_budget": 1, "threads": 1, "n_train_extrap": 2}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_positive(value):
    return _is_number(value) and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    families: list
    seeds: list
    out_dir: str = "results"
    n_train: list = field(default_factory=lambda: [100, 200])
    thresholds: list = field(default_factory=lambda: [0.5])
    n_train_extrap: int = 1500
    classical_budget: int = 50
    refine_budget: int = 40
    final_budget: int = 200
    beam_width: int = 8
    nngp_budget: int = 50
    nngp_max_depth: int = 6
    max_depth: int = 8
    sigma_n: float = 0.0
    threads: int = 1

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"dataset", "families", "seeds"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)

    def __post_init__(self):
        """Check every value; ``dataclasses.replace`` checks again."""
        for key in ("families", "seeds", "n_train", "thresholds"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            if not getattr(self, key):
                raise ConfigError(f"{key} list must be nonempty")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown kernel family {fam!r}; "
                                  f"choose from {FAMILIES}")
        if not isinstance(self.dataset, dict) or "kind" not in self.dataset:
            raise ConfigError("dataset must be a dict with a 'kind' key")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("out_dir must be a nonempty string")
        for key, least in _LEAST.items():
            value = getattr(self, key)
            if not _is_int(value) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}")
        if not all(_is_int(n) and n >= 2 for n in self.n_train):
            raise ConfigError("each entry of n_train must be an integer >= 2")
        if not all(_is_number(t) and 0 < t < 1 for t in self.thresholds):
            raise ConfigError("each entry of thresholds must be a number "
                              "in (0, 1)")
        if not all(_is_int(s) for s in self.seeds):
            raise ConfigError("each entry of seeds must be an integer")
        for key in ("families", "seeds", "n_train", "thresholds"):
            values = getattr(self, key)
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:  # a repeated cell would rerun and overwrite its files
                raise ConfigError(f"{key} lists {repeats[0]!r} twice")
        if not (_is_number(self.sigma_n) and math.isfinite(self.sigma_n)
                and self.sigma_n >= 0):
            raise ConfigError("sigma_n must be a finite number >= 0")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc)


# the keys of a synthetic dataset block, with their defaults
_SYNTHETIC = {"dims": 3, "n_points": 1000, "seed": 0, "pes": "coupled-morse",
              "energy_top": 20000.0}


def load_dataset(spec: dict) -> Dataset:
    """Build the dataset named by the config's dataset block; a bad key or
    value raises ``ConfigError``."""
    kind = spec.get("kind")
    if kind == "synthetic":
        unknown = set(spec) - {"kind", *_SYNTHETIC}
        if unknown:
            raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
        s = {**_SYNTHETIC, **spec}
        for ok, rule in (
                (_is_int(s["dims"]) and 2 <= s["dims"] <= 6,
                 "dims must be an integer in [2, 6]"),
                (_is_int(s["n_points"]) and s["n_points"] >= 2,
                 "n_points must be an integer >= 2"),
                (_is_int(s["seed"]) and s["seed"] >= 0,
                 "seed must be an integer >= 0"),
                (s["pes"] in PES_KINDS, f"pes must be one of {PES_KINDS}"),
                (_is_positive(s["energy_top"]),
                 "energy_top must be a finite number > 0")):
            if not ok:
                raise ConfigError(f"dataset {rule}")
        return synth_pes(dims=s["dims"], n_points=s["n_points"],
                         seed=s["seed"], kind=s["pes"],
                         energy_top=s["energy_top"])
    if kind == "csv":
        unknown = set(spec) - {"kind", "path", "a"}
        if unknown:
            raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
        if not isinstance(spec.get("path"), str):
            raise ConfigError("csv dataset needs a 'path' string")
        a = spec.get("a")
        if a is not None and not _is_positive(a):
            raise ConfigError("dataset a must be a finite number > 0")
        return load_csv(spec["path"], a=a)
    raise ConfigError(f"unknown dataset kind {spec.get('kind')!r}")


@dataclass(frozen=True)
class ResultRow:
    family: str
    size: float  # n_train for interpolation, threshold fraction for extrapolation
    seed: int
    rmse: float
    score: float  # what the kernel's fit maximizes: logL, or logO if quantum
    criterion: float  # bic of score: BIC, or beta if quantum
    M: int
    n_test: int
    wall_time: float


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        write_rows(self.rows, ResultRow, path)

    @classmethod
    def from_csv(cls, path):
        """Read a table ``to_csv`` wrote; a row with a missing column or a
        value of the wrong type raises ``DataError`` naming its line."""
        table = cls()
        types = get_type_hints(ResultRow)  # the declared types, not strings
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                values = {}
                for f in fields(ResultRow):
                    try:  # a short row holds None, a missing column no key
                        values[f.name] = types[f.name](row[f.name])
                    except (KeyError, TypeError, ValueError):
                        raise DataError(
                            f"{path}: line {reader.line_num}: bad or missing "
                            f"{f.name} {row.get(f.name)!r}") from None
                table.rows.append(ResultRow(**values))
        return table


# ---------------------------------------------------------------------------
# per-family model construction

def _fit_family(family, train, cfg, seed):
    """(kernel, fitted ParamVector, SearchTrace or None) of ``family`` on
    ``train``. Each search is looked up by this module's name at call time,
    so a wrapper put on that name runs; the two fixed kernels share a fit."""
    if family == "composite":
        return search_classical(train, cfg, seed)
    if family == "nngp":
        return search_depth(train, cfg, seed)
    if family == "quantum-variable":
        return search_circuit(train, cfg, seed)
    if family == "rbf":
        kernel = ClassicalKernel(expr=Leaf(kind="RBF", params=(1.0,)))
        pv, budget = param_vector(kernel.expr), cfg.classical_budget
    else:
        kernel = build_fixed_ansatz(train.dims)
        pv, budget = kernel.default_params(), cfg.final_budget
    res = maximize_logl(kernel, pv, train.X, train.y, budget,
                        stable_seed(seed, family), cfg.sigma_n)
    return kernel, pv.with_values(res.best_point), None


def _run_cell(family, data, split, size, seed, cfg):
    t0 = time.perf_counter()
    train = data.subset(split.train)
    # the one place targets are standardized; RMSE stays in cm^-1
    ys, mean, scale = standardize(train.y)
    train_std = Dataset(X=train.X, y=ys)
    kernel, params, trace = _fit_family(family, train_std, cfg, seed)
    gp = fit(kernel, params, train_std.X, train_std.y, sigma_n=cfg.sigma_n)
    score = kernel.objective(gp.logL)
    n_test = int(split.test.size)
    err = (rmse(mean + scale * predict(gp, data.X[split.test]),
                data.y[split.test])
           if n_test else float("nan"))
    row = ResultRow(family=family, size=size, seed=seed, rmse=err,
                    score=score, criterion=bic(score, params.size, train.n),
                    M=params.size, n_test=n_test,
                    wall_time=time.perf_counter() - t0)
    return row, trace, kernel.describe(params)


def _run_cells(cells, cfg):
    """Run config cells, optionally across threads; results keep cell order."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(lambda c: _run_cell(*c, cfg), cells))
    return [_run_cell(*c, cfg) for c in cells]


def _collect(cfg, data, sizes, split):
    """Run every family x size x seed cell of ``cfg`` on ``data``, in that
    order, each on the split ``split(size, seed)`` makes; sorted rows, and
    each cell's trace and winner keyed by the cell's name."""
    cells = [(family, data, split(size, seed), size, seed)
             for family in cfg.families for size in sizes
             for seed in cfg.seeds]
    results = _run_cells(cells, cfg)
    table = ResultTable()
    traces, winners = {}, {}
    for cell, (row, trace, winner) in zip(cells, results):
        family, _, _, size, seed = cell
        name = f"{family}_{_size_tag(size)}_{seed}"
        table.rows.append(row)
        if trace is not None:
            traces[name] = trace
        winners[name] = winner
    table.rows.sort(key=lambda r: (r.family, r.size, r.seed))
    return table, {"traces": traces, "winners": winners}


def _size_tag(size):
    return str(int(size)) if float(size).is_integer() else str(size)


def run_interpolation(config: ExperimentConfig):
    """Random-split learning curves; identical splits across families per seed."""
    data = load_dataset(config.dataset)
    for n_train in config.n_train:
        if not 0 < n_train < data.n:
            raise ConfigError(f"n_train={n_train} must be in (0, {data.n})")
    return _collect(config, data, config.n_train, lambda n, seed: split_random(
        data, n, seed=stable_seed("interp", n, seed)))


def run_extrapolation(config: ExperimentConfig):
    """Energy-threshold splits: train below, test on everything above."""
    data = load_dataset(config.dataset)
    return _collect(config, data, config.thresholds, lambda frac, seed: (
        split_energy_threshold(data, frac, config.n_train_extrap,
                               seed=stable_seed("extrap", frac, seed))))


# ---------------------------------------------------------------------------
# reports

def write_artifacts(artifacts, outdir):
    """Write trace CSVs and winner serializations; return the paths written."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ComputeError(f"cannot create output directory {outdir}: {exc}")
    written = []
    for name, trace in artifacts.get("traces", {}).items():
        path = out / f"trace_{name}.csv"
        write_rows(trace, TraceRow, path)
        written.append(path)
    for name, winner in artifacts.get("winners", {}).items():
        suffix = "json" if winner.lstrip().startswith("{") else "txt"
        path = out / f"winner_{name}.{suffix}"
        path.write_text(winner + "\n")
        written.append(path)
    return written


def emit_reports(table: ResultTable, artifacts, outdir):
    """Write the artifacts, results.csv and summary.txt; delete the trace
    and winner files in ``outdir`` that this run did not write."""
    written = write_artifacts(artifacts, outdir)
    out = Path(outdir)
    for stale in {*out.glob("trace_*"), *out.glob("winner_*")} - set(written):
        stale.unlink()
    table.to_csv(out / "results.csv")
    (out / "summary.txt").write_text(summarize(table))
    return written + [out / "results.csv", out / "summary.txt"]


def summarize(table: ResultTable) -> str:
    """Best-RMSE row per family; its size and seed name its winner file."""
    lines = ["best RMSE per kernel family"]
    best = {}
    for r in table.rows:
        if r.family not in best or r.rmse < best[r.family].rmse:
            best[r.family] = r
    for family in sorted(best):
        r = best[family]
        lines.append(f"{family}: rmse={r.rmse:.4f} size={_size_tag(r.size)} "
                     f"seed={r.seed} M={r.M} criterion={r.criterion:.4f}")
    return "\n".join(lines) + "\n"
