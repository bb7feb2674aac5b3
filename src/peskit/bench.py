"""Experiment harness: interpolation/extrapolation protocols over seeds.

Runs structure searches and GP fits per (kernel family, sample size, seed)
cell, with identical splits across families at a fixed seed, and collects
RMSE / score rows plus plot-ready traces.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import circuit_search, kernel_search, nngp
from .circuit_search import CircuitSearchConfig, search_circuit
from .data import Dataset, DataError, load_csv, split_energy_threshold, \
    split_random, standardize, synth_pes
from .gp import ModelScore, fit, log_marginal_likelihood, predict, rmse, \
    surrogate_objective
from .kernel_search import ClassicalSearchConfig, search_classical
from .kernels import ClassicalKernel, Leaf, param_vector, serialize
from .nngp import NNGPSearchConfig, search_depth
from .optimizer import SearchSpace, maximize, stable_seed
from .quantum import QuantumKernel, build_fixed_ansatz

__all__ = ["ConfigError", "ComputeError", "ExperimentConfig", "ResultRow",
           "ResultTable", "FAMILIES", "run_interpolation", "run_extrapolation",
           "write_artifacts", "emit_reports", "load_dataset"]

log = logging.getLogger(__name__)

FAMILIES = ("rbf", "composite", "nngp", "quantum-fixed", "quantum-variable")


class ConfigError(RuntimeError):
    """Invalid experiment configuration."""


class ComputeError(RuntimeError):
    """A compute step failed fatally."""


@dataclass
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
    eps_beta: float = 0.5
    eps_bic_rel: float = 0.01
    eps_bic_abs: float = 0.5
    nngp_budget: int = 50
    nngp_max_depth: int = 6
    max_depth: int = 8
    sigma_n: float = 0.0
    jitter: float = 1e-10
    threads: int = 1

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"dataset", "families", "seeds"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        cfg = cls(**doc)
        for fam in cfg.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown kernel family {fam!r}; "
                                  f"choose from {FAMILIES}")
        if not cfg.seeds:
            raise ConfigError("seeds list must be nonempty")
        if not isinstance(cfg.dataset, dict) or "kind" not in cfg.dataset:
            raise ConfigError("dataset must be a dict with a 'kind' key")
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc)


def load_dataset(spec: dict) -> Dataset:
    """Build the dataset named by the config's dataset block."""
    kind = spec.get("kind")
    if kind == "synthetic":
        known = {"kind", "dims", "n_points", "seed", "pes", "energy_top"}
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
        return synth_pes(dims=spec.get("dims", 3),
                         n_points=spec.get("n_points", 1000),
                         seed=spec.get("seed", 0),
                         kind=spec.get("pes", "coupled-morse"),
                         energy_top=spec.get("energy_top", 20000.0))
    if kind == "csv":
        unknown = set(spec) - {"kind", "path", "a"}
        if unknown:
            raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
        if "path" not in spec:
            raise ConfigError("csv dataset needs a 'path'")
        return load_csv(spec["path"], a=spec.get("a"))
    raise ConfigError(f"unknown dataset kind {spec.get('kind')!r}")


@dataclass(frozen=True)
class ResultRow:
    family: str
    size: float  # n_train for interpolation, threshold fraction for extrapolation
    seed: int
    rmse: float
    score: float  # logL (classical/nngp) or logO (quantum)
    criterion: float  # bic or beta
    M: int
    n_test: int
    wall_time: float


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    HEADER = ("family", "size", "seed", "rmse", "score", "criterion", "M",
              "n_test", "wall_time")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.HEADER)
            for r in self.rows:
                w.writerow([getattr(r, h) for h in self.HEADER])

    @classmethod
    def from_csv(cls, path):
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                table.rows.append(ResultRow(
                    family=row["family"], size=float(row["size"]),
                    seed=int(row["seed"]), rmse=float(row["rmse"]),
                    score=float(row["score"]), criterion=float(row["criterion"]),
                    M=int(row["M"]), n_test=int(row["n_test"]),
                    wall_time=float(row["wall_time"])))
        return table


# ---------------------------------------------------------------------------
# per-family model construction

def _fit_rbf(train, cfg, seed):
    expr = Leaf(kind="RBF", params=(1.0,), coef=None)
    kernel = ClassicalKernel(expr=expr)
    pv = param_vector(expr)

    def objective(v):
        return log_marginal_likelihood(kernel, pv.with_values(v),
                                       train.X, train.y,
                                       sigma_n=cfg.sigma_n, jitter=cfg.jitter)

    res = maximize(objective, SearchSpace.from_params(pv), cfg.classical_budget,
                   seed=stable_seed(seed, "rbf"), warm_start=pv.values)
    return kernel, pv.with_values(res.best_point), None, serialize(expr)


def _fit_composite(train, cfg, seed):
    scfg = ClassicalSearchConfig(budget=cfg.classical_budget,
                                 final_budget=cfg.final_budget,
                                 eps_rel=cfg.eps_bic_rel,
                                 eps_abs=cfg.eps_bic_abs,
                                 max_depth=cfg.max_depth, seed=seed,
                                 sigma_n=cfg.sigma_n, jitter=cfg.jitter)
    expr, params, trace = search_classical(train, scfg)
    return ClassicalKernel(expr=expr), params, trace, serialize(expr)


def _fit_nngp(train, cfg, seed):
    ncfg = NNGPSearchConfig(budget=cfg.nngp_budget,
                            max_depth=cfg.nngp_max_depth, seed=seed,
                            sigma_n=cfg.sigma_n, jitter=cfg.jitter)
    kernel, params, trace = search_depth(train, ncfg)
    winner = json.dumps({"depth": kernel.depth,
                         "params": params.values.tolist()})
    return kernel, params, trace, winner


def _fit_quantum_fixed(train, cfg, seed):
    spec = build_fixed_ansatz(train.dims)
    kernel = QuantumKernel(spec)
    pv = spec.default_params()

    def objective(v):
        logL = log_marginal_likelihood(kernel, pv.with_values(v),
                                       train.X, train.y,
                                       sigma_n=cfg.sigma_n, jitter=cfg.jitter)
        return surrogate_objective(logL)

    res = maximize(objective, SearchSpace.from_params(pv), cfg.final_budget,
                   seed=stable_seed(seed, "quantum-fixed"),
                   warm_start=pv.values)
    return kernel, pv.with_values(res.best_point), None, spec.to_json()


def _fit_quantum_variable(train, cfg, seed):
    qcfg = CircuitSearchConfig(refine_budget=cfg.refine_budget,
                               final_budget=cfg.final_budget,
                               eps_beta=cfg.eps_beta,
                               max_depth=cfg.max_depth, seed=seed,
                               sigma_n=cfg.sigma_n, jitter=cfg.jitter)
    spec, params, trace = search_circuit(train, cfg.beam_width, qcfg)
    return QuantumKernel(spec), params, trace, spec.to_json()


_FITTERS = {
    "rbf": _fit_rbf,
    "composite": _fit_composite,
    "nngp": _fit_nngp,
    "quantum-fixed": _fit_quantum_fixed,
    "quantum-variable": _fit_quantum_variable,
}

_QUANTUM = ("quantum-fixed", "quantum-variable")


def _run_cell(family, data, split, size, seed, cfg):
    t0 = time.perf_counter()
    train = data.subset(split.train)
    # searches and scores operate on standardized targets; RMSE stays in cm^-1
    ys, mean, scale = standardize(train.y)
    train_std = Dataset(X=train.X, y=ys, source=train.source)
    kernel, params, trace, winner = _FITTERS[family](train_std, cfg, seed)
    gp = fit(kernel, params, train_std.X, train_std.y,
             sigma_n=cfg.sigma_n, jitter=cfg.jitter)
    score = ModelScore.from_logL(gp.logL, params.size, train.n)
    n_test = int(split.test.size)
    err = (rmse(mean + scale * predict(gp, data.X[split.test]),
                data.y[split.test])
           if n_test else float("nan"))
    quantum = family in _QUANTUM
    row = ResultRow(family=family, size=size, seed=seed, rmse=err,
                    score=score.logO if quantum else score.logL,
                    criterion=score.beta if quantum else score.bic,
                    M=score.M, n_test=n_test,
                    wall_time=time.perf_counter() - t0)
    return row, trace, winner


def _run_cells(cells, cfg):
    """Run config cells, optionally across threads; results keep cell order."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(lambda c: _run_cell(*c, cfg), cells))
    return [_run_cell(*c, cfg) for c in cells]


def _collect(cells, cfg, sort_key):
    results = _run_cells(cells, cfg)
    table = ResultTable()
    traces, winners = {}, {}
    for cell, (row, trace, winner) in zip(cells, results):
        family, _, _, size, seed = cell
        table.rows.append(row)
        if trace is not None:
            traces[f"trace_{family}_{_size_tag(size)}_{seed}"] = trace
        winners.setdefault(family, []).append((row.rmse, winner))
    table.rows.sort(key=sort_key)
    best_winners = {fam: min(ws, key=lambda t: (np.nan_to_num(t[0], nan=np.inf)))[1]
                    for fam, ws in winners.items()}
    return table, {"traces": traces, "winners": best_winners}


def _size_tag(size):
    return str(int(size)) if float(size).is_integer() else str(size)


def run_interpolation(config: ExperimentConfig):
    """Random-split learning curves; identical splits across families per seed."""
    data = load_dataset(config.dataset)
    for n_train in config.n_train:
        if not 0 < n_train < data.n:
            raise ConfigError(f"n_train={n_train} must be in (0, {data.n})")
    cells = []
    for family in config.families:
        for n_train in config.n_train:
            for seed in config.seeds:
                split = split_random(data, n_train, seed=stable_seed("interp", n_train, seed))
                cells.append((family, data, split, n_train, seed))
    return _collect(cells, config,
                    sort_key=lambda r: (r.family, r.size, r.seed))


def run_extrapolation(config: ExperimentConfig):
    """Energy-threshold splits: train below, test on everything above."""
    data = load_dataset(config.dataset)
    cells = []
    for family in config.families:
        for frac in config.thresholds:
            for seed in config.seeds:
                split = split_energy_threshold(
                    data, frac, config.n_train_extrap,
                    seed=stable_seed("extrap", frac, seed),
                    allow_empty_test=True)
                cells.append((family, data, split, frac, seed))
    return _collect(cells, config,
                    sort_key=lambda r: (r.family, r.size, r.seed))


# ---------------------------------------------------------------------------
# reports

def _write_trace(trace, path):
    if isinstance(trace, kernel_search.SearchTrace):
        trace.to_csv(path)
    elif trace and isinstance(trace[0], circuit_search.CircuitTraceRow):
        circuit_search.trace_to_csv(trace, path)
    else:  # NNGP depth trace
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["depth", "logL", "M", "wall_time"])
            for r in trace:
                w.writerow([r.depth, r.logL, r.M, r.wall_time])


def write_artifacts(artifacts, outdir):
    """Write trace CSVs and winner serializations; return the paths written."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ComputeError(f"cannot create output directory {outdir}: {exc}")
    written = []
    for name, trace in artifacts.get("traces", {}).items():
        path = out / f"{name}.csv"
        _write_trace(trace, path)
        written.append(path)
    for family, winner in artifacts.get("winners", {}).items():
        suffix = "json" if winner.lstrip().startswith("{") else "txt"
        path = out / f"winner_{family}.{suffix}"
        path.write_text(winner + "\n")
        written.append(path)
    return written


def emit_reports(table: ResultTable, artifacts, outdir):
    """Write the artifacts, results.csv and summary.txt."""
    written = write_artifacts(artifacts, outdir)
    out = Path(outdir)
    table.to_csv(out / "results.csv")
    (out / "summary.txt").write_text(summarize(table))
    return written + [out / "results.csv", out / "summary.txt"]


def summarize(table: ResultTable) -> str:
    """Best-RMSE row per family, one line each."""
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
