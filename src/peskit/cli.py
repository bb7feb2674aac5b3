"""Command-line front end for kernel searches and benchmark runs.

``fit`` and the ``search-*`` subcommands run the config's first
(n_train, seed) cell through ``run_interpolation``, the path ``bench-interp``
takes, so they reproduce its rows and winners. ``fit`` runs one cell per
configured family; each search runs its own family's cell and writes that
cell's trace and winner.

Exit codes: 0 success, 2 config error, 3 data error, 4 compute failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from .bench import (ConfigError, ExperimentConfig, ResultTable, emit_reports,
                    run_extrapolation, run_interpolation, summarize,
                    write_artifacts)
from .data import DataError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _common_flags(p):
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="override: use this single seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--threads", type=int, default=None,
                   help="override worker thread count")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.out is not None:
        cfg.out_dir = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    return cfg


def _first_cell(args) -> ExperimentConfig:
    """The config narrowed to its first n_train and its first seed."""
    cfg = _load_config(args)
    cfg.n_train, cfg.seeds = cfg.n_train[:1], cfg.seeds[:1]
    return cfg


def cmd_fit(args):
    table, _ = run_interpolation(_first_cell(args))
    for row in table.rows:
        print(f"family={row.family} rmse={row.rmse:.4f} "
              f"criterion={row.criterion:.4f} M={row.M}")
    return EXIT_OK


def cmd_search(args, family):
    cfg = _first_cell(args)
    cfg.families = [family]
    _, artifacts = run_interpolation(cfg)
    write_artifacts(artifacts, cfg.out_dir)
    print(artifacts["winners"][family])
    return EXIT_OK


def cmd_bench_interp(args):
    cfg = _load_config(args)
    table, artifacts = run_interpolation(cfg)
    emit_reports(table, artifacts, cfg.out_dir)
    print(summarize(table), end="")
    return EXIT_OK


def cmd_bench_extrap(args):
    cfg = _load_config(args)
    table, artifacts = run_extrapolation(cfg)
    emit_reports(table, artifacts, cfg.out_dir)
    print(summarize(table), end="")
    return EXIT_OK


def cmd_report(args):
    results = Path(args.out or "results") / "results.csv"
    if args.config:
        cfg = _load_config(args)
        results = Path(cfg.out_dir) / "results.csv"
    if not results.exists():
        raise DataError(f"no results table at {results}")
    table = ResultTable.from_csv(results)
    summary = summarize(table)
    (results.parent / "summary.txt").write_text(summary)
    print(summary, end="")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="peskit",
        description="GP regression benchmarks on potential energy surfaces "
                    "with classical, NNGP, and quantum fidelity kernels")
    sub = p.add_subparsers(dest="command", required=True)
    handlers = {
        "fit": cmd_fit,
        "search-classical": functools.partial(cmd_search, family="composite"),
        "search-quantum": functools.partial(cmd_search,
                                            family="quantum-variable"),
        "search-nngp": functools.partial(cmd_search, family="nngp"),
        "bench-interp": cmd_bench_interp,
        "bench-extrap": cmd_bench_extrap,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        _common_flags(sp)
        sp.set_defaults(handler=fn)
    sp = sub.add_parser("report")
    sp.add_argument("--config", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(handler=cmd_report)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"compute failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
