"""Command-line front end for kernel searches and benchmark runs.

``fit`` and the ``search-*`` subcommands run the config's first
(n_train, seed) cell through ``run_interpolation``, the path ``bench-interp``
takes, so they reproduce its rows and files. ``fit`` runs one cell per
family; each search runs its own family's cell and writes that cell's
``trace_<family>_<n>_<seed>.csv`` and ``winner_<family>_<n>_<seed>.*``.

Exit codes: 0 success, 2 config error, 3 data error, 4 compute failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from dataclasses import replace
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
    """The config file with the flags applied; ``replace`` checks each."""
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=[args.seed])
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def _first_cell(args) -> ExperimentConfig:
    """The config narrowed to its first n_train and its first seed."""
    cfg = _load_config(args)
    return replace(cfg, n_train=cfg.n_train[:1], seeds=cfg.seeds[:1])


def cmd_fit(args):
    table, _ = run_interpolation(_first_cell(args))
    for row in table.rows:
        print(f"family={row.family} rmse={row.rmse:.4f} "
              f"criterion={row.criterion:.4f} M={row.M}")
    return EXIT_OK


def cmd_search(args, family):
    cfg = replace(_first_cell(args), families=[family])
    _, artifacts = run_interpolation(cfg)
    write_artifacts(artifacts, cfg.out_dir)
    print(*artifacts["winners"].values())  # the one cell's winner
    return EXIT_OK


def cmd_bench(args, run, subdir=""):
    cfg = _load_config(args)
    table, artifacts = run(cfg)
    emit_reports(table, artifacts, Path(cfg.out_dir) / subdir)
    print(summarize(table), end="")
    return EXIT_OK


def cmd_report(args):
    out_dir = ExperimentConfig.out_dir  # the config's default
    if args.config:
        out_dir = ExperimentConfig.from_json(args.config).out_dir
    if args.out is not None:
        out_dir = args.out
    if not out_dir:  # refused as ExperimentConfig refuses it
        raise ConfigError("out_dir must be a nonempty string")
    results = Path(out_dir) / "results.csv"
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
        "bench-interp": functools.partial(cmd_bench, run=run_interpolation),
        # a subdirectory, so an interpolation run's files in out_dir remain
        "bench-extrap": functools.partial(cmd_bench, run=run_extrapolation,
                                          subdir="extrap"),
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        _common_flags(sp)
        sp.set_defaults(handler=fn)
    sp = sub.add_parser("report")
    sp.add_argument("--config", default=None,
                    help="JSON experiment config naming the results directory")
    sp.add_argument("--out", default=None, help="results directory")
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
