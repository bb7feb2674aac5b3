import json

import numpy as np
import pytest

from peskit import cli
from peskit.bench import (ConfigError, ExperimentConfig, ResultRow,
                          ResultTable, emit_reports, load_dataset,
                          run_extrapolation, run_interpolation, summarize)
from peskit.data import DataError


def _config(**overrides):
    doc = {
        "dataset": {"kind": "synthetic", "dims": 2, "n_points": 90,
                    "seed": 0, "pes": "morse-sum"},
        "families": ["rbf"],
        "seeds": [0],
        "n_train": [40],
        "classical_budget": 6,
        "final_budget": 6,
        "nngp_budget": 6,
        "refine_budget": 4,
        "beam_width": 2,
        "nngp_max_depth": 2,
        "max_depth": 2,
        "sigma_n": 0.1,
    }
    doc.update(overrides)
    return doc


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_config(bogus=1))
    with pytest.raises(ConfigError, match="missing config keys"):
        ExperimentConfig.from_dict({"dataset": {"kind": "synthetic"}})
    with pytest.raises(ConfigError, match="unknown kernel family"):
        ExperimentConfig.from_dict(_config(families=["svm"]))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict(_config(seeds=[]))
    with pytest.raises(ConfigError, match="dataset"):
        ExperimentConfig.from_dict(_config(dataset={"dims": 2}))


def test_load_dataset_validation():
    with pytest.raises(ConfigError):
        load_dataset({"kind": "hdf5"})
    with pytest.raises(ConfigError):
        load_dataset({"kind": "synthetic", "n_samples": 10})
    with pytest.raises(ConfigError):
        load_dataset({"kind": "csv"})
    data = load_dataset({"kind": "synthetic", "dims": 2, "n_points": 30,
                         "seed": 1})
    assert data.n == 30


def test_interpolation_row_count_and_order():
    cfg = ExperimentConfig.from_dict(
        _config(n_train=[30, 40], seeds=[0, 1, 2]))
    table, _ = run_interpolation(cfg)
    assert len(table.rows) == 6
    keys = [(r.family, r.size, r.seed) for r in table.rows]
    assert keys == sorted(keys)
    assert all(r.rmse >= 0 for r in table.rows)
    assert all(r.n_test == 90 - r.size for r in table.rows)


def test_interpolation_is_deterministic():
    cfg = ExperimentConfig.from_dict(_config(seeds=[0, 1]))
    t1, _ = run_interpolation(cfg)
    t2, _ = run_interpolation(cfg)
    for a, b in zip(t1.rows, t2.rows):
        assert a.rmse == b.rmse and a.score == b.score


def test_splits_identical_across_families():
    # both families must see the same train indices at a fixed seed, which
    # forces identical test-set sizes and a shared data view
    cfg = ExperimentConfig.from_dict(_config(families=["rbf", "nngp"]))
    table, _ = run_interpolation(cfg)
    by_family = {r.family: r for r in table.rows}
    assert by_family["rbf"].n_test == by_family["nngp"].n_test
    from peskit.data import split_random
    from peskit.optimizer import stable_seed
    data = load_dataset(cfg.dataset)
    s1 = split_random(data, 40, seed=stable_seed("interp", 40, 0))
    s2 = split_random(data, 40, seed=stable_seed("interp", 40, 0))
    assert set(s1.train) == set(s2.train)


def test_threads_do_not_change_results():
    cfg1 = ExperimentConfig.from_dict(_config(seeds=[0, 1]))
    cfg2 = ExperimentConfig.from_dict(_config(seeds=[0, 1], threads=2))
    t1, _ = run_interpolation(cfg1)
    t2, _ = run_interpolation(cfg2)
    assert [(r.rmse, r.score) for r in t1.rows] == \
        [(r.rmse, r.score) for r in t2.rows]


def test_extrapolation_rows_and_tiny_test_set():
    cfg = ExperimentConfig.from_dict(
        _config(thresholds=[0.5, 0.99], n_train_extrap=20))
    table, _ = run_extrapolation(cfg)
    assert len(table.rows) == 2
    keys = [(r.family, r.size, r.seed) for r in table.rows]
    assert keys == sorted(keys)
    tiny = [r for r in table.rows if r.size == 0.99][0]
    assert tiny.n_test < 20  # almost everything sits below the threshold


def test_result_table_csv_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict(_config())
    table, _ = run_interpolation(cfg)
    path = tmp_path / "results.csv"
    table.to_csv(path)
    back = ResultTable.from_csv(path)
    assert back.rows == table.rows


def test_emit_reports_files_and_idempotency(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _config(families=["rbf", "composite"], out_dir=str(tmp_path)))
    table, artifacts = run_interpolation(cfg)
    written = emit_reports(table, artifacts, tmp_path)
    names = {p.name for p in written}
    assert "results.csv" in names
    assert "summary.txt" in names
    assert "winner_rbf.txt" in names
    assert "winner_composite.txt" in names
    assert any(n.startswith("trace_composite") for n in names)
    first = (tmp_path / "results.csv").read_text()
    emit_reports(table, artifacts, tmp_path)
    assert (tmp_path / "results.csv").read_text() == first


def test_summary_best_row_per_family():
    rows = [ResultRow("rbf", 40, 0, 5.0, 0, 0, 1, 10, 0.1),
            ResultRow("rbf", 40, 1, 3.0, 0, 0, 1, 10, 0.1),
            ResultRow("nngp", 40, 0, 4.0, 0, 0, 4, 10, 0.1)]
    text = summarize(ResultTable(rows=rows))
    lines = text.strip().splitlines()
    assert len(lines) == 3  # header plus one line per family
    assert any("rmse=3.0000" in ln for ln in lines)
    assert sum("rbf:" in ln for ln in lines) == 1


# ---------------------------------------------------------------------------
# command-line interface

def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(**overrides)))
    return str(path)


def test_cli_fit_runs(tmp_path, capsys):
    rc = cli.main(["fit", "--config", _write_config(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "family=rbf" in out and "rmse=" in out


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(bogus=True)))
    assert cli.main(["fit", "--config", str(path)]) == cli.EXIT_CONFIG
    path.write_text("{not json")
    assert cli.main(["fit", "--config", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["fit", "--config", str(tmp_path / "missing.json")]) \
        == cli.EXIT_CONFIG


def test_cli_data_error_exit_code(tmp_path):
    cfg = _config(dataset={"kind": "csv", "path": str(tmp_path / "no.csv")})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["fit", "--config", str(path)])
    assert rc == cli.EXIT_DATA


def test_cli_compute_error_exit_code(tmp_path):
    # n_train larger than the dataset is caught as a config problem
    path = _write_config(tmp_path, n_train=[500])
    for command in ("fit", "bench-interp"):
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG


def test_cli_bench_interp_and_report(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = _write_config(tmp_path, out_dir=str(out_dir))
    assert cli.main(["bench-interp", "--config", path]) == cli.EXIT_OK
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.txt").exists()
    capsys.readouterr()
    assert cli.main(["report", "--config", path]) == cli.EXIT_OK
    assert "best RMSE per kernel family" in capsys.readouterr().out


def test_cli_report_without_results_is_data_error(tmp_path):
    assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA


def test_cli_seed_and_out_overrides(tmp_path):
    out_dir = tmp_path / "override"
    path = _write_config(tmp_path, seeds=[0, 1, 2])
    rc = cli.main(["bench-interp", "--config", path, "--seed", "7",
                   "--out", str(out_dir)])
    assert rc == cli.EXIT_OK
    table = ResultTable.from_csv(out_dir / "results.csv")
    assert {r.seed for r in table.rows} == {7}


def test_cli_search_subcommands(tmp_path, capsys):
    out_dir = tmp_path / "searches"
    path = _write_config(tmp_path, out_dir=str(out_dir),
                         dataset={"kind": "synthetic", "dims": 3,
                                  "n_points": 70, "seed": 0,
                                  "pes": "coupled-morse"})
    assert cli.main(["search-classical", "--config", path]) == cli.EXIT_OK
    assert (out_dir / "winner_composite.txt").exists()
    assert cli.main(["search-quantum", "--config", path]) == cli.EXIT_OK
    winner = json.loads((out_dir / "winner_quantum-variable.json").read_text())
    assert winner["m"] == 3
    assert cli.main(["search-nngp", "--config", path]) == cli.EXIT_OK
    doc = json.loads((out_dir / "winner_nngp.json").read_text())
    assert doc["depth"] >= 1


def test_cli_fit_and_search_reproduce_bench_rows(tmp_path, capsys):
    bench_dir, search_dir = tmp_path / "bench", tmp_path / "search"
    path = _write_config(tmp_path, families=["rbf", "composite", "nngp"],
                         seeds=[0, 1])
    assert cli.main(["bench-interp", "--config", path, "--seed", "1",
                     "--out", str(bench_dir)]) == cli.EXIT_OK
    rows = ResultTable.from_csv(bench_dir / "results.csv").rows
    capsys.readouterr()
    assert cli.main(["fit", "--config", path, "--seed", "1"]) == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"family={r.family} rmse={r.rmse:.4f} "
                       f"criterion={r.criterion:.4f} M={r.M}" for r in rows]
    for command, winner in (("search-classical", "winner_composite.txt"),
                            ("search-nngp", "winner_nngp.json")):
        assert cli.main([command, "--config", path, "--seed", "1",
                         "--out", str(search_dir)]) == cli.EXIT_OK
        assert (search_dir / winner).read_text() == \
            (bench_dir / winner).read_text()
    assert (search_dir / "trace_composite_40_1.csv").exists()
    assert not (search_dir / "results.csv").exists()
