import dataclasses
import json

import numpy as np
import pytest

from peskit import bench, cli
from peskit.bench import (FAMILIES, ConfigError, ExperimentConfig, ResultRow,
                          ResultTable, emit_reports, load_dataset,
                          run_extrapolation, run_interpolation, summarize)
from peskit.data import DataError, split_random, standardize
from peskit.gp import bic, fit, surrogate_objective
from peskit.kernels import ClassicalKernel, param_vector
from peskit.nngp import NNGPKernel
from peskit.optimizer import stable_seed
from peskit.quantum import build_fixed_ansatz
from kernel_oracle import read_expr
from quantum_oracle import read_winner


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
    # bogus, and the settings that became constants
    for key, value in (("bogus", 1), ("jitter", 1e-10), ("eps_beta", 0.5),
                       ("eps_bic_rel", 0.01), ("eps_bic_abs", 0.5)):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(_config(**{key: value}))
    with pytest.raises(ConfigError, match="missing config keys"):
        ExperimentConfig.from_dict({"dataset": {"kind": "synthetic"}})
    with pytest.raises(ConfigError, match="unknown kernel family"):
        ExperimentConfig.from_dict(_config(families=["svm"]))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict(_config(seeds=[]))
    with pytest.raises(ConfigError, match="dataset"):
        ExperimentConfig.from_dict(_config(dataset={"dims": 2}))
    for key, bad in (("classical_budget", 0), ("final_budget", 0),
                     ("nngp_budget", 0), ("nngp_max_depth", 0),
                     ("beam_width", 0), ("refine_budget", 0),
                     ("refine_budget", -1),
                     ("nngp_budget", "5"), ("threads", 0),
                     ("threads", "2"), ("threads", 1.5), ("max_depth", 0),
                     ("beam_width", True), ("threads", True)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(_config(**{key: bad}))
    for bad in (-0.1, float("nan"), float("inf"), "0.1", None, True):
        with pytest.raises(ConfigError, match="sigma_n"):
            ExperimentConfig.from_dict(_config(sigma_n=bad))
    for doc in (None, 5, [], "config"):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(doc)


def test_config_is_frozen_and_replace_checks_again():
    cfg = ExperimentConfig.from_dict(_config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seeds = [1]
    assert dataclasses.replace(cfg, seeds=[1]).seeds == [1]
    with pytest.raises(ConfigError, match="beam_width"):
        dataclasses.replace(cfg, beam_width=0)


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
    synthetic = {"kind": "synthetic", "dims": 2, "n_points": 30}
    for key, bad in (("dims", 7), ("dims", 1), ("dims", "3"), ("dims", 2.0),
                     ("n_points", 1), ("n_points", 30.5), ("seed", -1),
                     ("seed", "0"), ("seed", True), ("pes", "foo"),
                     ("pes", None), ("energy_top", 0),
                     ("energy_top", float("inf")), ("energy_top", "1e4")):
        with pytest.raises(ConfigError, match=key):
            load_dataset({**synthetic, key: bad})
    for bad in (0, -2.5, float("nan"), "2.5", True):
        with pytest.raises(ConfigError, match="dataset a"):
            load_dataset({"kind": "csv", "path": "pes.csv", "a": bad})
    with pytest.raises(ConfigError, match="path"):
        load_dataset({"kind": "csv", "path": 5})


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
    data = load_dataset(cfg.dataset)
    s1 = split_random(data, 40, seed=stable_seed("interp", 40, 0))
    s2 = split_random(data, 40, seed=stable_seed("interp", 40, 0))
    assert set(s1.train) == set(s2.train)


def test_threads_do_not_change_results():
    # rows, every trace record but its wall time, and every cell's winner
    cfg1 = ExperimentConfig.from_dict(_config(families=list(FAMILIES),
                                              seeds=[0, 1]))
    cfg2 = dataclasses.replace(cfg1, threads=2)
    t1, a1 = run_interpolation(cfg1)
    t2, a2 = run_interpolation(cfg2)
    assert [(r.rmse, r.score) for r in t1.rows] == \
        [(r.rmse, r.score) for r in t2.rows]

    def records(artifacts):
        return {name: [dataclasses.replace(r, wall_time=0.0) for r in trace]
                for name, trace in artifacts["traces"].items()}

    assert len(a1["traces"]) == 6  # composite, nngp, quantum-variable cells
    assert records(a1) == records(a2)
    assert len(a1["winners"]) == 10
    assert a1["winners"] == a2["winners"]


def test_row_score_is_the_fit_objective_and_criterion_its_bic(monkeypatch):
    # each cell fits its winner once through bench.fit; its row's score is
    # what the kernel's fit maximizes (logO for the quantum families, logL
    # for the rest) and its criterion the BIC form of that score
    fitted, fit = [], bench.fit

    def spy(kernel, params, X, y, **kwargs):
        gp = fit(kernel, params, X, y, **kwargs)
        fitted.append((kernel, params.size, gp.logL))
        return gp

    monkeypatch.setattr(bench, "fit", spy)
    cfg = ExperimentConfig.from_dict(_config(families=list(FAMILIES)))
    table, _ = run_interpolation(cfg)
    rows = {r.family: r for r in table.rows}
    assert len(rows) == len(fitted) == len(FAMILIES)
    for family, (kernel, M, logL) in zip(cfg.families, fitted):
        row = rows[family]
        assert row.score == kernel.objective(logL)
        if family.startswith("quantum"):
            assert row.score == surrogate_objective(logL)
        else:
            assert row.score == logL
        assert row.M == M
        assert row.criterion == bic(row.score, row.M, 40)


def _rebuild(family, text):
    """(kernel, fitted ParamVector) read back from a cell's winner text."""
    if family in ("rbf", "composite"):
        kernel = ClassicalKernel(expr=read_expr(text))
        return kernel, param_vector(kernel.expr)
    if family == "nngp":
        doc = json.loads(text)
        kernel = NNGPKernel(depth=doc["depth"])
        return kernel, kernel.default_params().with_values(doc["params"])
    return read_winner(text)


def test_every_winner_reproduces_its_row():
    # each cell writes its own winner: the fitted kernel, which rebuilt from
    # its text and refit on that cell's standardized training set scores
    # that cell's row's score
    cfg = ExperimentConfig.from_dict(_config(
        families=list(FAMILIES), n_train=[30, 40], seeds=[0, 1],
        classical_budget=12))
    table, artifacts = run_interpolation(cfg)
    winners = artifacts["winners"]
    assert sorted(winners) == sorted(f"{r.family}_{r.size}_{r.seed}"
                                     for r in table.rows)
    assert len(table.rows) == 20
    data = load_dataset(cfg.dataset)
    for row in table.rows:
        text = winners[f"{row.family}_{row.size}_{row.seed}"]
        kernel, params = _rebuild(row.family, text)
        assert kernel.describe(params) == text
        assert params.size == row.M
        if row.family == "rbf":  # the fitted lengthscale, not the start
            assert kernel.expr.params != (1.0,)
        if row.family == "quantum-fixed":
            assert kernel == build_fixed_ansatz(2)
        split = split_random(data, row.size,
                             seed=stable_seed("interp", row.size, row.seed))
        train = data.subset(split.train)
        gp = fit(kernel, params, train.X, standardize(train.y)[0],
                 sigma_n=cfg.sigma_n)
        assert kernel.objective(gp.logL) == row.score, text


def test_nngp_row_score_is_its_trace_best():
    # the cell standardizes the targets once and the search fits them as
    # given, so the row rescores exactly the fit its trace ranked best
    cfg = ExperimentConfig.from_dict(_config(
        dataset={"kind": "synthetic", "dims": 3, "n_points": 400, "seed": 0,
                 "pes": "coupled-morse"},
        families=["nngp"], n_train=[100], seeds=[1], nngp_budget=30,
        nngp_max_depth=3, sigma_n=0.1))
    table, artifacts = run_interpolation(cfg)
    (row,) = table.rows
    trace = artifacts["traces"]["nngp_100_1"]
    assert row.score == max(r.score for r in trace)


def test_extrapolation_rows_and_tiny_test_set():
    cfg = ExperimentConfig.from_dict(
        _config(thresholds=[0.5, 0.99], n_train_extrap=20))
    table, _ = run_extrapolation(cfg)
    assert len(table.rows) == 2
    keys = [(r.family, r.size, r.seed) for r in table.rows]
    assert keys == sorted(keys)
    tiny = [r for r in table.rows if r.size == 0.99][0]
    assert tiny.n_test < 20  # almost everything sits below the threshold


def test_extrapolation_with_constant_energies_has_empty_test_set(tmp_path):
    # every energy equal: nothing lies above the threshold
    rows = "".join(f"{1.0 + 0.05 * i},{2.0 - 0.03 * i},500.0\n"
                   for i in range(30))
    path = tmp_path / "flat.csv"
    path.write_text("r1,r2,e\n" + rows)
    cfg = ExperimentConfig.from_dict(
        _config(dataset={"kind": "csv", "path": str(path)}, n_train_extrap=20))
    with pytest.warns(UserWarning, match="empty test set"):
        table, _ = run_extrapolation(cfg)
    [row] = table.rows
    assert row.n_test == 0
    assert np.isnan(row.rmse)


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
    assert {n for n in names if n.startswith("winner_")} == \
        {"winner_rbf_40_0.txt", "winner_composite_40_0.txt"}
    assert "trace_composite_40_0.csv" in names
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
    for doc in ("null", "5", "[]"):
        path.write_text(doc)
        assert cli.main(["fit", "--config", str(path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, key, bad", [
    ("bench-extrap", "n_train_extrap", 0),
    ("bench-extrap", "n_train_extrap", True),
    ("bench-interp", "n_train", [40, 1]),
    ("bench-interp", "n_train", [True]),
    ("bench-extrap", "thresholds", [1.5]),
    ("bench-extrap", "thresholds", [0]),
    ("bench-interp", "seeds", ["a"]),
    ("bench-interp", "seeds", [0, True]),
    ("bench-interp", "dataset", {"kind": "synthetic", "dims": 7}),
    ("bench-interp", "dataset", {"kind": "synthetic", "dims": "3"}),
    ("bench-interp", "dataset", {"kind": "synthetic", "pes": "foo"}),
    ("bench-extrap", "dataset", {"kind": "csv", "path": "pes.csv", "a": 0}),
    # an empty list would run no cell, or fail as a compute error
    ("bench-interp", "families", []),
    ("bench-interp", "n_train", []),
    ("search-classical", "families", []),
    ("bench-extrap", "thresholds", []),
    ("bench-interp", "seeds", []),
    # a repeated entry would run one cell twice and write its files twice
    ("bench-interp", "families", ["rbf", "rbf"]),
    ("bench-interp", "seeds", [0, 0]),
    ("bench-interp", "n_train", [40, 40]),
    ("bench-extrap", "thresholds", [0.5, 0.5]),
])
def test_cli_rejects_bad_sizes_thresholds_and_seeds(tmp_path, capsys,
                                                     command, key, bad):
    out_dir = tmp_path / "out"
    path = _write_config(tmp_path, out_dir=str(out_dir), **{key: bad})
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("bad", [5, None, ["a"], ""])
def test_cli_rejects_bad_out_dir(tmp_path, capsys, monkeypatch, bad):
    # refused as a config error before any cell runs, not after the whole
    # computation when the artefacts are written
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, out_dir=bad)
    for command in ("bench-interp", "fit", "report"):
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert "out_dir" in capsys.readouterr().err
    assert cli.main(["search-classical", "--config", _write_config(tmp_path),
                     "--out", ""]) == cli.EXIT_CONFIG
    assert "out_dir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_report_on_malformed_table_is_data_error(tmp_path, capsys):
    path = tmp_path / "results.csv"
    ResultTable(rows=[ResultRow("rbf", 40, 0, 5.0, 0, 0, 1, 10, 0.1),
                      ResultRow("rbf", 40, 1, 3.0, 0, 0, 1, 10, 0.1)]
                ).to_csv(path)
    good = path.read_text().splitlines()
    header = good[0].split(",")
    bad_value = [good[0], good[1], good[2].replace(",1,", ",a,", 1)]
    missing_column = [",".join(h for h in header if h != "rmse"),
                      *(",".join(v for h, v in zip(header, line.split(","))
                                 if h != "rmse") for line in good[1:])]
    for lines, where in ((bad_value, "line 3"), (missing_column, "line 2"),
                         (good[:2] + ["rbf,40"], "line 3")):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=where):
            ResultTable.from_csv(path)
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and where in err


def test_cli_threads_override_is_checked(tmp_path, capsys):
    path = _write_config(tmp_path)
    for bad in ("0", "-2"):
        assert cli.main(["fit", "--config", path, "--threads", bad]) \
            == cli.EXIT_CONFIG
        assert "threads must be an integer >= 1" in capsys.readouterr().err


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
    # report reads only the results directory; it takes no run flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--config", path, "--threads", "2"])
    assert exc.value.code == 2


def test_cli_bench_extrap_keeps_the_interp_files(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = _write_config(tmp_path, out_dir=str(out_dir), n_train_extrap=20)
    for command in ("bench-interp", "bench-extrap"):
        assert cli.main([command, "--config", path]) == cli.EXIT_OK
    for run, size in ((out_dir, 40), (out_dir / "extrap", 0.5)):
        table = ResultTable.from_csv(run / "results.csv")
        assert {r.size for r in table.rows} == {size}
        assert f"size={size:g}" in (run / "summary.txt").read_text()
        assert (run / f"winner_rbf_{size:g}_0.txt").exists()
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out_dir / "extrap")]) \
        == cli.EXIT_OK
    assert "size=0.5" in capsys.readouterr().out


def test_cli_bench_rerun_removes_the_files_of_cells_it_did_not_run(tmp_path):
    out_dir = tmp_path / "results"
    path = _write_config(tmp_path, out_dir=str(out_dir),
                         families=["rbf", "nngp"], seeds=[0, 1])
    assert cli.main(["bench-interp", "--config", path]) == cli.EXIT_OK
    assert (out_dir / "winner_nngp_40_1.json").exists()
    assert (out_dir / "trace_nngp_40_1.csv").exists()
    assert cli.main(["bench-interp", "--config", path, "--seed", "0"]) \
        == cli.EXIT_OK
    assert not list(out_dir.glob("*_1.*"))
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "results.csv", "summary.txt", "trace_nngp_40_0.csv",
        "winner_nngp_40_0.json", "winner_rbf_40_0.txt"]
    # a search writes its cell's files beside a bench's and removes none
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert cli.main(["search-nngp", "--config", path, "--seed", "1"]) \
        == cli.EXIT_OK
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert set(after) == set(before) | {"trace_nngp_40_1.csv",
                                        "winner_nngp_40_1.json"}
    assert all(after[name] == data for name, data in before.items())


def test_cli_report_without_results_is_data_error(tmp_path):
    assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA


def test_cli_report_refuses_empty_out(tmp_path, capsys, monkeypatch):
    # an empty --out is refused as fit refuses it, not read as the current
    # directory or replaced by the config's or the default directory, even
    # where those hold a table
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, out_dir="results")
    (tmp_path / "results").mkdir()
    for table in (tmp_path / "results.csv",
                  tmp_path / "results" / "results.csv"):
        ResultTable(rows=[ResultRow("rbf", 40, 0, 5.0, 0, 0, 1, 10, 0.1)]
                    ).to_csv(table)
    for config in ([], ["--config", path]):
        assert cli.main(["report", *config, "--out", ""]) == cli.EXIT_CONFIG
        assert "out_dir must be a nonempty string" in capsys.readouterr().err
    assert cli.main(["fit", "--config", path, "--out", ""]) == cli.EXIT_CONFIG
    assert "out_dir must be a nonempty string" in capsys.readouterr().err


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
    assert (out_dir / "winner_composite_40_0.txt").exists()
    assert cli.main(["search-quantum", "--config", path]) == cli.EXIT_OK
    winner = json.loads(
        (out_dir / "winner_quantum-variable_40_0.json").read_text())
    assert winner["m"] == 3
    assert cli.main(["search-nngp", "--config", path]) == cli.EXIT_OK
    doc = json.loads((out_dir / "winner_nngp_40_0.json").read_text())
    assert doc["depth"] >= 1
    assert sorted(p.name for p in out_dir.glob("winner_*")) == [
        "winner_composite_40_0.txt", "winner_nngp_40_0.json",
        "winner_quantum-variable_40_0.json"]


def test_cli_fit_and_search_reproduce_bench_rows(tmp_path, capsys):
    # one bench-interp run over both seeds writes one winner per cell; each
    # search narrowed to a seed writes that cell's winner byte for byte
    bench_dir, search_dir = tmp_path / "bench", tmp_path / "search"
    path = _write_config(tmp_path, families=["rbf", "composite", "nngp"],
                         seeds=[0, 1])
    assert cli.main(["bench-interp", "--config", path,
                     "--out", str(bench_dir)]) == cli.EXIT_OK
    rows = ResultTable.from_csv(bench_dir / "results.csv").rows
    assert sorted(p.name for p in bench_dir.glob("winner_*")) == [
        f"winner_{family}_40_{seed}.{suffix}"
        for family, suffix in (("composite", "txt"), ("nngp", "json"),
                               ("rbf", "txt"))
        for seed in (0, 1)]
    for seed in (0, 1):
        capsys.readouterr()
        assert cli.main(["fit", "--config", path, "--seed", str(seed)]) \
            == cli.EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"family={r.family} rmse={r.rmse:.4f} "
                           f"criterion={r.criterion:.4f} M={r.M}"
                           for r in rows if r.seed == seed]
        for command, winner in (
                ("search-classical", f"winner_composite_40_{seed}.txt"),
                ("search-nngp", f"winner_nngp_40_{seed}.json")):
            out = search_dir / str(seed)
            assert cli.main([command, "--config", path, "--seed", str(seed),
                             "--out", str(out)]) == cli.EXIT_OK
            assert capsys.readouterr().out == \
                (bench_dir / winner).read_text()
            assert (out / winner).read_bytes() == \
                (bench_dir / winner).read_bytes()
        assert (out / f"trace_composite_40_{seed}.csv").exists()
        assert not (out / "results.csv").exists()
