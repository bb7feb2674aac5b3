import math

import numpy as np
import pytest

from peskit.data import (DataError, Dataset, MorsePes, default_transform_scale,
                         load_csv, split_energy_threshold, split_random,
                         standardize, synth_pes, transform)


def test_transform_values_and_validation():
    assert transform(2.5, 2.5) == pytest.approx(math.exp(-1.0))
    assert np.allclose(transform([0.0, 1.0], 1.0), [1.0, math.exp(-1.0)])
    with pytest.raises(ValueError):
        transform(1.0, 0.0)
    with pytest.raises(ValueError):
        transform(-0.1, 1.0)


def test_default_transform_scale_tagging():
    assert default_transform_scale("data/h3o_plus.csv") == 2.5
    assert default_transform_scale("H3O.csv") == 2.5
    assert default_transform_scale("h_3_o.csv") == 2.5
    assert default_transform_scale("h2co.csv") == 1.0
    # the tag counts on the file name only, not on a directory
    assert default_transform_scale("h3o_runs/h2co.csv") == 1.0
    assert default_transform_scale("runs/h_3_o.csv") == 2.5
    assert default_transform_scale("synthetic") == 1.0


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(2))
    with pytest.raises(DataError):
        Dataset(X=np.zeros((1, 2)), y=np.zeros(1))
    with pytest.raises(DataError):
        Dataset(X=np.array([[np.nan, 0.0]] * 2), y=np.zeros(2))


def test_standardize():
    y = np.array([10.0, 20.0, 30.0])
    ys, mean, scale = standardize(y)
    assert mean == pytest.approx(20.0)
    assert scale == pytest.approx(np.std(y))
    assert np.allclose(mean + scale * ys, y)
    # constant targets degrade to unit scale instead of dividing by zero
    ys, mean, scale = standardize([5.0, 5.0])
    assert scale == 1.0
    assert np.allclose(ys, 0.0)


def _write(tmp_path, text, name="pes.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_round_trip(tmp_path):
    p = _write(tmp_path, "# comment line\nr1,r2,e\n1.0,2.0,100.0\n"
                         "1.5,2.5,200.0\n\n2.0,3.0,300.0\n")
    data = load_csv(p, a=1.0)
    assert data.n == 3 and data.dims == 2
    R = np.array([[1.0, 2.0], [1.5, 2.5], [2.0, 3.0]])
    assert np.allclose(data.X, np.exp(-R / 1.0))
    assert data.y.tolist() == [100.0, 200.0, 300.0]


def test_load_csv_h3o_default_scale(tmp_path):
    p = _write(tmp_path, "r1,e\n1.0,1.0\n2.0,2.0\n", name="h3o_scan.csv")
    data = load_csv(p)
    assert np.allclose(data.X, np.exp(-np.array([[1.0], [2.0]]) / 2.5))


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_csv(_write(tmp_path, "a,b,e\n1,2,3\n4,5,6\n"))
    with pytest.raises(DataError, match="header"):
        load_csv(_write(tmp_path, "r2,r1,e\n1,2,3\n4,5,6\n"))
    with pytest.raises(DataError, match="line 3"):
        load_csv(_write(tmp_path, "r1,e\n1.0,2.0\nbad,3.0\n"))
    with pytest.raises(DataError, match="line 3"):
        load_csv(_write(tmp_path, "r1,e\n1.0,2.0\ninf,3.0\n"))
    with pytest.raises(DataError, match="empty"):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(DataError, match="at least 2"):
        load_csv(_write(tmp_path, "r1,e\n1.0,2.0\n"))


def test_split_random_properties():
    data = synth_pes(2, 50, seed=0)
    s1 = split_random(data, 30, seed=4)
    s2 = split_random(data, 30, seed=4)
    assert np.array_equal(s1.train, s2.train)
    assert s1.train.size == 30 and s1.test.size == 20
    assert set(s1.train).isdisjoint(s1.test)
    assert set(s1.train) | set(s1.test) == set(range(50))
    s3 = split_random(data, 30, seed=5)
    assert not np.array_equal(s1.train, s3.train)
    with pytest.raises(ValueError):
        split_random(data, 50, seed=0)


def test_split_energy_threshold():
    data = synth_pes(2, 200, seed=1)
    s = split_energy_threshold(data, 0.5, 50, seed=0)
    lo, hi = data.energy_range
    cut = lo + 0.5 * (hi - lo)
    assert np.all(data.y[s.train] <= cut)
    assert np.all(data.y[s.test] > cut)
    assert s.train.size == 50
    with pytest.raises(ValueError):
        split_energy_threshold(data, 1.5, 50, seed=0)
    with pytest.raises(DataError):
        split_energy_threshold(data, 0.01, 150, seed=0)


def test_synth_pes_energy_scaling():
    for kind in ("morse-sum", "coupled-morse"):
        data = synth_pes(3, 400, seed=0, kind=kind)
        assert data.n == 400 and data.dims == 3
        assert data.y.min() >= 0.0
        assert data.y.max() <= 20000.0 * 1.05
        assert data.y.max() > 5000.0  # spans a realistic chunk of the range
    with pytest.raises(ValueError):
        synth_pes(1, 10, seed=0)
    with pytest.raises(ValueError):
        MorsePes(dims=3, kind="lennard-jones")


def test_synth_pes_deterministic():
    a = synth_pes(3, 50, seed=9, kind="coupled-morse")
    b = synth_pes(3, 50, seed=9, kind="coupled-morse")
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_morse_energy_zero_at_equilibrium():
    pes = MorsePes(dims=3, seed=0)
    assert pes.energy(pes.r0[None, :])[0] == pytest.approx(0.0, abs=1e-10)


def test_subset_keeps_alignment():
    data = synth_pes(2, 30, seed=0)
    sub = data.subset([3, 5, 7])
    assert sub.n == 3
    assert np.array_equal(sub.y, data.y[[3, 5, 7]])
    assert np.array_equal(sub.X, data.X[[3, 5, 7]])
