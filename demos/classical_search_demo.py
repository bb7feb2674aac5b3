"""Composite classical kernel search on a synthetic coupled-Morse surface.

Builds a 3D synthetic PES, runs the greedy sum/product kernel construction,
and compares the test-set RMSE of the composite winner against a single RBF
kernel optimized with the same budget.

Run:  python3 demos/classical_search_demo.py
"""

from dataclasses import replace

from peskit.bench import ExperimentConfig, load_dataset
from peskit.data import Dataset, split_random, standardize
from peskit.gp import fit, predict, rmse
from peskit.kernel_search import search_classical
from peskit.kernels import ClassicalKernel, serialize
from peskit.optimizer import stable_seed

CONFIG = ExperimentConfig(
    dataset={"kind": "synthetic", "dims": 3, "n_points": 600, "seed": 0,
             "pes": "coupled-morse"},
    families=["composite"], seeds=[0], classical_budget=30, final_budget=100)


def test_rmse(expr, pv, train, test, mean, scale):
    gp = fit(ClassicalKernel(expr=expr), pv, train.X, train.y, sigma_n=0.0)
    return rmse(mean + scale * predict(gp, test.X), test.y)


def main():
    data = load_dataset(CONFIG.dataset)
    split = split_random(data, 300, seed=stable_seed("demo", 0))
    train, test = data.subset(split.train), data.subset(split.test)
    # the search fits the targets it is given: standardize them first
    ys, mean, scale = standardize(train.y)
    train = Dataset(X=train.X, y=ys)

    expr, pv, trace = search_classical(train, CONFIG, CONFIG.seeds[0])
    print("search trace (iteration, BIC, kernel):")
    for row in trace:
        print(f"  {row.iteration}: BIC={row.criterion:9.2f}  {row.winner}")
    err = test_rmse(expr, pv, train, test, mean, scale)
    print(f"\ncomposite winner: {serialize(expr)}")
    print(f"composite test-set RMSE: {err:.2f} cm^-1")

    rexpr, rpv, _ = search_classical(train, replace(CONFIG, max_depth=1),
                                     CONFIG.seeds[0], bases=("RBF",))
    rerr = test_rmse(rexpr, rpv, train, test, mean, scale)
    print(f"single-RBF test-set RMSE: {rerr:.2f} cm^-1")


if __name__ == "__main__":
    main()
