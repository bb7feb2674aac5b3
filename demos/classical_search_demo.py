"""Composite classical kernel search on a synthetic coupled-Morse surface.

Builds a 3D synthetic PES, runs the greedy sum/product kernel construction,
and compares the test-set RMSE of the composite winner against a single RBF
kernel optimized with the same budget.

Run:  python3 demos/classical_search_demo.py
``main(n_train)`` runs the same protocol on ``2 * n_train`` points.
"""

from dataclasses import replace

from peskit.bench import ExperimentConfig, load_dataset
from peskit.data import Dataset, split_random, standardize
from peskit.gp import fit, predict, rmse
from peskit.kernel_search import search_classical
from peskit.optimizer import stable_seed

CONFIG = ExperimentConfig(
    dataset={"kind": "synthetic", "dims": 3, "seed": 0, "pes": "coupled-morse"},
    families=["composite"], seeds=[0], classical_budget=30, final_budget=100)


def test_rmse(kernel, pv, train, test, mean, scale):
    gp = fit(kernel, pv, train.X, train.y, sigma_n=0.0)
    return rmse(mean + scale * predict(gp, test.X), test.y)


def main(n_train=300):
    data = load_dataset({**CONFIG.dataset, "n_points": 2 * n_train})
    split = split_random(data, n_train, seed=stable_seed("demo", 0))
    train, test = data.subset(split.train), data.subset(split.test)
    # the search fits the targets it is given: standardize them first
    ys, mean, scale = standardize(train.y)
    train = Dataset(X=train.X, y=ys)

    kernel, pv, trace = search_classical(train, CONFIG, CONFIG.seeds[0])
    print("search trace (iteration, BIC, kernel):")
    for row in trace:
        print(f"  {row.iteration}: BIC={row.criterion:9.2f}  {row.winner}")
    err = test_rmse(kernel, pv, train, test, mean, scale)
    print(f"\ncomposite winner: {kernel.describe(pv)}")
    print(f"composite test-set RMSE: {err:.2f} cm^-1")

    rkernel, rpv, _ = search_classical(train, replace(CONFIG, max_depth=1),
                                       CONFIG.seeds[0], bases=("RBF",))
    rerr = test_rmse(rkernel, rpv, train, test, mean, scale)
    print(f"single-RBF test-set RMSE: {rerr:.2f} cm^-1")


if __name__ == "__main__":
    main()
