"""Composite classical kernel search on a synthetic coupled-Morse surface.

Builds a 3D synthetic PES, runs the greedy sum/product kernel construction,
and compares the test-set RMSE of the composite winner against a single RBF
kernel optimized with the same budget.

Run:  python3 demos/classical_search_demo.py
"""

from peskit.data import Dataset, split_random, standardize, synth_pes
from peskit.gp import fit, predict, rmse
from peskit.kernel_search import ClassicalSearchConfig, search_classical
from peskit.kernels import ClassicalKernel, serialize
from peskit.optimizer import stable_seed


def test_rmse(expr, pv, train, test, mean, scale):
    gp = fit(ClassicalKernel(expr=expr), pv, train.X, train.y, sigma_n=0.0)
    return rmse(mean + scale * predict(gp, test.X), test.y)


def main():
    data = synth_pes(3, 600, seed=0, kind="coupled-morse")
    split = split_random(data, 300, seed=stable_seed("demo", 0))
    train, test = data.subset(split.train), data.subset(split.test)
    # the search fits the targets it is given: standardize them first
    ys, mean, scale = standardize(train.y)
    train = Dataset(X=train.X, y=ys)

    cfg = ClassicalSearchConfig(budget=30, final_budget=100, seed=0)
    expr, pv, trace = search_classical(train, cfg)
    print("search trace (iteration, BIC, kernel):")
    for row in trace:
        print(f"  {row.iteration}: BIC={row.criterion:9.2f}  {row.winner}")
    err = test_rmse(expr, pv, train, test, mean, scale)
    print(f"\ncomposite winner: {serialize(expr)}")
    print(f"composite test-set RMSE: {err:.2f} cm^-1")

    rbf_cfg = ClassicalSearchConfig(bases=("RBF",), max_depth=1, budget=30,
                                    final_budget=100, seed=0)
    rexpr, rpv, _ = search_classical(train, rbf_cfg)
    rerr = test_rmse(rexpr, rpv, train, test, mean, scale)
    print(f"single-RBF test-set RMSE: {rerr:.2f} cm^-1")


if __name__ == "__main__":
    main()
