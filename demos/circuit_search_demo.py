"""Beam search over gate-layer sequences for a quantum fidelity kernel.

Runs the compositional circuit search on a 3D synthetic coupled-Morse PES,
prints the best beta and layer string of each search step, and compares
the test-set RMSE of the converged variable-ansatz circuit against the
zero-layer baseline and the fixed all-pairs ansatz, all trained on
standardized energies with a small regularization noise.

Run:  python3 demos/circuit_search_demo.py
``main(n_train)`` runs the same protocol on ``2 * n_train`` points.
"""

from peskit.bench import ExperimentConfig, load_dataset
from peskit.circuit_search import search_circuit
from peskit.data import Dataset, split_random, standardize
from peskit.gp import fit, predict, rmse
from peskit.optimizer import maximize_logl, stable_seed
from peskit.quantum import build_fixed_ansatz, build_variable_ansatz

SIGMA_N = 0.1  # keeps the surrogate objective off its floor at N=300
CONFIG = ExperimentConfig(
    dataset={"kind": "synthetic", "dims": 3, "seed": 0, "pes": "coupled-morse"},
    families=["quantum-variable"], seeds=[0], beam_width=9, refine_budget=40,
    final_budget=200, max_depth=8, sigma_n=SIGMA_N)


def main(n_train=300):
    data = load_dataset({**CONFIG.dataset, "n_points": 2 * n_train})
    split = split_random(data, n_train, seed=stable_seed("demo", 0))
    train, test = data.subset(split.train), data.subset(split.test)
    # the search fits the targets it is given: standardize them first
    ys, mean, scale = standardize(train.y)
    train = Dataset(X=train.X, y=ys)

    def test_rmse(kernel, values):
        gp = fit(kernel, kernel.default_params().with_values(values),
                 train.X, train.y, sigma_n=SIGMA_N)
        return rmse(mean + scale * predict(gp, test.X), test.y)

    def optimize(kernel, tag):
        return maximize_logl(kernel, kernel.default_params(),
                             train.X, train.y, 200, stable_seed(0, tag),
                             SIGMA_N).best_point

    kernel, params, trace = search_circuit(train, CONFIG, CONFIG.seeds[0])
    print("search trace (iteration, beta, layers):")
    for row in trace:
        print(f"  {row.iteration}: beta={row.criterion:8.2f}  "
              f"[{row.winner or 'no appended layers'}]")

    print(f"\nconverged circuit RMSE:   {test_rmse(kernel, params.values):8.2f}")
    zero = build_variable_ansatz(3, ())
    print(f"zero-layer baseline RMSE: "
          f"{test_rmse(zero, optimize(zero, 'd0')):8.2f}")
    fixed = build_fixed_ansatz(3)
    print(f"fixed all-pairs RMSE:     "
          f"{test_rmse(fixed, optimize(fixed, 'fx')):8.2f}")


if __name__ == "__main__":
    main()
