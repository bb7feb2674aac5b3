"""peskit: GP regression on potential energy surfaces with classical,
neural-network-GP, and quantum fidelity kernels."""

from .data import Dataset, MorsePes, load_csv, split_energy_threshold, \
    split_random, synth_pes, transform
from .gp import (ParamVector, TrainedGP, beta, bic, build_kernel_matrix, fit,
                 log_marginal_likelihood, predict, rmse, surrogate_objective)
from .kernels import ClassicalKernel, serialize
from .nngp import NNGPKernel, search_depth
from .kernel_search import search_classical
from .quantum import (QuantumKernel, QubitLayer, build_fixed_ansatz,
                      build_variable_ansatz)
from .circuit_search import layer_pool, search_circuit
from .optimizer import OptResult, SearchSpace, maximize

__version__ = "0.1.0"
