"""The one way tests build the config a search called directly reads.

A search reads its budgets, depths, beam width and noise level from the
run's ``ExperimentConfig``; the dataset, families and seeds set here are
placeholders that no search reads.
"""

from peskit.bench import ExperimentConfig


def search_config(**settings):
    """An ``ExperimentConfig`` holding ``settings`` and the other defaults."""
    return ExperimentConfig(dataset={"kind": "synthetic"}, families=["rbf"],
                            seeds=[0], **settings)
