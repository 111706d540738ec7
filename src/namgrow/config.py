"""A run's config sections and their defaults, each stated once.

[train], [growth] and [cluster] hold the fields of the config classes,
but the seed, which is [run] seed.  Only the standard library is imported
here, so a config resolves, and caps BLAS threads, before NumPy loads.
"""

import sys
from dataclasses import dataclass, field, fields


@dataclass
class TrainConfig:
    """Hyperparameters for joint branch training."""

    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ClusterConfig:
    n_samples: int = 10000
    top_fraction: float = 0.2
    neighbor_distance: float = 0.5       # d_nb, in standardized space
    min_shift_distance: float = 1e-3     # d_min, in standardized space
    bandwidth: float = 0.3               # kernel std per dimension
    max_shift_iterations: int = 200

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.neighbor_distance <= 0 or self.min_shift_distance <= 0:
            raise ValueError("distances must be positive")
        if not self.min_shift_distance < self.neighbor_distance:
            raise ValueError("min shift distance must be below neighbor distance")
        if not self.bandwidth ** 2 >= sys.float_info.min:
            raise ValueError("bandwidth must be positive, with a normal "
                             "float square")
        if self.max_shift_iterations < 1:
            raise ValueError("max_shift_iterations must be >= 1")


@dataclass
class GrowthConfig:
    """Knobs of the growth loop; the network's mode picks tuning or election
    behaviour."""

    selection_size: int = 5000
    max_per_iteration: int = 64
    tuning_epochs: int = 2
    mask_learning_rate: float = 1e-2
    mask_batch_size: int = 128
    keep_fraction: float = 0.8       # matching partial-average keep share
    top_fraction: float = 0.2        # samples above the branch threshold
    reference_per_class: int = 100   # images per class used for matching
    seed: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self):
        if self.selection_size < 1:
            raise ValueError("selection_size must be >= 1")
        if self.max_per_iteration < 1:
            raise ValueError("max_per_iteration must be >= 1")
        if self.tuning_epochs < 0:
            raise ValueError("tuning_epochs must be >= 0")
        if not self.mask_learning_rate > 0.0:
            raise ValueError("mask_learning_rate must be positive")
        if self.mask_batch_size < 1:
            raise ValueError("mask_batch_size must be >= 1")
        if not 0.0 < self.top_fraction < 1.0:
            raise ValueError("top_fraction must be in (0, 1)")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.reference_per_class < 2:
            raise ValueError("reference_per_class must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _field_defaults(cls) -> dict:
    """Each field's default as config text, but the seed's and cluster's."""
    return {f.name: str(f.default) for f in fields(cls)
            if f.name not in ("seed", "cluster")}


DEFAULT_CONFIG = {
    "run": {"seed": "0", "out_dir": "runs/run", "threads": "0"},
    "data": {"dataset": "cifar10", "data_dir": "data"},
    "model": {"grid": "base"},
    "train": _field_defaults(TrainConfig),
    "growth": {**_field_defaults(GrowthConfig), "max_iterations": "-1"},
    "cluster": _field_defaults(ClusterConfig),
}
