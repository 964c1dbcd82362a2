"""Training configuration."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

# What a field of each annotated type accepts; a bool is not a number.
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def check_kind(name: str, value, kind: str) -> None:
    """Raise a ``ConfigError`` unless ``value`` is of ``kind`` (a key of
    ``_KINDS``) and, for a number, finite."""
    types, wanted = _KINDS[kind]
    if (not isinstance(value, types)
            or isinstance(value, bool) != (kind == "bool")):
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass
class TrainingConfig:
    """Every setting of one training run: objective, model, optimiser,
    schedule, seed and the variant switches."""

    alpha: float = 0.2
    # λ: at 0 the contrastive term is off and phase two builds no oracle.
    contrastive_weight: float = 1e-4
    temperature: float = 0.1
    gamma: float = 0.9
    batch_size: int = 2048
    lr: float = 0.001
    backbone: str = "mf"
    k_layers: int = 2
    embedding_dim: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    # Ablation switches.
    no_transform: bool = False
    history_similarity: bool = False
    # Non-default variant: phase two starts the target users from the
    # frozen phase-one rows.
    warm_start: bool = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            check_kind(field.name, getattr(self, field.name), field.type)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.contrastive_weight < 0.0:
            raise ConfigError("contrastive_weight must be >= 0")
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be > 0")
        if not -1.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (-1, 1], got {self.gamma}")
        # lr = 0 trains nothing, which tests use to freeze a model.
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.backbone not in ("mf", "lightgcn"):
            raise ConfigError(f"backbone must be 'mf' or 'lightgcn', "
                              f"got {self.backbone!r}")
        for field in ("batch_size", "k_layers", "embedding_dim",
                      "max_epochs", "patience", "seed"):
            value = getattr(self, field)
            minimum = 0 if field in ("k_layers", "seed") else 1
            if value < minimum:
                raise ConfigError(f"{field} must be >= {minimum}, got {value}")

    def replace(self, **changes) -> "TrainingConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"training config must be an object, "
                              f"got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown training config key {key!r}")
        return cls(**data)
