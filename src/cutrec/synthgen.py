"""Synthetic paired-domain dataset generator.

The ``distortion`` knob interpolates, per overlapping user, between a
target-domain latent factor identical to the source one (0.0) and an
independently drawn one (1.0). This makes cross-domain preference
disagreement - and hence the damage done by naive joint training -
directly controllable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import check_kind
from .corpus import DomainId, RawInteractions
from .errors import ConfigError


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_items_per_domain: int
    latent_dim: int
    overlap_fraction: float
    distortion: float
    interactions_per_user: int
    seed: int
    # 0 = users uniform on the sphere; >0 draws users around cluster centres.
    n_clusters: int = 0
    cluster_spread: float = 0.35
    # Gumbel noise on scores before top-k selection.
    score_noise: float = 0.05
    share_item_factors: bool = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            check_kind(field.name, getattr(self, field.name), field.type)
        for name, minimum in (("n_users", 1), ("n_items_per_domain", 1),
                              ("latent_dim", 1), ("interactions_per_user", 1),
                              ("seed", 0), ("n_clusters", 0),
                              ("cluster_spread", 0), ("score_noise", 0)):
            if (value := getattr(self, name)) < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if not 0.0 <= self.distortion <= 1.0:
            raise ValueError("distortion must be in [0, 1]")
        if self.interactions_per_user > self.n_items_per_domain:
            raise ValueError("interactions_per_user exceeds item catalogue")

    @classmethod
    def from_dict(cls, data, **overrides) -> "SynthConfig":
        """``cls(**data, **overrides)``, where an unknown, missing or
        mistyped field or a bad value is a ``ConfigError``."""
        try:
            return cls(**{**data, **overrides})
        except (TypeError, ValueError, ConfigError) as err:
            raise ConfigError(f"synthetic config: {err}") from err


@dataclass(frozen=True)
class SynthMeta:
    """Ground truth retained for tests and benchmark analysis."""

    user_tokens: tuple[str, ...]
    overlap_tokens: tuple[str, ...]
    source_cluster: np.ndarray | None
    target_cluster: np.ndarray | None
    source_factors: np.ndarray
    target_factors: np.ndarray


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms


def _user_factors(rng: np.random.Generator, n: int, cfg: SynthConfig,
                  centers: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    if centers is None:
        return _unit_rows(rng.normal(size=(n, cfg.latent_dim))), None
    assignment = rng.integers(0, cfg.n_clusters, size=n)
    noise = rng.normal(size=(n, cfg.latent_dim))
    return _unit_rows(centers[assignment] + cfg.cluster_spread * noise), assignment


def _top_k_interactions(rng: np.random.Generator, factors: np.ndarray,
                        item_factors: np.ndarray, k: int,
                        noise: float) -> np.ndarray:
    scores = factors @ item_factors.T
    if noise > 0.0:
        scores = scores + rng.gumbel(0.0, noise, size=scores.shape)
    # Stable ordering keeps ties deterministic under a fixed seed.
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, :k]


def _domain(domain_id: DomainId, user_tokens: tuple[str, ...],
            ids: np.ndarray, top: np.ndarray, prefix: str,
            n_items: int) -> RawInteractions:
    """User ``ids[r]`` with items ``top[r]``, in ascending item order;
    item ``i`` is named ``prefix`` and ``i`` in five digits."""
    return RawInteractions.from_codes(
        domain_id, user_tokens, np.repeat(ids, top.shape[1]),
        tuple(f"{prefix}{item:05d}" for item in range(n_items)),
        np.sort(top, axis=1).ravel())


def generate(cfg: SynthConfig) -> tuple[RawInteractions, RawInteractions, SynthMeta]:
    """Build (source, target) interaction logs plus generator ground truth."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_users
    n_overlap = int(round(cfg.overlap_fraction * n))
    n_rest = n - n_overlap
    n_target_extra = math.ceil(n_rest / 2)

    user_tokens = tuple(f"u{idx:05d}" for idx in range(n))
    overlap_ids = np.arange(n_overlap)
    target_ids = np.concatenate(
        [overlap_ids, np.arange(n_overlap, n_overlap + n_target_extra)])
    source_ids = np.concatenate(
        [overlap_ids, np.arange(n_overlap + n_target_extra, n)])

    if cfg.n_clusters > 0:
        centers_source = _unit_rows(
            rng.normal(size=(cfg.n_clusters, cfg.latent_dim)))
        centers_target = _unit_rows(
            rng.normal(size=(cfg.n_clusters, cfg.latent_dim)))
    else:
        centers_source = centers_target = None

    z_source, cluster_source = _user_factors(rng, n, cfg, centers_source)
    z_fresh, cluster_target = _user_factors(rng, n, cfg, centers_target)

    z_target = z_fresh.copy()
    if cfg.distortion == 0.0:
        z_target[overlap_ids] = z_source[overlap_ids]
    else:
        blend = (1.0 - cfg.distortion) * z_source[overlap_ids] \
            + cfg.distortion * z_fresh[overlap_ids]
        norms = np.linalg.norm(blend, axis=1, keepdims=True)
        degenerate = norms[:, 0] < 1e-12
        blend = np.where(degenerate[:, None], z_fresh[overlap_ids],
                         blend / np.maximum(norms, 1e-12))
        z_target[overlap_ids] = blend
    if cluster_target is not None and cfg.distortion == 0.0:
        cluster_target = cluster_target.copy()
        cluster_target[overlap_ids] = cluster_source[overlap_ids]

    items_source = _unit_rows(
        rng.normal(size=(cfg.n_items_per_domain, cfg.latent_dim)))
    if cfg.share_item_factors:
        items_target = items_source.copy()
    else:
        items_target = _unit_rows(
            rng.normal(size=(cfg.n_items_per_domain, cfg.latent_dim)))

    source_top = _top_k_interactions(rng, z_source[source_ids], items_source,
                                     cfg.interactions_per_user,
                                     cfg.score_noise)
    target_top = _top_k_interactions(rng, z_target[target_ids], items_target,
                                     cfg.interactions_per_user,
                                     cfg.score_noise)

    meta = SynthMeta(
        user_tokens=user_tokens,
        overlap_tokens=tuple(user_tokens[i] for i in overlap_ids),
        source_cluster=cluster_source,
        target_cluster=cluster_target,
        source_factors=z_source,
        target_factors=z_target,
    )
    return (_domain(DomainId.SOURCE, user_tokens, source_ids, source_top, "s",
                    cfg.n_items_per_domain),
            _domain(DomainId.TARGET, user_tokens, target_ids, target_top, "t",
                    cfg.n_items_per_domain),
            meta)
