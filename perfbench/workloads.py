"""The benchmark's workloads: synthetic data shape and training settings.

``mf-medium`` and ``lightgcn-medium`` share ROADMAP's "medium" data set,
so the two backbones meet identical inputs. ``mf-contrastive`` clusters
the users and lowers the similarity threshold so that the contrastive
term has similar pairs in every batch; at the default gamma = 0.9 it has
none (``mf-medium`` records that as its baseline). README.md gives each
workload's rationale and the layers it stresses or bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass

MEDIUM = {"n_users": 4000, "n_items_per_domain": 2000, "latent_dim": 16,
          "overlap_fraction": 0.3, "distortion": 0.5,
          "interactions_per_user": 30}

# ExperimentConfig.min_interactions: the k-core threshold.
MIN_INTERACTIONS = 5

# Shared by every workload. At the library default lr=0.001, three epochs
# per phase leave MF at the NDCG of a random ranking, where the quality
# metrics could not catch a change that breaks learning.
TRAINING = {"batch_size": 2048, "lr": 0.01}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict       # SynthConfig fields other than the seed
    training: dict    # TrainingConfig fields on top of TRAINING
    # Per phase; early stopping never triggers. MF learns slowly at first:
    # after 3 epochs its test NDCG@10 still spread by a fifth across seeds.
    epochs: int
    # Users per domain after k-core filtering, recorded from the generator
    # design: the overlap plus half of the remaining users.
    users_per_domain: int
    # Fail the run when every phase-two batch had zero similar pairs.
    needs_similar_pairs: bool


WORKLOADS = {w.name: w for w in (
    Workload("mf-medium", MEDIUM, {"backbone": "mf"}, 5, 2600, False),
    Workload("lightgcn-medium", MEDIUM,
             {"backbone": "lightgcn", "k_layers": 2}, 3, 2600, False),
    Workload("mf-contrastive", {**MEDIUM, "n_clusters": 8},
             {"backbone": "mf", "gamma": 0.5}, 3, 2600, True),
    # For the smoke test only: every layer runs, in a few seconds.
    Workload("tiny",
             {"n_users": 300, "n_items_per_domain": 120, "latent_dim": 8,
              "overlap_fraction": 0.3, "distortion": 0.5,
              "interactions_per_user": 12, "n_clusters": 4},
             {"backbone": "lightgcn", "gamma": 0.5, "embedding_dim": 16,
              "batch_size": 256}, 2, 195, True),
)}
