"""Cross-domain recommendation with two-phase, similarity-preserving
transfer training (the CUT scheme): a target phase learns user similarity
from the target domain alone, then a transfer phase trains on both
domains with a user transformation layer and a contrastive regulariser
that keeps transformed target representations faithful to the learned
similarity structure.
"""

from .config import PRESETS, TrainingConfig
from .corpus import (CrossDomainDataset, DomainId, InteractionSet,
                     RawInteractions, SplitDataset, build_cross_domain,
                     filter_k_core, load_dataset, load_interactions,
                     save_dataset, split_source, split_target,
                     subsample_target)
from .evaluation import MetricsReport, evaluate_full
from .experiment import ExperimentConfig, run_experiment
from .similarity import PairSets, SimilarityOracle, cosine, extract_pairs
from .synthgen import SynthConfig, generate
from .trainer import (CutModel, LossBreakdown, run_target_phase,
                      run_transfer_phase, transfer_step)

__version__ = "0.1.0"

__all__ = [
    "CrossDomainDataset", "CutModel", "DomainId", "ExperimentConfig",
    "InteractionSet", "LossBreakdown", "MetricsReport", "PairSets",
    "PRESETS", "RawInteractions", "SimilarityOracle", "SplitDataset",
    "SynthConfig", "TrainingConfig", "build_cross_domain",
    "cosine", "evaluate_full", "extract_pairs", "filter_k_core", "generate",
    "load_dataset", "load_interactions", "run_experiment",
    "run_target_phase", "run_transfer_phase", "save_dataset", "split_source",
    "split_target", "subsample_target", "transfer_step",
]
