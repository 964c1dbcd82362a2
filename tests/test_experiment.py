import json

import numpy as np
import pytest

from cutrec.config import TrainingConfig
from cutrec.errors import ConfigError
from cutrec.experiment import (ExperimentConfig, format_aggregate_table,
                               prepare_data, run_experiment, run_single_seed,
                               write_experiment_outputs)


def synth_experiment_config(**overrides):
    payload = {
        "data": {"synthetic": {
            "n_users": 60, "n_items_per_domain": 40, "latent_dim": 5,
            "overlap_fraction": 0.8, "distortion": 1.0,
            "interactions_per_user": 10, "seed": 0, "n_clusters": 4,
        }},
        "training": {"embedding_dim": 8, "batch_size": 64, "max_epochs": 3,
                     "patience": 3, "gamma": 0.5,
                     "contrastive_weight": 0.02},
        "seeds": [0, 1],
        "variants": ["target-only", "joint", "cut"],
        "min_interactions": 3,
        "save_checkpoints": False,
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict({"data": {"archive": "x"}, "bogus": 1})
    with pytest.raises(ConfigError, match="nope"):
        ExperimentConfig.from_dict({"data": {"archive": "x"},
                                    "training": {"nope": 2}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"data": {}})
    with pytest.raises(ConfigError, match="variant"):
        synth_experiment_config(variants=["cut", "unknown-variant"])


def test_preset_applies_per_dataset_defaults():
    cfg = ExperimentConfig.from_dict({
        "data": {"archive": "x"}, "preset": "douban-like"})
    assert cfg.training.loss_kind == "bpr"
    assert cfg.training.contrastive_weight == pytest.approx(5e-5)
    assert cfg.training.weight_decay == pytest.approx(1e-7)
    amazon = ExperimentConfig.from_dict({
        "data": {"archive": "x"}, "preset": "amazon-like"})
    assert amazon.training.loss_kind == "bce"
    assert amazon.training.contrastive_weight == pytest.approx(1e-4)
    assert amazon.training.weight_decay == pytest.approx(1e-6)


def test_training_defaults_match_published_settings():
    cfg = TrainingConfig()
    assert cfg.alpha == 0.2
    assert cfg.gamma == 0.9
    assert cfg.batch_size == 2048
    assert cfg.lr == 0.001
    assert cfg.embedding_dim == 64
    assert cfg.patience == 10


def test_prepare_data_synthetic_per_seed():
    cfg = synth_experiment_config()
    ds_a, t_a, _ = prepare_data(cfg, seed=0)
    ds_b, _, _ = prepare_data(cfg, seed=1)
    assert ds_a.target.n_users > 0
    assert t_a.train.n_interactions > 0
    # Different seeds give different synthetic datasets.
    assert ds_a.target.n_interactions != ds_b.target.n_interactions or \
        any(not np.array_equal(x, y)
            for x, y in zip(ds_a.target.rows, ds_b.target.rows))


def test_run_single_seed_reports_all_variants():
    cfg = synth_experiment_config(seeds=[0])
    result = run_single_seed(cfg, 0)
    assert set(result["variants"]) == {"target-only", "joint", "cut"}
    for metrics in result["variants"].values():
        assert set(metrics) == {"recall", "hr", "ndcg"}
        assert all(0.0 <= v <= 1.0 for v in metrics.values())


def test_run_experiment_aggregates_and_is_deterministic():
    cfg = synth_experiment_config()
    report_a = run_experiment(cfg)
    report_b = run_experiment(cfg)
    assert json.dumps(report_a, sort_keys=True) == \
        json.dumps(report_b, sort_keys=True)
    assert set(report_a["per_seed"]) == {"0", "1"}
    agg = report_a["aggregate"]
    for variant in ("target-only", "joint", "cut"):
        assert set(agg[variant]) == {"recall", "hr", "ndcg"}
        assert "mean" in agg[variant]["ndcg"]
    table = format_aggregate_table(report_a, cfg.eval_k)
    assert "target-only" in table and "ndcg@10" in table


def test_sparsity_sweep_structure():
    cfg = synth_experiment_config(seeds=[0], variants=["cut"],
                                  sparsity_fractions=[0.5])
    report = run_experiment(cfg)
    assert "sparsity" in report
    assert set(report["sparsity"]) == {"0.5"}
    assert "cut" in report["sparsity"]["0.5"]


def test_write_outputs_and_overwrite_protection(tmp_path):
    cfg = synth_experiment_config(seeds=[0])
    report = run_experiment(cfg)
    out = tmp_path / "exp"
    write_experiment_outputs(report, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "report.json" in manifest["outputs"]
    assert "report.txt" in manifest["outputs"]
    with pytest.raises(FileExistsError):
        write_experiment_outputs(report, out)
    write_experiment_outputs(report, out, force=True)


def test_parallel_seeds_report_equals_serial():
    cfg = synth_experiment_config(variants=["target-only", "cut"])
    serial = run_experiment(cfg)
    parallel = run_experiment(cfg, parallel_seeds=2)
    assert json.dumps(parallel, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)
