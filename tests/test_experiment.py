import json
import os
import pickle
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from cutrec import errors, experiment
from cutrec.config import TrainingConfig
from cutrec.errors import ConfigError
from cutrec.experiment import (ExperimentConfig, format_aggregate_table,
                               prepare_data, run_experiment, run_single_seed)


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


@pytest.mark.parametrize("key, value", [
    ("transform_init", "identity"), ("normalized_contrastive", False),
    ("weight_decay", 0.0), ("loss_kind", "bce"), ("no_contrastive", False)])
def test_training_config_rejects_retired_keys(key, value):
    # Even at the value the code still implements: only checkpoints
    # written before the option was retired may carry it.
    with pytest.raises(ConfigError,
                       match=f"unknown training config key '{key}'"):
        TrainingConfig.from_dict({key: value})


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


def test_every_variant_runs_and_records_its_settings():
    # gamma 0.5 gives the phase-one oracle similar pairs, so the
    # contrastive term is live in cut and off in cut-no-contrastive.
    cfg = synth_experiment_config(seeds=[0], save_checkpoints=True,
                                  variants=list(experiment.VARIANTS))
    result = run_single_seed(cfg, 0)
    assert list(result["variants"]) == list(experiment.VARIANTS)
    ckpts = {name: result["checkpoints"][f"seed-0/{name}.ckpt"]
             for name in experiment.VARIANTS if name != "target-only"}
    for name, ckpt in ckpts.items():
        training = ckpt.hyper["training"]
        assert "no_contrastive" not in training
        assert training["contrastive_weight"] == (
            0.0 if name in ("joint", "cut-no-contrastive") else 0.02), name
        assert training["warm_start"] == (name == "cut-warm"), name
    cut = ckpts["cut"].arrays
    for name in ("cut-no-contrastive", "cut-warm"):
        assert any(not np.array_equal(cut[member], values)
                   for member, values in ckpts[name].arrays.items()), name
    assert "cut-warm" not in experiment.DEFAULT_VARIANTS


def test_run_experiment_aggregates_and_is_deterministic():
    cfg = synth_experiment_config()
    report_a, _ = run_experiment(cfg)
    report_b, _ = run_experiment(cfg)
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
    report, _ = run_experiment(cfg)
    assert "sparsity" in report
    assert set(report["sparsity"]) == {"0.5"}
    assert "cut" in report["sparsity"]["0.5"]


@pytest.mark.parametrize("parallel_seeds, seeds, workers", [
    (64, [0], None), (64, [0, 1, 2], 3), (2, [0, 1, 2], 2), (1, [0, 1], None),
])
def test_parallel_seeds_start_at_most_one_worker_per_seed(
        monkeypatch, parallel_seeds, seeds, workers):
    started = []

    class Pool:
        """Records its size and runs each task at once, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiment, "run_single_seed",
                        lambda cfg, seed: {"variants": {},
                                           "checkpoints": {}})
    report, _ = run_experiment(synth_experiment_config(seeds=seeds),
                            parallel_seeds=parallel_seeds)
    assert started == ([] if workers is None else [workers])
    assert list(report["per_seed"]) == [str(seed) for seed in seeds]


def fail_first_seed(cfg, seed):
    """A stand-in for ``run_single_seed``, at module level so that it
    pickles: each seed marks its start, then seed 0 fails and the others
    take half a second."""
    (Path(os.environ["SEED_MARKERS"]) / str(seed)).touch()
    if seed == 0:
        raise errors.TrainingDivergedError("seed 0 diverged")
    time.sleep(0.5)
    return {"variants": {}, "checkpoints": {}}


def test_a_failed_seed_starts_no_more_parallel_seeds(monkeypatch, tmp_path):
    monkeypatch.setenv("SEED_MARKERS", str(tmp_path))
    monkeypatch.setattr(experiment, "run_single_seed", fail_first_seed)
    with pytest.raises(errors.TrainingDivergedError, match="seed 0"):
        run_experiment(synth_experiment_config(seeds=list(range(6))),
                       parallel_seeds=2)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["0", "1"]


def test_every_error_survives_pickling():
    # A seed's worker process sends its exception back pickled.
    raised = [errors.ParseError("t.tsv", 3, "invalid timestamp 'x'"),
              errors.ParseError("t.tsv", None, "no records"),
              errors.CutRecError("a"), errors.DatasetCollapsedError("b"),
              errors.ConfigError("c"), errors.CheckpointError("d"),
              errors.TrainingDivergedError("e")]
    assert {type(err) for err in raised} == {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, Exception)}
    for err in raised:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert (back.args, vars(back)) == (err.args, vars(err))


@pytest.mark.parametrize("parallel_seeds", [0, -2])
def test_parallel_seeds_below_one_rejected(parallel_seeds):
    with pytest.raises(ConfigError, match="parallel_seeds must be >= 1"):
        run_experiment(synth_experiment_config(),
                       parallel_seeds=parallel_seeds)


def test_parallel_seeds_report_equals_serial():
    cfg = synth_experiment_config(variants=["target-only", "cut"],
                                  save_checkpoints=True)
    serial, serial_ckpts = run_experiment(cfg)
    parallel, parallel_ckpts = run_experiment(cfg, parallel_seeds=2)
    assert json.dumps(parallel, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)
    # The workers' checkpoints come back pickled, equal to the serial ones.
    assert list(parallel_ckpts) == list(serial_ckpts) == [
        "seed-0/phase1.ckpt", "seed-0/cut.ckpt", "seed-1/phase1.ckpt",
        "seed-1/cut.ckpt"]
    for name, ckpt in serial_ckpts.items():
        back = parallel_ckpts[name]
        assert (back.hyper, back.step, list(back.arrays)) == \
            (ckpt.hyper, ckpt.step, list(ckpt.arrays))
        for member, values in ckpt.arrays.items():
            assert np.array_equal(back.arrays[member], values)
    assert run_experiment(synth_experiment_config(seeds=[0]))[1] == {}
