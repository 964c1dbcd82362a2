import json

import pytest

from cutrec.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


SYNTH_CFG = {
    "n_users": 50, "n_items_per_domain": 40, "latent_dim": 5,
    "overlap_fraction": 0.8, "distortion": 0.5,
    "interactions_per_user": 10, "seed": 7, "n_clusters": 4,
}

TRAIN_CFG = {
    "embedding_dim": 8, "batch_size": 64, "max_epochs": 3, "patience": 3,
    "gamma": 0.5, "contrastive_weight": 0.02, "seed": 7,
}


@pytest.fixture()
def pipeline_dirs(tmp_path):
    synth_cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    train_cfg = write_json(tmp_path / "train.json", TRAIN_CFG)
    raw_dir = tmp_path / "raw"
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(synth_cfg),
                 "--out", str(raw_dir)]) == 0
    assert main(["ingest", str(raw_dir / "source.tsv"),
                 str(raw_dir / "target.tsv"), "--out", str(data_dir),
                 "--min-interactions", "3", "--seed", "7"]) == 0
    return tmp_path, train_cfg, data_dir


def test_full_pipeline_through_cli(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    target_out = tmp_path / "phase1"
    transfer_out = tmp_path / "phase2"
    eval_out = tmp_path / "eval"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(target_out)]) == 0
    assert (target_out / "phase1.ckpt").exists()
    assert (target_out / "theta-t1.ckpt").exists()
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(train_cfg), "--phase1",
                 str(target_out / "theta-t1.ckpt"),
                 "--out", str(transfer_out)]) == 0
    assert main(["evaluate", "--checkpoint", str(transfer_out / "cut.ckpt"),
                 "--data", str(data_dir), "--out", str(eval_out)]) == 0
    report = json.loads((eval_out / "report.json").read_text())
    assert 0.0 <= report["ndcg"]["mean"] <= 1.0
    manifest = json.loads((eval_out / "manifest.json").read_text())
    assert "report.json" in manifest["outputs"]


def test_malformed_archive_is_validation_error(pipeline_dirs, capsys):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    splits_path = data_dir / "splits.json"
    splits = json.loads(splits_path.read_text())
    del splits["source"]["valid"]
    splits_path.write_text(json.dumps(splits))
    capsys.readouterr()
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(tmp_path / "phase1")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "splits.json" in err and "source/valid" in err


def test_evaluate_single_domain_checkpoint(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    target_out = tmp_path / "phase1"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(target_out)]) == 0
    eval_out = tmp_path / "eval-single"
    assert main(["evaluate", "--checkpoint", str(target_out / "phase1.ckpt"),
                 "--data", str(data_dir), "--out", str(eval_out)]) == 0


def test_experiment_command_and_rerun_byte_identical(tmp_path):
    exp_cfg = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": SYNTH_CFG},
        "training": TRAIN_CFG,
        "seeds": [0],
        "variants": ["target-only", "cut"],
        "min_interactions": 3,
        "save_checkpoints": False,
    })
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["experiment", "--config", str(exp_cfg),
                 "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", str(exp_cfg),
                 "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()


def test_missing_input_file_is_validation_error(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "missing-source.tsv"),
                 str(tmp_path / "missing-target.tsv"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing-source.tsv" in err


def test_invalid_config_key_is_validation_error(tmp_path, capsys):
    bad_cfg = write_json(tmp_path / "bad.json",
                         {"data": {"synthetic": SYNTH_CFG}, "typo_key": 1})
    code = main(["experiment", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


def test_overwrite_requires_force(tmp_path):
    synth_cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    out = tmp_path / "raw"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(out)]) == 0
    assert main(["synth", "--config", str(synth_cfg), "--out", str(out)]) == 1
    assert main(["synth", "--config", str(synth_cfg), "--out", str(out),
                 "--force"]) == 0


def test_corrupt_checkpoint_is_runtime_failure(pipeline_dirs, capsys):
    tmp_path, _, data_dir = pipeline_dirs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage-bytes")
    code = main(["evaluate", "--checkpoint", str(bad), "--data",
                 str(data_dir), "--out", str(tmp_path / "eval")])
    assert code == 2


def test_warm_start_with_history_oracle_loads_phase1(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    target_out = tmp_path / "phase1"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(target_out)]) == 0
    cfg = write_json(tmp_path / "warm.json",
                     {**TRAIN_CFG, "warm_start": True,
                      "history_similarity": True})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(cfg), "--phase1", str(target_out / "theta-t1.ckpt"),
                 "--out", str(tmp_path / "phase2")]) == 0
    assert (tmp_path / "phase2" / "cut.ckpt").exists()


def test_wrong_phase1_checkpoint_is_runtime_failure(pipeline_dirs, capsys):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    no_contrastive = write_json(tmp_path / "joint.json",
                                {**TRAIN_CFG, "no_contrastive": True})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(no_contrastive), "--out", str(tmp_path / "joint")]) == 0
    capsys.readouterr()
    code = main(["train-transfer", "--data", str(data_dir), "--config",
                 str(train_cfg), "--phase1",
                 str(tmp_path / "joint" / "cut.ckpt"),
                 "--out", str(tmp_path / "phase2")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'user-target-phase1'" in err and "'user'" in err
