import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from cutrec import cli
from cutrec.checkpoint import load_checkpoint, save_checkpoint
from cutrec.cli import main
from cutrec.config import TrainingConfig
from cutrec.corpus import load_dataset, read_arrays, write_arrays
from cutrec.errors import TrainingDivergedError
from cutrec.experiment import VARIANTS
from cutrec.trainer import needs_phase_one, run_transfer_phase

from helpers import rewrite_arrays


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


def make_archive(tmp_path):
    """A training config file and a synthetic dataset archive."""
    synth_cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    train_cfg = write_json(tmp_path / "train.json", TRAIN_CFG)
    raw_dir = tmp_path / "raw"
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(synth_cfg),
                 "--out", str(raw_dir)]) == 0
    assert main(["ingest", str(raw_dir / "source.tsv"),
                 str(raw_dir / "target.tsv"), "--out", str(data_dir),
                 "--min-interactions", "3", "--seed", "7"]) == 0
    return train_cfg, data_dir


@pytest.fixture()
def pipeline_dirs(tmp_path):
    return (tmp_path, *make_archive(tmp_path))


@pytest.fixture(scope="module")
def phase1_checkpoint(tmp_path_factory):
    """A dataset archive and the phase-one checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("phase1")
    train_cfg, data_dir = make_archive(tmp_path)
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(tmp_path / "phase1")]) == 0
    return data_dir, (tmp_path / "phase1" / "phase1.ckpt").read_bytes()


@pytest.fixture(scope="module")
def cut_checkpoint(phase1_checkpoint, tmp_path_factory):
    """The archive of ``phase1_checkpoint`` and a phase-two checkpoint,
    with the transform, trained on it without the contrastive term."""
    data_dir, _ = phase1_checkpoint
    tmp_path = tmp_path_factory.mktemp("cut")
    joint = write_json(tmp_path / "joint.json",
                       {**TRAIN_CFG, "contrastive_weight": 0.0})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(joint), "--out", str(tmp_path / "cut")]) == 0
    return data_dir, (tmp_path / "cut" / "cut.ckpt").read_bytes()


def test_full_pipeline_through_cli(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    target_out = tmp_path / "phase1"
    transfer_out = tmp_path / "phase2"
    eval_out = tmp_path / "eval"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(target_out)]) == 0
    assert sorted(p.name for p in target_out.iterdir()) == [
        "manifest.json", "phase1.ckpt"]
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(train_cfg), "--phase1",
                 str(target_out / "phase1.ckpt"),
                 "--out", str(transfer_out)]) == 0
    assert main(["evaluate", "--checkpoint", str(transfer_out / "cut.ckpt"),
                 "--data", str(data_dir), "--out", str(eval_out)]) == 0
    report = json.loads((eval_out / "report.json").read_text())
    assert 0.0 <= report["ndcg"]["mean"] <= 1.0
    manifest = json.loads((eval_out / "manifest.json").read_text())
    assert "report.json" in manifest["outputs"]


def _drop_member(path):
    rewrite_arrays(path, lambda header, arrays: arrays.pop(
        "source-valid-indptr"))


def _float_indptr(path):
    rewrite_arrays(path, lambda header, arrays: arrays.update({
        "target-train-indptr": arrays["target-train-indptr"] * 1.0}))


def _header_not_an_object(path):
    header, arrays = read_arrays(path)
    write_arrays(path, [header], arrays)


@pytest.mark.parametrize("corrupt, word", [
    (_drop_member, "no member 'source-valid-indptr'"),
    (_float_indptr, "indptr and indices must be 1-D int64"),
    (_header_not_an_object, "the header is not a JSON object"),
], ids=["missing-member", "float-indptr", "header-not-an-object"])
def test_malformed_archive_is_validation_error(pipeline_dirs, capsys,
                                               corrupt, word):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    corrupt(data_dir / "dataset.npz")
    capsys.readouterr()
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(tmp_path / "phase1")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(data_dir / "dataset.npz") in err and word in err


def test_ingest_writes_one_archive_and_its_manifest(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    assert sorted(p.name for p in data_dir.iterdir()) == [
        "dataset.npz", "manifest.json"]
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert list(manifest["outputs"]) == ["dataset.npz"]
    out = tmp_path / "phase1"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(data_dir / "dataset.npz"),
                                        str(train_cfg)]


def test_version_2_archive_is_refused_naming_the_archive_file(
        pipeline_dirs, capsys):
    # Version 2 kept the tokens in index.json and the splits in splits.npz.
    tmp_path, train_cfg, data_dir = pipeline_dirs
    header, arrays = read_arrays(data_dir / "dataset.npz")
    old = tmp_path / "v2"
    old.mkdir()
    (old / "index.json").write_text(json.dumps(
        {"version": 2, "users": header["users"], "items": header["items"]}))
    write_arrays(old / "splits.npz", {"version": 2, "seeds": header["seeds"]},
                 arrays)
    capsys.readouterr()
    out = tmp_path / "phase1"
    assert main(["train-target", "--data", str(old), "--config",
                 str(train_cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: "
        f"'{old / 'dataset.npz'}'\n")
    assert not out.exists()
    assert sorted(p.name for p in old.iterdir()) == ["index.json",
                                                     "splits.npz"]


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


def test_invalid_utf8_is_validation_error_naming_its_line(tmp_path, capsys):
    for name in ("source.tsv", "target.tsv"):
        (tmp_path / name).write_bytes(b"u\ti\nu\tj\xe9\n")
    code = main(["ingest", str(tmp_path / "source.tsv"),
                 str(tmp_path / "target.tsv"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert (f"error: {tmp_path / 'source.tsv'}:2: invalid UTF-8 at byte 4"
            in capsys.readouterr().err)


def test_invalid_config_key_is_validation_error(tmp_path, capsys):
    bad_cfg = write_json(tmp_path / "bad.json",
                         {"data": {"synthetic": SYNTH_CFG}, "typo_key": 1})
    code = main(["experiment", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


def test_experiment_synthetic_section_needs_no_seed_and_no_unknown_key(
        tmp_path, capsys):
    synth = {key: value for key, value in SYNTH_CFG.items() if key != "seed"}
    base = {"training": TRAIN_CFG, "seeds": [3], "variants": ["target-only"],
            "min_interactions": 3, "save_checkpoints": False}
    for bad, word in (({**synth, "bogus": 1}, "bogus"),
                      ({k: v for k, v in synth.items() if k != "n_users"},
                       "n_users")):
        cfg = write_json(tmp_path / "bad.json",
                         {**base, "data": {"synthetic": bad}})
        out = tmp_path / "bad-out"
        capsys.readouterr()
        assert main(["experiment", "--config", str(cfg), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err
        assert not out.exists()
    cfg = write_json(tmp_path / "exp.json",
                     {**base, "data": {"synthetic": synth}})
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report["per_seed"]) == ["3"]


EXPERIMENT_BASE = {"data": {"synthetic": SYNTH_CFG}, "training": TRAIN_CFG,
                   "seeds": [3], "variants": ["target-only"],
                   "min_interactions": 3}


@pytest.mark.parametrize("bad, word", [
    ({"eval_k": "10"}, "eval_k must be an integer"),
    ({"eval_k": 2.5}, "eval_k must be an integer"),
    ({"eval_k": 0}, "eval_k must be >= 1"),
    ({"seeds": [-1]}, "seeds must be >= 0"),
    ({"seeds": [1, 1]}, "seeds must be a non-empty list without repeats"),
    ({"seeds": []}, "seeds must be a non-empty list"),
    ({"seeds": 3}, "seeds must be a list"),
    ({"seeds": [1.5]}, "seeds entry must be an integer"),
    ({"variants": ["cut", "cut"]}, "variants must be a non-empty list"),
    # Retired: evaluation always masks seen items.
    ({"mask_seen": True}, "unknown experiment config key 'mask_seen'"),
    ({"save_checkpoints": 1}, "save_checkpoints must be true or false"),
    ({"min_interactions": 0}, "min_interactions must be >= 1"),
    ({"target_ratios": [8, 1]}, "target_ratios must be three numbers"),
    ({"target_ratios": [8, 1, 0]}, "target_ratios must be three numbers"),
    ({"target_ratios": [8, "1", 1]}, "target_ratios entry must be a number"),
    ({"source_ratios": [8, -2]}, "source_ratios must be two numbers"),
    ({"sparsity_fractions": ["0.5"]}, "sparsity_fractions entry must be"),
    ({"sparsity_fractions": [float("inf")]}, "must be finite"),
    ({"training": [1]}, "training config must be an object"),
    ({"preset": ["amazon-like"]}, "unknown experiment config key 'preset'"),
    ({"data": {"archive": 5}}, "data.archive must be a string"),
    ({"data": ["x"]}, "data must be an object"),
    # An archive's splits are fixed: a split setting it ignores is refused.
    ({"data": {"archive": "d"}},
     "min_interactions does not apply to data.archive"),
    ({"data": {"archive": "d"}, "min_interactions": 5,
      "target_ratios": [1, 1, 1]},
     "target_ratios does not apply to data.archive"),
    ({"data": {"archive": "d"}, "min_interactions": 5,
      "source_ratios": [1, 1]},
     "source_ratios does not apply to data.archive"),
], ids=["k-str", "k-float", "k-zero", "seed-negative", "seeds-repeated",
        "seeds-empty", "seeds-int", "seed-float", "variants-repeated",
        "mask-retired", "save-int", "min-zero", "target-two", "target-zero",
        "target-str", "source-negative", "sparsity-str", "sparsity-inf",
        "training-list", "preset-list", "archive-int", "data-list",
        "archive-min", "archive-target", "archive-source"])
def test_bad_experiment_config_is_validation_error(tmp_path, capsys, bad,
                                                   word):
    cfg = write_json(tmp_path / "bad.json", {**EXPERIMENT_BASE, **bad})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err
    assert not out.exists()


def test_experiment_seed_flag_and_config_shape_are_checked(tmp_path,
                                                           capsys):
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "exp.json", EXPERIMENT_BASE)
    assert main(["experiment", "--config", str(cfg), "--seed", "-1",
                 "--out", str(out)]) == 1
    assert "seeds must be >= 0" in capsys.readouterr().err
    cfg = write_json(tmp_path / "list.json", [EXPERIMENT_BASE])
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    assert "experiment config must be an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("ingest", "error: seed must be >= 0, got -1"),
    ("synth", "error: synthetic config: seed must be >= 0, got -1"),
    ("train-target", "error: seed must be >= 0, got -1"),
    ("train-transfer", "error: seed must be >= 0, got -1"),
], ids=["ingest", "synth", "train-target", "train-transfer"])
def test_negative_seed_flag_is_validation_error(pipeline_dirs, capsys,
                                                command, message):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    args = {"ingest": [str(tmp_path / "raw" / "source.tsv"),
                       str(tmp_path / "raw" / "target.tsv")],
            "synth": ["--config", str(tmp_path / "synth.json")],
            "train-target": ["--data", str(data_dir), "--config",
                             str(train_cfg)],
            "train-transfer": ["--data", str(data_dir), "--config",
                               str(train_cfg)]}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *args, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parallel_seeds_below_one_is_validation_error(tmp_path, capsys,
                                                      value):
    cfg = write_json(tmp_path / "exp.json", EXPERIMENT_BASE)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--parallel-seeds",
                 value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "parallel_seeds must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_malformed_tsv_is_validation_error_serial_or_parallel(tmp_path,
                                                              capsys,
                                                              parallel):
    source, target = tmp_path / "src.tsv", tmp_path / "tgt.tsv"
    source.write_text("u1\ti1\n")
    target.write_text("u1\ti1\tnotatime\n")
    cfg = write_json(tmp_path / "exp.json", {
        **EXPERIMENT_BASE, "seeds": [0, 1],
        "data": {"source_tsv": str(source), "target_tsv": str(target)}})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--parallel-seeds",
                 parallel, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {target}:1: invalid timestamp 'notatime'\n"
    assert not out.exists()


def test_experiment_manifest_lists_exactly_the_files_of_this_run(
        tmp_path):
    out = tmp_path / "out"

    def run(*flags, **config):
        cfg = write_json(tmp_path / "exp.json", {
            **EXPERIMENT_BASE, "variants": ["target-only", "cut"], **config})
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     *flags]) == 0
        return sorted(json.loads((out / "manifest.json").read_text())
                      ["outputs"])

    reports = ["report.json", "report.txt"]
    assert run(seeds=[0, 1]) == reports + [
        "seed-0/cut.ckpt", "seed-0/phase1.ckpt", "seed-1/cut.ckpt",
        "seed-1/phase1.ckpt"]
    assert run("--force", seeds=[0]) == reports + [
        "seed-0/cut.ckpt", "seed-0/phase1.ckpt"]
    assert run("--force", seeds=[0], save_checkpoints=False) == reports
    # The earlier runs' checkpoints stay on disk, outside the manifest.
    assert (out / "seed-1" / "cut.ckpt").exists()


def test_experiment_failing_in_a_variant_leaves_no_checkpoint(
        tmp_path, monkeypatch, capsys):
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise TrainingDivergedError("second variant diverged")
        return run_transfer_phase(*args, **kwargs)

    monkeypatch.setattr("cutrec.experiment.run_transfer_phase", fail_second)
    cfg = write_json(tmp_path / "exp.json", {
        **EXPERIMENT_BASE, "variants": ["target-only", "joint", "cut"]})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert len(calls) == 2
    assert "second variant diverged" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, word", [
    ({**SYNTH_CFG, "bogus": 1}, "bogus"),
    ({k: v for k, v in SYNTH_CFG.items() if k != "n_users"}, "n_users"),
    ({**SYNTH_CFG, "n_users": "50"}, "n_users must be an integer"),
    ({**SYNTH_CFG, "n_users": 50.5}, "n_users must be an integer"),
    ({**SYNTH_CFG, "distortion": "high"}, "synthetic config"),
    ([1, 2], "synthetic config"),
    ({**SYNTH_CFG, "source_interactions_per_user": 12},
     "source_interactions_per_user"),
    ({**SYNTH_CFG, "zipf_exponent": 0.0}, "zipf_exponent"),
    ({**SYNTH_CFG, "share_item_factors": "false"},
     "share_item_factors must be true or false"),
    ({**SYNTH_CFG, "n_users": True}, "n_users must be an integer"),
    ({**SYNTH_CFG, "overlap_fraction": True},
     "overlap_fraction must be a number"),
    ({**SYNTH_CFG, "cluster_spread": float("nan")},
     "cluster_spread must be finite"),
    ({**SYNTH_CFG, "cluster_spread": "x"}, "cluster_spread must be a number"),
    ({**SYNTH_CFG, "score_noise": -1}, "score_noise must be >= 0"),
    ({**SYNTH_CFG, "n_clusters": -3}, "n_clusters must be >= 0"),
    ({**SYNTH_CFG, "n_clusters": 2.5}, "n_clusters must be an integer"),
    ({**SYNTH_CFG, "n_users": 0}, "n_users must be >= 1"),
    ({**SYNTH_CFG, "seed": -1}, "seed must be >= 0"),
])
def test_synth_config_errors_are_validation_errors(tmp_path, capsys, bad,
                                                   word):
    cfg = write_json(tmp_path / "bad.json", bad)
    out = tmp_path / "raw"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synthetic config: ") and word in err
    assert not out.exists()
    if "seed" in word:
        return  # an experiment's run seed replaces the generator's
    cfg = write_json(tmp_path / "exp.json",
                     {**EXPERIMENT_BASE, "data": {"synthetic": bad}})
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synthetic config: ") and word in err
    assert not out.exists()


def test_synth_refuses_existing_outputs_before_generating(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    synth_cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    out = tmp_path / "raw"
    out.mkdir()
    (out / "target.tsv").write_text("keep me")

    def refuse(*args, **kwargs):
        raise AssertionError("generate ran although the output exists")

    monkeypatch.setattr("cutrec.synthgen.generate", refuse)
    assert main(["synth", "--config", str(synth_cfg), "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert (out / "target.tsv").read_text() == "keep me"


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


def _v1_file(rows):
    """A checkpoint in the retired first layout: magic bytes, header
    length, JSON header, float32 payload."""
    header = json.dumps({"version": 1, "step": 0,
                         "hyper": {"model_kind": "single"}, "transform": None,
                         "tables": [{"role": "item-target", "rows": rows,
                                     "dim": 2}]}).encode()
    return lambda path: path.write_bytes(
        b"CUTCKPT1" + struct.pack("<I", len(header)) + header
        + bytes(8 * max(rows, 0)))


def _plain_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros((3, 2), dtype=np.float32))


def _flip_payload_byte(path):
    data = bytearray(path.read_bytes())
    values = load_checkpoint(path).arrays["item-target"]
    data[data.find(values.tobytes()) + 5] ^= 0x10
    path.write_bytes(data)


def _edit(edit):
    return lambda path: rewrite_arrays(path, edit)


BAD_CHECKPOINTS = {
    "v1": _v1_file(3),
    "v1-negative-rows": _v1_file(-1),
    "plain-npy": _plain_npy,
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-40]),
    "flipped-byte": _flip_payload_byte,
    "version-99": _edit(lambda header, arrays: header.update(version=99)),
    "no-hyper": _edit(lambda header, arrays: header.pop("hyper")),
    "no-step": _edit(lambda header, arrays: header.pop("step")),
    "float64-table": _edit(lambda header, arrays: arrays.update(
        {"item-target": arrays["item-target"].astype(np.float64)})),
    "1-D-table": _edit(lambda header, arrays: arrays.update(
        {"item-target": arrays["item-target"].ravel()})),
    "cut-without-training": _edit(lambda header, arrays: header.update(
        hyper={"model_kind": "cut"})),
}


@pytest.mark.parametrize("corrupt", BAD_CHECKPOINTS.values(),
                         ids=list(BAD_CHECKPOINTS))
def test_malformed_checkpoint_is_runtime_failure_naming_it(
        phase1_checkpoint, tmp_path, capsys, corrupt):
    data_dir, good = phase1_checkpoint
    path = tmp_path / "bad.ckpt"
    path.write_bytes(good)
    corrupt(path)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(path), "--data",
                 str(data_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("kind, keep", [
    ("cut", {"transform-weight": np.s_[:3, :3], "transform-bias": np.s_[:3]}),
    ("single", {"item-target": np.s_[:, :4]}),
    ("cut", {"item-source": np.s_[:, :4]}),
    # All members agree, but not with the recorded embedding_dim 8.
    ("cut", {"user": np.s_[:, :4], "item-target": np.s_[:, :4],
             "item-source": np.s_[:, :4], "transform-weight": np.s_[:4, :4],
             "transform-bias": np.s_[:4]}),
    ("single", {"user-target-phase1": np.s_[:, :4],
                "item-target": np.s_[:, :4]}),
], ids=["cut-transform-3x3", "single-item-target-4-wide",
        "cut-item-source-4-wide", "cut-all-4-wide", "single-all-4-wide"])
def test_checkpoint_of_mixed_widths_is_runtime_failure_naming_it(
        phase1_checkpoint, cut_checkpoint, tmp_path, capsys, kind, keep):
    data_dir, good = phase1_checkpoint if kind == "single" else cut_checkpoint
    path = tmp_path / "mixed.ckpt"
    path.write_bytes(good)
    rewrite_arrays(path, lambda header, arrays: arrays.update(
        {name: arrays[name][part] for name, part in keep.items()}))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(path), "--data",
                 str(data_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: ")
    assert "differ in embedding width" in err
    assert all(name in err for name in keep)
    assert not out.exists()


def test_phase1_narrower_than_its_embedding_dim_is_runtime_failure(
        phase1_checkpoint, tmp_path, capsys):
    data_dir, good = phase1_checkpoint
    phase1 = tmp_path / "phase1.ckpt"
    phase1.write_bytes(good)
    rewrite_arrays(phase1, lambda header, arrays: arrays.update(
        {name: values[:, :4] for name, values in arrays.items()}))
    capsys.readouterr()
    out = tmp_path / "phase2"
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(write_json(tmp_path / "cut.json", TRAIN_CFG)),
                 "--phase1", str(phase1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {phase1}: ")
    assert "differ in embedding width" in err
    assert "user-target-phase1" in err and "embedding_dim 8" in err
    assert not out.exists()


def test_checkpoint_with_retired_keys_at_their_value_evaluates_the_same(
        pipeline_dirs):
    # Files written before an option was retired record it; at the value
    # this code implements they load as they did. A retired number may
    # have come from a user config as an int.
    tmp_path, train_cfg, data_dir = pipeline_dirs
    ckpt = Path(train_checkpoint(tmp_path, train_cfg, data_dir, "cut"))
    paths = [ckpt]
    for decay in (0.0, 0):
        old = tmp_path / f"old-{type(decay).__name__}.ckpt"
        old.write_bytes(ckpt.read_bytes())
        rewrite_arrays(old, lambda header, arrays: header["hyper"]["training"]
                       .update(transform_init="identity",
                               normalized_contrastive=False,
                               weight_decay=decay, loss_kind="bce"))
        assert old.read_bytes() != ckpt.read_bytes()
        paths.append(old)
    reports = []
    for path in paths:
        out = tmp_path / f"eval-{path.stem}"
        assert main(["evaluate", "--checkpoint", str(path), "--data",
                     str(data_dir), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports == reports[:1] * 3


def test_checkpoint_recording_no_contrastive_reads_it_as_zero_weight(
        pipeline_dirs):
    # Files written before no_contrastive was retired record it next to a
    # weight; a run with it true trained as one at weight 0 does.
    tmp_path, train_cfg, data_dir = pipeline_dirs
    ckpt = Path(train_checkpoint(tmp_path, train_cfg, data_dir, "cut"))
    paths = {}
    for flag in (True, False):
        paths[flag] = tmp_path / f"old-{flag}.ckpt"
        paths[flag].write_bytes(ckpt.read_bytes())
        rewrite_arrays(paths[flag], lambda header, arrays: header["hyper"][
            "training"].update(no_contrastive=flag, contrastive_weight=0.02))
    configs = {key: load_checkpoint(path).training_config()
               for key, path in {**paths, None: ckpt}.items()}
    assert configs[None].contrastive_weight == 0.0
    assert configs[True] == configs[None]
    assert configs[False] == configs[None].replace(contrastive_weight=0.02)
    reports = []
    for path in (ckpt, paths[True]):
        out = tmp_path / f"eval-{path.stem}"
        assert main(["evaluate", "--checkpoint", str(path), "--data",
                     str(data_dir), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("key, value", [
    ("normalized_contrastive", True), ("transform_init", "random"),
    ("normalized_contrastive", 0), ("loss_kind", "bpr"),
    ("weight_decay", 1e-6), ("weight_decay", False),
    ("no_contrastive", "yes"), ("no_contrastive", 1)])
def test_checkpoint_with_retired_key_set_is_runtime_failure(
        phase1_checkpoint, tmp_path, capsys, key, value):
    data_dir, good = phase1_checkpoint
    path = tmp_path / "retired.ckpt"
    path.write_bytes(good)
    rewrite_arrays(path, lambda header, arrays:
                   header["hyper"]["training"].update({key: value}))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(path), "--data",
                 str(data_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: ")
    assert f"retired key {key!r} to {value!r}" in err
    assert not out.exists()


def test_experiment_config_with_retired_key_is_validation_error(tmp_path,
                                                                capsys):
    exp_cfg = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": SYNTH_CFG},
        "training": {**TRAIN_CFG, "transform_init": "identity"},
        "seeds": [0], "variants": ["cut"], "min_interactions": 3})
    code = main(["experiment", "--config", str(exp_cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown training config key 'transform_init'" in err
    assert not (tmp_path / "out").exists()


def test_warm_start_with_history_oracle_loads_phase1(pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    target_out = tmp_path / "phase1"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(target_out)]) == 0
    cfg = write_json(tmp_path / "warm.json",
                     {**TRAIN_CFG, "warm_start": True,
                      "history_similarity": True})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(cfg), "--phase1", str(target_out / "phase1.ckpt"),
                 "--out", str(tmp_path / "phase2")]) == 0
    assert (tmp_path / "phase2" / "cut.ckpt").exists()


def test_phase1_is_required_exactly_where_phase_two_reads_it(
        phase1_checkpoint, tmp_path, monkeypatch, capsys):
    # Every variant row, without --phase1: refused before training where
    # the trainer's rule says phase two reads the frozen table, else
    # handed to the transfer phase with no table.
    data_dir, _ = phase1_checkpoint

    class Reached(Exception):
        pass

    def transfer_phase(*args, frozen):
        assert frozen is None
        raise Reached

    monkeypatch.setattr(cli, "run_transfer_phase", transfer_phase)
    needing = set()
    for name, overrides in VARIANTS.items():
        if overrides is None:
            continue
        settings = {**TRAIN_CFG, **overrides}
        args = ["train-transfer", "--data", str(data_dir), "--config",
                str(write_json(tmp_path / f"{name}.json", settings)),
                "--out", str(tmp_path / name)]
        if needs_phase_one(TrainingConfig.from_dict(settings)):
            needing.add(name)
            assert main(args) == 1, name
            assert "--phase1 checkpoint required" in capsys.readouterr().err
        else:
            with pytest.raises(Reached):
                main(args)
        assert not (tmp_path / name).exists()
    assert needing == {"cut", "cut-no-transform", "cut-warm"}


def test_step_commands_write_the_experiments_checkpoints(pipeline_dirs):
    # Both front ends leave the choice of oracle to the transfer phase, so
    # train-target and then train-transfer from its phase1.ckpt write the
    # checkpoints that the experiment writes for the same seed.
    tmp_path, train_cfg, data_dir = pipeline_dirs
    variants = ["joint", "cut", "cut-no-transform", "cut-history"]
    exp_cfg = write_json(tmp_path / "exp.json", {
        "data": {"archive": str(data_dir)}, "training": TRAIN_CFG,
        "seeds": [TRAIN_CFG["seed"]], "variants": variants})
    assert main(["experiment", "--config", str(exp_cfg),
                 "--out", str(tmp_path / "exp")]) == 0
    written = tmp_path / "exp" / f"seed-{TRAIN_CFG['seed']}"
    phase1 = tmp_path / "phase1" / "phase1.ckpt"
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(train_cfg), "--out", str(phase1.parent)]) == 0
    assert phase1.read_bytes() == (written / "phase1.ckpt").read_bytes()
    for name in variants:
        cfg = write_json(tmp_path / f"{name}.json",
                         {**TRAIN_CFG, **VARIANTS[name]})
        assert main(["train-transfer", "--data", str(data_dir), "--config",
                     str(cfg), "--phase1", str(phase1),
                     "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "cut.ckpt").read_bytes() == \
            (written / f"{name}.ckpt").read_bytes(), name
    assert (written / "cut.ckpt").read_bytes() != \
        (written / "cut-history.ckpt").read_bytes()


def test_wrong_phase1_checkpoint_is_runtime_failure(pipeline_dirs, capsys):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    joint = write_json(tmp_path / "joint.json",
                       {**TRAIN_CFG, "contrastive_weight": 0.0})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(joint), "--out", str(tmp_path / "joint")]) == 0
    capsys.readouterr()
    code = main(["train-transfer", "--data", str(data_dir), "--config",
                 str(train_cfg), "--phase1",
                 str(tmp_path / "joint" / "cut.ckpt"),
                 "--out", str(tmp_path / "phase2")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'user-target-phase1'" in err and "'user'" in err
    assert f"{tmp_path / 'joint' / 'cut.ckpt'}: checkpoint has no" in err


def test_warm_start_from_phase1_of_another_width_is_validation_error(
        phase1_checkpoint, tmp_path, capsys):
    data_dir, good = phase1_checkpoint
    phase1 = tmp_path / "phase1.ckpt"
    phase1.write_bytes(good)
    cfg = write_json(tmp_path / "warm.json", {
        **TRAIN_CFG, "embedding_dim": 16, "warm_start": True,
        "contrastive_weight": 0.0})
    capsys.readouterr()
    out = tmp_path / "phase2"
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(cfg), "--phase1", str(phase1), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: warm_start:")
    assert "8 wide" in err and "embedding_dim is 16" in err
    assert not out.exists()


def ingest_archive(tmp_path, name, n_items):
    """A second dataset archive whose catalogues hold ``n_items`` items
    before filtering."""
    synth_cfg = write_json(tmp_path / f"{name}.json",
                           {**SYNTH_CFG, "n_items_per_domain": n_items})
    raw_dir, data_dir = tmp_path / f"{name}-raw", tmp_path / name
    assert main(["synth", "--config", str(synth_cfg),
                 "--out", str(raw_dir)]) == 0
    assert main(["ingest", str(raw_dir / "source.tsv"),
                 str(raw_dir / "target.tsv"), "--out", str(data_dir),
                 "--min-interactions", "3", "--seed", "7"]) == 0
    return data_dir


def train_checkpoint(tmp_path, train_cfg, data_dir, kind) -> str:
    out = tmp_path / f"{data_dir.name}-{kind}"
    if kind == "single":
        assert main(["train-target", "--data", str(data_dir), "--config",
                     str(train_cfg), "--out", str(out)]) == 0
        return str(out / "phase1.ckpt")
    joint = write_json(tmp_path / "joint.json",
                       {**TRAIN_CFG, "contrastive_weight": 0.0})
    assert main(["train-transfer", "--data", str(data_dir), "--config",
                 str(joint), "--out", str(out)]) == 0
    return str(out / "cut.ckpt")


@pytest.mark.parametrize("kind", ["single", "cut"])
def test_checkpoint_of_another_dataset_is_runtime_failure(pipeline_dirs,
                                                          capsys, kind):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    other_dir = ingest_archive(tmp_path, "other", 25)
    n_items = {path: load_dataset(path)[0].target.n_items
               for path in (data_dir, other_dir)}
    assert n_items[data_dir] != n_items[other_dir]
    for trained, evaluated in ((data_dir, other_dir), (other_dir, data_dir)):
        ckpt = train_checkpoint(tmp_path, train_cfg, trained, kind)
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", ckpt, "--data",
                     str(evaluated), "--out",
                     str(tmp_path / f"eval-{trained.name}")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure")
        assert (f"'item-target' has {n_items[trained]} rows, the dataset "
                f"needs {n_items[evaluated]}") in err


@pytest.mark.parametrize("command, output, work", [
    ("train-target", "phase1.ckpt", "run_target_phase"),
    ("train-transfer", "cut.ckpt", "run_transfer_phase"),
    ("evaluate", "report.json", "load_checkpoint"),
    ("ingest", "dataset.npz", "corpus.load_interactions"),
    ("synth", "target.tsv", "synthgen.generate"),
    ("experiment", "report.txt", "run_experiment"),
    # A manifest alone marks another command's finished run.
    ("train-transfer", "manifest.json", "run_transfer_phase"),
])
def test_existing_outputs_are_refused_before_the_work(
        pipeline_dirs, monkeypatch, capsys, command, output, work):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    out = tmp_path / "out"
    out.mkdir()
    (out / output).write_text("keep me")

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran although the output exists")

    monkeypatch.setattr(f"cutrec.cli.{work}", refuse)
    # Without the contrastive term train-transfer needs no --phase1.
    joint = write_json(tmp_path / "joint.json",
                       {**TRAIN_CFG, "contrastive_weight": 0.0})
    training = ["--data", str(data_dir), "--config", str(joint)]
    args = {"train-target": training, "train-transfer": training,
            "evaluate": ["--data", str(data_dir), "--checkpoint",
                         str(tmp_path / "missing.ckpt")],
            "ingest": [str(tmp_path / "raw" / "source.tsv"),
                       str(tmp_path / "raw" / "target.tsv")],
            "synth": ["--config", str(tmp_path / "synth.json")],
            "experiment": ["--config", str(write_json(
                tmp_path / "exp.json", EXPERIMENT_BASE))]}[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: refusing to overwrite {out / output} (use --force)\n")
    assert [p.name for p in out.iterdir()] == [output]
    assert (out / output).read_text() == "keep me"


def test_experiment_write_outputs_and_overwrite_protection(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {**EXPERIMENT_BASE,
                                             "save_checkpoints": False})
    out = tmp_path / "exp"
    args = ["experiment", "--config", str(cfg), "--out", str(out)]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["report.json", "report.txt"]
    report = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert main(args) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main([*args, "--force"]) == 0
    assert (out / "report.json").read_bytes() == report


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_experiment_failing_in_a_later_seed_writes_nothing(
        tmp_path, monkeypatch, capsys, parallel):
    def fail_seed_1(ds, target_split, source_split, cfg, *args, **kwargs):
        if cfg.seed == 1:
            raise TrainingDivergedError("diverged in seed 1")
        return run_transfer_phase(ds, target_split, source_split, cfg,
                                  *args, **kwargs)

    # Worker processes are forked, so they see the patch too.
    monkeypatch.setattr("cutrec.experiment.run_transfer_phase", fail_seed_1)
    cfg = write_json(tmp_path / "exp.json", {
        **EXPERIMENT_BASE, "seeds": [0, 1], "variants": ["target-only", "cut"]})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--parallel-seeds",
                 parallel, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "runtime failure: diverged in seed 1\n"
    assert not out.exists()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_every_manifest_lists_exactly_the_files_the_command_read(
        pipeline_dirs):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    raw_dir = tmp_path / "raw"

    def inputs(out, *flags):
        if flags:
            assert main([*flags, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["inputs"]

    def hashes(*paths):
        return {str(path): sha256(path) for path in paths}

    archive = data_dir / "dataset.npz"
    assert inputs(raw_dir) == hashes(tmp_path / "synth.json")
    assert inputs(data_dir) == hashes(raw_dir / "source.tsv",
                                      raw_dir / "target.tsv")
    training = ["--data", str(data_dir), "--config", str(train_cfg)]
    phase1 = tmp_path / "phase1" / "phase1.ckpt"
    assert inputs(phase1.parent, "train-target", *training) == hashes(
        archive, train_cfg)
    cut = tmp_path / "cut" / "cut.ckpt"
    assert inputs(cut.parent, "train-transfer", *training, "--phase1",
                  str(phase1)) == hashes(archive, train_cfg, phase1)
    # Without the contrastive term the phase-one checkpoint is not read.
    joint = write_json(tmp_path / "joint.json",
                       {**TRAIN_CFG, "contrastive_weight": 0.0})
    assert inputs(tmp_path / "joint", "train-transfer", "--data",
                  str(data_dir), "--config", str(joint), "--phase1",
                  str(phase1)) == hashes(archive, joint)
    assert inputs(tmp_path / "eval", "evaluate", "--data", str(data_dir),
                  "--checkpoint", str(cut)) == hashes(archive, cut)
    tsvs = [raw_dir / "source.tsv", raw_dir / "target.tsv"]
    for name, data, read in (
            ("synthetic", {"synthetic": SYNTH_CFG}, []),
            ("archive", {"archive": str(data_dir)}, [archive]),
            ("tsv", {"source_tsv": str(tsvs[0]), "target_tsv": str(tsvs[1])},
             tsvs)):
        payload = {**EXPERIMENT_BASE, "data": data}
        if "archive" in data:  # whose splits fix min_interactions
            del payload["min_interactions"]
        cfg = write_json(tmp_path / f"exp-{name}.json", payload)
        assert inputs(tmp_path / f"exp-{name}", "experiment", "--config",
                      str(cfg)) == hashes(*read, cfg)


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["evaluate", "--config", "train.json"], "unrecognized arguments"),
    (["evaluate", "--no-mask-seen"], "unrecognized arguments: --no-mask-seen"),
    (["ingest", "--config", "train.json"], "unrecognized arguments"),
    (["synth"], "the following arguments are required: --config"),
    (["experiment"], "the following arguments are required: --config"),
], ids=["evaluate-seed", "evaluate-config", "evaluate-no-mask-seen",
        "ingest-config",
        "synth-without-config", "experiment-without-config"])
def test_flag_a_command_does_not_read_is_a_usage_error(pipeline_dirs,
                                                       capsys, argv,
                                                       message):
    tmp_path, _, data_dir = pipeline_dirs
    out = tmp_path / "out"
    operands = {"evaluate": ["--data", str(data_dir), "--checkpoint",
                             str(tmp_path / "missing.ckpt")],
                "ingest": [str(tmp_path / "raw" / "source.tsv"),
                           str(tmp_path / "raw" / "target.tsv")]}
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main([*argv, *operands.get(argv[0], []), "--out", str(out)])
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cutrec") and message in err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["evaluate", "--help"])
    assert stop.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def test_ingest_min_interactions_is_checked_before_reading(tmp_path,
                                                           capsys):
    # The TSVs do not exist: reading them first would fail otherwise.
    out = tmp_path / "out"
    assert main(["ingest", str(tmp_path / "missing-source.tsv"),
                 str(tmp_path / "missing-target.tsv"), "--min-interactions",
                 "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: min_interactions must be >= 1, got 0\n")
    assert not out.exists()


def test_evaluate_k_zero_is_validation_error(pipeline_dirs, capsys):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    ckpt = train_checkpoint(tmp_path, train_cfg, data_dir, "single")
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", ckpt, "--data", str(data_dir),
                 "--k", "0", "--out", str(out)]) == 1
    assert "k must be >= 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("bad, word", [
    ({"batch_size": "64"}, "batch_size must be an integer"),
    ({"embedding_dim": True}, "embedding_dim must be an integer"),
    ({"max_epochs": 1.5}, "max_epochs must be an integer"),
    ({"batch_size": 64.5}, "batch_size must be an integer"),
    ({"lr": "0.01"}, "lr must be a number"),
    ({"lr": float("nan")}, "lr must be finite"),
    ({"lr": -0.01}, "lr must be >= 0"),
    # Retired: every run trains without weight decay, no preset exists, and
    # contrastive_weight 0 switches the contrastive term off.
    ({"weight_decay": -1e-6}, "unknown training config key 'weight_decay'"),
    ({"preset": "amazon-like"}, "unknown training config key 'preset'"),
    ({"no_contrastive": True}, "unknown training config key 'no_contrastive'"),
    ({"no_transform": "yes"}, "no_transform must be true or false"),
    ({"seed": -1}, "seed must be >= 0"),
], ids=["batch-str", "dim-bool", "epochs-float", "batch-float", "lr-str",
        "lr-nan", "lr-negative", "decay-negative", "preset",
        "no-contrastive", "flag-str", "seed-negative"])
def test_bad_training_config_is_validation_error(pipeline_dirs, capsys, bad,
                                                 word):
    tmp_path, _, data_dir = pipeline_dirs
    cfg = write_json(tmp_path / "bad-train.json", {**TRAIN_CFG, **bad})
    out = tmp_path / "phase1"
    capsys.readouterr()
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err
    assert not out.exists()


def test_training_config_must_be_an_object(pipeline_dirs, capsys):
    tmp_path, _, data_dir = pipeline_dirs
    cfg = write_json(tmp_path / "list-train.json", [TRAIN_CFG])
    out = tmp_path / "phase1"
    capsys.readouterr()
    assert main(["train-target", "--data", str(data_dir), "--config",
                 str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an object" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["table", "transform"])
def test_non_finite_checkpoint_is_runtime_failure(pipeline_dirs, capsys,
                                                  where):
    tmp_path, train_cfg, data_dir = pipeline_dirs
    if where == "table":
        path = train_checkpoint(tmp_path, train_cfg, data_dir, "single")
        name = "table 'user-target-phase1'"
    else:
        path = train_checkpoint(tmp_path, train_cfg, data_dir, "cut")
        name = "transform bias"
    ckpt = load_checkpoint(path)
    values = ckpt.arrays["user-target-phase1" if where == "table"
                         else "transform-bias"]
    values.flat[3] = float("nan")
    save_checkpoint(tmp_path / "nan.ckpt", ckpt)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--checkpoint", str(tmp_path / "nan.ckpt"),
                 "--data", str(data_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure:") and name in err
    assert not out.exists()
