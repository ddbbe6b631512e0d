import json
import os
from collections import Counter

import numpy as np
import pytest

from prosody_codec import cli
from prosody_codec import corpus as corpus_module
from prosody_codec import model as model_module
from prosody_codec.config import RunConfig, dumps_config, load_config, loads_config
from prosody_codec.containers import read_container, write_container
from prosody_codec.errors import ConfigError


def micro_config(root, **overrides):
    cfg = {
        "features": {"n_fft": 512, "hop_length": 128, "n_mels": 20, "griffin_lim_iters": 8},
        "model": {
            "model_dim": 16,
            "layers": 1,
            "heads": 2,
            "ffn_mult": 2,
            "conv_kernel": 3,
            "codebook_size": 8,
            "code_dim": 3,
            "levels": 2,
            "n_mels": 20,
        },
        "train": {
            "batch_size": 2,
            "max_steps": 25,
            "warmup_steps": 5,
            "seed": 3,
            "eval_every": 1000,
            "checkpoint_every": 1000,
        },
        "synth": {
            "n_speakers": 2,
            "n_utterances": 6,
            "phoneme_inventory": 4,
            "f0_ranges": [[140.0, 220.0], [160.0, 260.0]],
            "segments_min": 3,
            "segments_max": 5,
            "duration_min": 4,
            "duration_max": 6,
            "seed": 5,
        },
        "analysis": {"extract_fraction": 1.0, "n_path_points": 3, "corridor_halfwidth": 0.9},
        "paths": {
            "manifest": os.path.join(root, "data", "manifest.jsonl"),
            "cache_dir": os.path.join(root, "cache"),
            "checkpoint_dir": os.path.join(root, "ckpt"),
            "report_dir": os.path.join(root, "reports"),
        },
    }
    for section, fields in overrides.items():
        cfg.setdefault(section, {}).update(fields)
    return cfg


def write_config(tmp_path, **overrides):
    cfg = micro_config(str(tmp_path), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-data + prepare + train, shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    config = write_config(root)
    os.makedirs(root / "data", exist_ok=True)
    assert cli.main(["synth-data", "--config", config]) == 0
    assert cli.main(["prepare", "--config", config]) == 0
    assert cli.main(["train", "--config", config]) == 0
    return root, config


# ---------------------------------------------------------------------------
# config loading


def test_minimal_config_applies_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"paths": {"manifest": "m.jsonl"}}))
    cfg = load_config(str(path))
    assert cfg.features.sample_rate == 22050
    assert cfg.model.model_dim == 64
    assert cfg.train.batch_size == 8


def test_config_rejects_bad_model_dim():
    with pytest.raises(ConfigError, match="model.model_dim"):
        loads_config(json.dumps({"model": {"model_dim": -1}}))


def test_config_rejects_unknown_key_with_path():
    with pytest.raises(ConfigError, match="model.frobnicate"):
        loads_config(json.dumps({"model": {"frobnicate": 1}}))
    with pytest.raises(ConfigError, match="mystery"):
        loads_config(json.dumps({"mystery": {}}))


def test_config_type_mismatch():
    with pytest.raises(ConfigError, match="train.batch_size"):
        loads_config(json.dumps({"train": {"batch_size": "four"}}))


def test_config_roundtrip_identity():
    cfg = loads_config(json.dumps({"train": {"seed": 42}, "model": {"model_dim": 32, "heads": 2}}))
    again = loads_config(dumps_config(cfg))
    assert again == cfg
    assert dumps_config(again) == dumps_config(cfg)


def test_effective_config_echo_roundtrips(pipeline):
    root, config = pipeline
    echoed = root / "reports" / "effective_config.json"
    assert echoed.exists()
    cfg = load_config(str(echoed))
    assert load_config(str(echoed)) == cfg
    assert cfg.model.vocab_size > 0  # train echoes the inferred sizes


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_1():
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


def test_config_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"model_dim": -1}}))
    assert cli.main(["train", "--config", str(bad)]) == 1


@pytest.mark.parametrize("grad_clip", [-1.0, float("nan"), float("inf")])
def test_config_rejects_bad_grad_clip(grad_clip):
    with pytest.raises(ConfigError, match="train.grad_clip"):
        loads_config(json.dumps({"train": {"grad_clip": grad_clip}}))


def test_config_grad_clip_zero_means_measure_only():
    assert loads_config(json.dumps({"train": {"grad_clip": 0}})).train.grad_clip == 0.0


def test_bad_grad_clip_exit_1(tmp_path, capsys):
    config = write_config(tmp_path, train={"grad_clip": -1.0})
    assert cli.main(["train", "--config", config]) == 1
    assert "train.grad_clip" in capsys.readouterr().err


def test_malformed_checkpoint_exit_2(pipeline, tmp_path, capsys):
    # the pipeline's data with a copy of its checkpoint, one parameter misshapen
    root, _ = pipeline
    config = write_config(
        tmp_path,
        paths={"manifest": str(root / "data" / "manifest.jsonl"), "cache_dir": str(root / "cache")},
    )
    meta, arrays = read_container(str(root / "ckpt" / "latest.ckpt"))
    arrays["param.mel_out.w"] = np.zeros((3, 3), dtype=np.float32)
    os.makedirs(tmp_path / "ckpt")
    write_container(str(tmp_path / "ckpt" / "latest.ckpt"), meta, arrays)
    capsys.readouterr()
    assert cli.main(["resynth", "--config", config]) == 2
    assert "mel_out.w has shape (3, 3)" in capsys.readouterr().err


def test_missing_checkpoint_exit_2(tmp_path):
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data", exist_ok=True)
    assert cli.main(["synth-data", "--config", config]) == 0
    assert cli.main(["resynth", "--config", config]) == 2


# ---------------------------------------------------------------------------
# pipeline commands


def test_bad_cache_header_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data", exist_ok=True)
    assert cli.main(["synth-data", "--config", config]) == 0
    assert cli.main(["prepare", "--config", config]) == 0
    cache_file = str(sorted((tmp_path / "cache").iterdir())[0])
    meta, arrays = read_container(cache_file)
    write_container(cache_file, meta={**meta, "n_fft": 0}, arrays=arrays)
    capsys.readouterr()
    assert cli.main(["prepare", "--config", config]) == 2
    assert "n_fft must be >= 1" in capsys.readouterr().err


def test_train_emits_log_and_checkpoint(pipeline):
    root, _ = pipeline
    assert (root / "ckpt" / "latest.ckpt").exists()
    log = (root / "reports" / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in log]
    steps = [r for r in records if "total" in r]
    assert len(steps) == 25
    assert all({"l1", "l2", "commit", "step"} <= set(r) for r in steps)


def test_analyze_usage_report(pipeline):
    root, config = pipeline
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    payload = json.loads((root / "reports" / "usage.json").read_text())
    for level in ("level1", "level2"):
        assert 0.0 <= payload["usage"][level] <= 1.0
    assert np.isfinite(payload["psnr_full"])
    assert np.isfinite(payload["psnr_level1_only"])
    assert (root / "reports" / "usage.csv").exists()


def test_analyze_usage_encodes_once_per_batch(pipeline, monkeypatch):
    # one encode per inference batch serves the codes and both decodes
    root, config = pipeline
    calls = Counter()
    real_stack, real_batches = model_module.conformer_stack, cli.inference_batches

    def counting_stack(pt, stack, *args):
        calls[stack] += 1
        return real_stack(pt, stack, *args)

    def counting_batches(utts):
        for item in real_batches(utts):
            calls["batch"] += 1
            yield item

    monkeypatch.setattr(model_module, "conformer_stack", counting_stack)
    monkeypatch.setattr(cli, "inference_batches", counting_batches)
    monkeypatch.setattr(corpus_module, "INFERENCE_BATCH", 2)  # several batches
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    n = calls["batch"]
    assert n >= 2
    assert (calls["penc"], calls["menc"], calls["dec"]) == (n, n, 2 * n)


def test_analyze_entropy_report(pipeline):
    root, config = pipeline
    assert cli.main(["analyze", "--config", config, "entropy"]) == 0
    payload = json.loads((root / "reports" / "entropy.json").read_text())
    assert len(payload["speaker_entropies"]) == 2
    for ent in payload["speaker_entropies"].values():
        for v in ent.values():
            assert 0.0 <= v <= payload["uniform_entropy"] + 1e-9


def test_analyze_klmap_and_pca(pipeline):
    root, config = pipeline
    assert cli.main(["analyze", "--config", config, "klmap"]) == 0
    assert (root / "reports" / "klmap.svg").exists()
    emb = (root / "reports" / "klmap_embedding.csv").read_text().splitlines()
    assert emb[0] == "phoneme,x,y"
    assert len(emb) >= 3
    assert cli.main(["analyze", "--config", config, "pca"]) == 0
    payload = json.loads((root / "reports" / "pca.json").read_text())
    assert 0.0 < payload["top2_ratio_sum"] <= 1.0 + 1e-9


def test_resynth_and_cross_resynth(pipeline):
    root, config = pipeline
    assert cli.main(["resynth", "--config", config]) == 0
    index = json.loads((root / "reports" / "resynth" / "index.json").read_text())
    assert len(index) == 6
    assert cli.main(["cross-resynth", "--config", config, "--target-speaker", "spk1"]) == 0
    assert (root / "reports" / "cross_resynth_spk1" / "index.json").exists()
    assert cli.main(["cross-resynth", "--config", config, "--target-speaker", "nobody"]) == 2


def test_shuffle_codes_deterministic(pipeline):
    root, config = pipeline
    assert cli.main(["shuffle-codes", "--config", config, "--seed", "7"]) == 0
    out_dir = root / "reports" / "shuffled_seed7"
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert cli.main(["shuffle-codes", "--config", config, "--seed", "7"]) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second


def test_transfer_requires_equal_phoneme_counts(pipeline, capsys):
    root, config = pipeline
    manifest = [json.loads(l) for l in (root / "data" / "manifest.jsonl").read_text().splitlines()]
    by_len = {}
    for rec in manifest:
        by_len.setdefault(len(rec["phones"].split()), []).append(rec["id"])
    mismatched = sorted(by_len)
    if len(mismatched) >= 2:
        a = by_len[mismatched[0]][0]
        b = by_len[mismatched[-1]][0]
        assert cli.main(["transfer", "--config", config, "--source", a, "--target", b]) == 2
        err = capsys.readouterr().err
        assert str(mismatched[0]) in err and str(mismatched[-1]) in err
    lengths_with_pair = [k for k, v in by_len.items() if len(v) >= 2]
    if lengths_with_pair:
        a, b = by_len[lengths_with_pair[0]][:2]
        assert cli.main(["transfer", "--config", config, "--source", a, "--target", b]) == 0
        stem = f"{a}_to_{b}"
        assert (root / "reports" / "transfer" / f"{stem}.wav").exists()


def test_metrics_reconstruction(pipeline):
    root, config = pipeline
    assert cli.main(["metrics", "--config", config, "--task", "reconstruction"]) == 0
    payload = json.loads((root / "reports" / "metrics_reconstruction.json").read_text())
    for key in ("psnr", "mcd", "vde", "gpe", "ffe"):
        assert np.isfinite(payload[key]), key
    for key in ("vde", "gpe", "ffe"):
        assert 0.0 <= payload[key] <= 1.0


def test_metrics_intelligibility(pipeline, tmp_path):
    root, config = pipeline
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("a b c\nx y\n")
    hyp.write_text("a b c\nx z\n")
    assert cli.main(["metrics", "--config", config, "--task", "intelligibility",
                     "--ref", str(ref), "--hyp", str(hyp)]) == 0
    payload = json.loads((root / "reports" / "metrics_intelligibility.json").read_text())
    assert payload["wer"] == pytest.approx(0.25)  # (0 + 1/2) / 2
    assert payload["n"] == 2


def test_commands_do_not_mutate_cache(pipeline):
    root, config = pipeline
    cache = root / "cache"
    snapshot = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    assert cli.main(["resynth", "--config", config]) == 0
    after = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert snapshot == after


def test_analyze_reports_byte_identical_on_rerun(pipeline):
    root, config = pipeline
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    first = (root / "reports" / "usage.json").read_bytes()
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    assert (root / "reports" / "usage.json").read_bytes() == first
