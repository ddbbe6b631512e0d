import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import warnings
from collections import Counter

import numpy as np
import pytest

import prosody_codec
from prosody_codec import analysis as an
from prosody_codec import cli
from prosody_codec import corpus as corpus_module
from prosody_codec import dsp as dsp_module
from prosody_codec import model as model_module
from prosody_codec import training as training_module
from prosody_codec.config import RunConfig, dumps_config, load_config, loads_config
from prosody_codec.containers import read_container, write_container
from prosody_codec.errors import ConfigError, DataError
from prosody_codec.training import one_blas_thread


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


def _pipeline_data(root) -> dict:
    """The pipeline's manifest and feature cache, as run-config paths."""
    return {"manifest": str(root / "data" / "manifest.jsonl"), "cache_dir": str(root / "cache")}


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
    # features.n_mels is the one band count; the model section has none
    with pytest.raises(ConfigError, match="model.n_mels: unknown key"):
        loads_config(json.dumps({"model": {"n_mels": 20}, "features": {"n_mels": 20}}))
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


def test_each_successful_command_appends_to_the_run_log(tmp_path):
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data")
    assert cli.main(["synth-data", "--config", config]) == 0
    assert cli.main(["prepare", f"--config={config}"]) == 0
    assert cli.main(["resynth", "--config", config]) == 2  # no checkpoint yet
    reports = tmp_path / "reports"
    records = [json.loads(line) for line in (reports / "run_log.jsonl").read_text().splitlines()]
    assert [r["command"] for r in records] == ["synth-data", "prepare", "resynth"]
    # a failed command's record: its exit code and its stderr line
    failed = records.pop()
    assert set(failed) == {"command", "seconds", "exit", "error"} and failed["seconds"] >= 0
    assert failed["exit"] == 2 and failed["error"].startswith("data error: no checkpoint at ")
    sha = hashlib.sha256((reports / "effective_config.json").read_bytes()).hexdigest()
    assert all(r["seconds"] >= 0 and r["config_sha"] == sha for r in records)
    assert all(set(r) == {"command", "seconds", "config_sha", "versions", "threads"}
               for r in records)
    assert records[0]["versions"] == {"prosody_codec": prosody_codec.__version__,
                                      "numpy": np.__version__,
                                      "python": platform.python_version()}
    # the count OpenBLAS reads back after the command set it, None without OpenBLAS
    assert records[0]["threads"] == {"blas": one_blas_thread(), "dsp_cores": dsp_module._usable_cores()}
    assert records[0]["threads"]["blas"] in (1, None)


def test_train_summaries_are_the_same_bytes_in_any_directory(tmp_path):
    summaries = []
    for run in ("a", "b"):
        root = tmp_path / run / "nested" if run == "b" else tmp_path / run
        root.mkdir(parents=True)
        config = write_config(root)
        os.makedirs(root / "data")
        assert cli.main(["synth-data", "--config", config]) == 0
        for extra in ([], ["--continuous"]):
            assert cli.main(["train", "--config", config, *extra]) == 0
        reports = root / "reports"
        for name in ("train_summary.json", "train_summary_continuous.json"):
            checkpoint = json.loads((reports / name).read_text())["checkpoint"]
            assert (reports / checkpoint).is_file()
        summaries.append([(reports / name).read_bytes()
                          for name in ("train_summary.json", "train_summary_continuous.json")])
    assert summaries[0] == summaries[1]


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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("synth", "seed", -1),
        ("train", "seed", -1),
        ("analysis", "tsne_seed", -1),
        ("train", "dead_code_every", -5),
        ("train", "dead_code_threshold", float("nan")),
        ("train", "dead_code_threshold", -0.1),
        ("train", "target_loss_ratio", -1.0),
        ("train", "target_loss_ratio", float("inf")),
        ("features", "yin_threshold", -0.5),
        ("features", "yin_threshold", 0.0),
        ("features", "yin_threshold", float("nan")),
    ],
)
def test_config_rejects_bad_value(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}: must"):
        loads_config(json.dumps({section: {key: value}}))


_FLOAT_FIELDS = [
    (section.name, f.name)
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(section.default_factory)
    if f.type == "float"
]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), -(10**400)])
@pytest.mark.parametrize("section, key", _FLOAT_FIELDS)
def test_config_rejects_non_finite_float(section, key, value):
    # JSON parses Infinity, NaN and integers beyond the float range; no
    # float field may hold them
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be finite$"):
        loads_config(json.dumps({section: {key: value}}))


@pytest.mark.parametrize(
    "key, value",
    [
        ("f0_ranges", [[120.0, float("inf")], [150.0, 300.0]]),
        ("f0_ranges", [[120.0, 240.0], [float("nan"), 300.0]]),
        ("amp_range", [float("-inf"), 1.0]),
        ("f0_ranges", [[120, 10**400], [150.0, 300.0]]),
    ],
)
def test_config_rejects_non_finite_list_entry(key, value):
    with pytest.raises(ConfigError, match=rf"^synth\.{key}: must be finite$"):
        loads_config(json.dumps({"synth": {key: value}}))


def test_infinite_learning_rate_exit_1(tmp_path, capsys):
    config = write_config(tmp_path, train={"learning_rate": float("inf")})
    assert cli.main(["train", "--config", config]) == 1
    assert capsys.readouterr().err == "config error: train.learning_rate: must be finite\n"


def test_config_zero_turns_dead_code_and_early_stop_off():
    cfg = loads_config(json.dumps({"train": {"dead_code_every": 0, "target_loss_ratio": 0}}))
    assert (cfg.train.dead_code_every, cfg.train.target_loss_ratio) == (0, 0.0)


def test_negative_synth_seed_exit_1(tmp_path, capsys):
    config = write_config(tmp_path, synth={"seed": -1})
    os.makedirs(tmp_path / "data", exist_ok=True)
    assert cli.main(["synth-data", "--config", config]) == 1
    assert "synth.seed: must be >= 0" in capsys.readouterr().err


def test_command_sets_up_process_once(tmp_path, monkeypatch):
    # one set-up per command: BLAS on one thread and freed memory kept mapped
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data", exist_ok=True)
    calls = Counter()
    real_set_up, real_keep = cli.set_up_process, training_module.keep_freed_memory_mapped

    def counting_set_up():
        calls["set_up_process"] += 1
        return real_set_up()

    def counting_keep():
        calls["keep_freed_memory_mapped"] += 1
        return real_keep()

    monkeypatch.setattr(cli, "set_up_process", counting_set_up)
    monkeypatch.setattr(training_module, "keep_freed_memory_mapped", counting_keep)
    assert cli.main(["synth-data", "--config", config]) == 0
    assert calls == {"set_up_process": 1, "keep_freed_memory_mapped": 1}


def test_out_of_memory_exit_1(tmp_path, monkeypatch, capsys):
    # the error is raised by patching, never by allocating
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data", exist_ok=True)

    def exhausted(spec, cfg):
        raise MemoryError("Unable to allocate 9.74 GiB for an array with shape (130756096, 10)")

    monkeypatch.setattr(corpus_module, "_synth_waves", exhausted)
    assert cli.main(["synth-data", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 9.74 GiB for an array with shape (130756096, 10)\n"


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


def _diverged_config(pipeline, tmp_path, param: str, index, value=np.inf) -> str:
    """A config on the pipeline's data and its model, with ``param[index]``
    set to ``value``."""
    root, _ = pipeline
    config = write_config(tmp_path, paths=_pipeline_data(root))
    model = model_module.load_model(str(root / "ckpt" / "latest.ckpt"))
    model.params[param][index] = value
    os.makedirs(tmp_path / "ckpt")
    model_module.save_model(model, str(tmp_path / "ckpt" / "latest.ckpt"))
    return config


def test_diverged_checkpoint_exit_3(pipeline, tmp_path, capsys):
    # the pipeline's data with its model, one output bias set to inf: the
    # model's output is not finite, a numeric failure, not a data error
    config = _diverged_config(pipeline, tmp_path, "mel_out.b", 0)
    capsys.readouterr()
    assert cli.main(["resynth", "--config", config]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: model output is not finite for utterances \['synth\d+'\]\n", err)


@pytest.mark.parametrize("what", ["usage", "entropy"])
def test_diverged_encoder_checkpoint_exit_3(pipeline, tmp_path, capsys, what):
    # the encoder's output is not finite: its latents would quantize to
    # codes, and the reports would be written from them
    config = _diverged_config(pipeline, tmp_path, "enc_proj.b", ...)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["analyze", what, "--config", config]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: model output is not finite for utterances "
                        r"\['synth\d+'(, 'synth\d+')*\] \(encoder\)\n", err)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_diverging_training_exit_3_without_warnings(tmp_path, capsys):
    # a valid but huge learning rate: step 1 is finite and step 2 is not,
    # which ends the run; no numpy warning reaches the user on the way, and
    # no checkpoint holds the diverged model
    config = write_config(tmp_path, train={"learning_rate": 1e30}, synth={"n_utterances": 4})
    os.makedirs(tmp_path / "data", exist_ok=True)
    assert cli.main(["synth-data", "--config", config]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", config]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: loss is not finite for utterances "
                        r"\['synth\d+'(, 'synth\d+')*\] at step 2\n", err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    log = [json.loads(line) for line in (tmp_path / "reports" / "train_log.jsonl").read_text().splitlines()]
    assert [rec["step"] for rec in log] == [1] and math.isfinite(log[0]["total"])
    assert not (tmp_path / "ckpt" / "latest.ckpt").exists()
    run = json.loads((tmp_path / "reports" / "run_log.jsonl").read_text().splitlines()[-1])
    assert run["command"] == "train" and run["exit"] == 3 and run["error"] == err.strip()


def test_an_overflowing_cached_mel_ends_training_naming_it(tmp_path, capsys):
    # one cached mel holds a huge but finite value, the log of no finite
    # magnitude: reading it is a data error naming the file, before any
    # step (or the output bias, which averages every mel) sees it
    config = write_config(tmp_path)
    os.makedirs(tmp_path / "data")
    assert cli.main(["synth-data", "--config", config]) == 0
    assert cli.main(["prepare", "--config", config]) == 0
    cfg = load_config(config)
    corpus = corpus_module.parse_manifest(cfg.paths.manifest, cfg.features,
                                          cache_dir=cfg.paths.cache_dir, cache_write=False)
    mel = corpus.by_id("synth0002").mel
    (path,) = [p for p in (tmp_path / "cache").glob("*.mel")
               if np.array_equal(corpus_module.read_mel(str(p)).values, mel.values)]
    for huge in (1e20, 1e25, 1e45):
        values = mel.values.copy()
        values[0, 0] = huge
        corpus_module.write_mel(str(path), dataclasses.replace(mel, values=values))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["train", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: record 2: field 'audio': {path}: 1 values outside "
                       f"[-744.4, 709.8], the logs of finite positive magnitudes (first: {huge:.4g})\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "ckpt" / "latest.ckpt").exists()


@pytest.mark.parametrize("command", [["resynth"], ["metrics", "--task", "reconstruction"]],
                         ids=["resynth", "reconstruction"])
def test_a_model_mel_too_large_to_vocode_exit_3(pipeline, tmp_path, capsys, command):
    # a finite output bias of 800: the model's mel is finite, but exp(800)
    # is not, so the vocoded audio is not; a numeric error, with no warning
    config = _diverged_config(pipeline, tmp_path, "mel_out.b", 0, 800.0)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command[0], "--config", config, *command[1:]]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: invert_mel: audio is not finite; the mel peaks at \S+\n", err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("model_config", "model_dim", "x", "model.model_dim: expected int, got str"),
        ("model_config", "model_dim", True, "model.model_dim: expected int, got bool"),
        ("feature_config", "log_floor", "1", "features.log_floor: expected number"),
        ("feature_config", "hop_length", 64.5, "features.hop_length: expected int, got float"),
        # keys that format 1 stated: a format-2 file stating one is malformed
        ("model_config", "n_mels", 20, "model.n_mels: unknown key"),
        ("model_config", "sigma_policy", "ratio", "model.sigma_policy: unknown key"),
        ("model_config", "quantization", "rvq", "model.quantization: unknown key"),
    ],
)
def test_checkpoint_config_value_exit_2(pipeline, tmp_path, capsys, section, key, value, message):
    root, _ = pipeline
    config = write_config(
        tmp_path,
        paths={"manifest": str(root / "data" / "manifest.jsonl"), "cache_dir": str(root / "cache")},
    )
    meta, arrays = read_container(str(root / "ckpt" / "latest.ckpt"))
    meta[section][key] = value
    os.makedirs(tmp_path / "ckpt")
    write_container(str(tmp_path / "ckpt" / "latest.ckpt"), meta, arrays)
    capsys.readouterr()
    assert cli.main(["resynth", "--config", config]) == 2
    assert f"checkpoint {section}: {message}" in capsys.readouterr().err


def test_duplicate_utterance_id_exit_2(pipeline, tmp_path, capsys):
    root, _ = pipeline
    records = [json.loads(line) for line in (root / "data" / "manifest.jsonl").read_text().splitlines()]
    for sub, rec in (("a", records[0]), ("b", records[1])):
        os.makedirs(tmp_path / sub)
        (tmp_path / sub / "utt.wav").write_bytes((root / "data" / rec["audio"]).read_bytes())
        rec["audio"] = f"{sub}/utt.wav"
        del rec["id"]  # the id is the audio file's stem: "utt" for both
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records[:2]))
    config = write_config(tmp_path, paths={"manifest": str(manifest)})
    capsys.readouterr()
    assert cli.main(["prepare", "--config", config]) == 2
    assert "record 1: utterance id 'utt' repeats record 0" in capsys.readouterr().err


def test_malformed_manifest_exit_2(pipeline, tmp_path, capsys):
    root, _ = pipeline
    records = [json.loads(line) for line in (root / "data" / "manifest.jsonl").read_text().splitlines()]
    records[1]["durations"][0] = 4.5
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        "".join(json.dumps({**r, "audio": str(root / "data" / r["audio"])}) + "\n" for r in records)
    )
    config = write_config(tmp_path, paths={"manifest": str(manifest)})
    capsys.readouterr()
    assert cli.main(["prepare", "--config", config]) == 2
    assert "record 1: field 'durations': unexpected value" in capsys.readouterr().err


def test_pad_symbol_as_phone_exit_2(pipeline, tmp_path, capsys):
    root, _ = pipeline
    records = [json.loads(line) for line in (root / "data" / "manifest.jsonl").read_text().splitlines()]
    phones = records[1]["phones"].split()
    records[1]["phones"] = " ".join(["<pad>"] + phones[1:])
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        "".join(json.dumps({**r, "audio": str(root / "data" / r["audio"])}) + "\n" for r in records)
    )
    config = write_config(tmp_path, paths={"manifest": str(manifest)})
    capsys.readouterr()
    assert cli.main(["prepare", "--config", config]) == 2
    assert "record 1: field 'phones': '<pad>' is reserved for padding" in capsys.readouterr().err


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


def test_train_times_each_step_in_a_file_of_its_own(pipeline, tmp_path):
    root, _ = pipeline
    config = write_config(tmp_path, train={"max_steps": 4}, paths=_pipeline_data(root))
    reports = tmp_path / "reports"
    logs = []
    for argv in (["train"], ["train", "--continuous"], ["train"]):
        assert cli.main([*argv, "--config", config]) == 0
        name = "continuous" if "--continuous" in argv else "train"
        timing = [json.loads(line) for line in (reports / f"{name}_timing.jsonl").read_text().splitlines()]
        assert [r["step"] for r in timing] == [1, 2, 3, 4]  # a rerun starts the file afresh
        assert all(r["wall_ms"] > 0 for r in timing)
        logs.append((reports / f"{name}_log.jsonl").read_bytes())
    assert b"wall_ms" not in logs[0] and b"wall_ms" not in logs[1]
    assert logs[2] == logs[0]  # the log of a rerun is byte-identical


def test_train_fills_in_only_unstated_model_sizes(pipeline, tmp_path, capsys):
    root, pipeline_config = pipeline
    data = _pipeline_data(root)
    corpus = corpus_module.parse_manifest(
        data["manifest"], load_config(pipeline_config).features, cache_dir=data["cache_dir"]
    )
    # 0 = take it from the corpus: the echo shows the corpus sizes
    config = write_config(tmp_path, train={"max_steps": 1}, paths=data)
    assert cli.main(["train", "--config", config]) == 0
    echoed = load_config(str(tmp_path / "reports" / "effective_config.json"))
    assert (echoed.model.vocab_size, echoed.model.n_speakers) == (len(corpus.vocab), len(corpus.speakers))
    # a stated size that differs from the corpus is a contract error, not overwritten
    for key, actual in (("vocab_size", len(corpus.vocab)), ("n_speakers", len(corpus.speakers))):
        config = write_config(tmp_path, model={key: actual + 3}, paths=data)
        capsys.readouterr()
        assert cli.main(["train", "--config", config]) == 2
        assert f"model.{key} is {actual + 3}, but the model has {actual}" in capsys.readouterr().err


def test_analyze_usage_on_continuous_checkpoint_exit_2(pipeline, tmp_path, capsys):
    root, _ = pipeline
    config = write_config(tmp_path, train={"max_steps": 2}, paths=_pipeline_data(root))
    assert cli.main(["train", "--continuous", "--config", config]) == 0
    ckpt = tmp_path / "ckpt"
    (ckpt / "latest.ckpt").write_bytes((ckpt / "continuous.ckpt").read_bytes())
    capsys.readouterr()
    assert cli.main(["analyze", "--config", config, "usage"]) == 2
    assert "analyze usage: model has no quantizer" in capsys.readouterr().err


def test_config_stating_model_quantization_exit_1(tmp_path, capsys):
    # `train --continuous` is the one way to make the twin without a quantizer
    config = write_config(tmp_path, model={"quantization": "none"})
    assert cli.main(["train", "--config", config]) == 1
    assert "model.quantization: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["analyze", "pca"], ["analyze", "usage"], ["metrics", "--task", "reconstruction"]]
)
def test_empty_corpus_exit_2(pipeline, tmp_path, capsys, command):
    root, _ = pipeline
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    config = write_config(tmp_path, paths={"manifest": str(manifest), "checkpoint_dir": str(root / "ckpt")})
    capsys.readouterr()
    assert cli.main([command[0], "--config", config, *command[1:]]) == 2
    assert f"{manifest} lists no utterances" in capsys.readouterr().err


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
    real_stack, real_batches = model_module.conformer_stack, an.inference_batches

    def counting_stack(pt, stack, *args):
        calls[stack] += 1
        return real_stack(pt, stack, *args)

    def counting_batches(utts):
        for item in real_batches(utts):
            calls["batch"] += 1
            yield item

    monkeypatch.setattr(model_module, "conformer_stack", counting_stack)
    monkeypatch.setattr(an, "inference_batches", counting_batches)
    monkeypatch.setattr(corpus_module, "INFERENCE_BATCH", 2)  # several batches
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    n = calls["batch"]
    assert n >= 2
    assert (calls["penc"], calls["menc"], calls["dec"]) == (n, n, 2 * n)


def test_code_space_histograms_match_code_counts(pipeline):
    # the PCA analyses' level-1 histogram and probe level-2 code, against
    # counts taken directly from the codes
    _, config = pipeline
    cfg = load_config(config)
    _, model, utts = cli._inputs(cfg)
    sequences = an.collect_codes(model, utts)
    k = model.cfg.codebook_size
    counts = [np.bincount(np.concatenate([s.level(l).ravel() for s in sequences]), minlength=k)
              for l in (0, 1)]
    hist, _, level2 = an.code_space(model, sequences)
    assert hist.dtype == np.int64
    np.testing.assert_array_equal(hist, counts[0])
    assert level2 == int(np.argmax(counts[1]))


def _reference(corpus, utts, cfg):
    return an.probe_reference(corpus, utts, cfg.analysis)


# each command's JSON report, its CSV reports, and the analysis call that
# computes them from (corpus, model, utterances, their codes, run config)
_COMMAND_REPORTS = {
    "usage": ("usage.json", ["usage.csv"], lambda c, m, u, s, cfg: an.analyze_usage(m, u)),
    "entropy": ("entropy.json", ["entropy.csv"], lambda c, m, u, s, cfg: an.analyze_entropy(
        m, u, s, c.speakers, c.vocab, cfg.analysis)),
    "klmap": ("klmap.json", ["klmap_embedding.csv"], lambda c, m, u, s, cfg: an.analyze_klmap(
        m, u, s, c.vocab, cfg.analysis)),
    "pca": ("pca.json", ["pca_codes.csv"], lambda c, m, u, s, cfg: an.analyze_pca(
        m, s, cfg.analysis)),
    "probes": ("probes.json", ["probes_axis1.csv", "probes_axis2.csv"],
               lambda c, m, u, s, cfg: an.analyze_probes(
                   m, s, _reference(c, u, cfg), cfg.analysis, cfg.features)),
    "speaker-relative": ("speaker_relative_f0.json", ["speaker_relative_f0.csv"],
                         lambda c, m, u, s, cfg: an.analyze_speaker_relative(
                             m, s, _reference(c, u, cfg), c.speakers, cfg.analysis, cfg.features)),
    "reconstruction": ("metrics_reconstruction.json", [],
                       lambda c, m, u, s, cfg: (an.reconstruction_metrics(
                           m, u, an.reference_pitch(u, cfg.features),
                           cfg.features), [])),
}


@pytest.mark.parametrize("what", list(_COMMAND_REPORTS))
def test_command_writes_what_analysis_returns(pipeline, tmp_path, what):
    # the command only reads its inputs and writes reports: each file holds
    # the bytes of what the analysis function returns for the same inputs
    root, config = pipeline
    command = ["metrics", "--task", what] if what == "reconstruction" else ["analyze", what]
    assert cli.main([command[0], "--config", config, *command[1:]]) == 0
    json_name, csv_names, compute = _COMMAND_REPORTS[what]
    cfg = load_config(config)
    corpus, model, utts = cli._inputs(cfg)
    payload, rows = compute(corpus, model, utts, an.collect_codes(model, utts), cfg)
    an.write_json(str(tmp_path / json_name), payload)
    for name, csv_rows in zip(csv_names, rows.values() if isinstance(rows, dict) else [rows]):
        an.write_csv(str(tmp_path / name), csv_rows)
    for name in [json_name, *csv_names]:
        assert (root / "reports" / name).read_bytes() == (tmp_path / name).read_bytes(), name


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


# ---------------------------------------------------------------------------
# the command runner and the run config's analysis settings


def test_every_command_echoes_config_and_prints_one_json_line(tmp_path, capsys):
    config = write_config(tmp_path, synth={"n_utterances": 4}, train={"max_steps": 3})
    os.makedirs(tmp_path / "data")
    echoed = tmp_path / "reports" / "effective_config.json"
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n")
    commands = [["synth-data"], ["prepare"], ["train"], ["train", "--continuous"], ["resynth"],
                ["cross-resynth", "--target-speaker", "1"], ["shuffle-codes", "--seed", "2"],
                ["transfer", "--source", "synth0000", "--target", "synth0000"]]
    commands += [["analyze", what] for what in
                 ("usage", "entropy", "klmap", "pca", "probes", "speaker-relative")]
    commands += [["metrics", "--task", "reconstruction"],
                 ["metrics", "--task", "intelligibility", "--ref", str(ref), "--hyp", str(ref)],
                 ["metrics", "--task", "transfer", "--source", "synth0000", "--target", "synth0000"],
                 ["ablate-continuous"]]
    for command in commands:
        if echoed.exists():
            echoed.unlink()
        capsys.readouterr()
        assert cli.main([command[0], "--config", config, *command[1:]]) == 0, command
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, command
        assert isinstance(json.loads(lines[0]), dict), command
        assert load_config(str(echoed)).features == load_config(config).features, command


def test_analyze_probes_follow_run_config_vocoder_and_pitch(pipeline, tmp_path, monkeypatch):
    # the checkpoint was trained with 8 Griffin-Lim iterations and YIN at 0.15
    root, _ = pipeline
    config = write_config(
        tmp_path,
        features={"griffin_lim_iters": 2, "yin_threshold": 0.3},
        paths={"manifest": str(root / "data" / "manifest.jsonl"), "cache_dir": str(root / "cache"),
               "checkpoint_dir": str(root / "ckpt")},
    )
    iterations, thresholds = [], []
    real_invert, real_f0 = dsp_module.invert_mel, dsp_module.estimate_f0

    def invert_mel(mel, iters, **kwargs):
        iterations.append(iters)
        return real_invert(mel, iters, **kwargs)

    def estimate_f0(audio, *args, **kwargs):
        thresholds.append(kwargs["threshold"])
        return real_f0(audio, *args, **kwargs)

    monkeypatch.setattr(dsp_module, "invert_mel", invert_mel)
    monkeypatch.setattr(dsp_module, "estimate_f0", estimate_f0)
    assert cli.main(["analyze", "--config", config, "probes"]) == 0
    assert iterations and set(iterations) == {2}
    assert len(thresholds) == len(iterations) and set(thresholds) == {0.3}


@pytest.mark.parametrize(
    "field, value",
    [("n_fft", 640), ("hop_length", 127), ("n_mels", 24), ("log_floor", 1e-3)],
)
def test_checkpoint_mel_analysis_must_match_run_config(pipeline, tmp_path, capsys, field, value):
    root, _ = pipeline
    config = write_config(
        tmp_path,
        features={field: value},
        paths={"manifest": str(root / "data" / "manifest.jsonl"), "cache_dir": str(root / "cache"),
               "checkpoint_dir": str(root / "ckpt")},
    )
    capsys.readouterr()
    assert cli.main(["resynth", "--config", config]) == 2
    assert f"features.{field} is {value}, but" in capsys.readouterr().err
    assert not (tmp_path / "reports" / "resynth").exists()


@pytest.mark.parametrize("missing", ["ref", "hyp"])
def test_metrics_intelligibility_unreadable_text_exit_2(pipeline, tmp_path, capsys, missing):
    _, config = pipeline
    present = tmp_path / "present.txt"
    present.write_text("a b\n")
    paths = {"ref": str(present), "hyp": str(present), missing: str(tmp_path / "absent.txt")}
    capsys.readouterr()
    assert cli.main(["metrics", "--config", config, "--task", "intelligibility",
                     "--ref", paths["ref"], "--hyp", paths["hyp"]]) == 2
    assert f"cannot read {tmp_path / 'absent.txt'}" in capsys.readouterr().err


def test_metrics_intelligibility_empty_text_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert cli.main(["metrics", "--config", config, "--task", "intelligibility",
                     "--ref", str(empty), "--hyp", str(empty)]) == 2
    assert "--ref and --hyp have no non-blank lines" in capsys.readouterr().err


def test_unwritable_output_exit_1(tmp_path, capsys):
    config = write_config(tmp_path)
    (tmp_path / "text.txt").write_text("a b\n")
    blocker = tmp_path / "reports" / "metrics_intelligibility.json"
    blocker.mkdir(parents=True)
    text = str(tmp_path / "text.txt")
    assert cli.main(["metrics", "--config", config, "--task", "intelligibility",
                     "--ref", text, "--hyp", text]) == 1
    err = capsys.readouterr().err
    assert f"output error: [Errno 21] Is a directory: {str(blocker)!r}" in err and "Traceback" not in err


def test_unreadable_wav_exit_2(pipeline, tmp_path, monkeypatch, capsys):
    _, config = pipeline
    corpus_of = cli._corpus

    def unreadable_audio(cfg):  # each utterance's audio path names a directory
        corpus = corpus_of(cfg)
        for utt in corpus.utterances:
            utt.audio_path = str(tmp_path)
        return corpus

    monkeypatch.setattr(cli, "_corpus", unreadable_audio)
    capsys.readouterr()
    assert cli.main(["metrics", "--config", config, "--task", "reconstruction"]) == 2
    err = capsys.readouterr().err
    assert f"data error: cannot read wav {tmp_path}: Is a directory" in err and "Traceback" not in err
    with pytest.raises(DataError, match=re.escape(f"cannot read wav {tmp_path}: Is a directory")):
        corpus_module.cached_mel(str(tmp_path), load_config(config).features, str(tmp_path))


def test_negative_shuffle_seed_exit_1(capsys):
    assert cli.main(["shuffle-codes", "--config", "unread.json", "--seed", "-1"]) == 1
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("synth-data", "report_dir"), ("synth-data", "manifest"), ("prepare", "cache_dir"),
     ("train", "checkpoint_dir")],
)
def test_output_path_that_is_a_file_exit_1(pipeline, tmp_path, capsys, command, key):
    root, _ = pipeline
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = str(blocker / "manifest.jsonl") if key == "manifest" else str(blocker)
    paths = {} if command == "synth-data" else _pipeline_data(root)
    config = write_config(tmp_path, paths={**paths, key: path})
    capsys.readouterr()
    assert cli.main([command, "--config", config]) == 1
    assert f"paths.{key}: cannot create directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate-continuous compares the two trained checkpoints


def _codec_config(root, tmp_path, **model):
    """The pipeline's data and a copy of its codec checkpoint."""
    os.makedirs(tmp_path / "ckpt")
    (tmp_path / "ckpt" / "latest.ckpt").write_bytes((root / "ckpt" / "latest.ckpt").read_bytes())
    return write_config(tmp_path, model=model, train={"max_steps": 2}, paths=_pipeline_data(root))


def _twin_config(root, tmp_path, **model):
    """As ``_codec_config``, plus a continuous twin trained for two steps
    on the given model overrides."""
    config = _codec_config(root, tmp_path, **model)
    assert cli.main(["train", "--continuous", "--config", config]) == 0
    return config


def test_ablate_continuous_trains_nothing(pipeline, tmp_path, monkeypatch):
    config = _twin_config(pipeline[0], tmp_path)

    def no_training(*args, **kwargs):
        raise AssertionError("ablate-continuous called the trainer")

    monkeypatch.setattr(cli, "train", no_training)
    assert cli.main(["ablate-continuous", "--config", config]) == 0
    table = json.loads((tmp_path / "reports" / "ablation_continuous.json").read_text())
    assert set(table) == {"discrete", "continuous"}


def test_ablate_continuous_runs_yin_once_per_reference(pipeline, tmp_path, monkeypatch):
    # n reference contours, shared by the two models, and one per reconstruction
    config = _twin_config(pipeline[0], tmp_path)
    calls = []

    def pitch(*args, **kwargs):
        calls.append(1)
        return dsp_module.pitch(*args, **kwargs)

    monkeypatch.setattr(an, "pitch", pitch)
    assert cli.main(["ablate-continuous", "--config", config]) == 0
    table = json.loads((tmp_path / "reports" / "ablation_continuous.json").read_text())
    assert len(calls) == 3 * table["discrete"]["n"] > 0


def test_ablate_continuous_without_twin_exit_2(pipeline, tmp_path, capsys):
    config = _codec_config(pipeline[0], tmp_path)
    capsys.readouterr()
    assert cli.main(["ablate-continuous", "--config", config]) == 2
    assert "continuous.ckpt; run `train --continuous` first" in capsys.readouterr().err


def test_ablate_continuous_with_stale_twin_exit_2(pipeline, tmp_path, capsys):
    config = _twin_config(pipeline[0], tmp_path, model_dim=8)
    capsys.readouterr()
    assert cli.main(["ablate-continuous", "--config", config]) == 2
    assert "in model.model_dim; retrain one of them" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["resynth"], ["analyze", "usage"], ["ablate-continuous"]])
def test_checkpoint_of_format_1_exit_2(pipeline, tmp_path, capsys, command):
    # format 1 stated model_config.quantization; such a file must be retrained
    config = _twin_config(pipeline[0], tmp_path)
    path = str(tmp_path / "ckpt" / "latest.ckpt")
    meta, arrays = read_container(path)
    meta["format_version"] = 1
    meta["model_config"]["quantization"] = "rvq"
    write_container(path, meta, arrays)
    capsys.readouterr()
    assert cli.main([*command, "--config", config]) == 2
    assert "checkpoint format version mismatch: expected 2, found 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "synth, key",
    [
        ({"n_speakers": 1, "f0_ranges": [5]}, "synth.f0_ranges[0]"),
        ({"n_speakers": 1, "f0_ranges": [["a", 1]]}, "synth.f0_ranges[0]"),
        ({"n_speakers": 1, "f0_ranges": [[True, 200.0]]}, "synth.f0_ranges[0]"),
        ({"n_speakers": 1, "f0_ranges": [[100.0, 150.0, 200.0]]}, "synth.f0_ranges[0]"),
        ({"amp_range": ["x", 1]}, "synth.amp_range"),
        ({"amp_range": [0.5, None]}, "synth.amp_range"),
        ({"amp_range": [[0.5], 1]}, "synth.amp_range"),
    ],
)
def test_config_rejects_synth_pair_that_is_not_two_numbers(synth, key):
    with pytest.raises(ConfigError, match=rf"{re.escape(key)}: must"):
        loads_config(json.dumps({"synth": synth}))


def test_synth_pair_that_is_not_two_numbers_exit_1(tmp_path, capsys):
    config = write_config(tmp_path, synth={"f0_ranges": [5, 6]})
    assert cli.main(["synth-data", "--config", config]) == 1
    assert "synth.f0_ranges[0]: must be [low, high]" in capsys.readouterr().err
