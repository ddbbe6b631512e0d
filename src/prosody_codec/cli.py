"""Command-line surface for the full experimental workflow.

Subcommands: synth-data, prepare, train, resynth, cross-resynth,
shuffle-codes, transfer, analyze {usage,entropy,klmap,pca,probes,
speaker-relative}, metrics, ablate-continuous.

Only `train` trains and writes checkpoints; every other command reads them.
Commands only read their inputs and write reports: what they compute is in
`analysis` and `training`. Exit codes: 0 success, 1 usage/config error, an
output that cannot be written or memory exhaustion (one `out of memory:`
line), 2 data or contract error, 3 numeric error. Every command echoes the
effective config into the report directory and is deterministic given the
seeds in that config.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from . import analysis as an
from . import dsp
from .config import MEL_FIELDS, RunConfig, dumps_config, load_config, section_json
from .corpus import Corpus, parse_manifest, write_mel, write_synth_corpus
from .dsp import MelSpectrogram, save_wav, vocode
from .errors import ConfigError, ContractError, DataError, NumericError
from .model import CodecModel, load_model
from .training import evaluate, new_model, new_train_state, save_checkpoint, set_up_process, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# shared plumbing


def _output_dir(path: str, key: str) -> str:
    """Create a directory the run config names; one that cannot be made (a
    file in its place) is a config error naming the key."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot create directory {path!r}: {exc.strerror}") from None
    return path


def _corpus(cfg: RunConfig, cache_write: bool = False) -> Corpus:
    if not cfg.paths.manifest:
        raise ConfigError("paths.manifest: must be set for this command")
    cache = cfg.paths.cache_dir or None
    if cache:
        _output_dir(cache, "paths.cache_dir")
    return parse_manifest(
        cfg.paths.manifest, cfg.features, cache_dir=cache, cache_write=cache_write
    )


def _checkpoint_path(cfg: RunConfig, continuous: bool = False) -> str:
    name = "continuous.ckpt" if continuous else "latest.ckpt"
    return os.path.join(cfg.paths.checkpoint_dir, name)


def _model(cfg: RunConfig, continuous: bool = False) -> CodecModel:
    """The trained checkpoint; its mel analysis must match the run config's,
    or the model would be fed mels unlike its training data."""
    path = _checkpoint_path(cfg, continuous)
    if not os.path.exists(path):
        command = "train --continuous" if continuous else "train"
        raise DataError(f"no checkpoint at {path}; run `{command}` first")
    model = load_model(path)
    for name in MEL_FIELDS:
        ours, trained = getattr(cfg.features, name), getattr(model.features, name)
        if ours != trained:
            raise DataError(f"features.{name} is {ours}, but {path} was trained with {trained}")
    return model


def _inputs(cfg: RunConfig):
    """The corpus, the trained model and the evaluation slice."""
    corpus = _corpus(cfg)
    if not corpus.utterances:
        raise DataError(f"{cfg.paths.manifest} lists no utterances")
    model = _model(cfg)
    return corpus, model, an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)


def _report(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.paths.report_dir, name)


def _emit(cfg: RunConfig, subdir: str, stem: str, mel: MelSpectrogram) -> None:
    """``<report_dir>/<subdir>/<stem>.mel`` and its vocoded ``.wav``."""
    out_dir = _report(cfg, subdir)
    os.makedirs(out_dir, exist_ok=True)
    write_mel(os.path.join(out_dir, f"{stem}.mel"), mel)
    save_wav(os.path.join(out_dir, f"{stem}.wav"), vocode(mel, cfg.features), float32=True)


def _emit_resynth(cfg: RunConfig, utterances, subdir: str, decode_fn) -> int:
    rows = []
    for utt in utterances:
        mel = decode_fn(utt)
        _emit(cfg, subdir, utt.id, mel)
        rows.append({"id": utt.id, "frames": mel.n_frames})
    an.write_json(_report(cfg, os.path.join(subdir, "index.json")), rows)
    return len(rows)


# ---------------------------------------------------------------------------
# commands: each maps (run config, parsed arguments) to its JSON payload


def cmd_synth_data(cfg: RunConfig, args) -> dict:
    if not cfg.paths.manifest:
        raise ConfigError("paths.manifest: must point at the manifest to create")
    out_dir = _output_dir(os.path.dirname(os.path.abspath(cfg.paths.manifest)), "paths.manifest")
    manifest = write_synth_corpus(cfg.synth, cfg.features, out_dir)
    return {"manifest": manifest, "utterances": cfg.synth.n_utterances}


def cmd_prepare(cfg: RunConfig, args) -> dict:
    if not cfg.paths.cache_dir:
        raise ConfigError("paths.cache_dir: must be set for `prepare`")
    corpus = _corpus(cfg, cache_write=True)
    return {
        "utterances": len(corpus.utterances),
        "speakers": len(corpus.speakers),
        "vocab": len(corpus.vocab),
    }


def cmd_train(cfg: RunConfig, args) -> dict:
    corpus = _corpus(cfg)
    model = new_model(cfg.model, cfg.features, cfg.train, corpus, quantized=not args.continuous)
    checkpoint_dir = _output_dir(cfg.paths.checkpoint_dir, "paths.checkpoint_dir")
    suffix = "continuous" if args.continuous else "train"
    # the log is reproducible; the per-step timing goes into a file of its own
    log_path, timing_path = (os.path.join(cfg.paths.report_dir, f"{suffix}_{kind}.jsonl")
                             for kind in ("log", "timing"))
    for path in (log_path, timing_path):
        if os.path.exists(path):
            os.unlink(path)
    # the codec's checkpoints, the final one included, are written by `train`
    state = train(
        new_train_state(model, cfg.train),
        corpus,
        checkpoint_dir=None if args.continuous else checkpoint_dir,
        log_path=log_path,
        timing_path=timing_path,
    )
    if args.continuous:
        save_checkpoint(state, _checkpoint_path(cfg, continuous=True))
    summary = {
        "steps": state.step,
        "loss_at_100": state.loss_at_100,
        "eval": evaluate(model, an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)),
        # relative, so that runs in different directories write the same bytes
        "checkpoint": os.path.relpath(_checkpoint_path(cfg, args.continuous),
                                      cfg.paths.report_dir),
        "vocab_size": len(corpus.vocab),
        "n_speakers": len(corpus.speakers),
    }
    name = "train_summary_continuous.json" if args.continuous else "train_summary.json"
    an.write_json(_report(cfg, name), summary)
    return summary


def cmd_resynth(cfg: RunConfig, args) -> dict:
    _, model, utts = _inputs(cfg)
    return {"resynth": _emit_resynth(cfg, utts, "resynth", model.reconstruct)}


def cmd_cross_resynth(cfg: RunConfig, args) -> dict:
    corpus, model, utts = _inputs(cfg)
    target = args.target_speaker
    if target in corpus.speakers:
        speaker_id = corpus.speakers.index(target)
    else:
        try:
            speaker_id = int(target)
        except ValueError:
            raise DataError(f"unknown speaker {target!r}; have {corpus.speakers}") from None
        if not 0 <= speaker_id < len(corpus.speakers):
            raise DataError(f"speaker index {speaker_id} out of range [0, {len(corpus.speakers)})")
    n = _emit_resynth(
        cfg,
        utts,
        f"cross_resynth_spk{speaker_id}",
        lambda u: model.decode_codes(model.encode_utterance(u), u, speaker_id),
    )
    return {"cross_resynth": n, "target_speaker": speaker_id}


def cmd_shuffle_codes(cfg: RunConfig, args) -> dict:
    _, model, utts = _inputs(cfg)
    rng = np.random.default_rng(args.seed)
    n = _emit_resynth(cfg, utts, f"shuffled_seed{args.seed}",
                      lambda u: an.shuffled_decode(model, u, rng))
    return {"shuffled": n, "seed": args.seed}


def cmd_transfer(cfg: RunConfig, args) -> dict:
    corpus, model, _ = _inputs(cfg)
    mel = an.transfer(model, corpus.by_id(args.source), corpus.by_id(args.target))
    stem = f"{args.source}_to_{args.target}"
    _emit(cfg, "transfer", stem, mel)
    return {"transfer": stem, "frames": mel.n_frames}


# -- analyze tasks: each maps the run config to its stdout payload


def _analyze_usage(cfg: RunConfig) -> dict:
    _, model, utts = _inputs(cfg)
    payload, rows = an.analyze_usage(model, utts)
    an.write_json(_report(cfg, "usage.json"), payload)
    an.write_csv(_report(cfg, "usage.csv"), rows)
    return payload


def _analyze_entropy(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    payload, rows = an.analyze_entropy(model, utts, an.collect_codes(model, utts),
                                       corpus.speakers, corpus.vocab, cfg.analysis)
    an.write_csv(_report(cfg, "entropy.csv"), rows)
    an.write_json(_report(cfg, "entropy.json"), payload)
    return {"speakers": len(rows)}


def _analyze_klmap(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    payload, rows = an.analyze_klmap(model, utts, an.collect_codes(model, utts), corpus.vocab,
                                     cfg.analysis)
    an.write_csv(_report(cfg, "klmap_embedding.csv"), rows)
    an.write_json(_report(cfg, "klmap.json"), payload)
    an.svg_scatter(_report(cfg, "klmap.svg"), [(r["x"], r["y"]) for r in rows],
                   labels=payload["phonemes"], title="code histogram distances by phoneme")
    return {"phonemes": len(rows)}


def _analyze_pca(cfg: RunConfig) -> dict:
    _, model, utts = _inputs(cfg)
    payload, rows = an.analyze_pca(model, an.collect_codes(model, utts), cfg.analysis)
    an.write_json(_report(cfg, "pca.json"), payload)
    an.write_csv(_report(cfg, "pca_codes.csv"), rows)
    an.svg_scatter(_report(cfg, "pca.svg"), [(r["pc1"], r["pc2"]) for r in rows],
                   labels=[str(r["code"]) for r in rows], title="level-1 codes in PC space")
    return {"top2_ratio_sum": payload["top2_ratio_sum"], "paths": payload["paths"]}


def _analyze_probes(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    payload, rows = an.analyze_probes(model, an.collect_codes(model, utts),
                                      an.probe_reference(corpus, utts, cfg.analysis),
                                      cfg.analysis, cfg.features)
    for axis, axis_rows in rows.items():
        an.write_csv(_report(cfg, f"probes_{axis}.csv"), axis_rows)
    an.write_json(_report(cfg, "probes.json"), payload)
    return payload


def _analyze_speaker_relative(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    payload, rows = an.analyze_speaker_relative(
        model, an.collect_codes(model, utts), an.probe_reference(corpus, utts, cfg.analysis),
        corpus.speakers, cfg.analysis, cfg.features,
    )
    an.write_csv(_report(cfg, "speaker_relative_f0.csv"), rows)
    an.write_json(_report(cfg, "speaker_relative_f0.json"), payload)
    return {"path": payload["path"]}


_ANALYSES = {
    "usage": _analyze_usage,
    "entropy": _analyze_entropy,
    "klmap": _analyze_klmap,
    "pca": _analyze_pca,
    "probes": _analyze_probes,
    "speaker-relative": _analyze_speaker_relative,
}


def cmd_analyze(cfg: RunConfig, args) -> dict:
    payload = _ANALYSES[args.what](cfg)
    return {"analyze": args.what, "report_dir": cfg.paths.report_dir, **payload}


# -- metrics tasks: each maps (run config, arguments) to its report


def _metrics_reconstruction(cfg: RunConfig, args) -> dict:
    _, model, utts = _inputs(cfg)
    ref_pitch = an.reference_pitch(utts, cfg.features)
    return an.reconstruction_metrics(model, utts, ref_pitch, cfg.features)


def _text_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [line for line in fh.read().splitlines() if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"metrics intelligibility: cannot read {path}: {exc}") from None


def _metrics_intelligibility(cfg: RunConfig, args) -> dict:
    if not args.ref or not args.hyp:
        raise ConfigError("metrics intelligibility: --ref and --hyp text files required")
    refs, hyps = _text_lines(args.ref), _text_lines(args.hyp)
    if len(refs) != len(hyps):
        raise DataError(f"metrics: {len(refs)} reference lines vs {len(hyps)} hypothesis lines")
    if not refs:
        raise DataError("metrics intelligibility: --ref and --hyp have no non-blank lines")
    return an.intelligibility(refs, hyps)


def _metrics_transfer(cfg: RunConfig, args) -> dict:
    if not args.source or not args.target:
        raise ConfigError("metrics transfer: --source and --target utterance ids required")
    corpus, model, _ = _inputs(cfg)
    scores = an.transfer_scores(model, corpus.by_id(args.source), corpus.by_id(args.target),
                                cfg.features)
    return {**scores, "source": args.source, "target": args.target}


_METRIC_TASKS = {
    "reconstruction": _metrics_reconstruction,
    "intelligibility": _metrics_intelligibility,
    "transfer": _metrics_transfer,
}


def cmd_metrics(cfg: RunConfig, args) -> dict:
    """The task's report as ``metrics_<task>.json`` plus a one-row CSV of
    its numeric fields."""
    payload = _METRIC_TASKS[args.task](cfg, args)
    an.write_json(_report(cfg, f"metrics_{args.task}.json"), payload)
    keys = sorted(k for k, v in payload.items() if isinstance(v, (int, float)))
    an.write_csv(_report(cfg, f"metrics_{args.task}.csv"),
                 [{"task": args.task, **{k: payload[k] for k in keys}}])
    return payload


def _twin_differences(discrete: CodecModel, continuous: CodecModel) -> list[str]:
    """What the two trained models differ in, apart from the quantizer."""
    ours, theirs = section_json(discrete.cfg), section_json(continuous.cfg)
    fields = [f"model.{k}" for k in ours if ours[k] != theirs[k]]
    if discrete.vocab != continuous.vocab:
        fields.append("vocab")
    if discrete.speakers != continuous.speakers:
        fields.append("speakers")
    return fields


def cmd_ablate_continuous(cfg: RunConfig, args) -> dict:
    """The trained codec against its trained twin without a quantizer;
    `train` and `train --continuous` write the two checkpoints."""
    _, discrete, utts = _inputs(cfg)
    continuous = _model(cfg, continuous=True)
    differences = _twin_differences(discrete, continuous)
    if differences:
        raise DataError(
            f"{_checkpoint_path(cfg, continuous=True)} differs from {_checkpoint_path(cfg)} "
            f"in {', '.join(differences)}; retrain one of them"
        )
    ref_pitch = an.reference_pitch(utts, cfg.features)
    table = {name: an.reconstruction_metrics(model, utts, ref_pitch, cfg.features)
             for name, model in (("discrete", discrete), ("continuous", continuous))}
    an.write_json(_report(cfg, "ablation_continuous.json"), table)
    an.write_csv(_report(cfg, "ablation_continuous.csv"),
                 [{"type": name, **{k: v for k, v in vals.items() if k != "n"}}
                  for name, vals in table.items()])
    return table


# ---------------------------------------------------------------------------
# parser / dispatch


def seed(text: str) -> int:
    """A seed argument: numpy's generators take only integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="prosody-codec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="run config JSON")
        p.set_defaults(func=func)
        return p

    add("synth-data", cmd_synth_data, help="generate the synthetic corpus")
    add("prepare", cmd_prepare, help="populate the feature cache from the manifest")
    p = add("train", cmd_train, help="train the codec")
    p.add_argument("--continuous", action="store_true", help="train the quantizer-bypass variant")
    add("resynth", cmd_resynth, help="reconstruct evaluation utterances")
    p = add("cross-resynth", cmd_cross_resynth, help="decode with a different speaker")
    p.add_argument("--target-speaker", required=True)
    p = add("shuffle-codes", cmd_shuffle_codes, help="decode with per-utterance shuffled codes")
    p.add_argument("--seed", type=seed, required=True)
    p = add("transfer", cmd_transfer, help="prosody transfer between equal-length utterances")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p = add("analyze", cmd_analyze, help="latent-space analyses")
    p.add_argument("what", choices=list(_ANALYSES))
    p = add("metrics", cmd_metrics, help="objective metric reports")
    p.add_argument("--task", required=True, choices=list(_METRIC_TASKS))
    p.add_argument("--ref")
    p.add_argument("--hyp")
    p.add_argument("--source")
    p.add_argument("--target")
    add("ablate-continuous", cmd_ablate_continuous, help="discrete vs continuous comparison")
    return parser


def _command_words(argv) -> list[str]:
    """The command line without its ``--config`` path."""
    words, skip = [], False
    for word in argv:
        if not skip and word != "--config" and not word.startswith("--config="):
            words.append(word)
        skip = word == "--config"
    return words


def _environment(blas_threads: int | None) -> dict:
    """The versions and thread counts a run's timing depends on:
    ``blas_threads`` as :func:`set_up_process` read it back, and the cores
    dsp splits frames across."""
    return {
        "versions": {"prosody_codec": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "threads": {"blas": blas_threads, "dsp_cores": dsp._usable_cores()},
    }


# exit code and stderr prefix of each error a command may raise; every input
# read raises DataError, so an OSError is an output (it names the path)
_FAILURES = {ConfigError: (1, "config error"), DataError: (2, "data error"),
             ContractError: (2, "data error"), NumericError: (3, "numeric error"),
             OSError: (1, "output error"), MemoryError: (1, "out of memory")}


def _log_run(report_dir: str, command: str, start: float, **fields) -> None:
    """Append the command, its wall time and ``fields`` to ``run_log.jsonl``:
    timing goes there, never into the reports that reruns compare."""
    record = {"command": command, "seconds": round(time.perf_counter() - start, 3), **fields}
    with open(os.path.join(report_dir, "run_log.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def dispatch(argv) -> int:
    """Parse, load the run config, run the command, then echo the config it
    ran with as ``effective_config.json``, append the command, its wall time,
    the sha256 of that config and the run's environment (see
    :func:`_environment`) to ``run_log.jsonl`` in the report directory, and
    print its payload as one JSON line. An error prints one stderr line and
    exits as the module docstring says; once the report directory exists,
    the command, wall time, ``exit`` and that line (``error``) go to
    ``run_log.jsonl``. The process is set up first (see
    :func:`~prosody_codec.training.set_up_process`)."""
    blas_threads = set_up_process()
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    command, report_dir = " ".join(_command_words(argv)), None
    try:
        cfg = load_config(args.config)
        report_dir = _output_dir(cfg.paths.report_dir, "paths.report_dir")
        payload = args.func(cfg, args)
        effective = dumps_config(cfg)
        with open(os.path.join(report_dir, "effective_config.json"), "w", encoding="utf-8") as fh:
            fh.write(effective)
        _log_run(report_dir, command, start,
                 config_sha=hashlib.sha256(effective.encode("utf-8")).hexdigest(),
                 **_environment(blas_threads))
        print(json.dumps(payload))
        return 0
    except tuple(_FAILURES) as exc:
        code, prefix = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        line = f"{prefix}: {exc}"
        print(line, file=sys.stderr)
        if report_dir is not None:
            with contextlib.suppress(OSError):  # the line above has said what failed
                _log_run(report_dir, command, start, exit=code, error=line)
        return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
