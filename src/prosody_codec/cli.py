"""Command-line surface for the full experimental workflow.

Subcommands: synth-data, prepare, train, resynth, cross-resynth,
shuffle-codes, transfer, analyze {usage,entropy,klmap,pca,probes,
speaker-relative}, metrics, ablate-continuous.

Only `train` trains and writes checkpoints; every other command reads them.
Exit codes: 0 success, 1 usage/config error or an output that cannot be
written, 2 data or contract error, 3 numeric error. Every command echoes the
effective config into the report directory and is deterministic given the
seeds in that config.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import analysis as an
from . import metrics as mx
from .config import MEL_FIELDS, RunConfig, dumps_config, load_config, section_json
from .corpus import (
    Corpus,
    inference_batches,
    parse_manifest,
    read_manifest,
    record_audio,
    write_mel,
    write_synth_corpus,
)
from .dsp import MelSpectrogram, PitchContour, frame_rms, load_wav, pitch, save_wav, vocode
from .errors import ConfigError, ContractError, DataError, NumericError
from .model import CodecModel, load_model
from .quantizer import CodeSequence, usage_stats
from .training import (
    evaluate,
    new_train_state,
    reconstruction_scores,
    save_checkpoint,
    score_report,
    train,
)


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


def _audio_paths(cfg: RunConfig) -> dict[str, str]:
    base = os.path.dirname(os.path.abspath(cfg.paths.manifest))
    return dict(record_audio(rec, base) for _, rec in read_manifest(cfg.paths.manifest))


def _emit(cfg: RunConfig, subdir: str, stem: str, mel: MelSpectrogram) -> None:
    """``<report_dir>/<subdir>/<stem>.mel`` and its vocoded ``.wav``."""
    out_dir = os.path.join(cfg.paths.report_dir, subdir)
    os.makedirs(out_dir, exist_ok=True)
    write_mel(os.path.join(out_dir, f"{stem}.mel"), mel)
    save_wav(os.path.join(out_dir, f"{stem}.wav"), vocode(mel, cfg.features), float32=True)


def _emit_resynth(cfg: RunConfig, utterances, subdir: str, decode_fn) -> int:
    rows = []
    for utt in utterances:
        mel = decode_fn(utt)
        _emit(cfg, subdir, utt.id, mel)
        rows.append({"id": utt.id, "frames": mel.n_frames})
    an.write_json(os.path.join(cfg.paths.report_dir, subdir, "index.json"), rows)
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
    # a size of 0 is taken from the corpus; CodecModel checks a stated one
    cfg.model.vocab_size = cfg.model.vocab_size or len(corpus.vocab)
    cfg.model.n_speakers = cfg.model.n_speakers or len(corpus.speakers)
    mcfg = copy.deepcopy(cfg.model)
    if args.continuous:
        mcfg.quantization = "none"
    model = CodecModel(
        mcfg,
        cfg.features,
        corpus.vocab,
        corpus.speakers,
        rng=np.random.default_rng(cfg.train.seed),
        beta=cfg.train.commitment_beta,
        ema_decay=cfg.train.ema_decay,
        ema_epsilon=cfg.train.ema_epsilon,
    )
    if cfg.train.dtype == "float64":
        model.astype(np.float64)
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
    an.write_json(os.path.join(cfg.paths.report_dir, name), summary)
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
        lambda u: model.reconstruct(u, override_speaker=speaker_id),
    )
    return {"cross_resynth": n, "target_speaker": speaker_id}


def cmd_shuffle_codes(cfg: RunConfig, args) -> dict:
    _, model, utts = _inputs(cfg)
    rng = np.random.default_rng(args.seed)

    def decode_shuffled(u):
        codes = model.encode_utterance(u)
        perm = rng.permutation(codes.indices.shape[0])
        shuffled = CodeSequence(indices=codes.indices[perm])
        return model.decode_codes(shuffled, u.phonemes, u.durations, u.speaker_id)

    n = _emit_resynth(cfg, utts, f"shuffled_seed{args.seed}", decode_shuffled)
    return {"shuffled": n, "seed": args.seed}


def _transfer(model: CodecModel, source, target) -> MelSpectrogram:
    """Prosody transfer: the source's codes decoded on the target's phonemes
    and durations with the source speaker."""
    if source.n_phonemes != target.n_phonemes:
        raise ContractError(
            f"transfer: phoneme counts differ: source {source.id!r} has "
            f"{source.n_phonemes}, target {target.id!r} has {target.n_phonemes}"
        )
    codes = model.encode_utterance(source)
    return model.decode_codes(codes, target.phonemes, target.durations, source.speaker_id)


def cmd_transfer(cfg: RunConfig, args) -> dict:
    corpus, model, _ = _inputs(cfg)
    mel = _transfer(model, corpus.by_id(args.source), corpus.by_id(args.target))
    stem = f"{args.source}_to_{args.target}"
    _emit(cfg, "transfer", stem, mel)
    return {"transfer": stem, "frames": mel.n_frames}


# -- analyze tasks: each maps the run config to its stdout payload


def _analyze_usage(cfg: RunConfig) -> dict:
    _, model, utts = _inputs(cfg)
    model._require_rvq("analyze usage")
    two_levels = model.rvq.n_levels > 1
    # one encode per batch serves the codes and both reconstructions
    sequences, full, level1 = [], [], []
    for chunk, batch in inference_batches(utts):
        codes, recons, recons_l1 = model.codes_and_reconstructions(batch, level1=two_levels)
        sequences += codes
        full += reconstruction_scores(chunk, recons)
        if two_levels:
            level1 += reconstruction_scores(chunk, recons_l1)
    k = model.cfg.codebook_size
    stats = usage_stats(sequences, k)
    rep_full = score_report(full)
    rep_l1 = score_report(level1) if two_levels else rep_full
    dependency = an.level_dependency(sequences, k) if two_levels else 0.0
    payload = {
        "usage": {f"level{l + 1}": stats.usage[l] for l in range(len(stats.usage))},
        "psnr_full": rep_full["psnr"],
        "psnr_level1_only": rep_l1["psnr"],
        "mean_entropy_code2_given_code1": dependency,
        "uniform_entropy": float(np.log(k)),
    }
    an.write_json(os.path.join(cfg.paths.report_dir, "usage.json"), payload)
    rows = [
        {"level": l + 1, "usage": stats.usage[l], "distinct": int((stats.histograms[l] > 0).sum()), "k": k}
        for l in range(len(stats.usage))
    ]
    an.write_csv(os.path.join(cfg.paths.report_dir, "usage.csv"), ["level", "usage", "distinct", "k"], rows)
    return payload


def _speaker_pairs(utts, sequences, level: int):
    for utt, seq in zip(utts, sequences):
        for code in seq.level(level):
            yield utt.speaker_id, int(code)


def _phoneme_pairs(utts, sequences, level: int):
    for utt, seq in zip(utts, sequences):
        for ph, code in zip(utt.phonemes, seq.level(level)):
            if ph != 0:  # PAD excluded from analysis histograms
                yield int(ph), int(code)


def _analyze_entropy(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    sequences = an.collect_codes(model, utts)
    k = model.cfg.codebook_size
    alpha = cfg.analysis.smoothing_alpha
    rows = []
    by_speaker = {}
    for level in range(model.rvq.n_levels):
        pmfs = an.conditional_pmfs(_speaker_pairs(utts, sequences, level), k, alpha)
        for p in pmfs:
            by_speaker.setdefault(p.condition, {})[f"level{level + 1}"] = an.entropy_nats(p)
    for speaker_id in sorted(by_speaker):
        rows.append(
            {
                "speaker": corpus.speakers[speaker_id],
                **{key: by_speaker[speaker_id][key] for key in sorted(by_speaker[speaker_id])},
            }
        )
    phoneme_entropies = {}
    for level in range(model.rvq.n_levels):
        pmfs = an.conditional_pmfs(_phoneme_pairs(utts, sequences, level), k, alpha)
        phoneme_entropies[f"level{level + 1}"] = {
            corpus.vocab.symbol_of(p.condition): an.entropy_nats(p) for p in pmfs
        }
    payload = {
        "speaker_entropies": {r["speaker"]: {k2: v for k2, v in r.items() if k2 != "speaker"} for r in rows},
        "phoneme_entropies": phoneme_entropies,
        "uniform_entropy": float(np.log(k)),
    }
    fields = ["speaker"] + [f"level{l + 1}" for l in range(model.rvq.n_levels)]
    an.write_csv(os.path.join(cfg.paths.report_dir, "entropy.csv"), fields, rows)
    an.write_json(os.path.join(cfg.paths.report_dir, "entropy.json"), payload)
    return {"speakers": len(rows)}


def _analyze_klmap(cfg: RunConfig) -> dict:
    corpus, model, utts = _inputs(cfg)
    sequences = an.collect_codes(model, utts)
    k = model.cfg.codebook_size
    alpha = cfg.analysis.smoothing_alpha
    if alpha <= 0:
        raise ConfigError("analysis.smoothing_alpha: must be > 0 for the KL map")
    pmfs = an.conditional_pmfs(_phoneme_pairs(utts, sequences, 0), k, alpha)
    dist = an.symmetric_kl_matrix(pmfs)
    coords = an.embed_2d(
        dist,
        method=cfg.analysis.embedding_method,
        seed=cfg.analysis.tsne_seed,
        perplexity=cfg.analysis.tsne_perplexity,
    )
    labels = [corpus.vocab.symbol_of(p.condition) for p in pmfs]
    an.write_csv(
        os.path.join(cfg.paths.report_dir, "klmap_embedding.csv"),
        ["phoneme", "x", "y"],
        [{"phoneme": lbl, "x": float(c[0]), "y": float(c[1])} for lbl, c in zip(labels, coords)],
    )
    an.write_json(
        os.path.join(cfg.paths.report_dir, "klmap.json"),
        {
            "phonemes": labels,
            "distances": [[float(v) for v in row] for row in dist],
            "method": cfg.analysis.embedding_method,
        },
    )
    an.svg_scatter(
        os.path.join(cfg.paths.report_dir, "klmap.svg"),
        coords,
        labels=labels,
        title="code histogram distances by phoneme",
    )
    return {"phonemes": len(labels)}


def _code_space(cfg: RunConfig):
    """The setup the PCA analyses share: corpus, model, the level-1 code
    histogram over the evaluation slice, the usage-weighted PCA of the used
    level-1 codes, the most used level-2 code (0 with one level) and the
    probe reference."""
    corpus, model, utts = _inputs(cfg)
    histograms = usage_stats(an.collect_codes(model, utts), model.cfg.codebook_size).histograms
    hist = histograms[0]
    used = hist > 0
    proj = an.pca_codes(model.rvq.levels[0].entries[used], hist[used].astype(np.float64))
    level2 = int(np.argmax(histograms[1])) if len(histograms) > 1 else 0
    if cfg.analysis.reference_utterance:
        reference = corpus.by_id(cfg.analysis.reference_utterance)
    else:  # the longest utterance gives the probes the most frames to measure
        reference = max(utts, key=lambda u: u.mel.n_frames)
    return corpus, model, hist, proj, level2, reference


def _select_path(cfg: RunConfig, model: CodecModel, hist: np.ndarray, proj, axis: int) -> list[int]:
    """Path codes for probing, restricted to codes the decoder has actually
    been trained on (count >= analysis.min_code_count, relaxed if that leaves
    too few candidates)."""
    entries = model.rvq.levels[0].entries
    floor = cfg.analysis.min_code_count
    while floor > 0 and int((hist >= floor).sum()) < cfg.analysis.n_path_points:
        floor -= 1
    candidates = np.nonzero(hist >= floor)[0] if floor > 0 else np.arange(len(hist))
    picked = an.select_path_codes(
        proj,
        entries[candidates],
        axis,
        cfg.analysis.n_path_points,
        cfg.analysis.corridor_halfwidth,
    )
    return [int(candidates[p]) for p in picked]


def _analyze_pca(cfg: RunConfig) -> dict:
    _, model, hist, proj, _, _ = _code_space(cfg)
    code_ids = np.nonzero(hist)[0]
    coords = proj.coords(model.rvq.levels[0].entries)
    paths = {}
    for axis in (1, 2):
        try:
            paths[f"axis{axis}"] = _select_path(cfg, model, hist, proj, axis)
        except DataError:
            paths[f"axis{axis}"] = []
    payload = {
        "explained_ratios": [float(r) for r in proj.ratios],
        "top2_ratio_sum": float(proj.ratios[:2].sum()),
        "paths": paths,
    }
    an.write_json(os.path.join(cfg.paths.report_dir, "pca.json"), payload)
    an.write_csv(
        os.path.join(cfg.paths.report_dir, "pca_codes.csv"),
        ["code", "pc1", "pc2", "count"],
        [
            {
                "code": int(c),
                "pc1": float(coords[c, 0]),
                "pc2": float(coords[c, 1]),
                "count": int(hist[c]),
            }
            for c in code_ids
        ],
    )
    an.svg_scatter(
        os.path.join(cfg.paths.report_dir, "pca.svg"),
        coords[code_ids][:, :2],
        labels=[str(int(c)) for c in code_ids],
        title="level-1 codes in PC space",
    )
    return {"top2_ratio_sum": payload["top2_ratio_sum"], "paths": paths}


def _analyze_probes(cfg: RunConfig) -> dict:
    _, model, hist, proj, level2, reference = _code_space(cfg)
    out = {}
    for axis in (1, 2):
        path = _select_path(cfg, model, hist, proj, axis)
        measurements = an.probe_path(
            model, reference, proj, path, level2, reference.speaker_id, cfg.features
        )
        an.write_csv(
            os.path.join(cfg.paths.report_dir, f"probes_axis{axis}.csv"),
            ["code", "f0", "rms", "pc1", "pc2", "speaker"],
            [
                {"code": m.code, "f0": "" if m.f0 is None else m.f0, "rms": m.rms,
                 "pc1": m.pc1, "pc2": m.pc2, "speaker": m.speaker_id}
                for m in measurements
            ],
        )
        out[f"axis{axis}"] = [m.code for m in measurements]
    an.write_json(os.path.join(cfg.paths.report_dir, "probes.json"), out)
    return out


def _analyze_speaker_relative(cfg: RunConfig) -> dict:
    corpus, model, hist, proj, level2, reference = _code_space(cfg)
    path = _select_path(cfg, model, hist, proj, 1)
    speaker_ids = list(range(len(corpus.speakers)))
    report = an.speaker_relative_report(
        model, path, reference, speaker_ids, level2, proj, cfg.features
    )
    per_speaker = {
        corpus.speakers[s]: ["" if m.f0 is None else m.f0 for m in ms] for s, ms in report.items()
    }
    rows = []
    for i, code in enumerate(path):
        row = {"code": code}
        for s in speaker_ids:
            row[corpus.speakers[s]] = per_speaker[corpus.speakers[s]][i]
        rows.append(row)
    fields = ["code"] + [corpus.speakers[s] for s in speaker_ids]
    an.write_csv(os.path.join(cfg.paths.report_dir, "speaker_relative_f0.csv"), fields, rows)
    an.write_json(
        os.path.join(cfg.paths.report_dir, "speaker_relative_f0.json"),
        {"path": path, "f0_by_speaker": per_speaker},
    )
    return {"path": path}


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


def _phoneme_means(contour, rms, durations):
    f0_means, rms_means = [], []
    start = 0
    for d in durations:
        end = min(start + int(d), len(contour.f0))
        seg_voiced = contour.voiced[start:end]
        f0_means.append(
            float(contour.f0[start:end][seg_voiced].mean()) if seg_voiced.any() else None
        )
        rms_means.append(float(rms[start:end].mean()) if end > start and len(rms) >= end else None)
        start += int(d)
    return f0_means, rms_means


def _reference_pitch(cfg: RunConfig, utts) -> list[PitchContour]:
    """The pitch contour of each utterance's reference wav."""
    audio_paths = _audio_paths(cfg)
    return [pitch(load_wav(audio_paths[utt.id]), cfg.features) for utt in utts]


def _reconstruction_metrics(cfg: RunConfig, model: CodecModel, utts, ref_pitch: list[PitchContour]) -> dict:
    mcds, vdes, gpes, ffes, psnrs = [], [], [], [], []
    for utt, ref_c in zip(utts, ref_pitch):
        recon = model.reconstruct(utt)
        psnrs.append(mx.psnr_mel(utt.mel, recon))
        mcds.append(mx.mcd(utt.mel, recon))
        hyp_c = pitch(vocode(recon, cfg.features), cfg.features)
        n = min(len(ref_c.f0), len(hyp_c.f0))
        vde, gpe, ffe = mx.f0_errors(
            PitchContour(ref_c.f0[:n], ref_c.voiced[:n]),
            PitchContour(hyp_c.f0[:n], hyp_c.voiced[:n]),
        )
        vdes.append(vde)
        gpes.append(gpe)
        ffes.append(ffe)
    return {
        "psnr": float(np.mean(psnrs)),
        "mcd": float(np.mean(mcds)),
        "vde": float(np.mean(vdes)),
        "gpe": float(np.mean(gpes)),
        "ffe": float(np.mean(ffes)),
        "n": len(utts),
    }


def _metrics_reconstruction(cfg: RunConfig, args) -> dict:
    _, model, utts = _inputs(cfg)
    return _reconstruction_metrics(cfg, model, utts, _reference_pitch(cfg, utts))


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
    pairs = [mx.wer_cer(r, h) for r, h in zip(refs, hyps)]
    return {
        "wer": float(np.mean([p[0] for p in pairs])),
        "cer": float(np.mean([p[1] for p in pairs])),
        "n": len(pairs),
    }


def _metrics_transfer(cfg: RunConfig, args) -> dict:
    if not args.source or not args.target:
        raise ConfigError("metrics transfer: --source and --target utterance ids required")
    corpus, model, _ = _inputs(cfg)
    source, target = corpus.by_id(args.source), corpus.by_id(args.target)
    out_audio = vocode(_transfer(model, source, target), cfg.features)
    src_audio = load_wav(_audio_paths(cfg)[source.id])
    src_rms = frame_rms(src_audio, cfg.features.hop_length, cfg.features.n_fft)
    out_rms = frame_rms(out_audio, cfg.features.hop_length, cfg.features.n_fft)
    # phoneme-level means: the two signals have different frame counts
    src_f0, src_e = _phoneme_means(pitch(src_audio, cfg.features), src_rms, source.durations)
    out_f0, out_e = _phoneme_means(pitch(out_audio, cfg.features), out_rms, target.durations)
    keep_f0 = [i for i in range(len(src_f0)) if src_f0[i] is not None and out_f0[i] is not None]
    keep_e = [i for i in range(len(src_e)) if src_e[i] is not None and out_e[i] is not None]
    return {
        "pearson_f0": mx.pearson([src_f0[i] for i in keep_f0], [out_f0[i] for i in keep_f0])
        if len(keep_f0) >= 2
        else None,
        "pearson_energy": mx.pearson([src_e[i] for i in keep_e], [out_e[i] for i in keep_e])
        if len(keep_e) >= 2
        else None,
        "source": args.source,
        "target": args.target,
    }


_METRIC_TASKS = {
    "reconstruction": _metrics_reconstruction,
    "intelligibility": _metrics_intelligibility,
    "transfer": _metrics_transfer,
}


def cmd_metrics(cfg: RunConfig, args) -> dict:
    """The task's report as ``metrics_<task>.json`` plus a one-row CSV of
    its numeric fields."""
    payload = _METRIC_TASKS[args.task](cfg, args)
    stem = os.path.join(cfg.paths.report_dir, f"metrics_{args.task}")
    an.write_json(stem + ".json", payload)
    keys = sorted(k for k, v in payload.items() if isinstance(v, (int, float)))
    an.write_csv(stem + ".csv", ["task"] + keys, [{"task": args.task, **{k: payload[k] for k in keys}}])
    return payload


def _twin_differences(discrete: CodecModel, continuous: CodecModel) -> list[str]:
    """What the two trained models differ in, apart from the quantizer."""
    ours, theirs = section_json(discrete.cfg), section_json(continuous.cfg)
    fields = [f"model.{k}" for k in ours if k != "quantization" and ours[k] != theirs[k]]
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
    ref_pitch = _reference_pitch(cfg, utts)
    table = {
        "discrete": _reconstruction_metrics(cfg, discrete, utts, ref_pitch),
        "continuous": _reconstruction_metrics(cfg, continuous, utts, ref_pitch),
    }
    an.write_json(os.path.join(cfg.paths.report_dir, "ablation_continuous.json"), table)
    rows = [
        {"type": name, **{k: v for k, v in vals.items() if k != "n"}}
        for name, vals in table.items()
    ]
    an.write_csv(
        os.path.join(cfg.paths.report_dir, "ablation_continuous.csv"),
        ["type", "psnr", "mcd", "vde", "gpe", "ffe"],
        rows,
    )
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


def dispatch(argv) -> int:
    """Parse, load the run config, run the command, then echo the config it
    ran with as ``effective_config.json``, append the command, its wall time
    and the sha256 of that config to ``run_log.jsonl`` in the report
    directory, and print its payload as one JSON line. Errors map to the
    exit codes in the module docstring."""
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        _output_dir(cfg.paths.report_dir, "paths.report_dir")
        payload = args.func(cfg, args)
        effective = dumps_config(cfg)
        with open(os.path.join(cfg.paths.report_dir, "effective_config.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(effective)
        record = {
            "command": " ".join(_command_words(argv)),
            "seconds": round(time.perf_counter() - start, 3),
            "config_sha": hashlib.sha256(effective.encode("utf-8")).hexdigest(),
        }
        # timing goes here, never into the reports that reruns compare
        with open(os.path.join(cfg.paths.report_dir, "run_log.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps(payload))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ContractError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every input read raises DataError, so this is an output
        print(f"output error: {exc}", file=sys.stderr)  # names the path(s) it failed on
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
