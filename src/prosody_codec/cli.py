"""Command-line surface for the full experimental workflow.

Subcommands: synth-data, prepare, train, resynth, cross-resynth,
shuffle-codes, transfer, analyze {usage,entropy,klmap,pca,probes,
speaker-relative}, metrics, ablate-continuous.

Exit codes: 0 success, 1 usage/config error, 2 data or contract error,
3 numeric error. Every command echoes the effective config into the report
directory and is deterministic given the seeds in that config.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import analysis as an
from . import metrics as mx
from .config import RunConfig, dumps_config, load_config
from .containers import write_container
from .corpus import (
    Corpus,
    inference_batches,
    parse_manifest,
    read_manifest,
    record_audio,
    write_synth_corpus,
)
from .dsp import PitchContour, estimate_f0, frame_rms, invert_mel, load_wav, save_wav
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


def _load_run(args) -> RunConfig:
    cfg = load_config(args.config)
    os.makedirs(cfg.paths.report_dir, exist_ok=True)
    return cfg


def _echo_config(cfg: RunConfig) -> None:
    path = os.path.join(cfg.paths.report_dir, "effective_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def _corpus(cfg: RunConfig, cache_write: bool = False) -> Corpus:
    if not cfg.paths.manifest:
        raise ConfigError("paths.manifest: must be set for this command")
    cache = cfg.paths.cache_dir or None
    if cache:
        os.makedirs(cache, exist_ok=True)
    return parse_manifest(
        cfg.paths.manifest, cfg.features, cache_dir=cache, cache_write=cache_write
    )


def _checkpoint_path(cfg: RunConfig, continuous: bool = False) -> str:
    name = "continuous.ckpt" if continuous else "latest.ckpt"
    return os.path.join(cfg.paths.checkpoint_dir, name)


def _model(cfg: RunConfig, continuous: bool = False) -> CodecModel:
    path = _checkpoint_path(cfg, continuous)
    if not os.path.exists(path):
        raise DataError(f"no checkpoint at {path}; run `train` first")
    return load_model(path)


def _audio_paths(cfg: RunConfig) -> dict[str, str]:
    base = os.path.dirname(os.path.abspath(cfg.paths.manifest))
    return dict(record_audio(rec, base) for rec in read_manifest(cfg.paths.manifest))


def _write_mel(path: str, mel) -> None:
    write_container(
        path,
        meta={
            "kind": "mel",
            "hop_length": mel.hop_length,
            "n_fft": mel.n_fft,
            "sample_rate": mel.sample_rate,
        },
        arrays={"values": mel.values},
    )


def _emit_resynth(cfg: RunConfig, model: CodecModel, utterances, subdir: str, decode_fn) -> list[dict]:
    out_dir = os.path.join(cfg.paths.report_dir, subdir)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for utt in utterances:
        mel = decode_fn(utt)
        _write_mel(os.path.join(out_dir, f"{utt.id}.mel"), mel)
        audio = invert_mel(mel, cfg.features.griffin_lim_iters, floor=cfg.features.log_floor)
        save_wav(os.path.join(out_dir, f"{utt.id}.wav"), audio, float32=True)
        rows.append({"id": utt.id, "frames": mel.n_frames})
    an.write_json(os.path.join(out_dir, "index.json"), rows)
    return rows


def _contour(audio, cfg: RunConfig):
    return estimate_f0(
        audio,
        cfg.features.f0_min,
        cfg.features.f0_max,
        hop_length=cfg.features.hop_length,
        win_length=cfg.features.n_fft,
        threshold=cfg.features.yin_threshold,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args) -> int:
    cfg = _load_run(args)
    if not cfg.paths.manifest:
        raise ConfigError("paths.manifest: must point at the manifest to create")
    out_dir = os.path.dirname(os.path.abspath(cfg.paths.manifest))
    manifest = write_synth_corpus(cfg.synth, cfg.features, out_dir)
    _echo_config(cfg)
    print(json.dumps({"manifest": manifest, "utterances": cfg.synth.n_utterances}))
    return 0


def cmd_prepare(args) -> int:
    cfg = _load_run(args)
    if not cfg.paths.cache_dir:
        raise ConfigError("paths.cache_dir: must be set for `prepare`")
    corpus = _corpus(cfg, cache_write=True)
    _echo_config(cfg)
    print(
        json.dumps(
            {
                "utterances": len(corpus.utterances),
                "speakers": len(corpus.speakers),
                "vocab": len(corpus.vocab),
            }
        )
    )
    return 0


def _train_impl(cfg: RunConfig, continuous: bool) -> dict:
    corpus = _corpus(cfg)
    mcfg = copy.deepcopy(cfg.model)
    mcfg.vocab_size = len(corpus.vocab)
    mcfg.n_speakers = len(corpus.speakers)
    if continuous:
        mcfg.quantization = "none"
    rng = np.random.default_rng(cfg.train.seed)
    model = CodecModel(
        mcfg,
        cfg.features,
        corpus.vocab,
        corpus.speakers,
        rng=rng,
        beta=cfg.train.commitment_beta,
        ema_decay=cfg.train.ema_decay,
        ema_epsilon=cfg.train.ema_epsilon,
    )
    if cfg.train.dtype == "float64":
        model.astype(np.float64)
    state = new_train_state(model, cfg.train)
    os.makedirs(cfg.paths.checkpoint_dir, exist_ok=True)
    suffix = "continuous" if continuous else "train"
    log_path = os.path.join(cfg.paths.report_dir, f"{suffix}_log.jsonl")
    if os.path.exists(log_path):
        os.unlink(log_path)
    state = train(
        state,
        corpus,
        checkpoint_dir=None if continuous else cfg.paths.checkpoint_dir,
        log_path=log_path,
    )
    save_checkpoint(state, _checkpoint_path(cfg, continuous))
    report = evaluate(state.model, an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction))
    return {
        "steps": state.step,
        "loss_at_100": state.loss_at_100,
        "eval": report,
        "checkpoint": _checkpoint_path(cfg, continuous),
        "vocab_size": len(corpus.vocab),
        "n_speakers": len(corpus.speakers),
    }


def cmd_train(args) -> int:
    cfg = _load_run(args)
    summary = _train_impl(cfg, continuous=args.continuous)
    cfg.model.vocab_size = summary["vocab_size"]
    cfg.model.n_speakers = summary["n_speakers"]
    _echo_config(cfg)
    an.write_json(
        os.path.join(
            cfg.paths.report_dir,
            "train_summary_continuous.json" if args.continuous else "train_summary.json",
        ),
        summary,
    )
    print(json.dumps(summary))
    return 0


def cmd_resynth(args) -> int:
    cfg = _load_run(args)
    corpus = _corpus(cfg)
    model = _model(cfg)
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)
    _emit_resynth(cfg, model, utts, "resynth", lambda u: model.reconstruct(u))
    _echo_config(cfg)
    print(json.dumps({"resynth": len(utts)}))
    return 0


def cmd_cross_resynth(args) -> int:
    cfg = _load_run(args)
    corpus = _corpus(cfg)
    model = _model(cfg)
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
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)
    _emit_resynth(
        cfg,
        model,
        utts,
        f"cross_resynth_spk{speaker_id}",
        lambda u: model.reconstruct(u, override_speaker=speaker_id),
    )
    _echo_config(cfg)
    print(json.dumps({"cross_resynth": len(utts), "target_speaker": speaker_id}))
    return 0


def cmd_shuffle_codes(args) -> int:
    cfg = _load_run(args)
    corpus = _corpus(cfg)
    model = _model(cfg)
    rng = np.random.default_rng(args.seed)
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)

    def decode_shuffled(u):
        codes = model.encode_utterance(u)
        perm = rng.permutation(codes.indices.shape[0])
        shuffled = CodeSequence(indices=codes.indices[perm])
        return model.decode_codes(shuffled, u.phonemes, u.durations, u.speaker_id)

    _emit_resynth(cfg, model, utts, f"shuffled_seed{args.seed}", decode_shuffled)
    _echo_config(cfg)
    print(json.dumps({"shuffled": len(utts), "seed": args.seed}))
    return 0


def _transfer(cfg: RunConfig, source_id: str, target_id: str):
    """Prosody transfer: the source's codes decoded on the target's phonemes
    and durations with the source speaker. Returns source, target, mel, audio."""
    corpus = _corpus(cfg)
    model = _model(cfg)
    source = corpus.by_id(source_id)
    target = corpus.by_id(target_id)
    if source.n_phonemes != target.n_phonemes:
        raise ContractError(
            f"transfer: phoneme counts differ: source {source_id!r} has "
            f"{source.n_phonemes}, target {target_id!r} has {target.n_phonemes}"
        )
    codes = model.encode_utterance(source)
    mel = model.decode_codes(codes, target.phonemes, target.durations, source.speaker_id)
    audio = invert_mel(mel, cfg.features.griffin_lim_iters, floor=cfg.features.log_floor)
    return source, target, mel, audio


def cmd_transfer(args) -> int:
    cfg = _load_run(args)
    _, _, mel, audio = _transfer(cfg, args.source, args.target)
    out_dir = os.path.join(cfg.paths.report_dir, "transfer")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.source}_to_{args.target}"
    _write_mel(os.path.join(out_dir, f"{stem}.mel"), mel)
    save_wav(os.path.join(out_dir, f"{stem}.wav"), audio, float32=True)
    _echo_config(cfg)
    print(json.dumps({"transfer": stem, "frames": mel.n_frames}))
    return 0


# -- analyze subcommands


def _analysis_inputs(cfg: RunConfig):
    corpus = _corpus(cfg)
    model = _model(cfg)
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)
    sequences = an.collect_codes(model, utts)
    return corpus, model, utts, sequences


def cmd_analyze(args) -> int:
    cfg = _load_run(args)
    handler = {
        "usage": _analyze_usage,
        "entropy": _analyze_entropy,
        "klmap": _analyze_klmap,
        "pca": _analyze_pca,
        "probes": _analyze_probes,
        "speaker-relative": _analyze_speaker_relative,
    }[args.what]
    payload = handler(cfg)
    _echo_config(cfg)
    print(json.dumps({"analyze": args.what, "report_dir": cfg.paths.report_dir, **payload}))
    return 0


def _analyze_usage(cfg: RunConfig) -> dict:
    corpus, model = _corpus(cfg), _model(cfg)
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)
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
    dependency = (
        an.level_dependency(sequences, k) if model.rvq.n_levels > 1 else 0.0
    )
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
    corpus, model, utts, sequences = _analysis_inputs(cfg)
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
    corpus, model, utts, sequences = _analysis_inputs(cfg)
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


def _pca_inputs(model, sequences):
    k = model.cfg.codebook_size
    hist = np.zeros(k, dtype=np.int64)
    for seq in sequences:
        hist += np.bincount(seq.level(0).ravel(), minlength=k)
    entries = model.rvq.levels[0].entries
    used = hist > 0
    return entries[used], hist[used].astype(np.float64), np.nonzero(used)[0], hist


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
    corpus, model, utts, sequences = _analysis_inputs(cfg)
    vectors, weights, code_ids, hist = _pca_inputs(model, sequences)
    proj = an.pca_codes(vectors, weights)
    entries = model.rvq.levels[0].entries
    coords = proj.coords(entries)
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
                "count": int(cnt),
            }
            for c, cnt in zip(code_ids, weights.astype(np.int64))
        ],
    )
    an.svg_scatter(
        os.path.join(cfg.paths.report_dir, "pca.svg"),
        coords[code_ids][:, :2],
        labels=[str(int(c)) for c in code_ids],
        title="level-1 codes in PC space",
    )
    return {"top2_ratio_sum": payload["top2_ratio_sum"], "paths": paths}


def _reference_utterance(cfg, corpus, utts):
    if cfg.analysis.reference_utterance:
        return corpus.by_id(cfg.analysis.reference_utterance)
    # longest utterance gives the probes the most frames to measure
    return max(utts, key=lambda u: u.mel.n_frames)


def _probe_rows(measurements):
    return [
        {
            "code": m.code,
            "f0": "" if m.f0 is None else m.f0,
            "rms": m.rms,
            "pc1": m.pc1,
            "pc2": m.pc2,
            "speaker": m.speaker_id,
        }
        for m in measurements
    ]


def _analyze_probes(cfg: RunConfig) -> dict:
    corpus, model, utts, sequences = _analysis_inputs(cfg)
    vectors, weights, _, hist = _pca_inputs(model, sequences)
    proj = an.pca_codes(vectors, weights)
    level2 = an.most_frequent_level2(sequences, model.cfg.codebook_size)
    reference = _reference_utterance(cfg, corpus, utts)
    out = {}
    for axis in (1, 2):
        path = _select_path(cfg, model, hist, proj, axis)
        measurements = an.probe_path(model, reference, proj, path, level2, reference.speaker_id)
        an.write_csv(
            os.path.join(cfg.paths.report_dir, f"probes_axis{axis}.csv"),
            ["code", "f0", "rms", "pc1", "pc2", "speaker"],
            _probe_rows(measurements),
        )
        out[f"axis{axis}"] = [m.code for m in measurements]
    an.write_json(os.path.join(cfg.paths.report_dir, "probes.json"), out)
    return out


def _analyze_speaker_relative(cfg: RunConfig) -> dict:
    corpus, model, utts, sequences = _analysis_inputs(cfg)
    vectors, weights, _, hist = _pca_inputs(model, sequences)
    proj = an.pca_codes(vectors, weights)
    level2 = an.most_frequent_level2(sequences, model.cfg.codebook_size)
    reference = _reference_utterance(cfg, corpus, utts)
    path = _select_path(cfg, model, hist, proj, 1)
    speaker_ids = list(range(len(corpus.speakers)))
    report = an.speaker_relative_report(model, path, reference, speaker_ids, level2, proj)
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


# -- metrics


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


def _reconstruction_metrics(cfg: RunConfig, model: CodecModel, corpus: Corpus) -> dict:
    audio_paths = _audio_paths(cfg)
    utts = an.extraction_slice(corpus.utterances, cfg.analysis.extract_fraction)
    mcds, vdes, gpes, ffes, psnrs = [], [], [], [], []
    for utt in utts:
        recon = model.reconstruct(utt)
        psnrs.append(mx.psnr_mel(utt.mel, recon))
        mcds.append(mx.mcd(utt.mel, recon))
        ref_audio = load_wav(audio_paths[utt.id])
        hyp_audio = invert_mel(recon, cfg.features.griffin_lim_iters, floor=cfg.features.log_floor)
        ref_c = _contour(ref_audio, cfg)
        hyp_c = _contour(hyp_audio, cfg)
        n = min(len(ref_c.f0), len(hyp_c.f0))
        vde, gpe, ffe = mx.f0_errors(
            PitchContour(ref_c.f0[:n], ref_c.voiced[:n]),
            PitchContour(hyp_c.f0[:n], hyp_c.voiced[:n]),
        )
        vdes.append(vde)
        gpes.append(gpe)
        ffes.append(ffe)
    report = mx.MetricReport(
        psnr=float(np.mean(psnrs)),
        mcd=float(np.mean(mcds)),
        vde=float(np.mean(vdes)),
        gpe=float(np.mean(gpes)),
        ffe=float(np.mean(ffes)),
        extras={"n": len(utts)},
    )
    return report.to_json()


def _write_metric_summary(cfg: RunConfig, task: str, payload: dict) -> None:
    keys = sorted(k for k, v in payload.items() if isinstance(v, (int, float)) and v is not None)
    an.write_csv(
        os.path.join(cfg.paths.report_dir, f"metrics_{task}.csv"),
        ["task"] + keys,
        [{"task": task, **{k: payload[k] for k in keys}}],
    )


def cmd_metrics(args) -> int:
    cfg = _load_run(args)
    if args.task == "reconstruction":
        corpus = _corpus(cfg)
        model = _model(cfg)
        payload = _reconstruction_metrics(cfg, model, corpus)
        an.write_json(os.path.join(cfg.paths.report_dir, "metrics_reconstruction.json"), payload)
        _write_metric_summary(cfg, "reconstruction", payload)
    elif args.task == "intelligibility":
        if not args.ref or not args.hyp:
            raise ConfigError("metrics intelligibility: --ref and --hyp text files required")
        with open(args.ref, encoding="utf-8") as fh:
            refs = [line for line in fh.read().splitlines() if line.strip()]
        with open(args.hyp, encoding="utf-8") as fh:
            hyps = [line for line in fh.read().splitlines() if line.strip()]
        if len(refs) != len(hyps):
            raise DataError(f"metrics: {len(refs)} reference lines vs {len(hyps)} hypothesis lines")
        pairs = [mx.wer_cer(r, h) for r, h in zip(refs, hyps)]
        payload = {
            "wer": float(np.mean([p[0] for p in pairs])),
            "cer": float(np.mean([p[1] for p in pairs])),
            "n": len(pairs),
        }
        an.write_json(os.path.join(cfg.paths.report_dir, "metrics_intelligibility.json"), payload)
        _write_metric_summary(cfg, "intelligibility", payload)
    elif args.task == "transfer":
        if not args.source or not args.target:
            raise ConfigError("metrics transfer: --source and --target utterance ids required")
        source, target, _, out_audio = _transfer(cfg, args.source, args.target)
        src_audio = load_wav(_audio_paths(cfg)[source.id])
        src_c = _contour(src_audio, cfg)
        out_c = _contour(out_audio, cfg)
        src_rms = frame_rms(src_audio, cfg.features.hop_length, cfg.features.n_fft)
        out_rms = frame_rms(out_audio, cfg.features.hop_length, cfg.features.n_fft)
        # phoneme-level means: the two signals have different frame counts
        src_f0, src_e = _phoneme_means(src_c, src_rms, source.durations)
        out_f0, out_e = _phoneme_means(out_c, out_rms, target.durations)
        keep_f0 = [i for i in range(len(src_f0)) if src_f0[i] is not None and out_f0[i] is not None]
        keep_e = [i for i in range(len(src_e)) if src_e[i] is not None and out_e[i] is not None]
        payload = {
            "pearson_f0": mx.pearson([src_f0[i] for i in keep_f0], [out_f0[i] for i in keep_f0])
            if len(keep_f0) >= 2
            else None,
            "pearson_energy": mx.pearson([src_e[i] for i in keep_e], [out_e[i] for i in keep_e])
            if len(keep_e) >= 2
            else None,
            "source": args.source,
            "target": args.target,
        }
        an.write_json(os.path.join(cfg.paths.report_dir, "metrics_transfer.json"), payload)
        _write_metric_summary(cfg, "transfer", payload)
    else:
        raise ConfigError(f"metrics: unknown task {args.task!r}")
    _echo_config(cfg)
    print(json.dumps(payload))
    return 0


def cmd_ablate_continuous(args) -> int:
    cfg = _load_run(args)
    if not os.path.exists(_checkpoint_path(cfg, continuous=False)):
        _train_impl(cfg, continuous=False)
    _train_impl(cfg, continuous=True)
    corpus = _corpus(cfg)
    discrete = _model(cfg, continuous=False)
    continuous = _model(cfg, continuous=True)
    table = {
        "discrete": _reconstruction_metrics(cfg, discrete, corpus),
        "continuous": _reconstruction_metrics(cfg, continuous, corpus),
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
    _echo_config(cfg)
    print(json.dumps(table))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch


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
    p.add_argument("--seed", type=int, required=True)
    p = add("transfer", cmd_transfer, help="prosody transfer between equal-length utterances")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p = add("analyze", cmd_analyze, help="latent-space analyses")
    p.add_argument(
        "what",
        choices=["usage", "entropy", "klmap", "pca", "probes", "speaker-relative"],
    )
    p = add("metrics", cmd_metrics, help="objective metric reports")
    p.add_argument("--task", required=True, choices=["reconstruction", "intelligibility", "transfer"])
    p.add_argument("--ref")
    p.add_argument("--hyp")
    p.add_argument("--source")
    p.add_argument("--target")
    add("ablate-continuous", cmd_ablate_continuous, help="discrete vs continuous comparison")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ContractError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
