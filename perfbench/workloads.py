"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs from the seed in ``setup``, does one round of
identical, deterministic work per ``round`` call, and computes its quality
guards and end-of-run checks in ``finish``. Every call into the package goes
through a module attribute (``training.train``, ``dsp.invert_mel``...), so the
traced run sees it at the binding the program itself calls through.
"""

from __future__ import annotations

import math
import os
import traceback
from time import perf_counter

import numpy as np

from prosody_codec import analysis as an
from prosody_codec import corpus as cp
from prosody_codec import dsp
from prosody_codec import metrics as mx
from prosody_codec import model as md
from prosody_codec import quantizer as qz
from prosody_codec import training as tr
from prosody_codec.config import FeatureConfig, ModelConfig, SynthSpec, TrainConfig

GL_ITERS = 60
CHUNK = 8  # utterances per encode op
LOSS_WINDOW = 20  # train steps averaged into loss_final
F0_RANGES = [[120.0, 260.0], [140.0, 300.0]]
MODEL_SEED = 0  # the program's own seed (model init, batch order); the inputs follow --seed


class Sizes:
    """Input sizes; ``tiny`` is the smoke test's."""

    def __init__(self, tiny: bool = False):
        self.base_utts = 4 if tiny else 32
        self.heldout_utts = 16 if tiny else 256
        self.train_steps = 20 if tiny else 100
        self.warmup_steps = 1 if tiny else 200
        self.checkpoint_every = 5 if tiny else 25
        self.guard_utts = 1 if tiny else 8


class Meter:
    """Op start times and latencies, frames completed and failures of one run."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe  # SpeedProbe sampled between ops, or None
        self.op_start: list[float] = []
        self.op_s: list[float] = []
        self.frames = 0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, fn, *args):
        """Run one op and time it; returns None when it raised."""
        if self.probe is not None:
            self.probe.maybe_sample()
        self.attempted += 1
        span = self.tracer.open(label) if self.tracer is not None else None
        t0 = perf_counter()
        self.op_start.append(t0)
        try:
            return fn(*args)
        except Exception as exc:  # the loop must go on; the failure is counted
            self.fail(_raised(label, exc))
            return None
        finally:
            self.op_s.append(perf_counter() - t0)
            if span is not None:
                self.tracer.close(span)

    def stage(self, label: str, fn, *args):
        """An untimed unit of work (statistics, end-of-run checks); counts as
        one attempt that fails if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # as in op: counted, and the run goes on
            self.fail(_raised(label, exc))
            return None

    def check(self, cond: bool, msg: str) -> bool:
        """A run-level check; counts as one attempt."""
        self.attempted += 1
        return _require(self, cond, msg)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)


def _raised(label: str, exc: Exception) -> str:
    """The exception with the innermost frame it was raised in."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return f"{label} raised {type(exc).__name__} at {where}: {exc}"


def synth_spec(n_utterances: int, seed: int) -> SynthSpec:
    """The acceptance suite's toy corpus spec, at a chosen size and seed."""
    return SynthSpec(
        n_speakers=2,
        n_utterances=n_utterances,
        phoneme_inventory=10,
        f0_ranges=[list(r) for r in F0_RANGES],
        amp_range=[0.3, 1.0],
        segments_min=8,
        segments_max=14,
        duration_min=4,
        duration_max=10,
        glide_semitones=1.0,
        seed=seed,
    )


def prepare_corpus(spec: SynthSpec, features: FeatureConfig, root: str, vocab=None):
    """What ``synth-data`` then ``prepare`` do: write wavs and a manifest,
    then parse it with mel analysis into a fresh feature cache."""
    manifest = cp.write_synth_corpus(spec, features, os.path.join(root, "data"))
    corpus = cp.parse_manifest(
        manifest, features, cache_dir=os.path.join(root, "cache"), vocab=vocab
    )
    wavs = {u.id: os.path.join(root, "data", f"{u.id}.wav") for u in corpus.utterances}
    return corpus, wavs


def new_model(corpus, features: FeatureConfig, tcfg: TrainConfig) -> md.CodecModel:
    """A seeded model the way the ``train`` command builds one."""
    mcfg = ModelConfig(vocab_size=len(corpus.vocab), n_speakers=len(corpus.speakers))
    return md.CodecModel(
        mcfg,
        features,
        corpus.vocab,
        corpus.speakers,
        rng=np.random.default_rng(tcfg.seed),
        beta=tcfg.commitment_beta,
        ema_decay=tcfg.ema_decay,
        ema_epsilon=tcfg.ema_epsilon,
    )


def build_inference_model(corpus, features, root: str) -> md.CodecModel:
    """An untrained but usable model: output bias at the corpus mean, code
    books seeded on forward-only encoder output, then a save/load round trip."""
    tcfg = TrainConfig(seed=MODEL_SEED)
    model = new_model(corpus, features, tcfg)
    tr.initialize_output_bias(model, corpus.utterances)
    batch = cp.make_batch(corpus.utterances)
    out = model.forward_batch(model.param_tensors(train=False), batch, bypass=True)
    z = out["encoder_output"].data[batch.phoneme_mask]
    qz.seed_codebooks(model.rvq, z, np.random.default_rng(tcfg.seed))
    path = os.path.join(root, "model.ckpt")
    md.save_model(model, path)
    return md.load_model(path)


def loss_guard(model, utts) -> float:
    """Mean training loss of ``model`` over ``utts`` in batches of CHUNK."""
    pt = model.param_tensors(train=False)
    losses = []
    for i in range(0, len(utts), CHUNK):
        total, _, _ = tr.compute_loss(model, pt, cp.make_batch(utts[i : i + CHUNK]))
        losses.append(float(total.data))
    return float(np.mean(losses))


def gl_guard(model, utts, floor: float) -> float:
    """Mean final Griffin-Lim error when inverting the model's reconstructions."""
    errors = []
    for u in utts:
        _, errs = dsp.invert_mel(model.reconstruct(u), GL_ITERS, return_errors=True, floor=floor)
        errors.append(errs[-1])
    return float(np.mean(errors))


def contour(audio, features: FeatureConfig):
    return dsp.estimate_f0(
        audio,
        features.f0_min,
        features.f0_max,
        hop_length=features.hop_length,
        win_length=features.n_fft,
        threshold=features.yin_threshold,
    )


def _require(meter: Meter, cond: bool, msg: str) -> bool:
    """An op-level check: a failure counts against the op already attempted,
    so callers stop at an op's first failed check."""
    if not cond:
        meter.fail(msg)
    return cond


# ---------------------------------------------------------------------------


class TrainWorkload:
    """``training.train`` on the toy config; one op is one ``train_step``."""

    op_label = "training.train_step"
    parts = 1  # every round is the same training run

    def __init__(self, seed: int, sizes: Sizes, features: FeatureConfig):
        self.seed, self.sizes, self.features = seed, sizes, features
        self.loss_finals: list[float] = []
        self.state = None

    def tcfg(self) -> TrainConfig:
        return TrainConfig(
            batch_size=8,
            warmup_steps=self.sizes.warmup_steps,
            max_steps=self.sizes.train_steps,
            target_loss_ratio=0.0,
            dead_code_threshold=0.15,
            dead_code_every=20,
            seed=MODEL_SEED,
            eval_every=10**9,  # evaluation off
            checkpoint_every=self.sizes.checkpoint_every,
        )

    def setup(self, root: str) -> None:
        self.root = root
        self.corpus, _ = prepare_corpus(
            synth_spec(self.sizes.base_utts, 2 * self.seed), self.features, root
        )

    def round(self, meter: Meter, k: int) -> None:
        """One training run from a fresh model; identical in every round."""
        tcfg = self.tcfg()
        state = tr.new_train_state(new_model(self.corpus, self.features, tcfg), tcfg)
        records = []
        real_step = tr.train_step

        def timed_step(state, batch):
            record = meter.op(self.op_label, real_step, state, batch)
            if record is None:
                record = {"step": state.step, "skipped": True, "error": "raised"}
            elif record.get("skipped"):
                meter.fail(f"step {record['step']} skipped: {record.get('error')}")
            elif _require(meter, math.isfinite(record["total"]), f"step {record['step']}: loss not finite"):
                meter.frames += int(batch.frame_mask.sum())
            records.append(record)
            return record

        ckpt_dir = os.path.join(self.root, "ckpt")
        tr.train_step = timed_step
        try:
            state = tr.train(
                state, self.corpus, checkpoint_dir=ckpt_dir,
                log_path=os.path.join(self.root, "train_log.jsonl"),
            )
        finally:
            tr.train_step = real_step
        totals = [r["total"] for r in records if "total" in r]
        if not meter.check(len(totals) == tcfg.max_steps, "train: steps missing or skipped"):
            return
        loss_final = float(np.mean(totals[-LOSS_WINDOW:]))
        meter.check(loss_final < totals[0], f"train: loss_final {loss_final} >= first loss {totals[0]}")
        self.loss_finals.append(loss_final)
        self.records, self.state = records, state

    def finish(self, meter: Meter) -> dict:
        if not meter.check(self.state is not None, "train: no complete training run"):
            return {}
        meter.check(len(set(self.loss_finals)) == 1,
                    f"train: loss_final differs between identical rounds: {self.loss_finals}")
        meter.stage("train.checkpoint_reload", self._check_reload, meter)
        tail = self.records[-LOSS_WINDOW:]
        model = self.state.model
        return {
            "loss_final": self.loss_finals[0],
            "psnr_db": tr.evaluate(model, self.corpus.utterances)["psnr"],
            "gl_error": gl_guard(
                model, self.corpus.utterances[: self.sizes.guard_utts], self.features.log_floor
            ),
            "quantizer.usage_l1": float(np.mean([r["usage_l1"] for r in tail])),
            "quantizer.usage_l2": float(np.mean([r["usage_l2"] for r in tail])),
            "quantizer.reinit_codes_per_op": float(np.mean([r["reinit"] for r in self.records])),
        }

    def _check_reload(self, meter: Meter) -> None:
        """The last checkpoint reloads bit-identically: parameters, Adam
        moments and the step count."""
        state = self.state
        loaded = tr.load_checkpoint(os.path.join(self.root, "ckpt", "latest.ckpt"))
        meter.check(loaded.step == state.step and loaded.opt.t == state.opt.t,
                    "train: checkpoint step count differs")
        pairs = [(state.model.params, loaded.model.params), (state.opt.m, loaded.opt.m),
                 (state.opt.v, loaded.opt.v)]
        for mine, theirs in pairs:
            same = mine.keys() == theirs.keys() and all(
                mine[k].dtype == theirs[k].dtype and np.array_equal(mine[k], theirs[k])
                for k in mine
            )
            meter.check(same, "train: checkpoint arrays differ from the live state")


class ResynthWorkload:
    """The body of ``metrics --task reconstruction``; one op is one utterance."""

    op_label = "op.resynth"
    parts = 2  # rounds alternate between the halves of the set

    def __init__(self, seed: int, sizes: Sizes, features: FeatureConfig):
        self.seed, self.sizes, self.features = seed, sizes, features
        self.first: dict[str, tuple] = {}

    def setup(self, root: str) -> None:
        self.corpus, self.wavs = prepare_corpus(
            synth_spec(self.sizes.base_utts, 2 * self.seed), self.features, root
        )
        self.model = build_inference_model(self.corpus, self.features, root)

    def resynth(self, utt):
        f = self.features
        recon = self.model.reconstruct(utt)
        audio, errors = dsp.invert_mel(recon, GL_ITERS, return_errors=True, floor=f.log_floor)
        src = contour(dsp.load_wav(self.wavs[utt.id]), f)
        hyp = contour(audio, f)
        n = min(len(src.f0), len(hyp.f0))
        f0_err = mx.f0_errors(
            dsp.PitchContour(src.f0[:n], src.voiced[:n]), dsp.PitchContour(hyp.f0[:n], hyp.voiced[:n])
        )
        return {
            "audio": audio,
            "errors": errors,
            "src": src,
            "psnr": mx.psnr_mel(utt.mel, recon),
            "mcd": mx.mcd(utt.mel, recon),
            "f0": f0_err,
        }

    def round(self, meter: Meter, k: int) -> None:
        """One part of the utterance set; rounds k and k + parts do the same work."""
        utts = self.corpus.utterances
        part, n = k % self.parts, len(utts)
        for utt in utts[part * n // self.parts : (part + 1) * n // self.parts]:
            out = meter.op(self.op_label, self.resynth, utt)
            if out is None or not self._check(meter, utt, out):
                continue
            meter.frames += utt.mel.n_frames

    def _check(self, meter: Meter, utt, out) -> bool:
        f = self.features
        samples = out["audio"].samples
        ok = _require(meter, np.all(np.isfinite(samples))
                      and len(samples) == (utt.mel.n_frames - 1) * f.hop_length + f.n_fft,
                      f"{utt.id}: resynthesized audio is not finite or has the wrong length")
        ok = ok and _require(meter, len(out["errors"]) == GL_ITERS,
                             f"{utt.id}: {len(out['errors'])} Griffin-Lim errors")
        voiced = out["src"].f0[out["src"].voiced]
        lo, hi = F0_RANGES[utt.speaker_id]
        ok = ok and _require(meter, voiced.size > 0 and lo <= voiced.mean() <= hi,
                             f"{utt.id}: source F0 outside the speaker's range")
        result = (out["errors"][-1], out["psnr"], out["mcd"], out["f0"])
        ok = ok and _require(meter, all(math.isfinite(v) for v in result[:3]),
                             f"{utt.id}: non-finite quality metric")
        first = self.first.setdefault(utt.id, result)
        return ok and _require(meter, first == result, f"{utt.id}: results differ between rounds")

    def finish(self, meter: Meter) -> dict:
        done = list(self.first.values())
        if not meter.check(bool(done), "resynth: no utterance completed"):
            return {}
        return {
            "gl_error": float(np.mean([r[0] for r in done])),
            "psnr_db": float(np.mean([r[1] for r in done])),
            "loss_final": loss_guard(self.model, self.corpus.utterances),
            **_usage(self.model, an.collect_codes(self.model, self.corpus.utterances)),
        }


class EncodeWorkload:
    """Evaluation and code extraction over a held-out set in chunks of
    CHUNK utterances, then the code statistics the ``analyze`` commands use."""

    op_label = "op.encode"
    parts = 1  # every round is the same pass over the held-out set

    def __init__(self, seed: int, sizes: Sizes, features: FeatureConfig):
        self.seed, self.sizes, self.features = seed, sizes, features
        self.first = None

    def setup(self, root: str) -> None:
        # the held-out set is synthesized in memory; its vocabulary, the
        # synthesizer's own, is given to the base set's manifest parse
        self.heldout = cp.synth_corpus(
            synth_spec(self.sizes.heldout_utts, 2 * self.seed + 1), self.features
        )
        self.base, _ = prepare_corpus(
            synth_spec(self.sizes.base_utts, 2 * self.seed), self.features,
            os.path.join(root, "base"), vocab=self.heldout.vocab,
        )
        self.model = build_inference_model(self.base, self.features, root)

    def encode(self, chunk):
        return tr.evaluate(self.model, chunk), an.collect_codes(self.model, chunk)

    def round(self, meter: Meter, k: int) -> None:
        utts = self.heldout.utterances
        size = self.model.cfg.codebook_size
        levels = self.model.rvq.n_levels
        psnrs, sequences = [], []
        for i in range(0, len(utts), CHUNK):
            chunk = utts[i : i + CHUNK]
            out = meter.op(self.op_label, self.encode, chunk)
            if out is None:
                continue
            report, codes = out
            shapes_ok = len(codes) == len(chunk) and all(
                c.indices.shape == (u.n_phonemes, levels)
                and int(c.indices.min()) >= 0 and int(c.indices.max()) < size
                for u, c in zip(chunk, codes)
            )
            if _require(meter, shapes_ok, f"encode: bad codes for chunk {i // CHUNK}") and _require(
                meter, math.isfinite(report["psnr"]), f"encode: non-finite PSNR for chunk {i // CHUNK}"
            ):
                psnrs.append(report["psnr"])
                sequences.extend(codes)
                meter.frames += sum(u.mel.n_frames for u in chunk)
        if len(sequences) != len(utts):
            return
        stats = meter.stage("encode.code_statistics", self.statistics, meter, sequences)
        if stats is None:
            return
        digest = (psnrs, [s.indices.tobytes() for s in sequences], stats)
        if self.first is None:
            self.first, self.first_sequences = digest, sequences
        else:
            meter.check(digest == self.first, "encode: results differ between rounds")

    def statistics(self, meter: Meter, sequences) -> tuple:
        """usage, entropy, klmap and pca as the ``analyze`` commands compute them."""
        k = self.model.cfg.codebook_size
        utts = self.heldout.utterances
        usage = qz.usage_stats(sequences, k).usage
        entropies = []
        for level in range(self.model.rvq.n_levels):
            for pairs in (_speaker_pairs(utts, sequences, level), _phoneme_pairs(utts, sequences, level)):
                entropies += [an.entropy_nats(p) for p in an.conditional_pmfs(pairs, k, 0.5)]
        meter.check(all(0.0 <= h <= math.log(k) for h in entropies),
                    "encode: entropy outside [0, ln K]")
        dist = an.symmetric_kl_matrix(an.conditional_pmfs(_phoneme_pairs(utts, sequences, 0), k, 0.5))
        meter.check(np.allclose(dist, dist.T, rtol=0.0, atol=1e-9) and not np.any(np.diag(dist)),
                    "encode: KL matrix not symmetric with a zero diagonal")
        coords = an.embed_2d(dist, method="mds")
        hist = sum(np.bincount(s.level(0).ravel(), minlength=k) for s in sequences)
        used = hist > 0
        proj = an.pca_codes(self.model.rvq.levels[0].entries[used], hist[used].astype(np.float64))
        return usage, entropies, dist.tolist(), coords.tolist(), proj.ratios.tolist()

    def finish(self, meter: Meter) -> dict:
        if not meter.check(self.first is not None, "encode: no complete round"):
            return {}
        return {
            "psnr_db": float(np.mean(self.first[0])),
            "gl_error": gl_guard(
                self.model, self.base.utterances[: self.sizes.guard_utts], self.features.log_floor
            ),
            "loss_final": loss_guard(self.model, self.base.utterances),
            **_usage(self.model, self.first_sequences),
        }


def _usage(model, sequences) -> dict:
    """Distinct codes used per level over the sequences, as a share of K."""
    usage = qz.usage_stats(sequences, model.cfg.codebook_size).usage
    return {f"quantizer.usage_l{l + 1}": u for l, u in enumerate(usage)}


def _speaker_pairs(utts, sequences, level: int):
    for utt, seq in zip(utts, sequences):
        for code in seq.level(level):
            yield utt.speaker_id, int(code)


def _phoneme_pairs(utts, sequences, level: int):
    for utt, seq in zip(utts, sequences):
        for ph, code in zip(utt.phonemes, seq.level(level)):
            yield int(ph), int(code)


WORKLOADS = {"train": TrainWorkload, "resynth": ResynthWorkload, "encode": EncodeWorkload}
