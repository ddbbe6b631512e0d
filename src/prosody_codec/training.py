"""Loss assembly, the optimization loop, evaluation, and checkpointing.

One seeded ``numpy`` generator drives batch sampling, codebook seeding and
dead-code reinitialization, so a fixed seed gives a bit-reproducible run and
a resumed run continues the loss curve of an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
from dataclasses import dataclass
from time import perf_counter

try:
    import resource
except ImportError:  # Windows has none: timing records then carry wall time only
    resource = None

import numpy as np

from . import autodiff as ad
from .analysis import entropy_nats, extraction_slice
from .autodiff import AdamState, Tensor
from .config import FeatureConfig, ModelConfig, TrainConfig, section_json
from .containers import read_container, write_container
from .corpus import Batch, Corpus, Utterance, inference_batches, make_batch
from .errors import NONFINITE_REPORTED, ContractError, DataError, NumericError
from .metrics import reconstruction_scores, score_report
from .model import (NUMBER, CodecModel, _model_from_parts, _require_keys, _section_from_meta,
                    model_arrays, model_meta)
# quantize_level is unused here; perfbench/layers.py still wraps training.quantize_level
from .quantizer import ema_update, quantize_level, reinit_dead_codes, seed_codebooks


@dataclass
class TrainState:
    model: CodecModel
    opt: AdamState
    tcfg: TrainConfig
    step: int = 0
    loss_at_100: float | None = None
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(self.tcfg.seed)


def new_model(mcfg: ModelConfig, features: FeatureConfig, tcfg: TrainConfig, corpus: Corpus,
              quantized: bool = True) -> CodecModel:
    """An untrained model for ``corpus``, seeded by ``tcfg.seed``, in
    ``tcfg.dtype``. A size of 0 in ``mcfg`` is taken from the corpus and
    written back; CodecModel checks a stated one."""
    mcfg.vocab_size = mcfg.vocab_size or len(corpus.vocab)
    mcfg.n_speakers = mcfg.n_speakers or len(corpus.speakers)
    model = CodecModel(mcfg, features, corpus.vocab, corpus.speakers,
                       rng=np.random.default_rng(tcfg.seed), beta=tcfg.commitment_beta,
                       ema_decay=tcfg.ema_decay, ema_epsilon=tcfg.ema_epsilon, quantized=quantized)
    if tcfg.dtype == "float64":
        model.astype(np.float64)
    return model


def new_train_state(model: CodecModel, tcfg: TrainConfig) -> TrainState:
    return TrainState(model=model, opt=AdamState(model.params), tcfg=tcfg)


def initialize_output_bias(model: CodecModel, utterances: list[Utterance]) -> None:
    """Start the output projection at the corpus mean mel per band; removes
    the large constant error a zero-init decoder would spend steps on."""
    total = np.zeros(model.features.n_mels)
    frames = 0
    for u in utterances:
        total += u.mel.values.sum(axis=0)
        frames += u.mel.n_frames
    if frames:
        model.params["mel_out.b"][...] = total / frames


# ---------------------------------------------------------------------------
# loss


def masked_l1_l2(pred: Tensor, target: np.ndarray, frame_mask: np.ndarray):
    """Mean absolute and mean squared error over unmasked mel cells only."""
    mask3 = frame_mask[:, :, None].astype(pred.data.dtype)
    count = float(frame_mask.sum()) * target.shape[2]
    diff = ad.sub(pred, Tensor(target.astype(pred.data.dtype)))
    l1 = ad.div(ad.tsum(ad.mul(ad.absolute(diff), mask3)), count)
    l2 = ad.div(ad.tsum(ad.mul(ad.mul(diff, diff), mask3)), count)
    return l1, l2


def compute_loss(model: CodecModel, pt: dict, batch: Batch, bypass: bool = False, where: str = ""):
    """total = masked mean |err| + masked mean err^2 + commitment.

    Returns (total Tensor, parts dict of floats, forward dict). The
    commitment part arrives from the quantizer already weighted by beta.
    A total that is not finite raises NumericError naming the utterances, then ``where``.
    """
    out = model.forward_batch(pt, batch, bypass=bypass)
    l1, l2 = masked_l1_l2(out["pred"], batch.mels, batch.frame_mask)
    commitment = out["commitment"]
    total = ad.add(ad.add(l1, l2), commitment)
    if not np.isfinite(total.data):
        raise NumericError(f"loss is not finite for utterances {batch.ids}{where}")
    parts = {
        "l1": float(l1.data),
        "l2": float(l2.data),
        "commitment": float(commitment.data),
    }
    return total, parts, out


# ---------------------------------------------------------------------------
# one optimization step


def _codebook_updates(model: CodecModel, out: dict, mask: np.ndarray, state: TrainState):
    """EMA update per level on that level's input residual, with the
    assignments the forward pass made, then optional dead-code reinit."""
    rvq = model.rvq
    residual = out["encoder_output"].data.reshape(-1, rvq.dim).astype(np.float64)
    indices = out["codes"].indices.reshape(-1, rvq.n_levels)
    valid = mask.reshape(-1)
    reinit_now = (
        state.tcfg.dead_code_every > 0 and state.step % state.tcfg.dead_code_every == 0
    )
    reinit = 0
    for l, book in enumerate(rvq.levels):
        idx = indices[:, l]
        q = book.entries[idx]  # the entries the forward pass chose, before they move
        ema_update(book, idx[valid], residual[valid])
        if reinit_now:
            # recycle onto this level's own input residuals; threshold scales
            # with the current mean count so rare codes are caught at any stage
            threshold = state.tcfg.dead_code_threshold * float(book.ema_count.mean())
            reinit += reinit_dead_codes(book, residual[valid], threshold, state.rng)
        residual = residual - q
    return reinit


def train_step(state: TrainState, batch: Batch) -> dict:
    """Forward, backward, Adam, EMA codebook update; returns the step's log
    record. A loss or gradient that is not finite is a NumericError naming
    the step and the batch's utterances, raised before Adam runs."""
    model = state.model
    tcfg = state.tcfg
    state.step += 1
    state.opt.grad.fill(0.0)
    where = f" at step {state.step}"
    with np.errstate(**NONFINITE_REPORTED):
        if model.rvq is not None and not model.rvq.levels[0].initialized:
            _, _, z0 = model.encode_batch(model.param_tensors(train=False), batch)
            seed_codebooks(model.rvq, z0.data[batch.phoneme_mask], state.rng)
        total, parts, out = compute_loss(model, state.opt.leaves, batch, where=where)
        ad.backward(total)
        grad = state.opt.finite_grad(f" for utterances {batch.ids}{where}")
        grad_norm = ad.clip_global_norm(grad, tcfg.grad_clip)
        lr = tcfg.learning_rate
        if tcfg.warmup_steps > 0:
            lr *= min(1.0, state.step / tcfg.warmup_steps)
        if tcfg.learning_rate > 0:
            ad.adam_step(state.opt, lr)
        reinit = 0
        if model.rvq is not None:
            reinit = _codebook_updates(model, out, batch.phoneme_mask, state)
    record = {
        "step": state.step,
        "total": float(total.data),
        "l1": parts["l1"],
        "l2": parts["l2"],
        "commit": parts["commitment"],
        "reinit": reinit,
        "grad_norm": grad_norm,
        "lr": lr,
    }
    if out["codes"] is not None:
        k = model.cfg.codebook_size
        for l in range(model.rvq.n_levels):
            counts = np.bincount(out["codes"].indices[..., l][batch.phoneme_mask], minlength=k)
            record[f"usage_l{l + 1}"] = float(np.count_nonzero(counts)) / k
            # exp of the entropy of the batch's code histogram
            record[f"perplexity_l{l + 1}"] = float(np.exp(entropy_nats(counts / counts.sum())))
    return record


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model: CodecModel, eval_set: list[Utterance]) -> dict:
    """Mean L1 and PSNR of reconstruction over an utterance set, in padded batches."""
    if not eval_set:
        raise ContractError("evaluate: empty eval set")
    scores = []
    for chunk, batch in inference_batches(eval_set):
        _, recons, _ = model.reconstruct_batch(batch)
        scores += reconstruction_scores(chunk, recons)
    return score_report(scores)


# ---------------------------------------------------------------------------
# checkpoints (full training state)


def save_checkpoint(state: TrainState, path: str) -> None:
    arrays = model_arrays(state.model)
    for name, arr in state.opt.m.items():
        arrays[f"opt.m.{name}"] = arr
    for name, arr in state.opt.v.items():
        arrays[f"opt.v.{name}"] = arr
    meta = model_meta(state.model)
    meta["train"] = {
        "config": section_json(state.tcfg),
        "step": state.step,
        "loss_at_100": state.loss_at_100,
        "adam_t": state.opt.t,
        "rng_state": state.rng.bit_generator.state,
    }
    write_container(path, meta=meta, arrays=arrays)


_TRAIN_META = {"config": dict, "step": int, "loss_at_100": (*NUMBER, type(None)),
               "adam_t": int, "rng_state": dict}


def load_checkpoint(path: str) -> TrainState:
    meta, arrays = read_container(path)
    model = _model_from_parts(meta, {k: v for k, v in arrays.items() if not k.startswith("opt.")})
    _require_keys("meta", meta, {"train": dict})
    train_meta = meta["train"]
    _require_keys("train meta", train_meta, _TRAIN_META)
    tcfg = _section_from_meta(TrainConfig, train_meta["config"], "train.config", "train")
    for key in ("step", "adam_t"):  # a negative adam_t makes Adam's bias correction NaN
        if train_meta[key] < 0:
            raise DataError(f"checkpoint train meta: {key}: must be >= 0, got {train_meta[key]}")
    opt = AdamState(model.params)
    opt.t = train_meta["adam_t"]
    moments = {"opt.m.": opt.m, "opt.v.": opt.v}  # prefixes of one length
    for key, arr in arrays.items():
        prefix, name = key[:6], key[6:]
        if prefix not in moments:
            continue
        moment = moments[prefix].get(name)
        if moment is None or moment.shape != arr.shape:
            raise DataError(f"checkpoint array {key} of shape {arr.shape} matches no parameter")
        moment[...] = arr
    missing = [prefix + name for prefix, moment in moments.items() for name in moment
               if prefix + name not in arrays]
    if missing:
        raise DataError(f"checkpoint lacks Adam moments {', '.join(missing)}")
    rng = np.random.default_rng(tcfg.seed)
    try:
        rng.bit_generator.state = train_meta["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise DataError(f"checkpoint train meta: rng_state: {exc!r}") from None
    return TrainState(
        model=model,
        opt=opt,
        tcfg=tcfg,
        step=train_meta["step"],
        loss_at_100=train_meta["loss_at_100"],
        rng=rng,
    )


# ---------------------------------------------------------------------------
# the loop

# glibc's mallopt parameters, and the values train sets: blocks up to 32 MB
# (the most glibc takes on 64-bit) come from the heap, not from mmap, and up
# to 256 MB of free heap top stays mapped instead of going back to the OS
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20


def keep_freed_memory_mapped() -> bool:
    """Make glibc's malloc keep freed memory mapped in this process. Each
    train step builds and frees a graph of large temporaries; with glibc's
    defaults that memory goes back to the OS after every step and the next
    step faults it in afresh. Changes no arithmetic. Returns whether both thresholds
    were set; without glibc (musl, macOS, Windows) it does nothing, and it
    never raises. Calling it again is harmless."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


# the thread-count functions of numpy's bundled OpenBLAS: the scipy-openblas
# build of numpy's wheels, then OpenBLAS's own names
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def one_blas_thread() -> int | None:
    """Run numpy's OpenBLAS on one thread in this process, so that float
    results do not depend on how BLAS splits a product, and no idle BLAS
    worker spins on the core a ``dsp`` part runs on. Call it before the
    process's first multithreaded BLAS call: a worker that is already
    spinning keeps spinning. Returns the thread count OpenBLAS reads back.
    Where it finds no OpenBLAS it can set (another BLAS, a numpy without
    bundled libraries), it does nothing, returns None and never raises."""
    base = os.path.dirname(np.__file__)
    # numpy's wheels bundle their libraries in numpy.libs beside the package
    # (Linux, Windows) or in numpy/.dylibs (macOS)
    paths = sorted(glob.glob(os.path.join(base + ".libs", "*openblas*"))
                   + glob.glob(os.path.join(base, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_FUNCTIONS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(1)
            return int(getter())
    return None


def set_up_process() -> int | None:
    """What every command and every training run needs of the process, done
    first: BLAS on one thread (:func:`one_blas_thread`; returns the thread
    count it reads back) and freed memory kept mapped
    (:func:`keep_freed_memory_mapped`)."""
    keep_freed_memory_mapped()
    return one_blas_thread()


def _usage() -> dict:
    """Wall clock, and where available this process's system time and minor
    page faults so far."""
    now = {"wall_ms": perf_counter() * 1e3}
    if resource is not None:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        now.update(sys_ms=ru.ru_stime * 1e3, minflt=ru.ru_minflt)
    return now


def split_corpus(corpus: Corpus, eval_fraction: float) -> tuple[list[Utterance], list[Utterance]]:
    """Training and eval utterances: the eval set is the trailing slice the
    analyses read; an eval_fraction of 0 evaluates on the training set."""
    utts = corpus.utterances
    if eval_fraction <= 0:
        return list(utts), list(utts)
    eval_utts = extraction_slice(utts, eval_fraction)
    return list(utts[: len(utts) - len(eval_utts)]), eval_utts


def train(
    state: TrainState,
    corpus: Corpus,
    checkpoint_dir: str | None = None,
    log_path: str | None = None,
    timing_path: str | None = None,
) -> TrainState:
    """Run the loop until max_steps or the early-stop target. A step whose
    loss or gradient is not finite ends it with that NumericError (see
    :func:`train_step`): the log holds the steps before, and no checkpoint
    is written at or after that step.

    ``log_path`` gets the step and eval records, which a fixed seed
    reproduces byte for byte. ``timing_path``, if given, gets one record per
    step of what ``train_step`` cost: ``wall_ms``, and where the platform
    reports them ``sys_ms`` and ``minflt`` (minor page faults). The process
    is set up first (see :func:`set_up_process`)."""
    set_up_process()
    tcfg = state.tcfg
    train_utts, eval_utts = split_corpus(corpus, tcfg.eval_fraction)
    if not train_utts:
        raise ContractError("train: empty training set")
    if state.step == 0:
        initialize_output_bias(state.model, train_utts)
    with contextlib.ExitStack() as files:
        log_fh = files.enter_context(open(log_path, "a", encoding="utf-8")) if log_path else None
        timing_fh = files.enter_context(open(timing_path, "a", encoding="utf-8")) if timing_path else None
        while state.step < tcfg.max_steps:
            picks = state.rng.integers(0, len(train_utts), size=tcfg.batch_size)
            batch = make_batch([train_utts[i] for i in picks])
            before = _usage() if timing_fh else None
            record = train_step(state, batch)
            if timing_fh:
                cost = {k: round(v - before[k], 3) for k, v in _usage().items()}
                timing_fh.write(json.dumps({"step": state.step, **cost}, sort_keys=True) + "\n")
            if log_fh:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            if state.step == 100:
                state.loss_at_100 = record["total"]
            if state.step % tcfg.eval_every == 0:
                report = evaluate(state.model, eval_utts)
                if log_fh:
                    log_fh.write(
                        json.dumps({"step": state.step, "eval": report}, sort_keys=True) + "\n"
                    )
            if checkpoint_dir and state.step % tcfg.checkpoint_every == 0:
                save_checkpoint(state, os.path.join(checkpoint_dir, "latest.ckpt"))
            if (
                tcfg.target_loss_ratio > 0
                and state.loss_at_100 is not None
                and record["total"] < tcfg.target_loss_ratio * state.loss_at_100
            ):
                break
    if checkpoint_dir:
        save_checkpoint(state, os.path.join(checkpoint_dir, "latest.ckpt"))
    return state
