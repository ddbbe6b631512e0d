"""The package functions the traced run wraps, by the binding the program
calls through, and the per-layer metrics reported from their spans.

A label names the function by its defining module. A function imported into
several modules is wrapped at each of those bindings under one label, so
``quantizer.quantize_level`` counts the calls made from ``rvq_forward`` and
``seed_codebooks`` (quantizer's own binding) and from the trainer's codebook
update (training's binding).
"""

from __future__ import annotations

import os

from tracer import Tracer

# Functions whose spans fall inside the timed loop. Each reports
# calls_per_op and share (self time / loop wall time).
LOOP_FUNCTIONS = [
    "autodiff.backward",
    "autodiff.adam_step",
    "autodiff.clip_global_norm",
    "model.forward_batch",
    "model.reconstruct",
    "model.encode_utterance",
    "model.decode_codes",
    "model.batch_resample_weights",
    "model.conformer_stack.penc",
    "model.conformer_stack.menc",
    "model.conformer_stack.dec",
    "quantizer.rvq_forward",
    "quantizer.quantize_level",
    "quantizer.ema_update",
    "quantizer.reinit_dead_codes",
    "quantizer.seed_codebooks",
    "quantizer.usage_stats",
    "training.train_step",
    "training.compute_loss",
    "training.save_checkpoint",
    "training.evaluate",
    "corpus.make_batch",
    "dsp.invert_mel",
    "dsp.stft",
    "dsp.istft",
    "dsp.mel_filterbank",
    "dsp.estimate_f0",
    "dsp.load_wav",
    "metrics.psnr_mel",
    "metrics.mcd",
    "metrics.f0_errors",
    "analysis.collect_codes",
    "analysis.conditional_pmfs",
    "analysis.entropy_nats",
    "analysis.symmetric_kl_matrix",
    "analysis.embed_2d",
    "analysis.pca_codes",
    "containers.write_container",
    "containers.read_container",
]

# Functions that run while the benchmark sets up; each reports setup_share,
# its self time as a share of set-up time.
SETUP_FUNCTIONS = [
    "corpus.write_synth_corpus",
    "corpus.synth_utterances",
    "corpus.synth_corpus",
    "corpus.parse_manifest",
    "corpus.cached_mel",
    "dsp.mel_spectrogram",
    "dsp.stft",
    "dsp.mel_filterbank",
    "dsp.save_wav",
    "dsp.load_wav",
    "model.forward_batch",
    "model.conformer_stack.dec",
    "quantizer.seed_codebooks",
    "model.save_model",
    "model.load_model",
    "training.initialize_output_bias",
    "containers.write_container",
    "containers.read_container",
]

# Counters and trace properties, reported alongside the span statistics.
COUNTERS = [
    "quantizer.usage_l1",
    "quantizer.usage_l2",
    "quantizer.reinit_codes_per_op",
    "containers.bytes_written_per_op",
    "containers.bytes_read_per_op",
    "trace.coverage",
    "trace.overhead_frac",
]


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric in the result line.

    Times enter it only as shares of the loop or set-up wall time: a layer a
    workload never calls reads 0 there, and a share is not a time. The
    printed table also gives each layer's self ms per op.
    """
    names = []
    for fn in LOOP_FUNCTIONS:
        names += [(f"{fn}.calls_per_op", "count"), (f"{fn}.share", "fraction")]
    names += [(f"{fn}.setup_share", "fraction") for fn in SETUP_FUNCTIONS]
    units = {
        "containers.bytes_written_per_op": "bytes",
        "containers.bytes_read_per_op": "bytes",
        "quantizer.reinit_codes_per_op": "count",
    }
    return names + [(name, units.get(name, "fraction")) for name in COUNTERS]


def _count_bytes(key):
    """Adds the size of the container file a call wrote or read."""

    def on_result(counts, args, kwargs, result):
        counts[key] += os.path.getsize(kwargs.get("path", args[0]))

    return on_result


def _stack_name(args, kwargs):
    return kwargs["stack"] if "stack" in kwargs else args[1]


def build_tracer(pc) -> Tracer:
    """A tracer with every binding registered; ``pc`` maps module names to
    the imported package modules."""
    ad, model, quantizer, training = pc["autodiff"], pc["model"], pc["quantizer"], pc["training"]
    corpus, dsp, metrics, analysis = pc["corpus"], pc["dsp"], pc["metrics"], pc["analysis"]
    t = Tracer()
    for fn in ("backward", "adam_step", "clip_global_norm"):
        t.add(ad, fn, f"autodiff.{fn}")
    for fn in ("forward_batch", "reconstruct", "encode_utterance", "decode_codes"):
        t.add(model.CodecModel, fn, f"model.{fn}")
    for fn in ("batch_resample_weights", "save_model", "load_model"):
        t.add(model, fn, f"model.{fn}")
    t.add(model, "conformer_stack", "model.conformer_stack", key=_stack_name)
    t.add(model, "rvq_forward", "quantizer.rvq_forward")
    for owner in (quantizer, training):
        t.add(owner, "quantize_level", "quantizer.quantize_level")
        t.add(owner, "seed_codebooks", "quantizer.seed_codebooks")
    t.add(training, "ema_update", "quantizer.ema_update")
    t.add(training, "reinit_dead_codes", "quantizer.reinit_dead_codes")
    t.add(quantizer, "usage_stats", "quantizer.usage_stats")
    # training.train_step is the train workload's op span, opened by the meter
    for fn in ("compute_loss", "save_checkpoint", "evaluate", "initialize_output_bias"):
        t.add(training, fn, f"training.{fn}")
    for owner in (corpus, training):
        t.add(owner, "make_batch", "corpus.make_batch")
    for fn in ("write_synth_corpus", "synth_utterances", "synth_corpus", "parse_manifest",
               "cached_mel"):
        t.add(corpus, fn, f"corpus.{fn}")
    for fn in ("invert_mel", "stft", "istft", "mel_filterbank", "estimate_f0", "save_wav"):
        t.add(dsp, fn, f"dsp.{fn}")
    for owner in (dsp, corpus):
        t.add(owner, "load_wav", "dsp.load_wav")
    t.add(corpus, "mel_spectrogram", "dsp.mel_spectrogram")
    for fn in ("psnr_mel", "mcd", "f0_errors"):
        t.add(metrics, fn, f"metrics.{fn}")
    for fn in ("collect_codes", "conditional_pmfs", "entropy_nats", "symmetric_kl_matrix",
               "embed_2d", "pca_codes"):
        t.add(analysis, fn, f"analysis.{fn}")
    for owner in (training, model, corpus):
        t.add(owner, "write_container", "containers.write_container",
              on_result=_count_bytes("containers.bytes_written"))
        t.add(owner, "read_container", "containers.read_container",
              on_result=_count_bytes("containers.bytes_read"))
    return t
