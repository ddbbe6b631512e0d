"""The conditioned mel autoencoder: phoneme encoder, duration-driven Gaussian
down/upsampling, linguistics-conditioned mel encoder, RVQ bottleneck, and a
speaker-conditioned decoder. A model without a quantizer is the continuous
variant for the discrete-vs-continuous ablation.

Layout conventions: batched activations are (B, L, D); masks are boolean
(B, L). Inside a conformer stack the activations are the mask's valid rows,
packed (n, D). Resampling weights are (B, T frames, N phonemes), rows
summing to one in the upsampling direction.

``encode_batch`` and ``decode_batch`` are the model's two halves. Training
composes them around the quantizer in ``forward_batch``; every inference
operation, batched or single-utterance, is a thin wrapper over the same two.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import FeatureConfig, ModelConfig, parse_section, section_json
from .containers import read_container, write_container
from .corpus import Batch, Utterance
from .dsp import MelSpectrogram
from .errors import ConfigError, ContractError, DataError, NumericError
from .quantizer import RVQ, CodeSequence, decode_vectors, new_rvq, rvq_forward, rvq_quantize

# ---------------------------------------------------------------------------
# parameters


_STACKS = ("penc", "menc", "dec")

# np.errstate around a forward whose non-finite output _mels reports
_NONFINITE_REPORTED = dict(over="ignore", invalid="ignore", divide="ignore")


def _param_specs(model: CodecModel):
    """(name, shape, initial scale) of every parameter in draw order, sized
    by the model's config, feature bands, vocabulary and speakers."""
    cfg, M = model.cfg, model.features.n_mels
    D, Fm = cfg.model_dim, cfg.ffn_mult * cfg.model_dim
    specs: list[tuple[str, tuple, float]] = [
        ("phoneme_embedding", (len(model.vocab), D), D**-0.5),
        ("speaker_embedding", (len(model.speakers), D), D**-0.5),
        ("mel_lift.w", (M, D), M**-0.5),
        ("mel_lift.b", (D,), 0.0),
        ("enc_proj.w", (D, cfg.code_dim), D**-0.5),
        ("enc_proj.b", (cfg.code_dim,), 0.0),
        ("dec_proj.w", (cfg.code_dim, D), cfg.code_dim**-0.5),
        ("dec_proj.b", (D,), 0.0),
        ("mel_out.w", (D, M), D**-0.5),
        ("mel_out.b", (M,), 0.0),
    ]
    for stack in _STACKS:
        for i in range(cfg.layers):
            p = f"{stack}.l{i}."
            for ffn in ("ffn1", "ffn2"):
                specs += [
                    (p + ffn + ".norm.gain", (D,), 1.0),
                    (p + ffn + ".norm.bias", (D,), 0.0),
                    (p + ffn + ".w1", (D, Fm), D**-0.5),
                    (p + ffn + ".b1", (Fm,), 0.0),
                    (p + ffn + ".w2", (Fm, D), Fm**-0.5),
                    (p + ffn + ".b2", (D,), 0.0),
                ]
            specs += [
                (p + "attn.wq", (D, D), D**-0.5),
                (p + "attn.bq", (D,), 0.0),
                (p + "attn.wk", (D, D), D**-0.5),
                (p + "attn.bk", (D,), 0.0),
                (p + "attn.wv", (D, D), D**-0.5),
                (p + "attn.bv", (D,), 0.0),
                (p + "attn.wo", (D, D), D**-0.5),
                (p + "attn.bo", (D,), 0.0),
                (p + "conv.norm.gain", (D,), 1.0),
                (p + "conv.norm.bias", (D,), 0.0),
                (p + "conv.in_a.w", (D, D), D**-0.5),
                (p + "conv.in_a.b", (D,), 0.0),
                (p + "conv.in_g.w", (D, D), D**-0.5),
                (p + "conv.in_g.b", (D,), 0.0),
                (p + "conv.dw", (cfg.conv_kernel, D), cfg.conv_kernel**-0.5),
                (p + "conv.out.w", (D, D), D**-0.5),
                (p + "conv.out.b", (D,), 0.0),
                (p + "final.norm.gain", (D,), 1.0),
                (p + "final.norm.bias", (D,), 0.0),
            ]
    return specs


def init_params(model: CodecModel, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for name, shape, scale in _param_specs(model):
        if name.endswith(".norm.gain"):
            arr = np.ones(shape)
        elif scale == 0.0:
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, scale, size=shape)
        params[name] = arr.astype(model.dtype)
    return params


def _check_params(model: CodecModel, params: dict[str, np.ndarray]) -> None:
    """Given parameters (from a checkpoint) must have exactly the names and
    shapes the model implies. The layer count is compared first: the table
    of expected names grows with it, so a corrupt count must not size it."""
    cfg = model.cfg
    stacked = tuple(f"{stack}." for stack in _STACKS)
    layers = len({name.split(".")[1] for name in params if name.startswith(stacked)})
    if layers != cfg.layers:
        raise DataError(
            f"parameters hold {layers} conformer layers per stack, the config needs {cfg.layers}"
        )
    shapes = {name: shape for name, shape, _ in _param_specs(model)}
    missing, unknown = sorted(shapes.keys() - params.keys()), sorted(params.keys() - shapes.keys())
    if missing or unknown:
        raise DataError(f"parameters disagree with the config: missing {missing}, unknown {unknown}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise DataError(f"parameter {name} has shape {params[name].shape}, the config needs {shape}")


# ---------------------------------------------------------------------------
# conformer blocks: each module is one node whose backward runs the kernels
# of its steps in reverse order, with the arithmetic and the order of
# gradient additions that the same steps as separate nodes would have


def _params(pt: dict, prefix: str, names: str) -> list[Tensor]:
    return [pt[prefix + name] for name in names.split()]


def ffn_module(pt: dict, prefix: str, x: Tensor) -> Tensor:
    """Feed-forward module on rows ``x`` (n, D): norm → linear → swish →
    linear → ×0.5, as one node."""
    params = _params(pt, prefix, ".norm.gain .norm.bias .w1 .b1 .w2 .b2")
    gain, bias, w1, b1, w2, b2 = (p.data for p in params)
    h, norm = ad.layer_norm_fwd(x.data, gain, bias)
    u = ad.linear_fwd(h, w1, b1)
    a, s = ad.swish_fwd(u)
    half = np.asarray(0.5, dtype=x.data.dtype)
    y = ad.linear_fwd(a, w2, b2)
    y *= half

    def bwd():
        ga, gw2, gb2 = ad.linear_bwd(out.grad * half, a, w2)
        gh, gw1, gb1 = ad.linear_bwd(ad.swish_bwd(ga, u, s, a), h, w1)
        gx, ggain, gbias = ad.layer_norm_bwd(gh, gain, norm)
        for t, g in zip([x, *params], (gx, ggain, gbias, gw1, gb1, gw2, gb2)):
            ad.accumulate(t, g)

    out = ad.node(y, [x, *params], bwd)
    return out


def attention_module(pt: dict, prefix: str, x: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """Self-attention module on the packed rows ``x`` (n, D) of the (B, L)
    ``mask``: q/k/v projections → attention within each sequence → output
    projection, as one node. Its backward adds the input gradients of the
    q, k and v projections to ``x``'s gradient one at a time, in that order."""
    params = _params(pt, prefix, ".wq .bq .wk .bk .wv .bv .wo .bo")
    projections = [params[i : i + 2] for i in (0, 2, 4)]
    wo, bo = params[6].data, params[7].data
    o, kept = ad.attention_fwd(*(ad.linear_fwd(x.data, w.data, b.data) for w, b in projections),
                               mask, heads)

    def bwd():
        go, gwo, gbo = ad.linear_bwd(out.grad, o, wo)
        for (w, b), g in zip(projections, ad.attention_bwd(go, kept)):
            for t, gt in zip((x, w, b), ad.linear_bwd(g, x.data, w.data)):
                ad.accumulate(t, gt)
        ad.accumulate(params[6], gwo)
        ad.accumulate(params[7], gbo)

    out = ad.node(ad.linear_fwd(o, wo, bo), [x, *params], bwd)
    return out


def conv_module(pt: dict, prefix: str, x: Tensor, mask: np.ndarray) -> Tensor:
    """Convolution module on the packed rows ``x`` (n, D) of the (B, L)
    ``mask``: norm → two linears → GLU → depthwise conv along each sequence
    → swish → linear, as one node."""
    params = _params(pt, prefix, ".norm.gain .norm.bias .in_a.w .in_a.b .in_g.w .in_g.b .dw .out.w .out.b")
    gain, bias, wa, ba, wg, bg, dw, wo, bo = (p.data for p in params)
    h, norm = ad.layer_norm_fwd(x.data, gain, bias)
    a = ad.linear_fwd(h, wa, ba)
    gated, sg = ad.glu_fwd(a, ad.linear_fwd(h, wg, bg))
    c, xpad = ad.dwconv_fwd(gated, dw, mask)
    sw, s = ad.swish_fwd(c)

    def bwd():
        gsw, gwo, gbo = ad.linear_bwd(out.grad, sw, wo)
        ggated, gdw = ad.dwconv_bwd(ad.swish_bwd(gsw, c, s, sw), dw, xpad, mask)
        ga, ggate = ad.glu_bwd(ggated, a, sg)
        gha, gwa, gba = ad.linear_bwd(ga, h, wa)
        ghg, gwg, gbg = ad.linear_bwd(ggate, h, wg)
        gx, ggain, gbias = ad.layer_norm_bwd(gha + ghg, gain, norm)
        for t, g in zip([x, *params], (gx, ggain, gbias, gwa, gba, gwg, gbg, gdw, gwo, gbo)):
            ad.accumulate(t, g)

    out = ad.node(ad.linear_fwd(sw, wo, bo), [x, *params], bwd)
    return out


def conformer_block(pt: dict, prefix: str, x: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """One conformer block on packed rows ``x`` (n, D): the valid rows of
    the (B, L) ``mask``, as ``ad.gather_rows`` takes them. Nine nodes: four
    modules, their residual adds and the final norm."""
    x = ad.add(x, ffn_module(pt, prefix + "ffn1", x))
    x = ad.add(x, attention_module(pt, prefix + "attn", x, mask, heads))
    x = ad.add(x, conv_module(pt, prefix + "conv", x, mask))
    x = ad.add(x, ffn_module(pt, prefix + "ffn2", x))
    return ad.layer_norm(x, pt[prefix + "final.norm.gain"], pt[prefix + "final.norm.bias"])


def conformer_stack(
    pt: dict, stack: str, x: Tensor, mask: np.ndarray, layers: int, heads: int
) -> Tensor:
    """``layers`` conformer blocks over ``x`` (B, L, D). The rows where the
    (B, L) ``mask`` is True are gathered once, every block runs on them
    packed, and they are scattered back once: padded rows never enter a
    block, and come out zero."""
    rows = ad.gather_rows(x, mask)
    for i in range(layers):
        rows = conformer_block(pt, f"{stack}.l{i}.", rows, mask, heads)
    return ad.scatter_rows(rows, mask)


# ---------------------------------------------------------------------------
# batched resampling weights


def batch_resample_weights(batch: Batch, dtype) -> np.ndarray:
    """Soft frame-phoneme alignment from durations alone, (B, T, N).

    W[t, i] = exp(-(t + 0.5 - c_i)^2 / (2 sigma_i^2)), normalized over i, with
    centers c_i at the middle of each phoneme's span and sigma_i =
    max(d_i, 1) / 3; zero at padded cells. A constant: no gradient reaches it.
    """
    T = batch.frame_mask.shape[1]
    d = batch.durations.astype(np.float64)
    centers = np.cumsum(d, axis=1) - d / 2.0
    t = np.arange(T)[None, :, None] + 0.5
    dist2 = (t - centers[:, None, :]) ** 2  # (B, T, N)
    ph_mask = batch.phoneme_mask[:, None, :].astype(np.float64)
    fr_mask = batch.frame_mask[:, :, None].astype(np.float64)
    spreads = np.maximum(d, 1.0) / 3.0
    w = np.exp(-dist2 / (2.0 * spreads[:, None, :] ** 2))
    w = w * ph_mask
    w = w / np.maximum(w.sum(axis=2, keepdims=True), 1e-300)
    w = w * fr_mask
    return w.astype(dtype)


def _downsample(frames: np.ndarray, w: np.ndarray, phoneme_mask: np.ndarray) -> np.ndarray:
    """Frame-level -> phoneme-level via the transposed, column-renormalized
    weights: out_i = sum_t W[t,i] x_t / sum_t W[t,i]. A padded phoneme's
    column is all zero and is divided by one instead. Mels and weights are
    both constants, so this runs outside the graph."""
    if frames.shape[:2] != w.shape[:2]:
        raise ContractError(f"downsample: frames {frames.shape} against weights {w.shape}")
    pad = (~phoneme_mask[:, None, :]).astype(w.dtype)
    col = w / (w.sum(axis=1, keepdims=True) + pad)
    return col.transpose(0, 2, 1) @ frames


def _upsample_t(phon: Tensor, w: np.ndarray) -> Tensor:
    """Phoneme-level -> frame-level: out_t = sum_i W[t,i] h_i (rows sum to 1)."""
    return ad.matmul(w, phon)


def _unpad(values: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """Per-utterance slices of a padded (B, L, ...) array, by its (B, L) mask."""
    return [values[b, :n] for b, n in enumerate(mask.sum(axis=1))]


# ---------------------------------------------------------------------------
# the codec


class CodecModel:
    def __init__(
        self,
        cfg: ModelConfig,
        features: FeatureConfig,
        vocab,
        speakers: list[str],
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
        rvq: RVQ | None = None,
        beta: float = 0.25,
        ema_decay: float = 0.99,
        ema_epsilon: float = 1e-5,
        quantized: bool = True,
    ):
        """``quantized=False`` builds the continuous twin, with no quantizer."""
        cfg.validate("model")
        for name, declared, actual in (
            ("vocab_size", cfg.vocab_size, len(vocab)),
            ("n_speakers", cfg.n_speakers, len(speakers)),
        ):
            if declared and declared != actual:  # 0 = take it from the corpus
                raise ContractError(f"model.{name} is {declared}, but the model has {actual}")
        self.cfg = cfg
        self.features = features
        self.vocab = vocab
        self.speakers = list(speakers)
        if params is not None:
            _check_params(self, params)
        self.dtype = np.float32 if params is None else next(iter(params.values())).dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        if params is None:
            params = init_params(self, rng)
        _, self.params = ad.flat_views(params, self.dtype)
        self._constants: dict[str, Tensor] = {}
        self.rvq = None
        if quantized:
            self.rvq = rvq if rvq is not None else new_rvq(
                cfg.levels, cfg.codebook_size, cfg.code_dim,
                beta=beta, decay=ema_decay, epsilon=ema_epsilon, rng=rng,
            )

    # -- parameter plumbing

    def param_tensors(self, train: bool = True) -> dict[str, Tensor]:
        """One Tensor per parameter: fresh trainable leaves, or for inference
        constants built once and kept while the entry of ``params`` is still
        the same array (an in-place update shows through; a swapped entry
        or ``astype`` gets a new one)."""
        if train:
            return {k: Tensor(v, requires_grad=True) for k, v in self.params.items()}
        held = self._constants
        self._constants = {k: t if (t := held.get(k)) is not None and t.data is v else Tensor(v)
                           for k, v in self.params.items()}
        return dict(self._constants)

    def astype(self, dtype) -> "CodecModel":
        """The parameters laid out afresh in ``dtype``; an ``AdamState`` made
        before still holds the old ones."""
        _, self.params = ad.flat_views(self.params, dtype)
        self.dtype = np.dtype(dtype)
        return self

    def _require_rvq(self, op: str) -> None:
        if self.rvq is None:
            raise ContractError(f"{op}: model has no quantizer (continuous variant)")

    # -- the two halves

    def encode_batch(self, pt: dict, batch: Batch) -> tuple[Tensor, np.ndarray, Tensor | None]:
        """Phoneme encoder and resampling weights, then, when the batch
        carries mels, downsampling, mel encoder and projection. Returns the
        linguistic features (B, N, D), the upsampling weights (B, T, N) and
        the latent before quantization (B, N, d), None for a batch without
        mels. The speaker never enters."""
        if batch.mels is not None and batch.mels.shape[-1] != self.features.n_mels:
            raise ContractError(
                f"batch mels have {batch.mels.shape[-1]} bands, "
                f"but features.n_mels is {self.features.n_mels}"
            )
        mask = batch.phoneme_mask
        emb = ad.embedding_lookup(pt["phoneme_embedding"], batch.phonemes)
        ling = conformer_stack(pt, "penc", emb, mask, self.cfg.layers, self.cfg.heads)
        w = batch_resample_weights(batch, self.dtype)
        if batch.mels is None:
            return ling, w, None
        ph_mel = _downsample(batch.mels.astype(self.dtype), w, mask)
        h = ad.add(ad.linear(ph_mel, pt["mel_lift.w"], pt["mel_lift.b"]), ling)
        h = conformer_stack(pt, "menc", h, mask, self.cfg.layers, self.cfg.heads)
        return ling, w, ad.linear(h, pt["enc_proj.w"], pt["enc_proj.b"])

    def decode_batch(self, pt: dict, batch: Batch, latent: Tensor, ling: Tensor, w: np.ndarray) -> Tensor:
        """Latent (B, N, d), linguistic features and speaker -> mels (B, T, M)."""
        spk_ids = np.asarray(batch.speaker_ids)
        if np.any((spk_ids < 0) | (spk_ids >= len(self.speakers))):
            raise ContractError(f"speaker ids {spk_ids.tolist()} out of range [0, {len(self.speakers)})")
        spk = ad.embedding_lookup(pt["speaker_embedding"], spk_ids)
        spk = ad.reshape(spk, (latent.data.shape[0], 1, self.cfg.model_dim))
        h = ad.linear(latent, pt["dec_proj.w"], pt["dec_proj.b"])
        h = ad.add(ad.add(h, ling), spk)
        h = ad.mul(h, batch.phoneme_mask[..., None].astype(self.dtype))
        frames = _upsample_t(h, w)
        frames = conformer_stack(pt, "dec", frames, batch.frame_mask, self.cfg.layers, self.cfg.heads)
        return ad.linear(frames, pt["mel_out.w"], pt["mel_out.b"])

    def forward_batch(self, pt: dict, batch: Batch, bypass: bool = False) -> dict:
        """Training-path forward: encode, quantize (skipped by ``bypass`` or
        in the continuous variant), decode. Returns prediction, commitment,
        codes and encoder output."""
        ling, w, z = self.encode_batch(pt, batch)
        if self.rvq is not None and not bypass:
            codes, latent, commitment = rvq_forward(self.rvq, z, mask=batch.phoneme_mask)
        else:
            codes, latent, commitment = None, z, Tensor(np.zeros((), dtype=self.dtype))
        return {
            "pred": self.decode_batch(pt, batch, latent, ling, w),
            "commitment": commitment,
            "codes": codes,
            "encoder_output": z,
        }

    # -- inference over padded batches, one result per utterance

    def codes_batch(self, batch: Batch) -> list[CodeSequence]:
        """Per-utterance code sequences; no decoder runs."""
        self._require_rvq("encode")
        _, _, z = self.encode_batch(self.param_tensors(train=False), batch)
        codes, _ = rvq_quantize(self.rvq, z.data)
        return self._sequences(codes, batch)

    def reconstruct_batch(self, batch: Batch) -> list[MelSpectrogram]:
        """Encode, quantize when the model has a quantizer, decode; each
        conformer stack runs once."""
        pt = self.param_tensors(train=False)
        with np.errstate(**_NONFINITE_REPORTED):
            ling, w, latent = self.encode_batch(pt, batch)
            if self.rvq is not None:
                latent = self._latent(rvq_quantize(self.rvq, latent.data)[1])
            return self._mels(self.decode_batch(pt, batch, latent, ling, w), batch)

    def codes_and_reconstructions(
        self, batch: Batch, level1: bool
    ) -> tuple[list[CodeSequence], list[MelSpectrogram], list[MelSpectrogram] | None]:
        """What ``codes_batch`` and ``reconstruct_batch`` return, from one
        encode and quantization; with ``level1``, also the level-1-only
        reconstructions, decoded from the same codes (else None)."""
        self._require_rvq("reconstruct")
        pt = self.param_tensors(train=False)
        with np.errstate(**_NONFINITE_REPORTED):
            ling, w, z = self.encode_batch(pt, batch)
            codes, vectors = rvq_quantize(self.rvq, z.data)
            full = self._mels(self.decode_batch(pt, batch, self._latent(vectors), ling, w), batch)
            partial = None
            if level1:
                latent = self._latent(decode_vectors(self.rvq, codes.indices, level1_only=True))
                partial = self._mels(self.decode_batch(pt, batch, latent, ling, w), batch)
        return self._sequences(codes, batch), full, partial

    def _sequences(self, codes: CodeSequence, batch: Batch) -> list[CodeSequence]:
        return [CodeSequence(indices=i) for i in _unpad(codes.indices, batch.phoneme_mask)]

    def _latent(self, vectors: np.ndarray) -> Tensor:
        return Tensor(np.asarray(vectors).astype(self.dtype))

    def _mels(self, pred: Tensor, batch: Batch) -> list[MelSpectrogram]:
        """The decoder's output as one mel per utterance. A non-finite value
        there comes from the model, not the data: a NumericError naming the
        batch's utterances."""
        values = _unpad(pred.data, batch.frame_mask)
        if not all(np.isfinite(v).all() for v in values):
            raise NumericError(f"model output is not finite for utterances {batch.ids}")
        return [
            MelSpectrogram(
                values=v.astype(np.float64),
                hop_length=self.features.hop_length,
                n_fft=self.features.n_fft,
                sample_rate=self.features.sample_rate,
            )
            for v in values
        ]

    # -- single-utterance operations: one-utterance batches through the above

    def _single_batch(self, phonemes, durations, speaker_id, mel_values=None,
                      utt_id: str = "_single") -> Batch:
        """A one-utterance batch; without mel values it carries only what
        the decoder is conditioned on."""
        phonemes = np.asarray(phonemes, dtype=np.int64)
        durations = np.asarray(durations, dtype=np.int64)
        T = int(durations.sum())
        return Batch(
            phonemes=phonemes[None, :],
            durations=durations[None, :],
            mels=None if mel_values is None else mel_values[None, ...],
            speaker_ids=np.array([speaker_id], dtype=np.int64),
            phoneme_mask=np.ones((1, len(phonemes)), dtype=bool),
            frame_mask=np.ones((1, T), dtype=bool),
            ids=[utt_id],
        )

    def encode_utterance(self, utt: Utterance) -> CodeSequence:
        """Utterance -> per-phoneme code index tuples (speaker never enters)."""
        return self.codes_batch(
            self._single_batch(utt.phonemes, utt.durations, 0, utt.mel.values, utt.id)
        )[0]

    def decode_codes(self, codes: CodeSequence, phonemes, durations, speaker_id: int) -> MelSpectrogram:
        """Code sequence + conditioning -> mel with sum(durations) frames."""
        self._require_rvq("decode_codes")
        vectors = decode_vectors(self.rvq, codes.indices)
        return self.decode_continuous(vectors, phonemes, durations, speaker_id)

    def decode_continuous(self, z: np.ndarray, phonemes, durations, speaker_id: int) -> MelSpectrogram:
        """Latents (N, d) + conditioning -> mel; runs no mel encoder."""
        z = np.asarray(z)
        if not (z.shape[0] == len(phonemes) == len(durations)):
            raise ContractError(
                f"decode: lengths disagree: {z.shape[0]} latents, "
                f"{len(phonemes)} phonemes, {len(durations)} durations"
            )
        batch = self._single_batch(phonemes, durations, speaker_id)
        pt = self.param_tensors(train=False)
        with np.errstate(**_NONFINITE_REPORTED):
            ling, w, _ = self.encode_batch(pt, batch)
            return self._mels(self.decode_batch(pt, batch, self._latent(z[None]), ling, w), batch)[0]

    def reconstruct(self, utt: Utterance, override_speaker: int | None = None) -> MelSpectrogram:
        """Encode-then-decode, optionally with a different speaker embedding."""
        speaker = utt.speaker_id if override_speaker is None else int(override_speaker)
        batch = self._single_batch(utt.phonemes, utt.durations, speaker, utt.mel.values, utt.id)
        return self.reconstruct_batch(batch)[0]


# ---------------------------------------------------------------------------
# checkpoints (model part)

FORMAT_VERSION = 2


def model_arrays(model: CodecModel) -> dict[str, np.ndarray]:
    arrays = {f"param.{k}": v for k, v in model.params.items()}
    if model.rvq is not None:
        for l, book in enumerate(model.rvq.levels):
            arrays[f"rvq.l{l}.entries"] = book.entries
            arrays[f"rvq.l{l}.ema_count"] = book.ema_count
            arrays[f"rvq.l{l}.ema_sum"] = book.ema_sum
    return arrays


def model_meta(model: CodecModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model_config": section_json(model.cfg),
        "feature_config": section_json(model.features),
        "vocab": model.vocab.to_json(),
        "speakers": model.speakers,
        "dtype": str(np.dtype(model.dtype)),
        "rvq": None
        if model.rvq is None
        else {
            "beta": model.rvq.beta,
            "levels": [
                {"decay": b.decay, "epsilon": b.epsilon, "initialized": b.initialized}
                for b in model.rvq.levels
            ],
        },
    }


def save_model(model: CodecModel, path: str) -> None:
    write_container(path, meta=model_meta(model), arrays=model_arrays(model))


NUMBER = (int, float)


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return bool in kinds if isinstance(value, bool) else isinstance(value, kinds)


def _require_keys(what: str, mapping: dict, spec: dict) -> None:
    """Every key of ``spec`` must be in ``mapping`` with a value of the kind
    it names: a type, a tuple of types (a bool is only a bool), or ``[kind]``
    for a list of that kind. Anything else is a DataError."""
    missing = [k for k in spec if k not in mapping]
    if missing:
        raise DataError(f"checkpoint {what} lacks {', '.join(missing)}")
    for key, kind in spec.items():
        if not _has_type(mapping[key], kind):
            raise DataError(f"checkpoint {what}: {key}: unexpected value {mapping[key]!r:.60}")


def _section_from_meta(cls, data, key: str, prefix: str):
    """A config section stored under checkpoint meta ``key``, read through
    the run-config parser and its checks; a bad value is a DataError."""
    try:
        return parse_section(cls, data, prefix)
    except ConfigError as exc:
        raise DataError(f"checkpoint {key}: {exc}") from None


def _model_from_parts(meta: dict, arrays: dict[str, np.ndarray]) -> CodecModel:
    """Rebuild a model from checkpoint meta and arrays. A missing key or
    array, a config value the run-config parser rejects, or (checked by
    ``CodecModel``) a parameter the config does not imply by name or shape
    is a DataError. A null ``rvq`` section makes the continuous twin."""
    from .corpus import PhonemeVocab
    from .quantizer import Codebook

    if meta.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"checkpoint format version mismatch: expected {FORMAT_VERSION}, "
            f"found {meta.get('format_version')}"
        )
    _require_keys("meta", meta, {"model_config": dict, "feature_config": dict, "vocab": [str],
                                 "speakers": [str], "dtype": str, "rvq": (dict, type(None))})
    features = _section_from_meta(FeatureConfig, meta["feature_config"], "feature_config", "features")
    cfg = _section_from_meta(ModelConfig, meta["model_config"], "model_config", "model")
    vocab = PhonemeVocab.from_json(meta["vocab"])
    if meta["dtype"] not in ("float32", "float64"):
        raise DataError(f"checkpoint dtype: expected float32 or float64, got {meta['dtype']!r}")
    dtype = np.dtype(meta["dtype"])
    params = {k[len("param.") :]: v.astype(dtype) for k, v in arrays.items() if k.startswith("param.")}
    rvq = None
    if meta["rvq"] is None:
        stray = sorted(k for k in arrays if k.startswith("rvq."))
        if stray:
            raise DataError(f"checkpoint rvq: null, but the arrays hold {', '.join(stray)}")
    else:
        _require_keys("rvq meta", meta["rvq"], {"beta": NUMBER, "levels": [dict]})
        if len(meta["rvq"]["levels"]) != cfg.levels:
            raise DataError(f"checkpoint rvq: {len(meta['rvq']['levels'])} levels, the config {cfg.levels}")
        books = []
        for l, info in enumerate(meta["rvq"]["levels"]):
            _require_keys(f"rvq level {l} meta", info,
                          {"decay": NUMBER, "epsilon": NUMBER, "initialized": bool})
            _require_keys("arrays", arrays,
                          {f"rvq.l{l}.{a}": np.ndarray for a in ("entries", "ema_count", "ema_sum")})
            shape = arrays[f"rvq.l{l}.entries"].shape
            if shape != (cfg.codebook_size, cfg.code_dim):
                raise DataError(f"codebook {l} has shape {shape}, the config needs "
                                f"{(cfg.codebook_size, cfg.code_dim)}")
            books.append(
                Codebook(
                    entries=arrays[f"rvq.l{l}.entries"],
                    ema_count=arrays[f"rvq.l{l}.ema_count"],
                    ema_sum=arrays[f"rvq.l{l}.ema_sum"],
                    decay=info["decay"],
                    epsilon=info["epsilon"],
                    initialized=info["initialized"],
                )
            )
        rvq = RVQ(levels=books, beta=meta["rvq"]["beta"])
    return CodecModel(cfg, features, vocab, meta["speakers"], params=params, rvq=rvq,
                      quantized=rvq is not None)


def load_model(path: str) -> CodecModel:
    meta, arrays = read_container(path)
    return _model_from_parts(meta, arrays)
