"""The conditioned mel autoencoder: phoneme encoder, duration-driven Gaussian
down/upsampling, linguistics-conditioned mel encoder, RVQ bottleneck, and a
speaker-conditioned decoder. A model without a quantizer is the continuous
variant for the discrete-vs-continuous ablation.

Layout conventions: batched activations are (B, L, D); masks are boolean
(B, L). Resampling weights are (B, T frames, N phonemes), rows summing to
one in the upsampling direction.

``encode_batch`` and ``decode_batch`` are the model's two halves. Training
composes them around the quantizer in ``forward_batch``; every inference
operation, batched or single-utterance, is a thin wrapper over the same two.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import FeatureConfig, ModelConfig
from .containers import read_container, write_container
from .corpus import Batch, Utterance
from .dsp import MelSpectrogram
from .errors import ContractError, DataError
from .quantizer import RVQ, CodeSequence, decode_vectors, new_rvq, rvq_forward

# ---------------------------------------------------------------------------
# parameters


def _param_specs(cfg: ModelConfig, vocab_size: int, n_speakers: int):
    D, Fm = cfg.model_dim, cfg.ffn_mult * cfg.model_dim
    specs: list[tuple[str, tuple, float]] = [
        ("phoneme_embedding", (vocab_size, D), D**-0.5),
        ("speaker_embedding", (n_speakers, D), D**-0.5),
        ("mel_lift.w", (cfg.n_mels, D), cfg.n_mels**-0.5),
        ("mel_lift.b", (D,), 0.0),
        ("enc_proj.w", (D, cfg.code_dim), D**-0.5),
        ("enc_proj.b", (cfg.code_dim,), 0.0),
        ("dec_proj.w", (cfg.code_dim, D), cfg.code_dim**-0.5),
        ("dec_proj.b", (D,), 0.0),
        ("mel_out.w", (D, cfg.n_mels), D**-0.5),
        ("mel_out.b", (cfg.n_mels,), 0.0),
    ]
    if cfg.sigma_policy == "learnable":
        specs.append(("resampler.log_sigma", (1,), 0.0))
    for stack in ("penc", "menc", "dec"):
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
                (p + "attn.norm.gain", (D,), 1.0),
                (p + "attn.norm.bias", (D,), 0.0),
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


def init_params(
    cfg: ModelConfig, vocab_size: int, n_speakers: int, rng: np.random.Generator, dtype=np.float32
) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for name, shape, scale in _param_specs(cfg, vocab_size, n_speakers):
        if name.endswith(".norm.gain"):
            arr = np.ones(shape)
        elif name == "resampler.log_sigma":
            arr = np.full(shape, np.log(cfg.sigma_value))
        elif scale == 0.0:
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, scale, size=shape)
        params[name] = arr.astype(dtype)
    return params


def _check_params(params: dict[str, np.ndarray], specs) -> None:
    """Given parameters (from a checkpoint) must have exactly the names and
    shapes the config implies."""
    shapes = {name: shape for name, shape, _ in specs}
    missing, unknown = sorted(shapes.keys() - params.keys()), sorted(params.keys() - shapes.keys())
    if missing or unknown:
        raise DataError(f"parameters disagree with the config: missing {missing}, unknown {unknown}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise DataError(f"parameter {name} has shape {params[name].shape}, the config needs {shape}")


# ---------------------------------------------------------------------------
# conformer blocks


def _ffn(pt: dict, prefix: str, x: Tensor) -> Tensor:
    h = ad.layer_norm(x, pt[prefix + ".norm.gain"], pt[prefix + ".norm.bias"])
    h = ad.linear(h, pt[prefix + ".w1"], pt[prefix + ".b1"])
    h = ad.swish(h)
    return ad.linear(h, pt[prefix + ".w2"], pt[prefix + ".b2"])


def _attention(pt: dict, prefix: str, x: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    q = ad.linear(x, pt[prefix + ".wq"], pt[prefix + ".bq"])
    k = ad.linear(x, pt[prefix + ".wk"], pt[prefix + ".bk"])
    v = ad.linear(x, pt[prefix + ".wv"], pt[prefix + ".bv"])
    out = ad.attention(q, k, v, mask, heads)  # padded keys get no weight
    return ad.linear(out, pt[prefix + ".wo"], pt[prefix + ".bo"])


def _conv_module(pt: dict, prefix: str, x: Tensor, mask_f: np.ndarray) -> Tensor:
    h = ad.layer_norm(x, pt[prefix + ".norm.gain"], pt[prefix + ".norm.bias"])
    a = ad.linear(h, pt[prefix + ".in_a.w"], pt[prefix + ".in_a.b"])
    g = ad.linear(h, pt[prefix + ".in_g.w"], pt[prefix + ".in_g.b"])
    h = ad.mul(a, ad.sigmoid(g))  # GLU gate
    h = ad.mul(h, mask_f)  # padded positions must not bleed through the kernel
    h = ad.conv1d_depthwise(h, pt[prefix + ".dw"])
    h = ad.swish(h)
    return ad.linear(h, pt[prefix + ".out.w"], pt[prefix + ".out.b"])


def conformer_block(pt: dict, prefix: str, x: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    mask_f = mask[..., None].astype(x.data.dtype)
    x = ad.add(x, ad.mul(_ffn(pt, prefix + "ffn1", x), 0.5))
    x = ad.add(x, _attention(pt, prefix + "attn", x, mask, heads))
    x = ad.add(x, _conv_module(pt, prefix + "conv", x, mask_f))
    x = ad.add(x, ad.mul(_ffn(pt, prefix + "ffn2", x), 0.5))
    x = ad.layer_norm(x, pt[prefix + "final.norm.gain"], pt[prefix + "final.norm.bias"])
    return ad.mul(x, mask_f)


def conformer_stack(
    pt: dict, stack: str, x: Tensor, mask: np.ndarray, layers: int, heads: int
) -> Tensor:
    for i in range(layers):
        x = conformer_block(pt, f"{stack}.l{i}.", x, mask, heads)
    return x


# ---------------------------------------------------------------------------
# batched resampling weights


def batch_resample_weights(pt: dict, batch: Batch, cfg: ModelConfig, dtype):
    """Soft frame-phoneme alignment from durations alone, (B, T, N).

    W[t, i] = exp(-(t + 0.5 - c_i)^2 / (2 sigma_i^2)), normalized over i, with
    centers c_i at the middle of each phoneme's span; zero at padded cells.
    Constant unless sigma_policy is 'learnable', in which case the matrix is
    differentiable w.r.t. the shared log-sigma parameter.
    """
    B, N = batch.durations.shape
    T = batch.frame_mask.shape[1]
    d = batch.durations.astype(np.float64)
    centers = np.cumsum(d, axis=1) - d / 2.0
    t = np.arange(T)[None, :, None] + 0.5
    dist2 = (t - centers[:, None, :]) ** 2  # (B, T, N)
    ph_mask = batch.phoneme_mask[:, None, :].astype(np.float64)
    fr_mask = batch.frame_mask[:, :, None].astype(np.float64)
    if cfg.sigma_policy == "learnable":
        dist2_t = Tensor((-0.5 * dist2).astype(dtype))
        inv_s2 = ad.exp(ad.mul(pt["resampler.log_sigma"], -2.0))
        w = ad.exp(ad.mul(dist2_t, inv_s2))
        w = ad.mul(w, ph_mask.astype(dtype))
        w = ad.div(w, ad.add(ad.tsum(w, axis=2, keepdims=True), 1e-12))
        return ad.mul(w, fr_mask.astype(dtype))
    if cfg.sigma_policy == "ratio":
        spreads = np.maximum(d, 1.0) / 3.0
    else:
        spreads = np.full(d.shape, float(cfg.sigma_value))
    w = np.exp(-dist2 / (2.0 * np.maximum(spreads[:, None, :], 1e-12) ** 2))
    w = w * ph_mask
    w = w / np.maximum(w.sum(axis=2, keepdims=True), 1e-300)
    w = w * fr_mask
    return Tensor(w.astype(dtype))


def _downsample_t(frames: Tensor, w: Tensor, phoneme_mask: np.ndarray) -> Tensor:
    """Frame-level -> phoneme-level via the transposed, column-renormalized
    weights: out_i = sum_t W[t,i] x_t / sum_t W[t,i]. A padded phoneme's
    column is all zero and is divided by one instead."""
    pad = (~phoneme_mask[:, None, :]).astype(w.data.dtype)
    col = ad.div(w, ad.add(ad.tsum(w, axis=1, keepdims=True), pad))
    return ad.matmul(ad.transpose(col, (0, 2, 1)), frames)


def _upsample_t(phon: Tensor, w: Tensor) -> Tensor:
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
    ):
        cfg.validate("model")
        for name, declared, actual in (
            ("vocab_size", cfg.vocab_size, len(vocab)),
            ("n_speakers", cfg.n_speakers, len(speakers)),
        ):
            if declared and declared != actual:  # 0 = take it from the corpus
                raise ContractError(f"model.{name} is {declared}, but the model has {actual}")
        if cfg.n_mels != features.n_mels:
            raise ContractError(f"model.n_mels is {cfg.n_mels}, but features.n_mels is {features.n_mels}")
        if params is not None:
            _check_params(params, _param_specs(cfg, len(vocab), len(speakers)))
        self.cfg = cfg
        self.features = features
        self.vocab = vocab
        self.speakers = list(speakers)
        self.dtype = np.float32 if params is None else next(iter(params.values())).dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        if params is None:
            params = init_params(cfg, len(vocab), len(speakers), rng, dtype=np.float32)
        self.params = params
        if cfg.quantization == "rvq":
            self.rvq = rvq if rvq is not None else new_rvq(
                cfg.levels, cfg.codebook_size, cfg.code_dim,
                beta=beta, decay=ema_decay, epsilon=ema_epsilon, rng=rng,
            )
        else:
            self.rvq = None

    # -- parameter plumbing

    def param_tensors(self, train: bool = True) -> dict[str, Tensor]:
        return {k: Tensor(v, requires_grad=train) for k, v in self.params.items()}

    def astype(self, dtype) -> "CodecModel":
        self.params = {k: v.astype(dtype) for k, v in self.params.items()}
        self.dtype = np.dtype(dtype)
        return self

    def _require_rvq(self, op: str) -> None:
        if self.rvq is None:
            raise ContractError(f"{op}: model has no quantizer (continuous variant)")

    # -- the two halves

    def encode_batch(self, pt: dict, batch: Batch) -> tuple[Tensor, Tensor, Tensor | None]:
        """Phoneme encoder and resampling weights, then, when the batch
        carries mels, downsampling, mel encoder and projection. Returns the
        linguistic features (B, N, D), the upsampling weights (B, T, N) and
        the latent before quantization (B, N, d), None for a batch without
        mels. The speaker never enters."""
        if batch.mels is not None and batch.mels.shape[-1] != self.cfg.n_mels:
            raise ContractError(
                f"batch mels have {batch.mels.shape[-1]} bands, but model.n_mels is {self.cfg.n_mels}"
            )
        mask = batch.phoneme_mask
        emb = ad.embedding_lookup(pt["phoneme_embedding"], batch.phonemes)
        ling = conformer_stack(pt, "penc", emb, mask, self.cfg.layers, self.cfg.heads)
        w = batch_resample_weights(pt, batch, self.cfg, self.dtype)
        if batch.mels is None:
            return ling, w, None
        ph_mel = _downsample_t(Tensor(batch.mels.astype(self.dtype)), w, mask)
        h = ad.add(ad.linear(ph_mel, pt["mel_lift.w"], pt["mel_lift.b"]), ling)
        h = conformer_stack(pt, "menc", h, mask, self.cfg.layers, self.cfg.heads)
        return ling, w, ad.linear(h, pt["enc_proj.w"], pt["enc_proj.b"])

    def decode_batch(self, pt: dict, batch: Batch, latent: Tensor, ling: Tensor, w: Tensor) -> Tensor:
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
        codes, encoder output, and the resampling weights."""
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
            "weights": w,
        }

    # -- inference over padded batches, one result per utterance

    def codes_batch(self, batch: Batch) -> list[CodeSequence]:
        """Per-utterance code sequences; no decoder runs."""
        self._require_rvq("encode")
        _, _, z = self.encode_batch(self.param_tensors(train=False), batch)
        codes, _, _ = rvq_forward(self.rvq, z, mask=batch.phoneme_mask)
        return self._sequences(codes, batch)

    def reconstruct_batch(self, batch: Batch) -> list[MelSpectrogram]:
        """Encode, quantize when the model has a quantizer, decode; each
        conformer stack runs once."""
        pt = self.param_tensors(train=False)
        ling, w, latent = self.encode_batch(pt, batch)
        if self.rvq is not None:
            _, latent, _ = rvq_forward(self.rvq, latent, mask=batch.phoneme_mask)
        return self._mels(self.decode_batch(pt, batch, latent, ling, w), batch)

    def codes_and_reconstructions(
        self, batch: Batch, level1: bool
    ) -> tuple[list[CodeSequence], list[MelSpectrogram], list[MelSpectrogram] | None]:
        """What ``codes_batch`` and ``reconstruct_batch`` return, from one
        encode and quantization; with ``level1``, also the level-1-only
        reconstructions, decoded from the same codes (else None)."""
        self._require_rvq("reconstruct")
        pt = self.param_tensors(train=False)
        ling, w, z = self.encode_batch(pt, batch)
        codes, latent, _ = rvq_forward(self.rvq, z, mask=batch.phoneme_mask)
        full = self._mels(self.decode_batch(pt, batch, latent, ling, w), batch)
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
        return [
            MelSpectrogram(
                values=v.astype(np.float64),
                hop_length=self.features.hop_length,
                n_fft=self.features.n_fft,
                sample_rate=self.features.sample_rate,
            )
            for v in _unpad(pred.data, batch.frame_mask)
        ]

    # -- single-utterance operations: one-utterance batches through the above

    def _single_batch(self, phonemes, durations, speaker_id, mel_values=None) -> Batch:
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
            ids=["_single"],
            hop_length=self.features.hop_length,
            n_fft=self.features.n_fft,
            sample_rate=self.features.sample_rate,
        )

    def encode_utterance(self, utt: Utterance) -> CodeSequence:
        """Utterance -> per-phoneme code index tuples (speaker never enters)."""
        return self.codes_batch(self._single_batch(utt.phonemes, utt.durations, 0, utt.mel.values))[0]

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
        ling, w, _ = self.encode_batch(pt, batch)
        return self._mels(self.decode_batch(pt, batch, self._latent(z[None]), ling, w), batch)[0]

    def reconstruct(self, utt: Utterance, override_speaker: int | None = None) -> MelSpectrogram:
        """Encode-then-decode, optionally with a different speaker embedding."""
        speaker = utt.speaker_id if override_speaker is None else int(override_speaker)
        batch = self._single_batch(utt.phonemes, utt.durations, speaker, utt.mel.values)
        return self.reconstruct_batch(batch)[0]


# ---------------------------------------------------------------------------
# checkpoints (model part)

FORMAT_VERSION = 1


def model_arrays(model: CodecModel) -> dict[str, np.ndarray]:
    arrays = {f"param.{k}": v for k, v in model.params.items()}
    if model.rvq is not None:
        for l, book in enumerate(model.rvq.levels):
            arrays[f"rvq.l{l}.entries"] = book.entries
            arrays[f"rvq.l{l}.ema_count"] = book.ema_count
            arrays[f"rvq.l{l}.ema_sum"] = book.ema_sum
    return arrays


def model_meta(model: CodecModel) -> dict:
    import dataclasses as dc

    return {
        "format_version": FORMAT_VERSION,
        "model_config": dc.asdict(model.cfg),
        "feature_config": dc.asdict(model.features),
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


def _require_keys(what: str, mapping: dict, keys) -> None:
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise DataError(f"checkpoint {what} lacks {', '.join(missing)}")


def _config_from_meta(cls, meta: dict, key: str):
    try:
        return cls(**meta[key])
    except TypeError as exc:  # an unknown key, or not an object
        raise DataError(f"checkpoint {key}: {exc}") from None


def _model_from_parts(meta: dict, arrays: dict[str, np.ndarray]) -> CodecModel:
    """Rebuild a model from checkpoint meta and arrays. A missing key or
    array, an unknown config key, or (checked by ``CodecModel``) a parameter
    the config does not imply by name or shape is a DataError."""
    from .corpus import PhonemeVocab
    from .quantizer import Codebook

    if meta.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"checkpoint format version mismatch: expected {FORMAT_VERSION}, "
            f"found {meta.get('format_version')}"
        )
    _require_keys("meta", meta, ("model_config", "feature_config", "vocab", "speakers", "dtype", "rvq"))
    cfg = _config_from_meta(ModelConfig, meta, "model_config")
    features = _config_from_meta(FeatureConfig, meta, "feature_config")
    vocab = PhonemeVocab.from_json(meta["vocab"])
    dtype = np.dtype(meta["dtype"])
    params = {
        k[len("param.") :]: v.astype(dtype)
        for k, v in arrays.items()
        if k.startswith("param.")
    }
    rvq = None
    if meta["rvq"] is not None:
        _require_keys("rvq meta", meta["rvq"], ("beta", "levels"))
        books = []
        for l, info in enumerate(meta["rvq"]["levels"]):
            _require_keys(f"rvq level {l} meta", info, ("decay", "epsilon", "initialized"))
            _require_keys("arrays", arrays, [f"rvq.l{l}.{a}" for a in ("entries", "ema_count", "ema_sum")])
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
    return CodecModel(
        cfg, features, vocab, meta["speakers"], params=params, rvq=rvq
    )


def load_model(path: str) -> CodecModel:
    meta, arrays = read_container(path)
    return _model_from_parts(meta, arrays)
