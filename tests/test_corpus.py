import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_codec.config import FeatureConfig, SynthSpec
from prosody_codec.corpus import (
    PAD_ID,
    PhonemeVocab,
    Utterance,
    cached_mel,
    make_batch,
    parse_manifest,
    read_mel,
    reconcile_durations,
    synth_corpus,
    synth_utterances,
    synth_vocab,
    write_manifest,
    write_mel,
    write_synth_corpus,
)
from prosody_codec.containers import read_container, write_container
from prosody_codec.dsp import (
    AudioBuffer,
    MelSpectrogram,
    estimate_f0,
    load_wav,
    mel_filterbank,
    save_wav,
)
from prosody_codec.errors import ConfigError, ContractError, DataError

CFG = FeatureConfig()


def tone_wav(path, freq=220.0, frames=12, sr=22050):
    n = (frames - 1) * CFG.hop_length + CFG.n_fft
    x = 0.4 * np.sin(2 * np.pi * freq * np.arange(n) / sr)
    save_wav(str(path), AudioBuffer(x, sr), float32=True)
    return frames


def toy_mel(frames, bands=80):
    return MelSpectrogram(np.zeros((frames, bands)), CFG.hop_length, CFG.n_fft, 22050)


# ---------------------------------------------------------------------------
# duration reconciliation


def test_reconcile_exact_sum_unchanged():
    out = reconcile_durations([5, 5, 5], 15)
    np.testing.assert_array_equal(out, [5, 5, 5])


def test_reconcile_absorbs_into_last():
    out = reconcile_durations([5, 5, 5], 16)
    np.testing.assert_array_equal(out, [5, 5, 6])


def test_reconcile_within_tolerance_downward():
    out = reconcile_durations([5, 5, 1], 13, tolerance=2)
    np.testing.assert_array_equal(out, [5, 5, 3])


def test_reconcile_error_when_last_would_vanish():
    with pytest.raises(DataError):
        reconcile_durations([5, 5, 1], 9, tolerance=2)  # last would become -1


def test_reconcile_beyond_tolerance():
    with pytest.raises(DataError, match="tolerance"):
        reconcile_durations([5, 5, 5], 25, tolerance=2)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_reserves_pad_zero():
    vocab = PhonemeVocab(["a", "b"])
    assert vocab.id_of("a") == 1
    assert vocab.symbol_of(PAD_ID) == "<pad>"
    assert len(vocab) == 3


def test_vocab_roundtrip_identical():
    vocab = PhonemeVocab(["x", "y", "z"])
    again = PhonemeVocab.from_json(vocab.to_json())
    assert vocab == again
    for s in ("x", "y", "z"):
        assert vocab.id_of(s) == again.id_of(s)


def test_vocab_unknown_symbol():
    with pytest.raises(DataError, match="unknown phoneme"):
        PhonemeVocab(["a"]).id_of("q")


# ---------------------------------------------------------------------------
# manifests


def write_corpus(tmp_path, records):
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(str(manifest), records)
    return str(manifest)


def test_parse_manifest_accepts_valid_record(tmp_path):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path,
        [{"audio": "u0.wav", "speaker": "alice", "phones": "a b c", "durations": [4, 4, frames - 8]}],
    )
    corpus = parse_manifest(manifest, CFG)
    assert len(corpus.utterances) == 1
    utt = corpus.utterances[0]
    assert int(utt.durations.sum()) == utt.mel.n_frames


def test_parse_manifest_rejects_duration_mismatch(tmp_path):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path,
        [{"audio": "u0.wav", "speaker": "a", "phones": "a b", "durations": [1, frames - 4]}],
    )
    with pytest.raises(DataError, match=r"record 0.*durations"):
        parse_manifest(manifest, CFG, tolerance=0)


def test_parse_manifest_speaker_first_appearance_order(tmp_path):
    records = []
    for i, spk in enumerate(["s_c", "s_a", "s_d", "s_b"]):
        frames = tone_wav(tmp_path / f"u{i}.wav")
        records.append(
            {"audio": f"u{i}.wav", "speaker": spk, "phones": "a", "durations": [frames]}
        )
    corpus = parse_manifest(write_corpus(tmp_path, records), CFG)
    assert corpus.speakers == ["s_c", "s_a", "s_d", "s_b"]
    assert [u.speaker_id for u in corpus.utterances] == [0, 1, 2, 3]


def test_parse_manifest_rejects_duplicate_utterance_id(tmp_path):
    # two audio files with one stem in different directories: both would be id "utt"
    records = []
    for sub, frames in (("a", 12), ("b", 9)):
        os.makedirs(tmp_path / sub)
        tone_wav(tmp_path / sub / "utt.wav", frames=frames)
        records.append({"audio": f"{sub}/utt.wav", "speaker": "s", "phones": "a", "durations": [frames]})
    manifest = write_corpus(tmp_path, records)
    with pytest.raises(DataError, match="record 1: utterance id 'utt' repeats record 0"):
        parse_manifest(manifest, CFG)


def test_parse_manifest_rejects_sample_rate_mismatch(tmp_path):
    n = 11 * CFG.hop_length + CFG.n_fft
    save_wav(str(tmp_path / "u0.wav"), AudioBuffer(np.zeros(n), 16000), float32=True)
    manifest = write_corpus(
        tmp_path, [{"audio": "u0.wav", "speaker": "a", "phones": "a", "durations": [12]}]
    )
    with pytest.raises(DataError, match="sample rate"):
        parse_manifest(manifest, CFG)


def test_parse_manifest_missing_audio(tmp_path):
    manifest = write_corpus(
        tmp_path, [{"audio": "gone.wav", "speaker": "a", "phones": "a", "durations": [5]}]
    )
    with pytest.raises(DataError, match=r"record 0.*audio"):
        parse_manifest(manifest, CFG)


def test_parse_manifest_unknown_symbol_with_fixed_vocab(tmp_path):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path, [{"audio": "u0.wav", "speaker": "a", "phones": "zz", "durations": [frames]}]
    )
    with pytest.raises(DataError, match=r"record 0.*phones"):
        parse_manifest(manifest, CFG, vocab=PhonemeVocab(["a", "b"]))


def test_parse_manifest_missing_field(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"audio": "u.wav", "speaker": "a", "phones": "a"}) + "\n")
    with pytest.raises(DataError, match=r"record 0.*durations"):
        parse_manifest(str(manifest), CFG)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("phones", 5, "field 'phones': unexpected value 5"),
        ("durations", ["x", 4, 4], r"field 'durations': unexpected value \['x', 4, 4\]"),
        ("durations", [4, 4, 8.5], r"field 'durations': unexpected value \[4, 4, 8.5\]"),
        ("durations", [4, 4, True], r"field 'durations': unexpected value \[4, 4, True\]"),
        ("durations", 12, "field 'durations': unexpected value 12"),
        ("audio", 5, "field 'audio': unexpected value 5"),
        ("speaker", [1], r"field 'speaker': unexpected value \[1\]"),
        ("speaker", True, "field 'speaker': unexpected value True"),
    ],
)
def test_parse_manifest_rejects_wrong_field_type(tmp_path, field, value, message):
    frames = tone_wav(tmp_path / "u0.wav")
    record = {"audio": "u0.wav", "speaker": "a", "phones": "a b c", "durations": [4, 4, frames - 8]}
    manifest = write_corpus(tmp_path, [{**record, field: value}])
    with pytest.raises(DataError, match=f"record 0: {message}"):
        parse_manifest(manifest, CFG)


def test_parse_manifest_accepts_int_speaker(tmp_path):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path, [{"audio": "u0.wav", "speaker": 7, "phones": "a", "durations": [frames]}]
    )
    assert parse_manifest(manifest, CFG).speakers == ["7"]


def test_parse_manifest_rejects_non_object_record(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("[1, 2]\n")
    with pytest.raises(DataError, match="record 0: expected an object"):
        parse_manifest(str(manifest), CFG)


def test_parse_manifest_rejects_directory_as_audio(tmp_path):
    (tmp_path / "sub").mkdir()
    cache = tmp_path / "cache"
    cache.mkdir()
    manifest = write_corpus(
        tmp_path, [{"audio": "sub", "speaker": "a", "phones": "a", "durations": [5]}]
    )
    with pytest.raises(DataError, match="record 0: field 'audio': file not found"):
        parse_manifest(manifest, CFG, cache_dir=str(cache))


def test_parse_manifest_rejects_out_of_range_duration(tmp_path):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path, [{"audio": "u0.wav", "speaker": "a", "phones": "a b", "durations": [2**70, frames]}]
    )
    with pytest.raises(DataError, match="record 0: field 'durations': .*out of range"):
        parse_manifest(manifest, CFG)


@pytest.mark.parametrize("vocab", [None, PhonemeVocab(["a", "b"])], ids=["built", "supplied"])
def test_parse_manifest_rejects_pad_symbol_as_phone(tmp_path, vocab):
    frames = tone_wav(tmp_path / "u0.wav")
    manifest = write_corpus(
        tmp_path,
        [{"audio": "u0.wav", "speaker": "a", "phones": "a <pad> b", "durations": [4, 4, frames - 8]}],
    )
    with pytest.raises(DataError, match="record 0: field 'phones': '<pad>' is reserved for padding"):
        parse_manifest(manifest, CFG, vocab=vocab)


@pytest.mark.parametrize("durations, message", [([4.5], "unexpected value"), ([17], "tolerance")])
def test_manifest_records_are_numbered_by_file_line(tmp_path, durations, message):
    # blank first and third lines: the record on the fourth line is record 3,
    # whether reading it (a bad type) or resolving it (a bad sum) fails
    good = {"audio": "u0.wav", "speaker": "a", "phones": "a", "durations": [tone_wav(tmp_path / "u0.wav")]}
    tone_wav(tmp_path / "u1.wav")
    bad = {"audio": "u1.wav", "speaker": "a", "phones": "a", "durations": durations}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n" + json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=f"record 3: field 'durations': .*{message}"):
        parse_manifest(str(manifest), CFG)


# ---------------------------------------------------------------------------
# feature cache


def test_cached_mel_roundtrip(tmp_path):
    tone_wav(tmp_path / "u.wav")
    cache = tmp_path / "cache"
    cache.mkdir()
    m1 = cached_mel(str(tmp_path / "u.wav"), CFG, str(cache))
    files = list(cache.iterdir())
    assert len(files) == 1
    m2 = cached_mel(str(tmp_path / "u.wav"), CFG, str(cache))
    assert np.array_equal(m1.values, m2.values)
    assert (m1.hop_length, m1.n_fft, m1.sample_rate) == (m2.hop_length, m2.n_fft, m2.sample_rate)


def test_cached_mel_key_depends_on_config(tmp_path):
    tone_wav(tmp_path / "u.wav")
    cache = tmp_path / "cache"
    cache.mkdir()
    cached_mel(str(tmp_path / "u.wav"), CFG, str(cache))
    other = FeatureConfig(n_mels=40)
    m = cached_mel(str(tmp_path / "u.wav"), other, str(cache))
    assert m.n_mels == 40
    assert len(list(cache.iterdir())) == 2


def test_cached_mel_no_write_mode(tmp_path):
    tone_wav(tmp_path / "u.wav")
    cache = tmp_path / "cache"
    cache.mkdir()
    cached_mel(str(tmp_path / "u.wav"), CFG, str(cache), cache_write=False)
    assert list(cache.iterdir()) == []


def test_cached_mel_unchanged_by_filterbank_cache_clear(tmp_path):
    spec = SynthSpec(n_speakers=1, n_utterances=1, f0_ranges=[[120.0, 240.0]], seed=5)
    manifest = write_synth_corpus(spec, CFG, str(tmp_path))
    wav = os.path.join(os.path.dirname(manifest), "synth0000.wav")
    before = cached_mel(wav, CFG, None)
    cached_mel(wav, FeatureConfig(n_mels=40), None)  # another table in the cache
    mel_filterbank.cache_clear()
    after = cached_mel(wav, CFG, None)
    assert np.array_equal(before.values, after.values)


def test_mel_file_roundtrip(tmp_path):
    mel = MelSpectrogram(np.random.default_rng(0).normal(size=(7, 20)), 64, 256, 16000)
    write_mel(str(tmp_path / "m.mel"), mel)
    back = read_mel(str(tmp_path / "m.mel"))
    assert np.array_equal(back.values, mel.values)
    assert (back.hop_length, back.n_fft, back.sample_rate) == (64, 256, 16000)


def _mel_file(tmp_path, edit):
    path = str(tmp_path / "m.mel")
    write_mel(path, toy_mel(5, bands=20))
    meta, arrays = read_container(path)
    edit(meta, arrays)
    write_container(path, meta, arrays)
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m, a: m.update(kind="model"), "not a mel file"),
        (lambda m, a: m.pop("kind"), "not a mel file"),
        (lambda m, a: m.pop("hop_length"), "hop_length: expected int, got None"),
        (lambda m, a: m.update(hop_length="x"), "hop_length: expected int, got 'x'"),
        (lambda m, a: m.update(n_fft=512.0), "n_fft: expected int, got 512.0"),
        (lambda m, a: m.update(sample_rate=True), "sample_rate: expected int, got True"),
        (lambda m, a: m.update(n_fft=0), "n_fft must be >= 1"),
        (lambda m, a: a.pop("values"), "no values array"),
        (lambda m, a: a.update(values=np.zeros(5)), "bad shape"),
        (lambda m, a: a.update(values=np.full((5, 20), np.nan)), "must be finite"),
    ],
)
def test_read_mel_rejects_malformed_file(tmp_path, edit, message):
    with pytest.raises(DataError, match=message):
        read_mel(_mel_file(tmp_path, edit))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m, a: a.update(values=a["values"][:, :5]), r"\(256, 1024, 22050, 5\) != \(256, 1024, 22050, 20\)"),
        (lambda m, a: m.update(hop_length=32), r"\(32, 1024, 22050, 20\) != \(256, 1024, 22050, 20\)"),
    ],
)
def test_cached_mel_rejects_cache_that_disagrees_with_config(tmp_path, edit, message):
    tone_wav(tmp_path / "u.wav")
    cache = tmp_path / "cache"
    cache.mkdir()
    cfg = FeatureConfig(n_mels=20)
    cached_mel(str(tmp_path / "u.wav"), cfg, str(cache))
    (path,) = cache.iterdir()
    meta, arrays = read_container(str(path))
    edit(meta, arrays)
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match=message):
        cached_mel(str(tmp_path / "u.wav"), cfg, str(cache))


# ---------------------------------------------------------------------------
# batching


def make_utt(uid, n_phonemes, frames, speaker=0):
    rng = np.random.default_rng(hash(uid) % 2**32)
    durations = np.full(n_phonemes, frames // n_phonemes)
    durations[-1] += frames - durations.sum()
    return Utterance(
        id=uid,
        speaker_id=speaker,
        phonemes=rng.integers(1, 5, size=n_phonemes),
        durations=durations,
        mel=MelSpectrogram(rng.normal(size=(frames, 8)), 256, 1024, 22050),
        transcript=None,
    )


def test_single_utterance_batch_all_true_masks():
    batch = make_batch([make_utt("a", 3, 12)])
    assert batch.phoneme_mask.all() and batch.frame_mask.all()
    assert batch.phonemes.shape == (1, 3)


def test_batch_padding_and_masks():
    batch = make_batch([make_utt("a", 3, 9), make_utt("b", 5, 20)])
    assert batch.phonemes.shape == (2, 5)
    np.testing.assert_array_equal(batch.phoneme_mask[0], [True, True, True, False, False])
    assert batch.phonemes[0, 3] == PAD_ID
    assert batch.durations[0, 3] == 0
    np.testing.assert_array_equal(batch.mels[0, 9:], 0.0)


def test_batch_empty_rejected():
    with pytest.raises(ContractError):
        make_batch([])


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        min_size=1,
        max_size=5,
    )
)
def test_make_batch_pads_each_utterance(shapes):
    utts = [
        make_utt(f"u{i}", n, n * per_frame, speaker=i % 2)
        for i, (n, per_frame) in enumerate(shapes)
    ]
    batch = make_batch(utts)
    assert batch.ids == [u.id for u in utts]
    for b, u in enumerate(utts):
        n, t = u.n_phonemes, u.mel.n_frames
        assert batch.phoneme_mask[b].sum() == n and batch.phoneme_mask[b, :n].all()
        assert batch.frame_mask[b].sum() == t and batch.frame_mask[b, :t].all()
        np.testing.assert_array_equal(batch.phonemes[b, :n], u.phonemes)
        np.testing.assert_array_equal(batch.durations[b, :n], u.durations)
        np.testing.assert_array_equal(batch.mels[b, :t], u.mel.values)
        assert batch.speaker_ids[b] == u.speaker_id
        assert (batch.phonemes[b, n:] == PAD_ID).all() and (batch.durations[b, n:] == 0).all()
        assert (batch.mels[b, t:] == 0.0).all()


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_durations_sum_exactly():
    spec = SynthSpec(
        n_speakers=1,
        n_utterances=2,
        phoneme_inventory=4,
        f0_ranges=[[120.0, 240.0]],
        segments_min=3,
        segments_max=3,
        seed=0,
    )
    corpus = synth_corpus(spec, CFG)
    for utt in corpus.utterances:
        assert int(utt.durations.sum()) == utt.mel.n_frames


def test_synth_deterministic_same_seed():
    spec = SynthSpec(n_speakers=2, n_utterances=3, seed=9)
    a = synth_corpus(spec, CFG)
    b = synth_corpus(spec, CFG)
    for ua, ub in zip(a.utterances, b.utterances):
        assert np.array_equal(ua.mel.values, ub.mel.values)
        assert np.array_equal(ua.phonemes, ub.phonemes)


def test_synth_speaker_f0_ranges_separate():
    spec = SynthSpec(
        n_speakers=2,
        n_utterances=6,
        f0_ranges=[[100.0, 150.0], [200.0, 300.0]],
        seed=4,
    )
    mean_f0 = {0: [], 1: []}
    for utt, audio in synth_utterances(spec, CFG):
        contour = estimate_f0(audio, 50.0, 600.0)
        if contour.voiced.any():
            mean_f0[utt.speaker_id].append(float(contour.f0[contour.voiced].mean()))
    assert max(mean_f0[0]) < min(mean_f0[1])


def test_write_synth_corpus_parses_back(tmp_path):
    spec = SynthSpec(n_speakers=2, n_utterances=4, seed=2)
    manifest = write_synth_corpus(spec, CFG, str(tmp_path))
    corpus = parse_manifest(manifest, CFG)
    assert len(corpus.utterances) == 4
    assert len(corpus.speakers) == 2
    direct = synth_corpus(spec, CFG)
    for a, b in zip(corpus.utterances, direct.utterances):
        # compare in magnitude domain: the log is hypersensitive at the floor
        np.testing.assert_allclose(
            np.exp(a.mel.values), np.exp(b.mel.values), rtol=1e-3, atol=1e-5
        )


def test_write_synth_corpus_writes_the_generators_audio_and_labels_without_mels(tmp_path,
                                                                              monkeypatch):
    from prosody_codec import corpus as corpus_module

    # a spec whose upper harmonics cross Nyquist, so the mask is applied
    spec = SynthSpec(n_speakers=2, n_utterances=4, f0_ranges=[[120.0, 240.0], [900.0, 1500.0]],
                     n_harmonics=12, glide_semitones=1.0, seed=8)
    yielded = list(synth_utterances(spec, CFG))
    for utt, audio in yielded:
        save_wav(str(tmp_path / f"{utt.id}.wav"), audio, float32=True)

    def no_mel(audio, cfg):
        raise AssertionError("write_synth_corpus analysed a mel")

    monkeypatch.setattr(corpus_module, "mel_spectrogram", no_mel)
    manifest = write_synth_corpus(spec, CFG, str(tmp_path / "data"))
    with open(manifest, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["id"] for r in records] == [utt.id for utt, _ in yielded]
    for rec, (utt, _) in zip(records, yielded):
        written = (tmp_path / "data" / rec["audio"]).read_bytes()
        assert written == (tmp_path / f"{utt.id}.wav").read_bytes()
        assert rec["speaker"] == f"spk{utt.speaker_id}"
        assert rec["phones"] == rec["text"] == utt.transcript
        assert rec["durations"] == utt.durations.tolist()


def test_write_synth_corpus_checks_the_frame_count(tmp_path, monkeypatch):
    from prosody_codec import corpus as corpus_module

    real = corpus_module.frame_count
    monkeypatch.setattr(corpus_module, "frame_count", lambda n, n_fft, hop: real(n, n_fft, hop) - 1)
    with pytest.raises(ContractError, match="synth0000: durations sum"):
        write_synth_corpus(SynthSpec(n_utterances=2), CFG, str(tmp_path))


def test_synth_corpus_keeps_what_the_generator_yields():
    spec = SynthSpec(n_speakers=2, n_utterances=5, glide_semitones=1.0, seed=6)
    corpus = synth_corpus(spec, CFG)
    yielded = [utt for utt, _ in synth_utterances(spec, CFG)]
    assert corpus.vocab == synth_vocab(spec)
    assert [u.id for u in corpus.utterances] == [u.id for u in yielded]
    for a, b in zip(corpus.utterances, yielded):
        assert a.phonemes.tobytes() == b.phonemes.tobytes()
        assert a.durations.tobytes() == b.durations.tobytes()
        assert a.mel.values.tobytes() == b.mel.values.tobytes()
        assert a.transcript == b.transcript


def test_write_synth_corpus_rejects_a_bad_spec_before_creating_its_directory(tmp_path):
    out_dir = tmp_path / "data"
    with pytest.raises(ConfigError, match="n_utterances"):
        write_synth_corpus(SynthSpec(n_utterances=0), CFG, str(out_dir))
    assert not out_dir.exists()
    with pytest.raises(ConfigError, match="n_utterances"):
        synth_corpus(SynthSpec(n_utterances=0), CFG)


def test_synth_mel_one_frame_short_is_a_contract_error(monkeypatch):
    from prosody_codec import corpus as corpus_module

    real = corpus_module.mel_spectrogram

    def short(audio, cfg):
        mel = real(audio, cfg)
        return MelSpectrogram(mel.values[:-1], mel.hop_length, mel.n_fft, mel.sample_rate)

    monkeypatch.setattr(corpus_module, "mel_spectrogram", short)
    with pytest.raises(ContractError, match="synth0000"):
        synth_corpus(SynthSpec(n_utterances=2), CFG)


def _peak_bytes(make, n):
    """tracemalloc's peak while ``make`` synthesizes n utterances of one
    fixed length, and what it returned."""
    spec = SynthSpec(n_speakers=1, n_utterances=n, f0_ranges=[[120.0, 240.0]],
                     segments_min=6, segments_max=6, duration_min=8, duration_max=8, seed=3)
    tracemalloc.start()
    try:
        result = make(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def test_synthesis_memory_does_not_grow_with_the_corpus(tmp_path):
    # every utterance has the same working set, so holding one waveform at a
    # time keeps the peak flat; each extra waveform held adds over 100 KB
    def write(n):
        return lambda spec: write_synth_corpus(spec, CFG, str(tmp_path / str(n)))

    _peak_bytes(write(1), 1)  # fill the mel filterbank cache
    small, _ = _peak_bytes(write(8), 8)
    large, _ = _peak_bytes(write(64), 64)
    assert large - small < 0.5e6

    small, few = _peak_bytes(lambda spec: synth_corpus(spec, CFG), 8)
    large, many = _peak_bytes(lambda spec: synth_corpus(spec, CFG), 64)
    added_mels = sum(u.mel.values.nbytes for u in many.utterances[len(few.utterances):])
    assert large - small <= added_mels + 0.5e6


def test_utterance_invariant_enforced():
    with pytest.raises(ContractError, match="durations sum"):
        Utterance(
            id="bad",
            speaker_id=0,
            phonemes=np.array([1, 2]),
            durations=np.array([3, 3]),
            mel=toy_mel(10),
        )
    with pytest.raises(ContractError, match=">= 1"):
        Utterance(
            id="bad2",
            speaker_id=0,
            phonemes=np.array([1, 2]),
            durations=np.array([0, 10]),
            mel=toy_mel(10),
        )
