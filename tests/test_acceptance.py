"""End-to-end acceptance gate: fourteen checks, one test each, every one
printing a single PASS/FAIL line with the measured value (visible under
pytest -s; the -v listing carries the same verdict per test)."""

import json
import time

import numpy as np
import pytest

from stemscribe import cli, nn, synth
from stemscribe.audio_io import Waveform, write_wav
from stemscribe.bss_metrics import improvements, sd_sdr, si_sdr, snr
from stemscribe.dsp import CqtConfig, StftConfig, istft, log_magnitude, stft
from stemscribe.midi import parse_smf, render_smf
from stemscribe.nn import grad_check
from stemscribe.nn.loss import focal_loss
from stemscribe.notation import (MuseScoreNotFoundError, NotationJob,
                                 build_command, resolve_executable)
from stemscribe.pianoroll import (NoteEvent, PianoRoll, notes_to_roll, rasterize_notes,
                                  roll_to_notes)
from stemscribe.separation import (SeparatorModel, TrainingClip, apply_mask,
                                   make_training_clip, oracle_masks, remix, separate_blocks,
                                   sum_accompaniment)
from stemscribe.transcription import (AmtConfig, AmtExample, AmtModel, examples_from_pair,
                                      f1_from, frame_metrics, segment, transcribe_waveform)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_stft_istft_round_trip_under_a_second():
    x = np.random.default_rng(0).standard_normal(22050)
    cfg = StftConfig(fft_size=512, hop=128)
    t0 = time.perf_counter()
    back = istft(stft(x, cfg), cfg)
    elapsed = time.perf_counter() - t0
    lo, hi = cfg.fft_size, x.size - cfg.fft_size
    err = np.linalg.norm(back[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    _verdict(1, "analysis/synthesis round trip", err < 1e-6 and elapsed < 1.0,
             f"rel L2 {err:.2e}, {elapsed:.3f} s")


def test_02_log_magnitude_reference_points():
    got = log_magnitude(np.array([[1.0, np.sqrt(10.0), 0.0]]))[0]
    errs = np.abs(got - np.array([0.0, 10.0, -100.0]))
    _verdict(2, "log-magnitude fixed points", errs.max() < 1e-9,
             f"max abs err {errs.max():.2e}")


def test_03_complementary_masks_reconstruct():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        grid = rng.standard_normal((12, 33)) + 1j * rng.standard_normal((12, 33))
        mask = rng.random((12, 33))
        total = apply_mask(mask, grid) + apply_mask(1.0 - mask, grid)
        worst = max(worst, float(np.max(np.abs(total - grid))))
    _verdict(3, "complementary masks sum to identity", worst < 1e-9,
             f"worst abs err {worst:.2e}")


def _tone_and_noise():
    t = np.arange(2 * 8000) / 8000.0
    vocals = 0.4 * np.sin(2 * np.pi * 440.0 * t)
    accomp = 0.2 * np.random.default_rng(0).standard_normal(t.size)
    return (Waveform(vocals[None, :], 8000), Waveform(accomp[None, :], 8000),
            Waveform((vocals + accomp)[None, :], 8000))


def test_04_oracle_mask_separation_beats_ten_db():
    ref_v, ref_a, mix = _tone_and_noise()
    cfg = StftConfig()
    est_v, _ = separate_blocks(mix, oracle_masks(mix, ref_v, ref_a, cfg), cfg)
    snri, _, si_sdri = improvements(mix.samples[0], ref_v.samples[0], est_v.samples[0])
    base = improvements(mix.samples[0], ref_v.samples[0], mix.samples[0])
    ok = si_sdri > 10.0 and snri > 10.0 and base == (0.0, 0.0, 0.0)
    _verdict(4, "oracle ratio mask separation",
             ok, f"SI-SDRi {si_sdri:.1f} dB, SNRi {snri:.1f} dB, baseline {base}")


def test_05_metric_reference_values():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(400)
    est = ref + 0.3 * rng.standard_normal(400)
    invariant = all(si_sdr(ref, c * est) == si_sdr(ref, est) for c in (0.5, 2.0, 10.0))
    snr_zero = abs(snr(ref, 2.0 * ref)) < 1e-12
    sd_err = abs(sd_sdr(ref, 2.0 * ref) - 6.0206) < 1e-4
    sd_exact = abs(sd_sdr(ref, 2.0 * ref) - 20.0 * np.log10(2.0)) < 1e-6
    ok = invariant and snr_zero and sd_err and sd_exact
    _verdict(5, "distortion metric identities", ok,
             f"scale-invariant {invariant}, snr(2x) {snr(ref, 2 * ref):.1e}, "
             f"sd_sdr(2x) {sd_sdr(ref, 2 * ref):.6f}")


def test_06_focal_loss_reference_behavior():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.01, 0.99, 1000)
    y = (rng.random(1000) < 0.5).astype(float)
    plain, _ = focal_loss(p, y, alpha=1.0, gamma=0.0)
    bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    bce_err = abs(plain - bce)

    point, _ = focal_loss(np.array([0.9]), np.array([1.0]), alpha=0.35, gamma=3.0)
    point_err = abs(point - 3.688e-5)

    params = {"alpha": 0.35, "gamma": 3.0}
    _, grad = focal_loss(p, y, **params)
    step = 1e-6
    rel_worst = 0.0
    for i in range(0, 1000, 97):
        bumped = p.copy()
        bumped[i] += step
        dipped = p.copy()
        dipped[i] -= step
        numeric = (focal_loss(bumped, y, **params)[0]
                   - focal_loss(dipped, y, **params)[0]) / (2 * step)
        rel_worst = max(rel_worst, abs(numeric - grad[i]) / max(abs(numeric), 1e-12))
    ok = bce_err < 1e-12 and point_err < 1e-8 and rel_worst < 1e-5
    _verdict(6, "focal loss values and gradient", ok,
             f"BCE gap {bce_err:.1e}, point gap {point_err:.1e}, grad rel {rel_worst:.1e}")


def test_07_gradient_checks_on_both_models():
    t0 = time.perf_counter()
    amt = AmtModel(AmtConfig(conv_channels=2, hidden=3), seed=1, n_bins=6, n_keys=5)
    features = np.random.default_rng(2).standard_normal((6, 7))
    targets = (np.random.default_rng(3).random((7, 5)) > 0.6).astype(float)
    amt_rel = grad_check(amt, [AmtExample(features, targets)])
    amt_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sep = SeparatorModel(num_bins=5, hidden=4, layers=2, seed=0)
    mix = rng.uniform(0.2, 1.0, (6, 5))
    vocal = rng.uniform(0, 1, (6, 5)) * mix
    sep_rel = grad_check(sep, [TrainingClip(np.log10(mix), mix, vocal, mix - vocal)])
    sep_time = time.perf_counter() - t0

    ok = amt_rel < 1e-4 and sep_rel < 1e-4 and amt_time < 60 and sep_time < 60
    _verdict(7, "finite-difference gradient checks", ok,
             f"note model {amt_rel:.1e} in {amt_time:.1f} s, "
             f"mask model {sep_rel:.1e} in {sep_time:.1f} s")


def test_08_frame_period_at_default_hop():
    tpf = CqtConfig(hop=512, sample_rate=22050).frame_time
    err_ms = abs(tpf - 0.0232) * 1000.0
    _verdict(8, "frame period 512/22050", err_ms < 0.05,
             f"{tpf * 1000:.4f} ms, err {err_ms:.3f} ms")


def test_09_f1_reference_scores():
    frame = f1_from(0.7632, 0.5408)
    onset = f1_from(0.6824, 0.4583)
    ok = abs(frame - 0.6330) < 1e-4 and abs(onset - 0.5484) < 1e-4
    _verdict(9, "f1 reference scores", ok, f"frame {frame:.4f}, onset {onset:.4f}")


def test_10_segment_counts():
    counts = {n: len(segment(np.zeros((4, n)), window=512, hop=256).segments)
              for n in (512, 1024, 7752)}
    ok = counts == {512: 1, 1024: 3, 7752: 29}
    _verdict(10, "window segmentation counts", ok, f"{counts}")


def test_11_midi_round_trips():
    frame_time = CqtConfig(hop=512, sample_rate=22050).frame_time
    rng = np.random.default_rng(4)
    identity_ok = True
    for _ in range(100):
        roll = PianoRoll((rng.random((88, 50)) < 0.08).astype(np.uint8), frame_time)
        back = notes_to_roll(roll_to_notes(roll), frame_time, 50)
        identity_ok &= bool((back.grid == roll.grid).all())

    notes = roll_to_notes(
        PianoRoll((rng.random((88, 60)) < 0.1).astype(np.uint8), frame_time))
    data = render_smf(notes)
    magic_ok = data[:4] == bytes([0x4D, 0x54, 0x68, 0x64])
    _, parsed = parse_smf(data)
    half_tick = 0.5 * 500_000 / (480 * 1e6)
    smf_ok = len(parsed) == len(notes)
    worst = 0.0
    for orig, back in zip(sorted(notes, key=lambda n: (n.start, n.pitch)), parsed):
        smf_ok &= back.pitch == orig.pitch and back.velocity == orig.velocity
        worst = max(worst, abs(back.start - orig.start), abs(back.end - orig.end))
    smf_ok &= worst <= half_tick + 1e-12
    ok = identity_ok and magic_ok and smf_ok
    _verdict(11, "notation data round trips", ok,
             f"roll identity {identity_ok}, header magic {magic_ok}, "
             f"worst time err {worst * 1000:.3f} ms")


def test_12_desk_scale_training_reaches_targets():
    t0 = time.perf_counter()
    train_clips = synth.make_tone_clips(12, 3.0, 22050, 0)
    test_clips = synth.make_tone_clips(4, 3.0, 22050, 100)
    pairs = [synth_pair(audio, notes) for audio, notes in train_clips]
    amt = AmtModel(AmtConfig(conv_channels=4, hidden=16, alpha=0.35, gamma=3.0), seed=0)
    examples = [ex for pair in pairs for ex in examples_from_pair(*pair)]
    nn.fit(amt, examples, nn.Adam(lr=5e-3), epochs=100, batch_size=4,
           rng=np.random.default_rng(0))
    frame_time = CqtConfig(hop=512, sample_rate=22050).frame_time
    scores = []
    for audio, notes in test_clips:
        pred = transcribe_waveform(audio, amt, window=128, hop_frames=64)
        truth = rasterize_notes(notes, frame_time, pred.num_frames)
        scores.append(frame_metrics(pred, truth).f1)
    amt_f1 = float(np.mean(scores))
    amt_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    sets = synth.make_source_sets(4, 1.5, 8000, 0)
    rng = np.random.default_rng(0)
    clips = []
    for _ in range(6):
        mixture, targets = remix(sets, rng=rng)
        clips.append(make_training_clip(mixture, targets.vocals,
                                        sum_accompaniment(targets), StftConfig()))
    sep = SeparatorModel(num_bins=257, hidden=32, layers=2, seed=0)
    trace = nn.fit(sep, clips, nn.Adam(lr=1e-3), epochs=50, batch_size=10,
                   rng=np.random.default_rng(0))
    ratio = trace[-1] / trace[0]
    sep_time = time.perf_counter() - t0

    ok = amt_f1 > 0.9 and amt_time < 600 and ratio <= 0.5 and sep_time < 600
    _verdict(12, "desk-scale training targets", ok,
             f"held-out F1 {amt_f1:.4f} in {amt_time:.0f} s, "
             f"loss ratio {ratio:.3f} in {sep_time:.0f} s")


def synth_pair(audio, notes):
    from stemscribe.transcription import build_training_pair
    return build_training_pair(audio, notes, duration=3.0, window=128, hop_frames=64)


@pytest.fixture
def mixture_wav(tmp_path):
    _, _, mix = _tone_and_noise()
    path = tmp_path / "mixture.wav"
    write_wav(mix, path)
    return path


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "stft": {"fft_size": 128, "hop": 32},
        "cqt": {"n_bins": 24, "f_min": 110.0},
        "separator": {"hidden": 8, "layers": 1},
        "amt": {"conv_channels": 2, "hidden": 4},
    }))
    return str(path)


def test_13_render_command_and_graceful_degradation(tmp_path, monkeypatch,
                                                    mixture_wav, small_config):
    monkeypatch.chdir(tmp_path)
    from stemscribe.midi import write_smf
    write_smf([NoteEvent(60, 0.0, 1.0)], "example.mid")
    job = NotationJob("example.mid", "example.pdf", "mscore")
    command = build_command(job)
    command_ok = command == ["mscore", "example.mid", "-o", "example.pdf"]

    monkeypatch.delenv("MUSESCORE_PATH", raising=False)
    empty = tmp_path / "noexec"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    try:
        resolve_executable()
        error_ok = False
        message = "no error raised"
    except MuseScoreNotFoundError as e:
        message = str(e)
        error_ok = "MUSESCORE_PATH" in message and "mscore" in message

    out = tmp_path / "degraded"
    code = cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                     "--config", small_config])
    report = json.loads((out / "pipeline_report.json").read_text())
    degrade_ok = (code == 0
                  and report["render"]["status"] == "skipped"
                  and (out / "mixture_vocals.wav").exists()
                  and (out / "mixture_vocals.mid").exists())
    ok = command_ok and error_ok and degrade_ok
    _verdict(13, "render command and degradation", ok,
             f"command {command}, error names probes {error_ok}, "
             f"pipeline without renderer exits {code}")


def test_14_pipeline_reproducibility(tmp_path, monkeypatch, mixture_wav, small_config):
    monkeypatch.delenv("MUSESCORE_PATH", raising=False)
    empty = tmp_path / "noexec"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                         "--config", small_config, "--seed", "3"])
        assert code == 0
        blobs.append((out / "mixture_vocals.mid").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(14, "pipeline reproducibility", ok,
             f"{len(blobs[0])} byte MIDI, identical {ok}")
