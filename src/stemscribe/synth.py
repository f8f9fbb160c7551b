"""Synthetic audio fixtures with known ground truth.

Everything is generated from a seed: four-stem source sets for the
separator (tone, bass, noise bursts, chord) and tone clips with known
note events for the transcriber. These stand in for full-size stem and
piano corpora, which are far beyond what a test run can carry.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .audio_io import Waveform
from .pianoroll import NoteEvent
from .separation import SourceSet


def midi_to_freq(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


def _ramped(samples: np.ndarray, sample_rate: int, ramp: float = 0.01) -> np.ndarray:
    """Linear attack/release ramps so clip edges do not click."""
    n = min(int(ramp * sample_rate), samples.size // 2)
    if n > 0:
        env = np.ones(samples.size)
        env[:n] = np.linspace(0.0, 1.0, n)
        env[-n:] = np.linspace(1.0, 0.0, n)
        samples = samples * env
    return samples


def sine(freq: float, duration: float, sample_rate: int, amplitude: float = 0.2,
         phase: float = 0.0) -> np.ndarray:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return amplitude * np.sin(2.0 * np.pi * freq * t + phase)


def harmonic_tone(freq: float, duration: float, sample_rate: int,
                  amplitude: float = 0.2, n_harmonics: int = 4,
                  vibrato_hz: float = 0.0, vibrato_cents: float = 0.0) -> np.ndarray:
    """Tone with 1/k harmonic rolloff and optional pitch vibrato."""
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    if vibrato_hz > 0.0:
        dev = 2.0 ** (vibrato_cents / 1200.0 * np.sin(2.0 * np.pi * vibrato_hz * t)) - 1.0
        phase = 2.0 * np.pi * freq * (t + np.cumsum(dev) / sample_rate)
    else:
        phase = 2.0 * np.pi * freq * t
    out = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        out += np.sin(k * phase) / k
    peak = np.max(np.abs(out))
    return _ramped(out * (amplitude / peak if peak > 0 else 0.0), sample_rate)


def noise_bursts(duration: float, sample_rate: int, rng: np.random.Generator,
                 rate_hz: float = 2.0, amplitude: float = 0.2,
                 burst_seconds: float = 0.05) -> np.ndarray:
    """White-noise hits at a steady rate, a stand-in for percussion."""
    n = int(round(duration * sample_rate))
    out = np.zeros(n)
    burst_len = max(1, int(burst_seconds * sample_rate))
    decay = np.exp(-np.arange(burst_len) / (burst_len / 4.0))
    step = int(sample_rate / rate_hz)
    for start in range(0, n, step):
        end = min(start + burst_len, n)
        out[start:end] += amplitude * decay[: end - start] * rng.standard_normal(end - start)
    return _ramped(out, sample_rate)


def make_source_set(duration: float, sample_rate: int, seed: int) -> SourceSet:
    """Four distinguishable stems: a vibrato lead, a low sine, noise hits,
    and a two-note chord."""
    rng = np.random.default_rng(seed)
    lead = harmonic_tone(
        float(rng.uniform(300.0, 800.0)), duration, sample_rate,
        amplitude=0.25, vibrato_hz=5.0, vibrato_cents=40.0,
    )
    bass = sine(float(rng.uniform(60.0, 120.0)), duration, sample_rate, amplitude=0.22)
    drums = noise_bursts(duration, sample_rate, rng, rate_hz=3.0, amplitude=0.18)
    root = float(rng.uniform(180.0, 260.0))
    other = sine(root, duration, sample_rate, 0.11) + sine(root * 1.5, duration, sample_rate, 0.11)
    rate = sample_rate
    return SourceSet(
        vocals=Waveform(lead[None, :], rate),
        bass=Waveform(_ramped(bass, rate)[None, :], rate),
        drums=Waveform(drums[None, :], rate),
        other=Waveform(_ramped(other, rate)[None, :], rate),
    )


def make_source_sets(count: int, duration: float, sample_rate: int, seed: int) -> list[SourceSet]:
    return [make_source_set(duration, sample_rate, seed + i) for i in range(count)]


def render_notes(notes, duration: float, sample_rate: int,
                 amplitude: float = 0.25) -> Waveform:
    """Sum of harmonic tones, one per note event, on a silent canvas."""
    n = int(round(duration * sample_rate))
    out = np.zeros(n)
    for note in notes:
        start = int(round(note.start * sample_rate))
        stop = min(int(round(note.end * sample_rate)), n)
        if stop <= start:
            continue
        tone = harmonic_tone(midi_to_freq(note.pitch), (stop - start) / sample_rate,
                             sample_rate, amplitude=amplitude)
        out[start : start + tone.size] += tone
    return Waveform(out[None, :], sample_rate)


def make_tone_clip(duration: float, sample_rate: int, seed: int,
                   pitch: int | None = None,
                   pitches=(60, 64, 67, 72)) -> tuple[Waveform, list[NoteEvent]]:
    """One sustained pitch, held over most of the clip. The pitch is drawn
    from the given set unless fixed by the caller."""
    rng = np.random.default_rng(seed)
    if pitch is None:
        pitch = int(rng.choice(pitches))
    start = float(rng.uniform(0.0, 0.1 * duration))
    end = float(rng.uniform(0.8 * duration, duration))
    notes = [NoteEvent(pitch, start, end)]
    return render_notes(notes, duration, sample_rate), notes


def make_tone_clips(count: int, duration: float, sample_rate: int, seed: int,
                    pitches=(60, 64, 67, 72)) -> Iterator[tuple[Waveform, list[NoteEvent]]]:
    """Clips cycling through the pitch set, so coverage stays balanced,
    each made as it is taken."""
    return (make_tone_clip(duration, sample_rate, seed + i, pitches[i % len(pitches)])
            for i in range(count))
