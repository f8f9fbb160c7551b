"""Vocals/accompaniment separation: mask algebra, on-the-fly remixing,
and the LSTM mask-estimator model.

A mask is a plain (frames, bins) float array in [0, 1] over the
analysis_spectrogram grid of the mixture. Separation is one pass: one
STFT, one log-magnitude grid for the model, one inverse STFT of the
masked bins for the vocals. The accompaniment is the mono mixture minus
the vocals, so the two estimated stems add back to the mixture by
construction; it equals the inverse STFT of the complementary mask
1 - m to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .audio_io import Waveform
from .dsp import ComplexSpectrogram, StftConfig, istft, log_magnitude, stft

STEM_NAMES = ("vocals", "bass", "drums", "other")

GAIN_LOW, GAIN_HIGH = 0.5, 1.25


@dataclass
class SourceSet:
    """Aligned stems of one track."""

    vocals: Waveform
    bass: Waveform
    drums: Waveform
    other: Waveform

    def __post_init__(self):
        stems = self.stems()
        rates = {w.sample_rate for w in stems.values()}
        lengths = {w.num_samples for w in stems.values()}
        if len(rates) != 1 or len(lengths) != 1:
            raise ValueError("stems must share sample rate and length")

    def stems(self) -> dict[str, Waveform]:
        return {name: getattr(self, name) for name in STEM_NAMES}

    @property
    def sample_rate(self) -> int:
        return self.vocals.sample_rate


def sum_accompaniment(s: SourceSet) -> Waveform:
    """Samplewise bass + drums + other."""
    total = s.bass.samples + s.drums.samples + s.other.samples
    return Waveform(total, s.sample_rate)


def mixture_of(s: SourceSet) -> Waveform:
    return Waveform(s.vocals.samples + sum_accompaniment(s).samples, s.sample_rate)


def remix(sets: list[SourceSet], gains: dict[str, float] | None = None,
          rng: np.random.Generator | int | None = None) -> tuple[Waveform, SourceSet]:
    """Draw each stem from a random set, scale, and sum into a new mixture.

    The returned targets are the scaled stems, so the mixture equals their
    sum exactly. Gains default to uniform draws from [0.5, 1.25].
    """
    if not sets:
        raise ValueError("need at least one source set")
    lengths = {s.vocals.num_samples for s in sets}
    if len(lengths) != 1:
        raise ValueError("source sets must have aligned clip lengths")
    rng = np.random.default_rng(rng)
    picked = {name: sets[rng.integers(len(sets))].stems()[name] for name in STEM_NAMES}
    if gains is None:
        gains = {name: float(rng.uniform(GAIN_LOW, GAIN_HIGH)) for name in STEM_NAMES}
    scaled = {
        name: Waveform(gains[name] * w.samples, w.sample_rate) for name, w in picked.items()
    }
    targets = SourceSet(**scaled)
    return mixture_of(targets), targets


def apply_mask(mask: np.ndarray, s: ComplexSpectrogram) -> ComplexSpectrogram:
    """Elementwise scaling of the complex bins; phase is untouched."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != s.bins.shape:
        raise ValueError(f"mask shape {mask.shape} does not match spectrogram {s.bins.shape}")
    return ComplexSpectrogram(mask * s.bins, s.config, s.sample_rate)


def ideal_ratio_mask(target: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Oracle mask target / (target + residual), with 0/0 mapped to 0."""
    target = np.asarray(target, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if target.shape != residual.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {residual.shape}")
    denom = target + residual
    out = np.zeros_like(denom)
    np.divide(target, denom, out=out, where=denom > 0)
    return out


class SeparatorModel(nn.Layer):
    """Mask estimator: per-bin batch norm over frames, an LSTM stack, and a
    time-distributed dense+sigmoid head emitting one mask value per bin."""

    def __init__(self, num_bins: int, hidden: int = 64, layers: int = 2, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.num_bins = num_bins
        self.children = {"norm": nn.BatchNorm(num_bins)}
        for i in range(layers):
            self.children[f"lstm{i}"] = nn.Lstm(num_bins if i == 0 else hidden, hidden, rng)
        self.children["head"] = nn.Dense(hidden, num_bins, rng)
        self.children["out"] = nn.Sigmoid()

    def forward_mask(self, log_mag: np.ndarray, training: bool = False) -> np.ndarray:
        """Masks for a time-major (frames, B, bins) batch of log grids, or
        for one (frames, bins) grid, which runs as the batch of one."""
        h = log_mag[:, None] if log_mag.ndim == 2 else log_mag
        for layer in self.children.values():
            h = layer.forward(h, training)
        return h[:, 0] if log_mag.ndim == 2 else h

    def backward(self, grad_mask: np.ndarray) -> None:
        """Takes the gradient of the mask forward_mask returned."""
        g = grad_mask[:, None] if grad_mask.ndim == 2 else grad_mask
        for layer in reversed(self.children.values()):
            g = layer.backward(g)

    def predict_mask(self, log_mag: np.ndarray) -> np.ndarray:
        """Inference mask for a (frames, bins) log_magnitude grid."""
        return self.forward_mask(log_mag)

    def loss_and_grad(self, batch: list["TrainingClip"]) -> float:
        """Summed L1 spectrogram-magnitude loss of equal-length clips on
        both estimated stems, in one forward and one backward pass."""

        def stack(name: str) -> np.ndarray:
            return np.stack([getattr(clip, name) for clip in batch], axis=1)

        mix_mag = stack("mix_mag")
        mask = self.forward_mask(stack("log_mag"), training=True)
        d_vocal = mask * mix_mag - stack("vocal_mag")
        d_accomp = (1.0 - mask) * mix_mag - stack("accomp_mag")
        n = d_vocal.shape[0] * d_vocal.shape[2]  # cells per clip
        per_clip = np.abs(d_vocal).mean(axis=(0, 2)) + np.abs(d_accomp).mean(axis=(0, 2))
        self.backward((np.sign(d_vocal) - np.sign(d_accomp)) * mix_mag / n)
        return float(per_clip.sum())


@dataclass
class TrainingClip:
    """Precomputed spectrogram features for one remixed clip."""

    log_mag: np.ndarray
    mix_mag: np.ndarray
    vocal_mag: np.ndarray
    accomp_mag: np.ndarray


def make_training_clip(mixture: Waveform, vocals: Waveform, accompaniment: Waveform,
                       cfg: StftConfig) -> TrainingClip:
    mix_mag = stft(mixture, cfg).magnitude()
    return TrainingClip(
        log_mag=log_magnitude(mix_mag),
        mix_mag=mix_mag,
        vocal_mag=stft(vocals, cfg).magnitude(),
        accomp_mag=stft(accompaniment, cfg).magnitude(),
    )


def analysis_spectrogram(w: Waveform, cfg: StftConfig) -> ComplexSpectrogram:
    """STFT of the signal with one FFT length of zeros on each side.

    Masking makes the spectrogram inconsistent, and the overlap-add
    divisor is tiny at the tapered ends, so inverting a masked edge
    frame amplifies the inconsistency by orders of magnitude.  Padding
    keeps every real sample in the flat interior; callers trim
    [fft_size : fft_size + n] after inversion.  Any mask handed to
    separate() must be built against this grid.
    """
    x = np.pad(w.to_mono().samples[0], (cfg.fft_size, cfg.fft_size))
    return stft(Waveform(x[None, :], w.sample_rate), cfg)


def separate(mixture: Waveform, model: SeparatorModel | None, stft_cfg: StftConfig,
             mask: np.ndarray | None = None) -> tuple[Waveform, Waveform, np.ndarray]:
    """Mask the mixture spectrogram and invert the vocals.

    Returns (vocals, accompaniment, mask); the accompaniment is the exact
    complement mixture - vocals.  A caller-supplied mask overrides the
    model (oracle or debug paths; model may then be None) and must match
    the analysis_spectrogram grid of the mixture.
    """
    spec = analysis_spectrogram(mixture, stft_cfg)
    if mask is None:
        mask = model.predict_mask(log_magnitude(spec.magnitude()))
    vocals, accomp = separate_spectrogram(spec, mixture, mask)
    return vocals, accomp, mask


def separate_spectrogram(spec: ComplexSpectrogram, mixture: Waveform,
                         mask: np.ndarray) -> tuple[Waveform, Waveform]:
    """(vocals, accompaniment) from the analysis_spectrogram of the mixture
    and a mask on its grid, for callers that also need the spectrogram."""
    lo, hi = spec.config.fft_size, spec.config.fft_size + mixture.num_samples
    vocals = istft(apply_mask(mask, spec)).samples[:, lo:hi]
    accomp = mixture.to_mono().samples - vocals
    return Waveform(vocals, spec.sample_rate), Waveform(accomp, spec.sample_rate)


def train_separator(clips: list[TrainingClip], model: SeparatorModel, epochs: int,
                    lr: float = 1e-3, batch_size: int = 10, seed: int = 0,
                    epoch_callback=None) -> list[float]:
    """Adam over the L1 magnitude loss; returns the per-epoch loss trace."""
    return nn.fit(
        model,
        clips,
        nn.Adam(lr=lr),
        epochs=epochs,
        batch_size=batch_size,
        rng=np.random.default_rng(seed),
        epoch_callback=epoch_callback,
    )
