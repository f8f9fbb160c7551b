"""Separation-quality ratios in dB and their improvement-over-mixture
variants.

All ratios use the optimal-scaling projection alpha = <est, ref> / ||ref||^2:

  snr     10 log10(||s||^2 / ||s - e||^2)
  si_sdr  10 log10(||as||^2 / ||as - e||^2)
  sd_sdr  10 log10(||as||^2 / ||s - e||^2)
  srr     10 log10(||as||^2 / ||as - s||^2)
  si_sir / si_sar  from the decomposition e = as + e_interf + e_artif,
  with e_interf the projection of the residual onto the span of all
  reference signals.

Degenerate ratios (zero numerator or denominator) become +/-inf and are
clamped to +/-300 dB in reports, with the affected field names flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import Waveform

DB_CLAMP = 300.0

REPORT_KEYS = ("snr", "snri", "sd_sdr", "sd_sdri", "si_sdr", "si_sdri", "srr", "si_sir", "si_sar")


class DegenerateReferenceError(ValueError):
    """All-zero or linearly dependent reference signals."""


def _as_signal(x) -> np.ndarray:
    if isinstance(x, Waveform):
        x = x.mono_samples()
    return np.asarray(x, dtype=np.float64).reshape(-1)


def _ratio_db(num: float, den: float) -> float:
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def _check_pair(ref: np.ndarray, est: np.ndarray) -> None:
    if ref.size != est.size:
        raise ValueError(f"length mismatch: {ref.size} vs {est.size}")
    if not np.any(ref):
        raise DegenerateReferenceError("reference signal is all zero")


def _alpha(ref: np.ndarray, est: np.ndarray) -> float:
    return float(np.dot(est, ref) / np.dot(ref, ref))


def snr(ref, est) -> float:
    ref, est = _as_signal(ref), _as_signal(est)
    _check_pair(ref, est)
    noise = ref - est
    return _ratio_db(float(np.dot(ref, ref)), float(np.dot(noise, noise)))


def si_sdr(ref, est) -> float:
    ref, est = _as_signal(ref), _as_signal(est)
    _check_pair(ref, est)
    target = _alpha(ref, est) * ref
    resid = target - est
    return _ratio_db(float(np.dot(target, target)), float(np.dot(resid, resid)))


def sd_sdr(ref, est) -> float:
    ref, est = _as_signal(ref), _as_signal(est)
    _check_pair(ref, est)
    target = _alpha(ref, est) * ref
    resid = ref - est
    return _ratio_db(float(np.dot(target, target)), float(np.dot(resid, resid)))


def srr(ref, est) -> float:
    """How far the optimal rescaling sits from unity."""
    ref, est = _as_signal(ref), _as_signal(est)
    _check_pair(ref, est)
    target = _alpha(ref, est) * ref
    resid = target - ref
    return _ratio_db(float(np.dot(target, target)), float(np.dot(resid, resid)))


def si_sir_sar(ref, est, other_references=()) -> tuple[float, float]:
    """Interference/artifact split of the scale-invariant residual.

    The residual after optimal scaling is projected onto the span of the
    reference and every other reference; the in-span part is interference,
    the remainder artifacts.
    """
    ref, est = _as_signal(ref), _as_signal(est)
    _check_pair(ref, est)
    basis = np.stack([ref] + [_as_signal(o) for o in other_references], axis=1)
    if np.linalg.matrix_rank(basis) < basis.shape[1]:
        raise DegenerateReferenceError("reference set is rank deficient")
    target = _alpha(ref, est) * ref
    resid = est - target
    coeffs, *_ = np.linalg.lstsq(basis, resid, rcond=None)
    e_interf = basis @ coeffs
    e_artif = resid - e_interf
    num = float(np.dot(target, target))
    sir = _ratio_db(num, float(np.dot(e_interf, e_interf)))
    sar = _ratio_db(num, float(np.dot(e_artif, e_artif)))
    return sir, sar


def _diff(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def clamp_db(x: float) -> float:
    return max(-DB_CLAMP, min(DB_CLAMP, x))


@dataclass
class MetricReport:
    """The nine ratios, clamped to +/-300 dB; `clamped` names the fields
    that hit the sentinel."""

    snr: float
    snri: float
    sd_sdr: float
    sd_sdri: float
    si_sdr: float
    si_sdri: float
    srr: float
    si_sir: float
    si_sar: float
    clamped: frozenset[str] = field(default_factory=frozenset)

    def to_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in REPORT_KEYS}


# the metrics reported with their improvement over the mixture as estimate
_IMPROVED = {"snr": snr, "sd_sdr": sd_sdr, "si_sdr": si_sdr}


def improvements(mixture, ref, est) -> tuple[float, float, float]:
    """(snri, sd_sdri, si_sdri): each metric minus its mixture-as-estimate
    baseline, unclamped."""
    return tuple(_diff(metric(ref, est), metric(ref, mixture)) for metric in _IMPROVED.values())


def evaluate_pair(mixture, ref, est, other_references=()) -> MetricReport:
    raw = {name: metric(ref, est) for name, metric in _IMPROVED.items()}
    raw.update({name + "i": _diff(raw[name], metric(ref, mixture))
                for name, metric in _IMPROVED.items()})
    raw["srr"] = srr(ref, est)
    raw["si_sir"], raw["si_sar"] = si_sir_sar(ref, est, other_references)
    clamped = frozenset(k for k, v in raw.items() if abs(v) > DB_CLAMP)
    return MetricReport(clamped=clamped, **{k: clamp_db(v) for k, v in raw.items()})
