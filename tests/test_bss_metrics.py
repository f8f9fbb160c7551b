import json

import numpy as np
import pytest

from stemscribe.bss_metrics import (DB_CLAMP, REPORT_KEYS, DegenerateReferenceError,
                                    evaluate_pair, improvements, sd_sdr, si_sdr,
                                    si_sir_sar, snr, srr)


@pytest.fixture
def ref(rng):
    return rng.standard_normal(500)


def orthogonalize(v, against):
    out = v - (np.dot(v, against) / np.dot(against, against)) * against
    return out


# ------------------------------------------------------------------- snr

def test_snr_perfect_estimate_is_infinite(ref):
    assert np.isposinf(snr(ref, ref.copy()))


def test_snr_double_estimate_is_zero(ref):
    # residual equals the reference itself
    assert snr(ref, 2.0 * ref) == pytest.approx(0.0, abs=1e-12)


def test_snr_constructed_twenty_db(ref, rng):
    noise = orthogonalize(rng.standard_normal(ref.size), ref)
    noise *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(noise))  # power ratio 100
    assert snr(ref, ref + noise) == pytest.approx(20.0, abs=1e-9)


# ---------------------------------------------------------------- si_sdr

def test_si_sdr_scale_invariance_exact(ref, rng):
    est = ref + 0.3 * rng.standard_normal(ref.size)
    base = si_sdr(ref, est)
    for c in (0.5, 2.0, 10.0):
        assert si_sdr(ref, c * est) == base  # bitwise equal, not approx


def test_si_sdr_scaled_reference_is_infinite(ref):
    for c in (0.5, 2.0, -3.0):
        assert np.isposinf(si_sdr(ref, c * ref))


def test_si_sdr_two_sample_case():
    assert si_sdr(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- sd_sdr

def test_sd_sdr_double_estimate(ref):
    # alpha=2 gives numerator 4 ||s||^2 over residual ||s||^2
    assert sd_sdr(ref, 2.0 * ref) == pytest.approx(20 * np.log10(2.0), abs=1e-9)
    assert sd_sdr(ref, 2.0 * ref) == pytest.approx(6.0206, abs=1e-4)


def test_sd_sdr_two_sample_case():
    assert sd_sdr(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_sd_sdr_decomposes_into_snr_plus_rescale_term(rng):
    # identity: sd_sdr = snr + 10 log10(alpha^2), random pairs
    for seed in range(20):
        r = np.random.default_rng(seed)
        ref = r.standard_normal(200)
        est = 0.7 * ref + 0.5 * r.standard_normal(200)
        alpha = np.dot(est, ref) / np.dot(ref, ref)
        lhs = sd_sdr(ref, est)
        rhs = snr(ref, est) + 10 * np.log10(alpha**2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ------------------------------------------------------------------- srr

def test_srr_values(ref, rng):
    assert np.isposinf(srr(ref, ref.copy()))  # alpha exactly 1, zero residual
    assert srr(ref, 2.0 * ref) == pytest.approx(20 * np.log10(2.0), abs=1e-9)
    ortho = orthogonalize(rng.standard_normal(ref.size), ref)
    assert srr(ref, ortho) < -DB_CLAMP  # near-zero alpha kills the numerator


# ------------------------------------------------------------ sir / sar

def test_si_sir_sar_pure_interference(ref, rng):
    other = orthogonalize(rng.standard_normal(ref.size), ref)
    est = ref + 0.1 * other
    sir, sar = si_sir_sar(ref, est, other_references=(other,))
    expected_sir = 10 * np.log10(np.dot(ref, ref) / (0.01 * np.dot(other, other)))
    assert sir == pytest.approx(expected_sir, abs=1e-6)
    assert sar > 200.0  # no artifact component survives the projection


def test_si_sir_sar_pure_artifacts(ref, rng):
    other = orthogonalize(rng.standard_normal(ref.size), ref)
    junk = orthogonalize(orthogonalize(rng.standard_normal(ref.size), ref), other)
    sir, sar = si_sir_sar(ref, ref + 0.2 * junk, other_references=(other,))
    assert sir > 200.0
    expected_sar = 10 * np.log10(np.dot(ref, ref) / (0.04 * np.dot(junk, junk)))
    assert sar == pytest.approx(expected_sar, abs=1e-6)


def test_si_sir_sar_perfect_estimate(ref, rng):
    other = rng.standard_normal(ref.size)
    sir, sar = si_sir_sar(ref, ref.copy(), other_references=(other,))
    assert sir > 200.0 and sar > 200.0


def test_si_sir_sar_rank_deficient_rejected(ref):
    with pytest.raises(DegenerateReferenceError):
        si_sir_sar(ref, ref, other_references=(2.0 * ref,))


# ---------------------------------------------------------- improvements

def test_improvements_mixture_as_estimate_all_zero(ref, rng):
    mixture = ref + rng.standard_normal(ref.size)
    assert improvements(mixture, ref, mixture) == (0.0, 0.0, 0.0)


def test_improvements_perfect_estimate_hits_clamp(ref, rng):
    mixture = ref + rng.standard_normal(ref.size)
    report = evaluate_pair(mixture, ref, ref.copy())
    assert report.snri == DB_CLAMP
    assert "snri" in report.clamped and "si_sdr" in report.clamped


# ---------------------------------------------------------------- report

def test_report_keys_and_json(ref, rng):
    mixture = ref + 0.5 * rng.standard_normal(ref.size)
    report = evaluate_pair(mixture, ref, mixture)
    d = json.loads(json.dumps(report.to_dict()))
    assert tuple(sorted(d)) == tuple(sorted(REPORT_KEYS))
    assert all(isinstance(v, float) for v in d.values())
    assert all(abs(v) <= DB_CLAMP for v in d.values())


def test_metrics_invariant_under_joint_permutation(ref, rng):
    est = ref + 0.3 * rng.standard_normal(ref.size)
    perm = rng.permutation(ref.size)
    assert snr(ref, est) == pytest.approx(snr(ref[perm], est[perm]), abs=1e-12)
    assert si_sdr(ref, est) == pytest.approx(si_sdr(ref[perm], est[perm]), abs=1e-12)
    assert sd_sdr(ref, est) == pytest.approx(sd_sdr(ref[perm], est[perm]), abs=1e-12)


def test_degenerate_inputs_rejected(ref):
    with pytest.raises(DegenerateReferenceError):
        snr(np.zeros(10), np.ones(10))
    with pytest.raises(ValueError):
        snr(ref, ref[:-1])


def test_waveform_inputs_accepted(ref):
    from stemscribe.audio_io import Waveform
    w = Waveform(ref[None, :], 8000)
    assert np.isposinf(snr(w, w))
