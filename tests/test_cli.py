import argparse
import collections
import csv
import ctypes
import hashlib
import io
import json
import logging
import os
import platform
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from stemscribe import audio_io, cli, dsp, nn, separation
from stemscribe.audio_io import Waveform, read_wav, write_wav
from stemscribe.config import PipelineConfig
from stemscribe.midi import read_smf, write_smf
from stemscribe.pianoroll import N_KEYS, NoteEvent, PianoRoll
from stemscribe.separation import SeparatorModel
from tests.conftest import STUB_FAIL
from tests.test_audio_io import fmt_chunk, pack_codes, riff_wave
from tests.test_nn import two_loop_backward, two_loop_forward

TINY_CONFIG = {
    "stft": {"fft_size": 128, "hop": 32},
    "cqt": {"n_bins": 24, "f_min": 110.0},
    "separator": {"hidden": 8, "layers": 1},
    "amt": {"conv_channels": 2, "hidden": 4},
    "seed": 0,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture
def mixture_wav(tmp_path, rng):
    t = np.arange(8000) / 8000.0
    x = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.1 * rng.standard_normal(t.size)
    path = tmp_path / "mixture.wav"
    write_wav(Waveform(x[None, :], 8000), path)
    return path


def run_fresh_python(code: str, *args: str) -> str:
    """The last line `code` prints in a new interpreter that imports stemscribe
    from src/; its first line must be the path of the stemscribe.cli it ran."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("MUSESCORE_PATH", None)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert Path(lines[0]).resolve().is_relative_to(src)
    return lines[-1]


# The scipy modules the interpreter has loaded, sorted.
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_commands_that_do_not_resample_load_no_scipy(tmp_path, tiny_config):
    # only resampling needs scipy, and loading scipy.special alone costs ~0.35 s and 25 MB
    mixture = tmp_path / "mix.wav"
    t = np.arange(11025) / 22050.0
    write_wav(Waveform(0.3 * np.sin(2 * np.pi * 440.0 * t)[None, :], 22050), mixture)
    out = tmp_path / "out"
    code = f"""
import json, sys
import stemscribe.cli as cli
print(cli.__file__)
loaded = [{SCIPY_MODULES}]
mixture, config, out = sys.argv[1:]
for argv in (["separate", mixture, "--out-dir", out],
             ["transcribe", mixture, "--out", out + "/mix.mid"],
             ["pipeline", mixture, "--out-dir", out + "/pipeline"]):
    assert cli.main([*argv, "--config", config]) == 0, argv
    loaded.append({SCIPY_MODULES})
print(json.dumps(loaded))
"""
    loaded = json.loads(run_fresh_python(code, str(mixture), tiny_config, str(out)))
    assert loaded == [[]] * 4  # after the import, then after each command
    assert (out / "mix_vocals.wav").is_file() and (out / "pipeline" / "mix_vocals.mid").is_file()


def test_transcribe_still_resamples_a_16khz_wav(tmp_path, tiny_config):
    audio = tmp_path / "low.wav"
    write_wav(Waveform(np.zeros((1, 8000)), 16000), audio)
    code = f"""
import json, sys
import stemscribe.cli as cli
print(cli.__file__)
assert cli.main(["transcribe", sys.argv[1], "--out", sys.argv[2], "--config", sys.argv[3]]) == 0
print(json.dumps({SCIPY_MODULES}))
"""
    loaded = json.loads(run_fresh_python(code, str(audio), str(tmp_path / "low.mid"),
                                         tiny_config))
    assert "scipy.signal" in loaded
    cqt = PipelineConfig.load(tiny_config).cqt
    frames = PianoRoll.load(tmp_path / "low.prol").num_frames
    assert frames == dsp.num_cqt_frames(11025, cqt) != dsp.num_cqt_frames(8000, cqt)


def test_separate_writes_stems_and_audit_files(tmp_path, tiny_config, mixture_wav):
    out = tmp_path / "sep"
    code = cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config])
    assert code == 0
    assert (out / "mixture_vocals.wav").exists()
    assert (out / "mixture_accompaniment.wav").exists()
    mask = np.loadtxt(out / "mixture_mask.csv", delimiter=",")
    assert ((mask >= 0.0) & (mask <= 1.0)).all()
    stats = (out / "mixture_spectrogram_stats.csv").read_text().splitlines()
    assert stats[0] == "frame,mean_db,max_db"
    assert len(stats) > 1


# Analysis frames per separation block in the tests that run a multi-block
# pass: the 8000-sample mixture at the tiny config is 255 frames, 4 blocks.
SMALL_BLOCK = 64


def analysis_grid(wav_path, config_path):
    """The whole analysis_spectrogram of a mixture file under a config."""
    return separation.analysis_spectrogram(read_wav(wav_path),
                                           PipelineConfig.load(config_path).stft)


def test_separate_runs_one_analysis_stft(tmp_path, tiny_config, mixture_wav, monkeypatch):
    # every frame of the analysis grid is transformed exactly once, in order
    grid = analysis_grid(mixture_wav, tiny_config)
    blocks = []

    def keeping_stft(*args, **kwargs):
        spec = stft(*args, **kwargs)
        blocks.append(spec)
        return spec

    stft = separation.stft
    monkeypatch.setattr(separation, "stft", keeping_stft)
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "sep"),
                     "--config", tiny_config]) == 0
    assert len(blocks) == -(-grid.shape[0] // SMALL_BLOCK) > 1
    assert np.array_equal(np.concatenate(blocks), grid)


@pytest.mark.parametrize("command", ["separate", "pipeline"])
def test_separation_is_one_pass(tmp_path, tiny_config, mixture_wav, monkeypatch, command):
    # Every analysis frame goes once through the STFT, once through the
    # log-magnitude grid (model input and stats CSV) and once through the
    # inverse STFT, whatever the blocks; the accompaniment needs no second
    # inverse.  The note model's one log grid of the vocals is separate.
    n_frames = len(analysis_grid(mixture_wav, tiny_config))
    frames = collections.Counter()
    calls = collections.Counter()

    def counting(key, fn, frames_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] += 1
            frames[key] += frames_of(args[0], result)
            return result
        return wrapper

    frames_of = {"stft": lambda x, spec: len(spec),
                 "istft": lambda spec, x: len(spec),
                 "log_magnitude": lambda grid, out: grid.shape[0]}
    originals = {name: getattr(dsp, name) for name in frames_of}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("stemscribe"):
            continue
        for name, fn in originals.items():
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting((mod_name, name), fn, frames_of[name]))
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    assert cli.main([command, str(mixture_wav), "--out-dir", str(tmp_path / "out"),
                     "--config", tiny_config]) == 0

    def total(counter, name, amt: bool = False) -> int:
        return sum(n for (mod_name, fn_name), n in counter.items()
                   if fn_name == name and (mod_name == "stemscribe.transcription") == amt)

    assert total(calls, "stft") > 1
    assert [total(frames, name) for name in frames_of] == [n_frames] * 3
    assert total(calls, "log_magnitude", amt=True) == (1 if command == "pipeline" else 0)


def test_separate_ones_mask_passes_mixture_through(tmp_path, tiny_config, mixture_wav):
    out = tmp_path / "ones"
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config, "--mask-mode", "ones"]) == 0
    original = read_wav(mixture_wav).samples
    vocals = read_wav(out / "mixture_vocals.wav").samples
    # reconstruction plus one round of 16-bit quantization
    assert np.max(np.abs(vocals - original)) <= 2.0 ** -15
    accomp = read_wav(out / "mixture_accompaniment.wav").samples
    assert np.max(np.abs(accomp)) <= 2.0 ** -15


def test_separate_warns_about_a_clipped_stem(tmp_path, tiny_config, caplog):
    # a float32 mixture above full scale passes through a ones mask into vocals
    t = np.arange(8000) / 8000.0
    loud = tmp_path / "loud.wav"
    write_wav(Waveform(1.5 * np.sin(2 * np.pi * 440.0 * t)[None, :], 8000), loud, bit_depth=32)
    assert cli.main(["separate", str(loud), "--out-dir", str(tmp_path / "o"),
                     "--config", tiny_config, "--mask-mode", "ones"]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert warnings[0].startswith("vocals stem: ")
    assert "samples clipped" in warnings[0]


def test_separate_of_a_quiet_mixture_warns_of_nothing(tmp_path, tiny_config, mixture_wav,
                                                      caplog):
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "o"),
                     "--config", tiny_config, "--mask-mode", "ones"]) == 0
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_separate_zeros_mask_silences_vocals(tmp_path, tiny_config, mixture_wav):
    out = tmp_path / "zeros"
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config, "--mask-mode", "zeros"]) == 0
    vocals = read_wav(out / "mixture_vocals.wav").samples
    assert np.max(np.abs(vocals)) <= 2.0 ** -15


def savetxt_mask_csv(mask, path):
    """The mask CSV writer before block formatting, the byte reference."""
    np.savetxt(path, mask, fmt="%.6f", delimiter=",")


def loop_stats_csv(log_mag, path):
    """The stats CSV writer before its reductions were taken once per grid,
    the byte reference."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "mean_db", "max_db"])
        for i, row in enumerate(log_mag):
            writer.writerow([i, f"{row.mean():.4f}", f"{row.max():.4f}"])


def mask_csv(mask, path):
    """cli._write_mask_csv of one grid to a new file."""
    with open(path, "wb") as f:
        cli._write_mask_csv(mask, f)


def stats_csv(log_mag, path):
    """cli._write_stats_csv of one grid to a new file."""
    with open(path, "w", newline="") as f:
        cli._write_stats_csv(log_mag, f)


def assert_same_bytes(write, reference, grid, tmp_path):
    write(grid, tmp_path / "new.csv")
    reference(grid, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def mask_grid(rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, (rows, cols))
    if kind == "logistic":  # saturated like an untrained separator's sigmoid
        return expit(rng.normal(0.0, 8.0, (rows, cols)))
    if kind == "dyadic":  # multiples of 2**-20 hit exact halfway points, e.g. 1/128
        return rng.integers(0, 2**20 + 1, (rows, cols)) / 2.0**20
    # the doubles nearest (k + 0.5) / 1e6: about half of them lie above the
    # halfway point while m * 1e6 rounds to it exactly, e.g. 2.5e-6
    return (rng.integers(0, 10**6, (rows, cols)) + 0.5) / 1e6


@given(rows=st.integers(0, 2100), cols=st.integers(1, 12),
       kind=st.sampled_from(["uniform", "logistic", "dyadic", "decimal"]), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_mask_csv_bytes_equal_savetxt(tmp_path_factory, rows, cols, kind, seed, extra):
    grid = mask_grid(rows, cols, kind, seed)
    flat = grid.reshape(-1)
    flat[: min(len(extra), flat.size)] = extra[: flat.size]
    assert_same_bytes(mask_csv, savetxt_mask_csv, grid, tmp_path_factory.mktemp("m"))


HALFWAY = (2 * np.arange(64) + 1) / 128  # x * 1e6 is exactly k + 0.5
SPECIAL = np.array([0.0, 1.0, 5e-7, 1.5e-6, 0.1234565, 0.9999995, 1e-300,
                    2.5e-6, 0.5000015, 0.9999985])  # %.6f rounds these three up


@pytest.mark.parametrize("values", [HALFWAY, SPECIAL], ids=["halfway", "special"])
def test_mask_csv_rounds_like_percent_format(tmp_path, values):
    mask_csv(values[:, None], tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == b"".join(b"%.6f\n" % v for v in values)
    for grid in (values[None, :], np.tile(values, (3, 2))):
        assert_same_bytes(mask_csv, savetxt_mask_csv, grid, tmp_path)


def test_mask_csv_rounds_the_exact_value_half_to_even():
    f = io.BytesIO()
    cli._write_mask_csv(np.array([[1 / 128, 3 / 128, 2.5e-6]]), f)
    assert f.getvalue() == b"0.007812,0.023438,0.000003\n"


@pytest.mark.parametrize("shape", [(1, 257), (300, 1), (1024, 3), (2048, 2), (1101, 5),
                                   (0, 257)])
def test_mask_csv_shapes_match_savetxt(tmp_path, shape):
    assert_same_bytes(mask_csv, savetxt_mask_csv,
                      mask_grid(*shape, "logistic", 0), tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9, 1 + 1e-9, -0.0])
def test_mask_csv_outside_the_unit_interval_is_refused_before_any_row(tmp_path, tiny_config,
                                                                     mixture_wav, bad):
    # separate_blocks refuses the mask rows of a block before the CSV
    # writer sees them; here the grid is one block
    n_frames = len(analysis_grid(mixture_wav, tiny_config))

    def masks(t0, log_mag):
        grid = mask_grid(*log_mag.shape, "uniform", 1)
        grid[-17, 3] = bad
        return grid

    out = tmp_path / "out"
    with audio_io.WavReader(mixture_wav) as mixture, pytest.raises(
            ValueError, match=rf"mask rows of frames 0\.\.{n_frames - 1}: 1 values NaN, "
                              r"outside \[0, 1\] or -0\.0, .*the separator has diverged"):
        cli._separate_to_dir(mixture, masks, PipelineConfig.load(tiny_config), out, "m")
    assert (out / "m_mask.csv").read_bytes() == b""


def diverged_checkpoint(tmp_path, tiny_config) -> str:
    """A separator checkpoint whose head bias is NaN, so every mask value is."""
    state = cli._separator_model(PipelineConfig.load(tiny_config), None).state()
    state["head.b"] = np.full_like(state["head.b"], np.nan)
    nn.save_checkpoint(tmp_path / "nan.ssnn", state)
    return str(tmp_path / "nan.ssnn")


def test_separate_with_a_diverged_checkpoint_exits_2_naming_the_mask(tmp_path, tiny_config,
                                                                     mixture_wav, caplog):
    out = tmp_path / "out"
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out), "--config",
                     tiny_config, "--checkpoint", diverged_checkpoint(tmp_path, tiny_config)]) == 2
    n_frames = len(analysis_grid(mixture_wav, tiny_config))
    assert f"mask rows of frames 0..{n_frames - 1}: " in caplog.text
    assert "the separator has diverged" in caplog.text
    assert (out / "mixture_mask.csv").read_bytes() == b""
    # the stems are written block by block, and a pass cut short leaves none
    assert not list(out.glob("*.wav"))


def test_a_pass_failing_after_its_first_block_leaves_no_stem(tmp_path, tiny_config,
                                                            mixture_wav, monkeypatch):
    # the first block's stem samples are written before the second block's
    # mask is refused; the stems go with the failure, the CSVs keep a block
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    masks = lambda t0, log_mag: np.full_like(log_mag, np.nan if t0 else 1.0)
    out = tmp_path / "out"
    with audio_io.WavReader(mixture_wav) as mixture, \
            pytest.raises(ValueError, match="the separator has diverged"):
        cli._separate_to_dir(mixture, masks, PipelineConfig.load(tiny_config), out, "m")
    assert not list(out.glob("*.wav"))
    assert len((out / "m_mask.csv").read_text().splitlines()) == SMALL_BLOCK


def test_stats_csv_keeps_the_sign_of_a_mean_that_rounds_to_zero(tmp_path):
    grid = np.array([[-0.00002, 0.0], [0.00002, -0.00004], [1.0, -3.0], [0.0, 0.0]])
    assert_same_bytes(stats_csv, loop_stats_csv, grid, tmp_path)
    rows = (tmp_path / "new.csv").read_text().splitlines()
    assert rows[1:3] == ["0,-0.0000,0.0000", "1,-0.0000,0.0000"]


def csv_writer_loss_csv(trace, path):
    """The loss CSV writer through csv.writer, the byte reference."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(trace):
            writer.writerow([epoch, f"{loss:.8f}"])


@given(trace=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30))
def test_loss_csv_bytes_equal_csv_writer(tmp_path_factory, trace):
    tmp_path = tmp_path_factory.mktemp("loss")
    cli._write_loss_csv(trace, tmp_path / "new.csv")
    csv_writer_loss_csv(trace, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_rows_written_block_by_block_equal_one_write(tmp_path):
    mask = mask_grid(300, 7, "logistic", 3)
    log_mag = np.random.default_rng(3).normal(-20.0, 30.0, (300, 7))
    with open(tmp_path / "mask.csv", "wb") as m, open(tmp_path / "stats.csv", "w",
                                                       newline="") as st_file:
        for r0 in (0, 100, 200):
            cli._write_mask_csv(mask[r0 : r0 + 100], m)
            cli._write_stats_csv(log_mag[r0 : r0 + 100], st_file, r0)
    savetxt_mask_csv(mask, tmp_path / "mask_ref.csv")
    loop_stats_csv(log_mag, tmp_path / "stats_ref.csv")
    for name in ("mask", "stats"):
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_ref.csv").read_bytes())


@pytest.mark.parametrize("mask_mode", ["model", "ones", "zeros"])
def test_separate_audit_csvs_keep_their_bytes(tmp_path, tiny_config, mixture_wav, monkeypatch,
                                              mask_mode):
    # in one block or several, the streamed CSVs have the bytes of the
    # reference writers applied to the whole-grid log magnitudes and mask
    log_mag = dsp.log_magnitude(np.abs(analysis_grid(mixture_wav, tiny_config)))
    if mask_mode == "model":
        cfg = PipelineConfig.load(tiny_config)
        mask = cli._separator_model(cfg, None).predict_mask(log_mag)
    else:
        mask = np.full(log_mag.shape, 1.0 if mask_mode == "ones" else 0.0)
    savetxt_mask_csv(mask, tmp_path / "mask.csv")
    loop_stats_csv(log_mag, tmp_path / "stats.csv")
    for block in (separation._SEP_BLOCK, SMALL_BLOCK):
        monkeypatch.setattr(separation, "_SEP_BLOCK", block)
        out = tmp_path / f"sep{block}"
        assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                         "--config", tiny_config, "--mask-mode", mask_mode]) == 0
        assert (out / "mixture_mask.csv").read_bytes() == (tmp_path / "mask.csv").read_bytes()
        assert ((out / "mixture_spectrogram_stats.csv").read_bytes()
                == (tmp_path / "stats.csv").read_bytes())


def test_separation_memory_grows_with_the_audio_not_the_grids(tmp_path, tiny_config,
                                                              monkeypatch):
    # From 4 to 8 blocks of SMALL_BLOCK frames the signals grow by 8192
    # samples.  Read from the file and written to the stems one block at a
    # time, they add less than one float64 copy of them; the whole padded
    # input, stems and write_wav temporaries held 6, and whole
    # (frames x bins) grids would add some 20 (64 kB each).
    cfg = PipelineConfig.load(tiny_config)
    model = cli._separator_model(cfg, None)
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    per_block = SMALL_BLOCK * cfg.stft.hop
    rng = np.random.default_rng(0)

    def peak(blocks):
        path = tmp_path / f"m{blocks}.wav"
        write_wav(Waveform(0.1 * rng.standard_normal((1, blocks * per_block)), 8000), path)
        tracemalloc.start()
        try:
            with audio_io.WavReader(path) as mixture:
                cli._separate_to_dir(mixture, model.masks(), cfg, tmp_path / str(blocks), "m")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) - peak(4) < 8 * 4 * per_block


def test_separating_10_s_at_the_default_config_peaks_under_16_mb(tmp_path):
    # 12.0 MB under tracemalloc with blocks of 512 frames whose mask CSV
    # rows are written from one record array; 22.8 MB with blocks of 1024
    # frames whose CSV rows were copied to bytes first
    cfg = PipelineConfig()
    rate = 22050
    noise = 0.1 * np.random.default_rng(0).standard_normal((1, 10 * rate))
    write_wav(Waveform(noise, rate), tmp_path / "m.wav")
    model = cli._separator_model(cfg, None)
    tracemalloc.start()
    try:
        with audio_io.WavReader(tmp_path / "m.wav") as mixture:
            cli._separate_to_dir(mixture, model.masks(), cfg, tmp_path / "out", "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.fixture
def swapped_checkpoints(tmp_path, tiny_config):
    """Each model's fresh checkpoint under the other's name: loading either
    into the model its name suggests fails."""
    cfg = PipelineConfig.load(tiny_config)
    nn.save_checkpoint(tmp_path / "separator.ssnn", cli._amt_model(cfg, None).state())
    nn.save_checkpoint(tmp_path / "amt.ssnn", cli._separator_model(cfg, None).state())
    return {"--sep-checkpoint": str(tmp_path / "separator.ssnn"),
            "--amt-checkpoint": str(tmp_path / "amt.ssnn")}


@pytest.mark.parametrize("mask_mode, code", [("ones", 0), ("zeros", 0), ("model", 2)])
def test_separate_reads_the_checkpoint_only_under_the_model_mask(tmp_path, tiny_config,
                                                                 mixture_wav, swapped_checkpoints,
                                                                 mask_mode, code):
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "o"),
                     "--config", tiny_config, "--mask-mode", mask_mode,
                     "--checkpoint", swapped_checkpoints["--sep-checkpoint"]]) == code


def test_separate_missing_input_is_invalid(tmp_path, tiny_config):
    assert cli.main(["separate", str(tmp_path / "no.wav"),
                     "--out-dir", str(tmp_path), "--config", tiny_config]) == 2


def test_separate_refuses_a_gapped_window_before_writing(tmp_path, mixture_wav):
    # a hann window at hop == fft_size is zero between frames
    config = tmp_path / "gapped.json"
    config.write_text(json.dumps({**TINY_CONFIG, "stft": {"fft_size": 128, "hop": 128}}))
    out = tmp_path / "sep"
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                     "--config", str(config)]) == 2
    assert not list(out.glob("*.csv")) and not list(out.glob("*.wav"))


@pytest.mark.parametrize("command", ["separate", "pipeline"])
def test_a_mixture_with_no_samples_is_refused_before_writing(tmp_path, tiny_config, command,
                                                             caplog):
    empty = tmp_path / "empty.wav"
    write_wav(Waveform(np.zeros((1, 0)), 8000), empty)
    out = tmp_path / "out"
    assert cli.main([command, str(empty), "--out-dir", str(out), "--config", tiny_config]) == 2
    assert "'empty' has no samples" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["separate", "pipeline"])
def test_a_non_finite_sample_in_a_float_wav_is_refused_before_any_output(
        tmp_path, tiny_config, monkeypatch, caplog, command):
    # the reader scans a float payload block by block when it opens the
    # file; the NaN sits in the last block of the scan and of the pass
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(audio_io, "_SCAN_FRAMES", 1000)
    x = 0.1 * np.random.default_rng(2).standard_normal((1, 8000))
    x[0, -3] = np.nan
    with audio_io.WavWriter(tmp_path / "nan.wav", 8000, 1, x.shape[1], bit_depth=32) as f:
        f.write(x)
    out = tmp_path / "out"
    assert cli.main([command, str(tmp_path / "nan.wav"), "--out-dir", str(out),
                     "--config", tiny_config]) == 2
    assert f"{tmp_path / 'nan.wav'}: samples contain NaN or Inf" in caplog.text
    assert not out.exists()


def test_separate_refuses_a_sample_rate_of_zero(tmp_path, tiny_config, mixture_wav, caplog):
    data = bytearray(mixture_wav.read_bytes())
    data[24:28] = bytes(4)  # the fmt chunk's sample rate
    (tmp_path / "rate0.wav").write_bytes(data)
    out = tmp_path / "out"
    assert cli.main(["separate", str(tmp_path / "rate0.wav"), "--out-dir", str(out),
                     "--config", tiny_config]) == 2
    assert "invalid sample rate 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("case", ["stereo", "pcm8", "pcm24", "float32", "extensible",
                                  "truncated"])
def test_file_to_file_stems_equal_read_wav_then_separation_in_memory(tmp_path, tiny_config,
                                                                    monkeypatch, caplog, case):
    # separate reads the input and writes the stems one block at a time;
    # its stems have the bytes of the whole file read, separated in
    # memory and written whole, for every layout the reader decodes
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    channels = 2 if case in ("stereo", "extensible") else 1
    tag, bits, sub_tag = {"stereo": (1, 16, None), "pcm8": (1, 8, None),
                          "pcm24": (1, 24, None), "float32": (3, 32, None),
                          "extensible": (0xFFFE, 24, 1), "truncated": (1, 16, None)}[case]
    x = np.clip(0.3 * np.random.default_rng(3).standard_normal((channels, 8000)), -1, 1)
    if tag == 3:
        payload = x.T.astype("<f4").tobytes()
    else:
        top = 2 ** (bits - 1)
        codes = np.clip(np.round(x * top), -top, top - 1).astype(int)
        payload = pack_codes(bits, codes.T.ravel().tolist())
    data = riff_wave(fmt_chunk(tag, channels, bits, sub_tag=sub_tag), payload)
    path = tmp_path / "in.wav"
    path.write_bytes(data[:-1001] if case == "truncated" else data)

    out = tmp_path / "out"
    assert cli.main(["separate", str(path), "--out-dir", str(out), "--config", tiny_config]) == 0
    cfg = PipelineConfig.load(tiny_config)
    mixture = read_wav(path)
    stems = separation.separate_blocks(mixture, cli._separator_model(cfg, None).masks(), cfg.stft)
    for name, stem in zip(("vocals", "accompaniment"), stems):
        write_wav(stem, tmp_path / f"{name}.wav")
        assert (out / f"in_{name}.wav").read_bytes() == (tmp_path / f"{name}.wav").read_bytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    if case == "truncated":  # 1001 bytes are 500.5 frames: the partial one is dropped
        assert warnings == [f"{path}: truncated data chunk, 8000 frames declared, "
                            "7499 present"] * 2
        assert mixture.num_samples == 7499
    else:
        assert warnings == [] and mixture.samples.shape == (channels, 8000)


def test_separate_not_a_wav_is_invalid(tmp_path, tiny_config):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not audio at all")
    assert cli.main(["separate", str(bad), "--out-dir", str(tmp_path / "o"),
                     "--config", tiny_config]) == 2


def test_transcribe_writes_parseable_midi_and_roll(tmp_path, tiny_config):
    silent = tmp_path / "quiet.wav"
    write_wav(Waveform(np.zeros((1, 22050 // 2)), 22050), silent)
    out = tmp_path / "quiet.mid"
    assert cli.main(["transcribe", str(silent), "--out", str(out),
                     "--config", tiny_config]) == 0
    assert out.read_bytes()[:4] == b"MThd"
    read_smf(out)  # untrained output, but structurally valid
    assert out.with_suffix(".prol").exists()


# raw3 to raw6 are training-run values, which only the command line sets;
# the STFT window is no setting: it is always the periodic Hann; raw8 to
# raw10 are note-model values its config, AmtConfig, refuses.
@pytest.mark.parametrize("raw", [{"stft": {"fft_sise": 256}}, [1, 2],
                                 {"paths": {"work_dir": "work"}},
                                 {"separator": {"epochs": 1}}, {"separator": {"batch_size": 4}},
                                 {"separator": {"clip_seconds": 1.0}}, {"amt": {"epochs": 1}},
                                 {"stft": {"window": "hann"}},
                                 {"amt": {"threshold": 0.0}}, {"amt": {"hidden": 0}},
                                 {"amt": {"conv_channels": 0}}])
def test_bad_config_is_invalid(tmp_path, mixture_wav, raw):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "o"),
                     "--config", str(config)]) == 2


@pytest.mark.parametrize("raw, key", [({"seed": "x"}, "seed"), ({"stft": {"hop": "a"}}, "stft.hop")])
def test_config_leaf_of_wrong_type_is_invalid(tmp_path, raw, key, caplog):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["train-separator", "--out-dir", str(tmp_path / "o"), "--config", str(config),
                     "--epochs", "1", "--synthetic", "2", "--remix-count", "2",
                     "--clip-seconds", "1.0"]) == 2
    assert f"config key {key} must be int" in caplog.text


def test_checkpoint_for_another_model_shape_is_invalid(tmp_path, tiny_config, mixture_wav):
    deeper = SeparatorModel(num_bins=65, hidden=8, layers=2, seed=0)
    nn.save_checkpoint(tmp_path / "deep.ssnn", deeper.state())
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "o"),
                     "--config", tiny_config, "--checkpoint", str(tmp_path / "deep.ssnn")]) == 2


# ---------------------------------------------------------------- render

@pytest.fixture
def midi_file(tmp_path):
    path = tmp_path / "song.mid"
    write_smf([NoteEvent(60, 0.0, 0.5), NoteEvent(64, 0.5, 1.0)], path)
    return path


def test_render_with_stub_succeeds(tmp_path, midi_file, make_stub):
    out = tmp_path / "song.pdf"
    code = cli.main(["render", str(midi_file), str(out),
                     "--musescore", str(make_stub())])
    assert code == 0
    assert out.read_bytes() == midi_file.read_bytes()


def test_render_uses_the_musescore_named_in_the_config(tmp_path, midi_file, make_stub,
                                                       monkeypatch):
    # the environment names a failing binary: only the config's may run
    monkeypatch.setenv("MUSESCORE_PATH", str(make_stub(STUB_FAIL, "failing_stub")))
    config = tmp_path / "render.json"
    config.write_text(json.dumps({"paths": {"musescore": str(make_stub())}}))
    out = tmp_path / "song.pdf"
    assert cli.main(["render", str(midi_file), str(out), "--config", str(config)]) == 0
    assert out.read_bytes() == midi_file.read_bytes()


def test_every_command_takes_config():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"separate", "transcribe", "render", "pipeline", "evaluate",
                             "train-separator", "train-amt", "mix"}
    for name, sub in commands.items():
        assert "--config" in sub._option_string_actions, name


def test_every_readme_command_line_parses():
    # each `stemscribe ...` line of README.md's code blocks, so that a
    # renamed or re-typed option fails here before a reader meets it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.strip() for block in readme.split("```")[1::2]
             for line in block.splitlines() if line.strip().startswith("stemscribe ")]
    commands = {cli.build_parser().parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"separate", "transcribe", "render", "pipeline", "evaluate",
                        "train-separator", "train-amt", "mix"}, lines


def test_the_readme_config_example_loads():
    # README.md's JSON blocks that are objects are run configs (a list is a manifest)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [json.loads(block.removeprefix("json")) for block in readme.split("```")[1::2]
              if block.startswith("json")]
    configs = [b for b in blocks if isinstance(b, dict)]
    assert len(configs) == 1
    assert PipelineConfig.from_dict(configs[0]) == PipelineConfig()


def test_render_without_binary_is_missing_dependency(midi_file, tmp_path, no_musescore):
    assert cli.main(["render", str(midi_file), str(tmp_path / "o.pdf")]) == 3


def test_render_rejects_malformed_midi_before_spawning(tmp_path, make_stub):
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"MThd but not really")
    assert cli.main(["render", str(bad), str(tmp_path / "o.pdf"),
                     "--musescore", str(make_stub())]) == 2


def test_render_refuses_a_track_ending_in_a_bare_meta_status(tmp_path, make_stub, caplog):
    # format 0, one track, 480 ticks per quarter; the track body is 00 FF
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"MThd" + (6).to_bytes(4, "big") + bytes([0, 0, 0, 1, 1, 0xE0])
                    + b"MTrk" + (2).to_bytes(4, "big") + b"\x00\xff")
    assert cli.main(["render", str(bad), str(tmp_path / "o.pdf"),
                     "--musescore", str(make_stub())]) == 2
    assert "truncated meta event" in caplog.text
    assert not (tmp_path / "o.pdf").exists()


@pytest.mark.parametrize("command", [
    ["transcribe", "{dir}", "--out", "{out}/x.mid"],
    ["separate", "{wav}", "--out-dir", "{out}", "--checkpoint", "{dir}"],
    ["render", "{dir}", "{out}/o.pdf"],
], ids=["transcribe-input", "separate-checkpoint", "render-input"])
def test_a_directory_in_place_of_an_input_file_is_invalid(tmp_path, tiny_config, mixture_wav,
                                                          command, caplog):
    paths = {"dir": tmp_path / "a_dir", "out": tmp_path / "out", "wav": mixture_wav}
    paths["dir"].mkdir()
    argv = [arg.format(**paths) for arg in command]
    assert cli.main([*argv, "--config", tiny_config]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "a_dir" in errors[0], errors


# -------------------------------------------------------------- pipeline

def test_pipeline_full_run_with_stub(tmp_path, tiny_config, mixture_wav, make_stub):
    out = tmp_path / "run"
    code = cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config, "--musescore", str(make_stub())])
    assert code == 0
    report = json.loads((out / "pipeline_report.json").read_text())
    # artifacts are named relative to --out-dir
    assert report == {
        "separate": {"status": "ok", "vocals": "mixture_vocals.wav",
                     "accompaniment": "mixture_accompaniment.wav"},
        "transcribe": {"status": "ok", "midi": "mixture_vocals.mid"},
        "render": {"status": "ok", "pdf": "mixture_vocals.pdf"},
    }
    assert (out / "mixture_vocals.wav").exists()
    assert (out / "mixture_vocals.mid").exists()
    assert (out / "mixture_vocals.pdf").exists()


def test_pipeline_survives_missing_renderer(tmp_path, tiny_config, mixture_wav,
                                            no_musescore):
    out = tmp_path / "run"
    code = cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config])
    assert code == 0  # stems and MIDI still land
    report = json.loads((out / "pipeline_report.json").read_text())
    assert report["render"]["status"] == "skipped"
    assert (out / "mixture_vocals.wav").exists()
    assert (out / "mixture_vocals.mid").exists()
    assert not (out / "mixture_vocals.pdf").exists()


def test_pipeline_is_deterministic_for_a_seed(tmp_path, tiny_config, mixture_wav,
                                              no_musescore):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                         "--config", tiny_config, "--seed", "5"]) == 0
        # the report names no directory, so it too is the same in both
        outs.append([(out / name).read_bytes()
                     for name in ("mixture_vocals.mid", "pipeline_report.json")])
    assert outs[0] == outs[1]


# -------------------------------------------------------------- evaluate

def test_evaluate_empty_manifest_writes_empty_reports(tmp_path, tiny_config):
    manifest = tmp_path / "tracks.json"
    manifest.write_text("[]")
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--manifest", str(manifest),
                     "--out-dir", str(out), "--config", tiny_config]) == 0
    assert json.loads((out / "separation_metrics.json").read_text()) == {}
    assert json.loads((out / "amt_metrics.json").read_text()) == {}


def test_evaluate_missing_manifest_is_invalid(tmp_path, tiny_config):
    assert cli.main(["evaluate", "--manifest", str(tmp_path / "gone.json"),
                     "--out-dir", str(tmp_path / "e"), "--config", tiny_config]) == 2


@pytest.fixture
def eval_manifest(tmp_path, rng):
    t = np.arange(8000) / 8000.0
    vocals = 0.4 * np.sin(2 * np.pi * 440.0 * t)
    accomp = 0.2 * rng.standard_normal(t.size)
    write_wav(Waveform(vocals[None, :], 8000), tmp_path / "vocals.wav", bit_depth=32)
    write_wav(Waveform(accomp[None, :], 8000), tmp_path / "accomp.wav", bit_depth=32)
    write_wav(Waveform((vocals + accomp)[None, :], 8000), tmp_path / "mix.wav",
              bit_depth=32)
    write_smf([NoteEvent(60, 0.1, 0.4), NoteEvent(67, 0.5, 0.9)], tmp_path / "ref.mid")
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{
        "mixture": "mix.wav",
        "stems": {"vocals": "vocals.wav", "accompaniment": "accomp.wav"},
        "midi": "ref.mid",
    }]))
    return manifest


def test_evaluate_oracle_mask_beats_ten_db(tmp_path, tiny_config, eval_manifest):
    out = tmp_path / "eval_irm"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest),
                     "--out-dir", str(out), "--config", tiny_config,
                     "--separator", "irm", "--amt-mode", "oracle"]) == 0
    sep = json.loads((out / "separation_metrics.json").read_text())
    assert sep["mix"]["vocals"]["si_sdri"] > 10.0
    assert sep["mix"]["vocals"]["snri"] > 10.0
    assert sep["mix"]["vocals"]["clamped"] == sep["mix"]["accompaniment"]["clamped"] == []
    amt = json.loads((out / "amt_metrics.json").read_text())
    assert amt["mix"]["frame"]["f1"] == 1.0
    assert amt["mix"]["onset"]["f1"] == 1.0
    assert amt["mix"]["frame"]["undefined"] == amt["mix"]["onset"]["undefined"] == []


def test_evaluate_oracle_amt_mode_never_runs_the_note_model(tmp_path, tiny_config,
                                                          eval_manifest, monkeypatch):
    def refuse(self, seg):
        raise AssertionError("the note model ran in oracle mode")

    monkeypatch.setattr(cli.AmtModel, "predict", refuse)
    out = tmp_path / "eval_oracle"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest),
                     "--out-dir", str(out), "--config", tiny_config,
                     "--separator", "mixture", "--amt-mode", "oracle"]) == 0
    amt = json.loads((out / "amt_metrics.json").read_text())
    assert amt["mix"]["frame"]["f1"] == amt["mix"]["onset"]["f1"] == 1.0


def test_evaluate_oracle_amt_mode_never_resamples(tmp_path, tiny_config, eval_manifest,
                                                 monkeypatch):
    # the oracle grid has the frames of the mixture resampled to the CQT
    # rate, counted without resampling it: the bytes of the resampling run
    cfg = PipelineConfig.load(tiny_config)
    mixture = read_wav(eval_manifest.parent / "mix.wav")
    n = audio_io.resample(mixture, cfg.cqt.sample_rate).num_samples
    assert mixture.sample_rate != cfg.cqt.sample_rate
    _, notes = read_smf(eval_manifest.parent / "ref.mid")
    truth = cli.rasterize_notes(notes, cfg.cqt.frame_time, dsp.num_cqt_frames(n, cfg.cqt))
    expected = {"mix": {"frame": cli._scores_dict(cli.frame_metrics(truth, truth)),
                        "onset": cli._scores_dict(cli.onset_metrics(truth, truth,
                                                                    tolerance=0.05))}}

    def refuse(*args, **kwargs):
        raise AssertionError("oracle mode resampled the mixture")

    monkeypatch.setattr(audio_io, "resample", refuse)
    monkeypatch.setattr(cli, "resample", refuse, raising=False)
    out = tmp_path / "eval_oracle"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest),
                     "--out-dir", str(out), "--config", tiny_config,
                     "--separator", "mixture", "--amt-mode", "oracle"]) == 0
    assert (out / "amt_metrics.json").read_text() == json.dumps(expected, indent=2,
                                                                sort_keys=True) + "\n"


@pytest.mark.parametrize("separator, amt_mode, checkpoints, code", [
    ("mixture", "oracle", ["--sep-checkpoint"], 0),
    ("irm", "oracle", ["--sep-checkpoint", "--amt-checkpoint"], 0),
    ("model", "oracle", ["--sep-checkpoint"], 2),
    ("mixture", "model", ["--amt-checkpoint"], 2),
])
def test_evaluate_reads_a_checkpoint_only_under_the_mode_that_runs_its_model(
        tmp_path, tiny_config, eval_manifest, swapped_checkpoints, separator, amt_mode,
        checkpoints, code):
    argv = ["evaluate", "--manifest", str(eval_manifest), "--out-dir", str(tmp_path / "e"),
            "--config", tiny_config, "--separator", separator, "--amt-mode", amt_mode]
    for option in checkpoints:
        argv += [option, swapped_checkpoints[option]]
    assert cli.main(argv) == code


def test_evaluate_with_a_diverged_checkpoint_exits_2(tmp_path, tiny_config, eval_manifest,
                                                     caplog):
    # the mask check of separate_blocks guards evaluate, which writes no mask CSV
    assert cli.main(["evaluate", "--manifest", str(eval_manifest), "--out-dir",
                     str(tmp_path / "e"), "--config", tiny_config, "--separator", "model",
                     "--amt-mode", "oracle",
                     "--sep-checkpoint", diverged_checkpoint(tmp_path, tiny_config)]) == 2
    assert "the separator has diverged" in caplog.text


@pytest.mark.parametrize("separator", ["model", "irm", "mixture"])
@pytest.mark.parametrize("change", ["rate", "longer", "shorter"])
def test_evaluate_refuses_a_reference_unlike_the_mixture(tmp_path, tiny_config, eval_manifest,
                                                         caplog, separator, change):
    # The metrics compare samples one to one. A reference one sample
    # shorter than the 8000-sample mixture lands on its analysis grid, so
    # only this rule keeps --separator irm from trimming it silently.
    path = eval_manifest.parent / "vocals.wav"
    stem = read_wav(path)
    if change == "rate":
        stem = Waveform(stem.samples, 2 * stem.sample_rate)
    else:
        stem = Waveform(stem.samples[:, :-1] if change == "shorter"
                        else np.pad(stem.samples, ((0, 0), (0, 1))), stem.sample_rate)
    write_wav(stem, path, bit_depth=32)
    out = tmp_path / "e"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest), "--out-dir", str(out),
                     "--config", tiny_config, "--separator", separator,
                     "--amt-mode", "oracle"]) == 2
    assert (f"reference {path} has {stem.num_samples} samples at {stem.sample_rate} Hz, "
            f"the mixture {eval_manifest.parent / 'mix.wav'} 8000 at 8000 Hz") in caplog.text
    assert not any(out.glob("*.json"))


def test_evaluate_irm_memory_grows_with_the_audio_not_the_grids(tmp_path, tiny_config,
                                                                monkeypatch):
    # From 4 to 8 blocks of SMALL_BLOCK frames the signals grow by 8192
    # samples.  Building the oracle mask block by block, evaluate --separator
    # irm holds about 11 float64 copies of them at its peak, in the metric
    # suite, as --separator model does; the two whole reference grids, their
    # magnitudes and the mask it replaced held some 15.
    monkeypatch.setattr(separation, "_SEP_BLOCK", SMALL_BLOCK)
    per_block = SMALL_BLOCK * PipelineConfig.load(tiny_config).stft.hop
    rng = np.random.default_rng(0)

    def peak(blocks):
        track = tmp_path / str(blocks)
        track.mkdir()
        vocals = 0.3 * rng.standard_normal(blocks * per_block)
        accomp = 0.1 * rng.standard_normal(vocals.size)
        for name, x in (("vocals", vocals), ("accomp", accomp), ("mix", vocals + accomp)):
            write_wav(Waveform(x[None, :], 8000), track / f"{name}.wav", bit_depth=32)
        manifest = track / "tracks.json"
        manifest.write_text(json.dumps([{
            "mixture": "mix.wav",
            "stems": {"vocals": "vocals.wav", "accompaniment": "accomp.wav"},
        }]))
        argv = ["evaluate", "--manifest", str(manifest), "--out-dir", str(track / "e"),
                "--config", tiny_config, "--separator", "irm", "--amt-mode", "oracle"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) - peak(4) < 13 * 8 * 4 * per_block


@pytest.mark.parametrize("entries", [["mixture.wav"], [5],
                                     [{"mixture": "mixture.wav", "stems": ["v.wav"]}]])
def test_evaluate_manifest_entry_of_the_wrong_type_is_invalid(tmp_path, tiny_config,
                                                             mixture_wav, entries, caplog):
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps(entries))
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out-dir",
                     str(tmp_path / "out"), "--config", tiny_config]) == 2
    assert "track 0" in caplog.text


def test_evaluate_mixture_baseline_improves_nothing(tmp_path, tiny_config, eval_manifest):
    out = tmp_path / "eval_mix"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest),
                     "--out-dir", str(out), "--config", tiny_config,
                     "--separator", "mixture", "--amt-mode", "oracle"]) == 0
    sep = json.loads((out / "separation_metrics.json").read_text())
    assert sep["mix"]["vocals"]["si_sdri"] == pytest.approx(0.0, abs=1e-9)
    assert sep["mix"]["vocals"]["snri"] == pytest.approx(0.0, abs=1e-9)


def test_evaluate_flags_clamped_metrics_of_a_silent_estimate(tmp_path, tiny_config,
                                                            eval_manifest):
    # expit(-1000) is exactly 0: an all-zero mask and a silent vocal estimate
    state = SeparatorModel(num_bins=65, hidden=8, layers=1, seed=0).state()
    state["head.b"] = np.full_like(state["head.b"], -1000.0)
    checkpoint = tmp_path / "silent.ssnn"
    nn.save_checkpoint(checkpoint, state)
    out = tmp_path / "eval_silent"
    assert cli.main(["evaluate", "--manifest", str(eval_manifest),
                     "--out-dir", str(out), "--config", tiny_config,
                     "--sep-checkpoint", str(checkpoint), "--amt-mode", "oracle"]) == 0
    vocals = json.loads((out / "separation_metrics.json").read_text())["mix"]["vocals"]
    assert vocals["si_sdr"] == -300.0
    assert "si_sdr" in vocals["clamped"]
    assert vocals["clamped"] == sorted(vocals["clamped"])


def test_evaluate_flags_undefined_scores_of_an_empty_reference(tmp_path, tiny_config):
    write_wav(Waveform(0.1 * np.ones((1, 8000)), 8000), tmp_path / "mix.wav")
    write_smf([], tmp_path / "ref.mid")
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{"mixture": "mix.wav", "midi": "ref.mid"}]))
    out = tmp_path / "eval_empty"
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out),
                     "--config", tiny_config, "--amt-mode", "oracle"]) == 0
    amt = json.loads((out / "amt_metrics.json").read_text())["mix"]
    for kind in ("frame", "onset"):
        assert amt[kind]["f1"] == 0.0
        assert amt[kind]["undefined"] == ["f1", "precision", "recall"]


# -------------------------------------------------------------- training

def test_train_separator_zero_epochs_checkpoints_fresh_init(tmp_path, tiny_config):
    out = tmp_path / "train"
    code = cli.main(["train-separator", "--out-dir", str(out), "--config", tiny_config,
                     "--epochs", "0", "--synthetic", "2", "--remix-count", "2",
                     "--clip-seconds", "1.0"])
    assert code == 0
    saved = nn.load_checkpoint(out / "separator.ssnn")
    fresh = SeparatorModel(num_bins=65, hidden=8, layers=1, seed=0)
    for key, value in fresh.state().items():
        np.testing.assert_allclose(saved[key], value, atol=1e-6)
    assert (out / "separator_loss.csv").read_text().splitlines() == ["epoch,loss"]


def test_train_separator_one_epoch_moves_weights(tmp_path, tiny_config):
    out = tmp_path / "train1"
    code = cli.main(["train-separator", "--out-dir", str(out), "--config", tiny_config,
                     "--epochs", "1", "--synthetic", "2", "--remix-count", "2",
                     "--clip-seconds", "1.0"])
    assert code == 0
    saved = nn.load_checkpoint(out / "separator.ssnn")
    fresh = SeparatorModel(num_bins=65, hidden=8, layers=1, seed=0)
    moved = any(not np.allclose(saved[k], v, atol=1e-9)
                for k, v in fresh.params().items())
    assert moved
    rows = (out / "separator_loss.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,")


def test_train_amt_smoke(tmp_path, tiny_config):
    out = tmp_path / "amt"
    code = cli.main(["train-amt", "--out-dir", str(out), "--config", tiny_config,
                     "--epochs", "1", "--synthetic", "2", "--duration", "1.0",
                     "--window", "16", "--hop-frames", "8", "--batch-size", "2"])
    assert code == 0
    assert (out / "amt.ssnn").exists()
    rows = (out / "amt_loss.csv").read_text().splitlines()
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) > 0.0


@pytest.mark.parametrize("command", [
    ["train-amt", "--synthetic", "2", "--duration", "1.0", "--window", "16",
     "--hop-frames", "8", "--batch-size", "2"],
    ["train-separator", "--synthetic", "2", "--remix-count", "3", "--clip-seconds", "1.0"],
])
def test_debug_epoch_records_leave_the_loss_csv_and_checkpoint_alone(tmp_path, tiny_config,
                                                                     command, caplog):
    digests = []
    for level in (logging.WARNING, logging.DEBUG):
        out = tmp_path / logging.getLevelName(level)
        with caplog.at_level(level, logger="stemscribe"):
            assert cli.main([command[0], "--out-dir", str(out), "--config", tiny_config,
                             "--epochs", "3", *command[1:]]) == 0
        stem = command[0].removeprefix("train-")
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in (f"{stem}_loss.csv", f"{stem}.ssnn")])
    epochs = [r for r in caplog.records if r.name == "stemscribe.nn.optim"]
    assert len(epochs) == 3  # only the DEBUG run records them
    assert digests[0] == digests[1]


def test_train_amt_writes_the_bytes_of_the_two_loop_bilstm(tmp_path, tiny_config, monkeypatch):
    # The checkpoint stores float32, so the float64 tensors it is written
    # from are compared too: they show a last-bit difference the file hides.
    saved = []
    save = nn.save_checkpoint
    monkeypatch.setattr(nn, "save_checkpoint", lambda path, tensors: (
        saved.append({k: v.copy() for k, v in tensors.items()}), save(path, tensors)))
    argv = ["train-amt", "--config", tiny_config, "--synthetic", "3", "--duration", "1.0",
            "--window", "16", "--hop-frames", "8", "--batch-size", "2", "--epochs", "3"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "fused")]) == 0
    monkeypatch.setattr(nn.BiLstm, "forward", two_loop_forward)
    monkeypatch.setattr(nn.BiLstm, "backward", two_loop_backward)
    assert cli.main([*argv, "--out-dir", str(tmp_path / "two_loops")]) == 0
    for name in ("amt.ssnn", "amt_loss.csv"):
        assert (tmp_path / "fused" / name).read_bytes() == \
            (tmp_path / "two_loops" / name).read_bytes(), name
    fused, two_loops = saved[3], saved[7]  # after the last epoch of each run
    assert len(saved) == 8 and list(fused) == list(two_loops)
    for name, tensor in fused.items():
        assert np.array_equal(tensor, two_loops[name]), name


# Minor page faults of each AmtModel.loss_and_grad call of one train-amt
# run, at the note model's train_desk sizes, in a new interpreter.
TRAIN_AMT_FAULTS = """
import json, resource, sys
from stemscribe import cli
from stemscribe.transcription import AmtModel
print(cli.__file__)
faults, loss_and_grad = [], AmtModel.loss_and_grad
def counted(self, batch):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss = loss_and_grad(self, batch)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return loss
AmtModel.loss_and_grad = counted
assert cli.main(["train-amt", "--out-dir", sys.argv[1], "--config", sys.argv[2],
                 "--synthetic", "12", "--duration", "3.0", "--epochs", "3", "--window", "128",
                 "--hop-frames", "64", "--batch-size", "4", "--lr", "5e-3"]) == 0
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are pinned under glibc only")
def test_train_amt_batches_reuse_the_heap_of_the_batch_before(tmp_path):
    # Under glibc's dynamic thresholds the batches' multi-MB temporaries
    # (Conv2d's im2col, its gradient copies, the BiLstm step arrays) were
    # given back after each batch and faulted in again: 1,300-1,800 minor
    # faults per batch. Pinned by cli.main, the batches after the first
    # epoch take 0-50 on average. What is left comes from CPython's
    # small-object allocator, which maps its own 1 MiB arenas outside
    # malloc: one fresh arena is up to 256 faults, and the bound leaves
    # room for a few.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"amt": {"conv_channels": 4, "hidden": 16}}))
    faults = json.loads(run_fresh_python(TRAIN_AMT_FAULTS, str(tmp_path / "out"), str(config)))
    assert len(faults) == 9  # 3 epochs of 3 batches
    assert sum(faults[3:]) / 6 < 200, faults


@pytest.fixture
def desk_training(tmp_path):
    """The traced peak of cli.main on a training command at the train_desk
    model sizes, CQT kernel bases included: their cache is emptied first."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"amt": {"conv_channels": 4, "hidden": 16},
                                  "separator": {"hidden": 32, "layers": 2}}))

    def peak(command, *options):
        dsp._octave_bases.cache_clear()
        tracemalloc.start()
        try:
            assert cli.main([command, "--out-dir", str(tmp_path / "out"), "--config",
                             str(config), "--epochs", "1", *options]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


DESK_AMT = ("--duration", "3.0", "--window", "128", "--hop-frames", "64", "--batch-size", "4",
            "--lr", "5e-3")


def test_train_amt_at_desk_sizes_holds_no_finished_activations(desk_training):
    # One epoch at train_desk's sizes. Keeping every layer's cache to the
    # next batch and each clip's audio through the fit peaked at
    # 28.3-29.1 MB; with each cache consumed by its backward and the clips
    # streamed, 16.4-17.1 MB on numpy 2.4
    assert desk_training("train-amt", "--synthetic", "12", *DESK_AMT) < 22e6


def test_train_separator_at_desk_sizes_holds_no_finished_activations(desk_training):
    # One epoch at train_desk's sizes: 17.6 MB with every cache kept and
    # the loss's stacked copies, 14.3 MB with the loss in two buffers
    assert desk_training("train-separator", "--synthetic", "4", "--clip-seconds", "1.5",
                         "--sample-rate", "8000", "--remix-count", "6", "--lr", "1e-3") < 16e6


def test_train_amt_memory_grows_by_the_examples_alone(desk_training):
    # From 4 to 16 clips of 3 s the peak may grow by the 12 clips'
    # examples: a float64 feature grid and the roll's uint8 grid, of
    # which every window is a view. The slack is Adam's two moment
    # buffers (0.43 MB), which exist at the 16-clip peak but not yet at
    # the 4-clip one, a single batch. Holding each clip's audio through
    # the fit, and float64 target copies, grew it 8.9 MB; now 1.7 MB.
    cqt = PipelineConfig().cqt
    per_clip = dsp.num_cqt_frames(3 * cqt.sample_rate, cqt) * (cqt.n_bins * 8 + N_KEYS)
    growth = (desk_training("train-amt", "--synthetic", "16", *DESK_AMT)
              - desk_training("train-amt", "--synthetic", "4", *DESK_AMT))
    assert growth < 12 * per_clip + 0.6e6


# Minor page faults of each of three `separate` runs on one 10 s clip at
# the default sizes, through cli.main in one new interpreter.
SEPARATE_FAULTS = """
import json, resource, sys
from stemscribe import cli
print(cli.__file__)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["separate", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are pinned under glibc only")
def test_separate_runs_reuse_the_heap_of_the_run_before(tmp_path, rng):
    # Under glibc's dynamic thresholds each run gave back its multi-MB
    # block temporaries (STFT frames, masks, iSTFT sums) and faulted them
    # in again: 4,600-5,300 minor faults per run after the first on an
    # x86-64 host. Pinned by cli.main, the later runs take 10-40; the
    # bound leaves room for a fresh 1 MiB arena of CPython's small-object
    # allocator.
    t = np.arange(10 * 22050) / 22050.0
    x = 0.3 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(t.size)
    mixture = tmp_path / "mix.wav"
    write_wav(Waveform(x[None, :], 22050), mixture)
    faults = json.loads(run_fresh_python(SEPARATE_FAULTS, str(mixture), str(tmp_path / "out")))
    assert len(faults) == 3
    assert max(faults[1:]) < 300, faults


HEAP_RESERVE_FAULTS = """
import ctypes, json, resource
from stemscribe import cli
print(cli.__file__)
libc = cli._glibc()
cli._pin_heap_thresholds(libc)
cli._reserve_heap(libc)
libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli._reserve_heap(libc)  # the arena has not grown: nothing to touch
    block = libc.malloc(cli._HEAP_RESERVE)
    ctypes.memset(block, 1, cli._HEAP_RESERVE)
    libc.free(block)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap reserve is made under glibc only")
def test_heap_reserve_is_written_without_faults():
    # A fresh interpreter's top chunk is mostly untouched: writing a block
    # of the reserve's size carved from it faulted in ~480 pages before
    # _reserve_heap touched them
    faults = json.loads(run_fresh_python(HEAP_RESERVE_FAULTS))
    assert len(faults) == 3
    assert max(faults) < 64, faults


@pytest.mark.parametrize("no_mallopt",["other libc", "no mallopt", "no library"])
def test_fit_without_mallopt_trains_to_the_pinned_bytes(tmp_path, tiny_config, mixture_wav,
                                                        monkeypatch, no_mallopt):
    argv = ["train-amt", "--config", tiny_config, "--synthetic", "3", "--duration", "1.0",
            "--window", "16", "--hop-frames", "8", "--batch-size", "2", "--epochs", "2"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "pinned")]) == 0
    separate = ["separate", str(mixture_wav), "--config", tiny_config]
    assert cli.main([*separate, "--out-dir", str(tmp_path / "pinned")]) == 0

    def no_library(*args, **kwargs):
        raise OSError("no C library")

    if no_mallopt == "other libc":  # musl, or macOS: mallopt is never looked up
        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", None)
    else:
        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", no_library if no_mallopt == "no library"
                            else lambda *args, **kwargs: object())
    assert cli.main([*argv, "--out-dir", str(tmp_path / "unpinned")]) == 0
    assert cli.main([*separate, "--out-dir", str(tmp_path / "unpinned")]) == 0
    for name in ("amt.ssnn", "amt_loss.csv", "mixture_vocals.wav",
                 "mixture_accompaniment.wav"):
        assert (tmp_path / "pinned" / name).read_bytes() == \
            (tmp_path / "unpinned" / name).read_bytes(), name


@pytest.mark.parametrize("command", [
    ["train-separator", "--synthetic", "2", "--remix-count", "0", "--clip-seconds", "1.0"],
    ["train-amt", "--synthetic", "0", "--duration", "1.0", "--window", "16",
     "--hop-frames", "8"],
])
def test_an_empty_training_set_is_invalid(tmp_path, tiny_config, command, caplog):
    assert cli.main([command[0], "--out-dir", str(tmp_path / "t"), "--config", tiny_config,
                     "--epochs", "1", *command[1:]]) == 2
    assert "example list is empty" in caplog.text


@pytest.mark.parametrize("command", [
    ["train-separator", "--synthetic", "2", "--remix-count", "0", "--clip-seconds", "1.0"],
    ["train-amt", "--synthetic", "0", "--duration", "1.0", "--window", "16",
     "--hop-frames", "8"],
])
def test_a_refused_training_run_leaves_no_checkpoint(tmp_path, tiny_config, command):
    out = tmp_path / "t"
    assert cli.main([command[0], "--out-dir", str(out), "--config", tiny_config,
                     "--epochs", "1", *command[1:]]) == 2
    assert list(out.glob("*.ssnn")) == []


AMT_SMALL = ["--synthetic", "2", "--duration", "1.0"]


@pytest.mark.parametrize("command, option", [
    (["train-amt", *AMT_SMALL, "--batch-size", "0"], "--batch-size"),
    (["train-amt", *AMT_SMALL, "--window", "0"], "--window"),
    (["train-amt", *AMT_SMALL, "--hop-frames", "0"], "--hop-frames"),
    (["train-separator", "--synthetic", "2", "--clip-seconds", "1.0", "--sample-rate", "0"],
     "--sample-rate"),
    # windows 17 frames apart, 16 long, would never see every 17th frame
    (["train-amt", *AMT_SMALL, "--window", "16", "--hop-frames", "17"], "--hop-frames"),
], ids=["batch-size", "window", "hop-frames", "sample-rate", "hop-beyond-window"])
def test_training_size_options_are_checked_where_they_enter(tmp_path, tiny_config, command,
                                                             option, caplog):
    out = tmp_path / "t"
    assert cli.main([command[0], "--out-dir", str(out), "--config", tiny_config,
                     "--epochs", "1", *command[1:]]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and option in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    (["mix", "--count", "1", "--duration", "1e-6"], ["--duration", "--sample-rate"]),
    # half a sample at 8 kHz rounds to none, as synth counts samples
    (["mix", "--count", "1", "--duration", "6.25e-5"], ["--duration", "--sample-rate"]),
    (["train-separator", "--synthetic", "2", "--clip-seconds", "1e-6"],
     ["--clip-seconds", "--sample-rate"]),
    (["train-amt", *AMT_SMALL[:2], "--duration", "1e-6", "--window", "16", "--hop-frames", "8"],
     ["--duration", "cqt.sample_rate"]),
], ids=["mix", "mix-half-sample", "train-separator", "train-amt"])
def test_a_clip_shorter_than_one_sample_is_refused_naming_both_options(tmp_path, tiny_config,
                                                                      command, options, caplog):
    out = tmp_path / "t"
    assert cli.main([command[0], "--out-dir", str(out), "--config", tiny_config,
                     *command[1:]]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and all(option in errors[0] for option in options), errors
    assert not out.exists()


def test_mix_takes_its_seed_from_the_config_unless_one_is_given(tmp_path):
    config = tmp_path / "seed5.json"
    PipelineConfig.from_dict({"seed": 5}).save(config)

    def digests(name, *options):
        out = tmp_path / name
        assert cli.main(["mix", "--out-dir", str(out), "--count", "2", "--duration", "0.05",
                         *options]) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    by_config = digests("config", "--config", str(config))
    assert len(by_config) == 10
    assert by_config == digests("seed", "--seed", "5")
    seed_0 = digests("seed0", "--seed", "0")
    assert by_config != seed_0
    assert digests("default") == seed_0  # the default config's seed is 0
    assert digests("override", "--config", str(config), "--seed", "0") == seed_0


def test_a_one_sample_clip_is_the_shortest_accepted(tmp_path, tiny_config):
    out = tmp_path / "m"
    assert cli.main(["mix", "--out-dir", str(out), "--config", tiny_config, "--count", "1",
                     "--duration", "1.25e-4"]) == 0
    assert read_wav(out / "mix_000_mixture.wav").num_samples == 1


# Out-of-domain values of each declared option domain, by the name of its argparse type.
OUT_OF_DOMAIN = {
    "positive_int": ["0", "-3"],
    "nonnegative_int": ["-1"],
    "positive_float": ["0", "-0.001", "nan", "inf"],
    "nonnegative_float": ["-0.5", "nan", "inf"],
}


def typed_options():
    """(command, option action) of every option of build_parser() with a type."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action) for name, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


def test_every_numeric_option_declares_its_domain():
    undeclared = [(name, a.option_strings[0]) for name, a in typed_options()
                  if a.type.__name__ not in OUT_OF_DOMAIN]
    assert undeclared == []


@pytest.mark.parametrize("command, option, value", [
    (name, action.option_strings[0], value) for name, action in typed_options()
    for value in OUT_OF_DOMAIN.get(action.type.__name__, [])
])
def test_an_out_of_domain_option_exits_2_naming_it(tmp_path, command, option, value, caplog):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    argv = [command]
    for action in sub._actions:
        if not action.option_strings:
            argv.append(str(tmp_path / "input"))
        elif action.required and action.option_strings[0] != option:
            argv += [action.option_strings[0], "1" if action.type else str(tmp_path / "out")]
    assert cli.main([*argv, option, value]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_clip_seconds_override_sets_the_clip_length(tmp_path, tiny_config, monkeypatch):
    from stemscribe import synth
    seen = []
    real = synth.make_source_sets

    def spy(count, seconds, *args):
        seen.append(seconds)
        return real(count, seconds, *args)

    monkeypatch.setattr(synth, "make_source_sets", spy)
    assert cli.main(["train-separator", "--out-dir", str(tmp_path / "t"), "--config",
                     tiny_config, "--epochs", "0", "--synthetic", "2", "--remix-count", "1",
                     "--clip-seconds", "0.5"]) == 0
    assert seen == [0.5]


@pytest.mark.parametrize("options, batch_size", [([], 10), (["--batch-size", "3"], 3)])
def test_train_separator_batch_size_is_its_option(tmp_path, tiny_config, monkeypatch,
                                                  options, batch_size):
    seen = []
    fit = nn.fit

    def spy(*args, **kwargs):
        seen.append(kwargs["batch_size"])
        return fit(*args, **kwargs)

    monkeypatch.setattr(nn, "fit", spy)
    assert cli.main(["train-separator", "--out-dir", str(tmp_path / "t"), "--config",
                     tiny_config, "--epochs", "0", "--synthetic", "2", "--remix-count", "1",
                     "--clip-seconds", "0.5", *options]) == 0
    assert seen == [batch_size]


def test_a_negative_config_seed_is_refused_before_any_output(tmp_path, caplog):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({**TINY_CONFIG, "seed": -1}))
    out = tmp_path / "t"
    assert cli.main(["train-amt", "--out-dir", str(out), "--config", str(config),
                     "--epochs", "1", "--synthetic", "2", "--duration", "1.0",
                     "--window", "16", "--hop-frames", "8"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "seed" in errors[0], errors
    assert not out.exists()


def test_the_config_focal_parameters_reach_the_note_model():
    cfg = PipelineConfig.from_dict({"amt": {"alpha": 0.25, "gamma": 1.5}})
    assert cli._amt_model(cfg, None).cfg is cfg.amt  # the section itself, no copy
    assert (cfg.amt.alpha, cfg.amt.gamma) == (0.25, 1.5)


def test_train_amt_trains_with_the_config_gamma(tmp_path):
    traces = []
    for gamma in (3.0, 1.0):
        config = tmp_path / f"gamma{gamma}.json"
        config.write_text(json.dumps({**TINY_CONFIG, "amt": {**TINY_CONFIG["amt"],
                                                              "gamma": gamma}}))
        out = tmp_path / f"out{gamma}"
        assert cli.main(["train-amt", "--out-dir", str(out), "--config", str(config),
                         "--epochs", "2", "--synthetic", "2", "--duration", "1.0",
                         "--window", "16", "--hop-frames", "8", "--batch-size", "2"]) == 0
        traces.append((out / "amt_loss.csv").read_text())
    assert traces[0] != traces[1]


def test_train_amt_refuses_a_nan_gamma_naming_it_before_any_output(tmp_path, caplog):
    # a NaN focal-loss gamma is a config error, not a training divergence
    config = tmp_path / "nan_gamma.json"
    config.write_text(json.dumps({**TINY_CONFIG, "amt": {**TINY_CONFIG["amt"],
                                                          "gamma": float("nan")}}))
    assert "NaN" in config.read_text()
    out = tmp_path / "out"
    assert cli.main(["train-amt", "--out-dir", str(out), "--config", str(config),
                     "--epochs", "1", "--synthetic", "2", "--duration", "1.0",
                     "--window", "16", "--hop-frames", "8"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "gamma must be nonnegative and finite, got nan" in errors[0]
    assert not out.exists()


def test_divergence_exits_four(tmp_path, tiny_config, monkeypatch):
    def blow_up(*args, **kwargs):
        raise nn.DivergenceError(0, float("inf"))

    monkeypatch.setattr(nn, "fit", blow_up)
    code = cli.main(["train-separator", "--out-dir", str(tmp_path / "t"),
                     "--config", tiny_config, "--epochs", "1", "--synthetic", "2",
                     "--remix-count", "2", "--clip-seconds", "1.0"])
    assert code == 4


# ------------------------------------------------------------------- mix

def test_mix_writes_consistent_sets(tmp_path):
    out = tmp_path / "mixes"
    code = cli.main(["mix", "--out-dir", str(out), "--count", "2", "--seed", "1",
                     "--synthetic", "2", "--duration", "0.5"])
    assert code == 0
    for i in range(2):
        mixture = read_wav(out / f"mix_{i:03d}_mixture.wav")
        stems = [read_wav(out / f"mix_{i:03d}_{name}.wav")
                 for name in ("vocals", "bass", "drums", "other")]
        total = np.sum([s.samples for s in stems], axis=0)
        np.testing.assert_allclose(mixture.samples, total, atol=1e-6)


def test_mix_from_manifest_stems(tmp_path):
    src = tmp_path / "src"
    assert cli.main(["mix", "--out-dir", str(src), "--count", "1",
                     "--synthetic", "2", "--duration", "0.5"]) == 0
    stems = {name: f"src/mix_000_{name}.wav" for name in ("vocals", "bass", "drums", "other")}
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{"mixture": "src/mix_000_mixture.wav", "stems": stems}]))
    out = tmp_path / "remixed"
    assert cli.main(["mix", "--out-dir", str(out), "--count", "1",
                     "--manifest", str(manifest)]) == 0
    assert (out / "mix_000_mixture.wav").exists()


@pytest.mark.parametrize("command", [["mix", "--count", "1"], ["train-separator"]])
def test_manifest_without_stems_is_invalid(tmp_path, mixture_wav, command):
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{"mixture": mixture_wav.name}]))
    assert cli.main([*command, "--out-dir", str(tmp_path / "o"),
                     "--manifest", str(manifest)]) == 2


STEM_CASES = {
    "unknown": {"vocals": "mixture.wav", "accompaniment": "mixture.wav"},
    "missing": {name: "mixture.wav" for name in ("vocals", "bass", "drums")},
}


@pytest.mark.parametrize("case", sorted(STEM_CASES))
def test_manifest_source_sets_reject_wrong_stem_names(tmp_path, mixture_wav, case):
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{"mixture": "mixture.wav", "stems": STEM_CASES[case]}]))
    with pytest.raises(cli.ManifestError, match=r"expected exactly \['vocals', 'bass', 'drums', 'other'\]") as e:
        cli._manifest_source_sets(manifest)
    assert str(sorted(STEM_CASES[case])) in str(e.value)


@pytest.mark.parametrize("case", sorted(STEM_CASES))
@pytest.mark.parametrize("command", [["mix", "--count", "1"], ["train-separator"]])
def test_manifest_with_wrong_stem_names_is_invalid(tmp_path, mixture_wav, command, case, caplog):
    manifest = tmp_path / "tracks.json"
    manifest.write_text(json.dumps([{"mixture": "mixture.wav", "stems": STEM_CASES[case]}]))
    assert cli.main([*command, "--out-dir", str(tmp_path / "o"),
                     "--manifest", str(manifest)]) == 2
    assert "expected exactly" in caplog.text


def test_mix_count_zero_writes_nothing(tmp_path):
    out = tmp_path / "none"
    assert cli.main(["mix", "--out-dir", str(out), "--count", "0",
                     "--synthetic", "2", "--duration", "0.5"]) == 0
    assert list(out.glob("*.wav")) == []


def test_mix_seed_reproducibility(tmp_path):
    outs = []
    for name, seed in (("s1", "7"), ("s2", "7"), ("s3", "8")):
        out = tmp_path / name
        assert cli.main(["mix", "--out-dir", str(out), "--count", "1",
                         "--seed", seed, "--synthetic", "2",
                         "--duration", "0.5"]) == 0
        outs.append((out / "mix_000_mixture.wav").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]
