import argparse
import collections
import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from stemscribe import cli, dsp, nn
from stemscribe.audio_io import Waveform, read_wav, write_wav
from stemscribe.midi import read_smf, write_smf
from stemscribe.pianoroll import NoteEvent
from stemscribe.separation import SeparatorModel
from tests.conftest import STUB_FAIL

TINY_CONFIG = {
    "stft": {"fft_size": 128, "hop": 32},
    "cqt": {"n_bins": 24, "f_min": 110.0},
    "separator": {"hidden": 8, "layers": 1, "batch_size": 4, "epochs": 1,
                  "clip_seconds": 1.0},
    "amt": {"conv_channels": 2, "hidden": 4, "epochs": 1},
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


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import; only resampling needs it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, stemscribe.cli; "
            "print(stemscribe.cli.__file__); print('scipy.signal' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    path, loaded = done.stdout.split()
    assert Path(path).resolve().is_relative_to(src)
    assert loaded == "False"


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


def test_separate_runs_one_analysis_stft(tmp_path, tiny_config, mixture_wav, monkeypatch):
    from stemscribe import separation

    calls = []

    def counting_stft(*args, **kwargs):
        calls.append(args)
        return stft(*args, **kwargs)

    stft = separation.stft
    monkeypatch.setattr(separation, "stft", counting_stft)
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(tmp_path / "sep"),
                     "--config", tiny_config]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["separate", "pipeline"])
def test_separation_is_one_pass(tmp_path, tiny_config, mixture_wav, monkeypatch, command):
    # one analysis STFT, one log-magnitude grid (model input and stats CSV)
    # and one inverse STFT per op; the accompaniment needs no second one
    calls = collections.Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(dsp, name) for name in ("stft", "istft", "log_magnitude")}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("stemscribe"):
            continue
        for name, fn in originals.items():
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting((mod_name, name), fn))
    assert cli.main([command, str(mixture_wav), "--out-dir", str(tmp_path / "out"),
                     "--config", tiny_config]) == 0

    def total(name, amt: bool = False) -> int:
        return sum(n for (mod_name, fn_name), n in calls.items()
                   if fn_name == name and (mod_name == "stemscribe.transcription") == amt)

    assert (total("stft"), total("istft"), total("log_magnitude")) == (1, 1, 1)
    assert total("log_magnitude", amt=True) == (1 if command == "pipeline" else 0)


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
    assert_same_bytes(cli._write_mask_csv, savetxt_mask_csv, grid, tmp_path_factory.mktemp("m"))


HALFWAY = (2 * np.arange(64) + 1) / 128  # x * 1e6 is exactly k + 0.5
SPECIAL = np.array([0.0, 1.0, 5e-7, 1.5e-6, 0.1234565, 0.9999995, 1e-300,
                    2.5e-6, 0.5000015, 0.9999985])  # %.6f rounds these three up


@pytest.mark.parametrize("values", [HALFWAY, SPECIAL], ids=["halfway", "special"])
def test_mask_csv_rounds_like_percent_format(tmp_path, values, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(np, "savetxt", None)  # none of these may need the fallback
        cli._write_mask_csv(values[:, None], tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == b"".join(b"%.6f\n" % v for v in values)
    for grid in (values[None, :], np.tile(values, (3, 2))):
        assert_same_bytes(cli._write_mask_csv, savetxt_mask_csv, grid, tmp_path)


def test_mask_csv_rounds_the_exact_value_half_to_even():
    assert cli._mask_csv_bytes(np.array([[1 / 128, 3 / 128, 2.5e-6]])) == (
        b"0.007812,0.023438,0.000003\n")


@pytest.mark.parametrize("shape", [(1, 257), (300, 1), (cli._MASK_CSV_BLOCK, 3),
                                   (2 * cli._MASK_CSV_BLOCK, 2),
                                   (cli._MASK_CSV_BLOCK + 77, 5), (0, 257)])
def test_mask_csv_shapes_match_savetxt(tmp_path, shape):
    assert_same_bytes(cli._write_mask_csv, savetxt_mask_csv,
                      mask_grid(*shape, "logistic", 0), tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9, 1 + 1e-9, -0.0])
def test_mask_csv_outside_the_unit_interval_goes_through_savetxt(tmp_path, bad, monkeypatch):
    def no_blocks(block):
        raise AssertionError("a grid outside [0, 1] reached the block formatter")

    monkeypatch.setattr(cli, "_mask_csv_bytes", no_blocks)
    grid = mask_grid(40, 6, "uniform", 1)
    grid[17, 3] = bad
    assert_same_bytes(cli._write_mask_csv, savetxt_mask_csv, grid, tmp_path)


def test_stats_csv_keeps_the_sign_of_a_mean_that_rounds_to_zero(tmp_path):
    grid = np.array([[-0.00002, 0.0], [0.00002, -0.00004], [1.0, -3.0], [0.0, 0.0]])
    assert_same_bytes(cli._write_stats_csv, loop_stats_csv, grid, tmp_path)
    rows = (tmp_path / "new.csv").read_text().splitlines()
    assert rows[1:3] == ["0,-0.0000,0.0000", "1,-0.0000,0.0000"]


@pytest.mark.parametrize("mask_mode", ["model", "ones", "zeros"])
def test_separate_audit_csvs_keep_their_bytes(tmp_path, tiny_config, mixture_wav, monkeypatch,
                                              mask_mode):
    grids = {}
    write_mask, write_stats = cli._write_mask_csv, cli._write_stats_csv

    def keep(name, write):
        def wrapped(grid, path):
            grids[name] = grid.copy()
            write(grid, path)
        return wrapped

    monkeypatch.setattr(cli, "_write_mask_csv", keep("mask", write_mask))
    monkeypatch.setattr(cli, "_write_stats_csv", keep("stats", write_stats))
    out = tmp_path / "sep"
    assert cli.main(["separate", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config, "--mask-mode", mask_mode]) == 0
    savetxt_mask_csv(grids["mask"], tmp_path / "mask.csv")
    loop_stats_csv(grids["stats"], tmp_path / "stats.csv")
    assert (out / "mixture_mask.csv").read_bytes() == (tmp_path / "mask.csv").read_bytes()
    assert ((out / "mixture_spectrogram_stats.csv").read_bytes()
            == (tmp_path / "stats.csv").read_bytes())


def test_separate_missing_input_is_invalid(tmp_path, tiny_config):
    assert cli.main(["separate", str(tmp_path / "no.wav"),
                     "--out-dir", str(tmp_path), "--config", tiny_config]) == 2


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


@pytest.mark.parametrize("raw", [{"stft": {"fft_sise": 256}}, [1, 2]])
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


def test_render_without_binary_is_missing_dependency(midi_file, tmp_path, no_musescore):
    assert cli.main(["render", str(midi_file), str(tmp_path / "o.pdf")]) == 3


def test_render_rejects_malformed_midi_before_spawning(tmp_path, make_stub):
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"MThd but not really")
    assert cli.main(["render", str(bad), str(tmp_path / "o.pdf"),
                     "--musescore", str(make_stub())]) == 2


# -------------------------------------------------------------- pipeline

def test_pipeline_full_run_with_stub(tmp_path, tiny_config, mixture_wav, make_stub):
    out = tmp_path / "run"
    code = cli.main(["pipeline", str(mixture_wav), "--out-dir", str(out),
                     "--config", tiny_config, "--musescore", str(make_stub())])
    assert code == 0
    report = json.loads((out / "pipeline_report.json").read_text())
    assert report["separate"]["status"] == "ok"
    assert report["transcribe"]["status"] == "ok"
    assert report["render"]["status"] == "ok"
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
        outs.append((out / "mixture_vocals.mid").read_bytes())
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
    ["train-separator", "--epochs", "-1", "--clip-seconds", "1.0"],
    ["train-separator", "--epochs", "1", "--clip-seconds", "0"],
    ["train-separator", "--epochs", "1", "--clip-seconds", "-2.5"],
    ["train-amt", "--epochs", "-1"],
])
def test_training_overrides_obey_the_config_rules(tmp_path, tiny_config, command, caplog):
    out = tmp_path / "t"
    assert cli.main([command[0], "--out-dir", str(out), "--config", tiny_config,
                     "--synthetic", "2", *command[1:]]) == 2
    assert "epochs nonnegative" in caplog.text or "clip_seconds must be positive" in caplog.text
    assert not out.exists()


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


def test_divergence_exits_four(tmp_path, tiny_config, monkeypatch):
    def blow_up(*args, **kwargs):
        raise nn.DivergenceError(0, float("inf"))

    monkeypatch.setattr(cli, "train_separator", blow_up)
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
