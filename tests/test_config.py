import json

import pytest

from stemscribe import cli
from stemscribe.config import (ManifestError, PathSettings, PipelineConfig, SeparatorSettings,
                               load_manifest)
from stemscribe.transcription import AmtConfig


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.seed == 0
    assert cfg.stft.fft_size == 512
    assert cfg.separator.hidden == 64
    assert cfg.amt.alpha == pytest.approx(0.35)
    assert type(cfg.amt) is AmtConfig  # the note model's own config
    assert cfg.paths.musescore is None


def test_dict_round_trip():
    cfg = PipelineConfig(seed=7, separator=SeparatorSettings(hidden=32, layers=3),
                         amt=AmtConfig(gamma=2.0), paths=PathSettings(musescore="/tmp/x"))
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig(seed=3, amt=AmtConfig(threshold=0.4))
    path = tmp_path / "run.json"
    cfg.save(path)
    assert json.loads(path.read_text())["seed"] == 3  # plain JSON on disk
    assert PipelineConfig.load(path) == cfg


def test_partial_dict_keeps_defaults():
    cfg = PipelineConfig.from_dict({"separator": {"hidden": 16}})
    assert cfg.separator.hidden == 16
    assert cfg.separator.layers == 2
    assert cfg.amt == AmtConfig()


@pytest.mark.parametrize("kwargs", [
    {"threshold": 0.0}, {"threshold": 1.0},
    {"alpha": 0.0}, {"alpha": 1.5},
    {"gamma": -0.5},
    {"hidden": 0}, {"conv_channels": -2}, {"threshold": float("nan")},
    {"conv_channels": 0}, {"gamma": -0.1}, {"gamma": float("inf")}, {"alpha": float("nan")},
])
def test_amt_settings_validation(kwargs):
    with pytest.raises(ValueError):
        AmtConfig(**kwargs)


def test_amt_alpha_of_one_loads_as_the_focal_loss_admits_it():
    # the loss takes alpha in (0, 1]; with gamma 0, alpha 1 is exact BCE
    cfg = PipelineConfig.from_dict({"amt": {"alpha": 1.0}})
    assert cli._amt_model(cfg, None).cfg == AmtConfig(alpha=1.0)


@pytest.mark.parametrize("kwargs", [
    {"layers": 0}, {"hidden": -1}, {"hidden": 0}, {"layers": -1},
])
def test_separator_settings_validation(kwargs):
    with pytest.raises(ValueError):
        SeparatorSettings(**kwargs)


@pytest.mark.parametrize("raw, named", [
    ({"stft": {"fft_sise": 256}}, "fft_sise"),
    ([{"seed": 1}], "list"),
    ({"sed": 1}, "sed"),
    ({"amt": 3}, "int"),
    ({"seed": "x"}, "key seed must"),
    ({"seed": True}, "key seed must"),
    ({"stft": {"hop": "a"}}, "key stft.hop must"),
    ({"amt": {"threshold": "0.5"}}, "key amt.threshold must"),
    ({"paths": {"musescore": 3}}, "key paths.musescore must"),
    ({"paths": {"work_dir": "work"}}, "work_dir"),
    ({"seed": -1}, "key seed must be nonnegative"),
    # a NaN fails every range check, and gamma must be finite
    ({"amt": {"gamma": float("nan")}}, "gamma must be nonnegative and finite, got nan"),
    ({"amt": {"gamma": float("inf")}}, "gamma must be nonnegative and finite, got inf"),
    ({"cqt": {"f_min": float("nan")}}, "f_min must be positive, got nan"),
])
def test_from_dict_rejects_bad_keys_and_types(raw, named):
    with pytest.raises(ValueError, match=named):
        PipelineConfig.from_dict(raw)


def test_from_dict_accepts_int_for_float_and_null_for_optional():
    cfg = PipelineConfig.from_dict({"cqt": {"f_min": 55}, "paths": {"musescore": None}})
    assert cfg.cqt.f_min == 55.0
    assert cfg.paths.musescore is None


# -------------------------------------------------------------- manifest

def write_manifest(tmp_path, entries):
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(entries))
    return path


def test_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "audio").mkdir()
    (tmp_path / "audio" / "mix.wav").write_bytes(b"x")
    (tmp_path / "audio" / "vox.wav").write_bytes(b"x")
    (tmp_path / "song.mid").write_bytes(b"x")
    path = write_manifest(tmp_path, [{
        "mixture": "audio/mix.wav",
        "stems": {"vocals": "audio/vox.wav"},
        "midi": "song.mid",
    }])
    manifest = load_manifest(path)
    assert len(manifest) == 1
    (track,) = list(manifest)
    assert track.mixture == tmp_path / "audio" / "mix.wav"
    assert track.stems["vocals"].exists()
    assert track.midi == tmp_path / "song.mid"


def test_manifest_optional_fields_default_to_none(tmp_path):
    (tmp_path / "mix.wav").write_bytes(b"x")
    manifest = load_manifest(write_manifest(tmp_path, [{"mixture": "mix.wav"}]))
    (track,) = list(manifest)
    assert track.stems is None and track.midi is None


def test_manifest_missing_file_rejected(tmp_path):
    path = write_manifest(tmp_path, [{"mixture": "gone.wav"}])
    with pytest.raises(ManifestError, match="missing file"):
        load_manifest(path)


def test_manifest_missing_mixture_key_rejected(tmp_path):
    path = write_manifest(tmp_path, [{"stems": {}}])
    with pytest.raises(ManifestError, match="no mixture"):
        load_manifest(path)


def test_manifest_errors_on_bad_json_and_wrong_shape(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(bad)
    with pytest.raises(ManifestError, match="does not exist"):
        load_manifest(tmp_path / "absent.json")
    not_list = write_manifest(tmp_path, {"mixture": "x"})
    with pytest.raises(ManifestError, match="JSON list"):
        load_manifest(not_list)


def test_manifest_is_sized_iterable(tmp_path):
    (tmp_path / "a.wav").write_bytes(b"x")
    (tmp_path / "b.wav").write_bytes(b"x")
    manifest = load_manifest(write_manifest(
        tmp_path, [{"mixture": "a.wav"}, {"mixture": "b.wav"}]))
    assert len(manifest) == 2
    assert [t.mixture.name for t in manifest] == ["a.wav", "b.wav"]
    assert isinstance(manifest, tuple)


@pytest.mark.parametrize("entries, match", [
    (["mixture.wav"], "track 0 is 'mixture.wav', expected a JSON object"),
    ([{"mixture": "a.wav"}, 5], "track 1 is 5, expected a JSON object"),
    ([{"mixture": "a.wav", "stems": ["v.wav"]}], r"track 0 has stems \['v.wav'\]"),
    ([{"mixture": 7}], "track 0 has path 7, expected a string"),
    ([{"mixture": "a.wav", "stems": {"vocals": None}}], "track 0 has path None"),
    ([{"mixture": "a.wav"}, {"mixture": "a.wav", "midi": ["b.mid"]}], "track 1 has path"),
])
def test_manifest_rejects_entries_of_the_wrong_type(tmp_path, entries, match):
    (tmp_path / "a.wav").write_bytes(b"x")
    with pytest.raises(ManifestError, match=match):
        load_manifest(write_manifest(tmp_path, entries))
