"""Run configuration and dataset manifests.

A config describes the models, not a training run: their sizes, the note
model's threshold and focal loss, the STFT and CQT front ends, the seed and
paths. Epochs, batch size and clip length are command-line options, and the
STFT window, always the periodic Hann, is no key. Keys match field names
exactly so a saved config loads back equal to the original.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dsp import CqtConfig, StftConfig
from .nn.loss import FocalLossParams


@dataclass(frozen=True)
class SeparatorSettings:
    layers: int = 2
    hidden: int = 64

    def __post_init__(self):
        if min(self.layers, self.hidden) <= 0:
            raise ValueError("separator sizes must be positive")


@dataclass(frozen=True)
class AmtSettings:
    conv_channels: int = 16
    hidden: int = 64
    threshold: float = 0.5
    alpha: float = 0.35
    gamma: float = 3.0

    def __post_init__(self):
        if min(self.conv_channels, self.hidden) <= 0:
            raise ValueError("model sizes must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold {self.threshold} outside (0, 1)")
        FocalLossParams(self.alpha, self.gamma)  # its rule for alpha and gamma


@dataclass(frozen=True)
class PathSettings:
    musescore: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    stft: StftConfig = field(default_factory=StftConfig)
    cqt: CqtConfig = field(default_factory=CqtConfig)
    separator: SeparatorSettings = field(default_factory=SeparatorSettings)
    amt: AmtSettings = field(default_factory=AmtSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"config key seed must be nonnegative, got {self.seed}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Build from a parsed JSON object; an unknown key, a section that is
        not an object or a leaf of the wrong type raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, not {type(d).__name__}")
        sections = {f.name: f.default_factory for f in dataclasses.fields(cls)
                    if f.default_factory is not dataclasses.MISSING}
        _check_leaves(cls, {k: v for k, v in d.items() if k not in sections}, "")
        for name, section in sections.items():
            if isinstance(d.get(name), dict):
                _check_leaves(section, d[name], f"{name}.")
        try:
            return cls(**{**d, **{name: make(**d.get(name, {})) for name, make in sections.items()}})
        except TypeError as e:  # the message names the unknown key or the wrong type
            raise ValueError(f"invalid config: {e}") from e

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _has_type(value, hint) -> bool:
    """JSON value against a field annotation: int excludes bool, float takes
    int, and a union (``str | None``) takes any of its members."""
    if typing.get_args(hint):
        return any(_has_type(value, member) for member in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _check_leaves(cls, values: dict, prefix: str) -> None:
    """Raise ValueError naming the dotted key of the first value whose type
    does not match its field of cls.  Unknown keys are left to cls itself."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key in hints and not _has_type(value, hints[key]):
            expected = getattr(hints[key], "__name__", str(hints[key]))
            raise ValueError(f"config key {prefix}{key} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class TrackEntry:
    mixture: Path
    stems: dict | None = None
    midi: Path | None = None


class ManifestError(ValueError):
    pass


def load_manifest(path) -> tuple[TrackEntry, ...]:
    """Read a JSON track list; every referenced file must already exist.

    Each entry: {"mixture": wav, "stems": {name: wav, ...}?, "midi": mid?},
    with every path a string. Relative paths resolve against the
    manifest's own directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ManifestError(f"manifest {path} does not exist") from None
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(raw, list):
        raise ManifestError("manifest must be a JSON list of track entries")
    base = path.parent

    def checked(i: int, p) -> Path:
        if not isinstance(p, str):
            raise ManifestError(f"track {i} has path {p!r}, expected a string")
        full = base / p
        if not full.exists():
            raise ManifestError(f"track {i}: manifest references missing file {full}")
        return full

    tracks = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ManifestError(f"track {i} is {entry!r}, expected a JSON object")
        if "mixture" not in entry:
            raise ManifestError(f"track {i} has no mixture path")
        stems = entry.get("stems")
        if stems is not None:
            if not isinstance(stems, dict):
                raise ManifestError(f"track {i} has stems {stems!r}, expected a JSON object")
            stems = {name: checked(i, p) for name, p in stems.items()}
        midi = entry.get("midi")
        tracks.append(TrackEntry(
            mixture=checked(i, entry["mixture"]),
            stems=stems,
            midi=checked(i, midi) if midi is not None else None,
        ))
    return tuple(tracks)
