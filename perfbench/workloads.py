"""The three workloads: inputs made from the seed, the CLI commands of one
op, and the checks run on each op's outputs.

Each op is one or more ``stemscribe`` commands run through
``stemscribe.cli.main``. ``check`` returns a list of problems (empty when
the outputs are right) and the quality figures of the op. Ops ``i`` and
``i + distinct_ops`` run the same commands on the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from stemscribe import bss_metrics, midi, nn, synth
from stemscribe.audio_io import Waveform, read_wav, write_wav
from stemscribe.config import PipelineConfig
from stemscribe.dsp import num_cqt_frames
from stemscribe.pianoroll import PianoRoll, roll_to_notes
from stemscribe.separation import STEM_NAMES, SeparatorModel, mixture_of, separate
from stemscribe.transcription import AmtConfig, AmtModel, segment

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RATE = 22050
LSB = 1.0 / 32768.0


def _write_config(path: Path) -> list[Path]:
    """The default run config, as the one config of an inference workload."""
    PipelineConfig().save(path)
    return [path]


def _stems_sum_problems(out: Path, stem: str, mixture: Waveform) -> tuple[list[str], np.ndarray]:
    vocals = read_wav(out / f"{stem}_vocals.wav")
    accomp = read_wav(out / f"{stem}_accompaniment.wav")
    problems = []
    if vocals.samples.shape != mixture.samples.shape or accomp.samples.shape != mixture.samples.shape:
        return [f"stem shapes {vocals.samples.shape}, {accomp.samples.shape} "
                f"differ from mixture {mixture.samples.shape}"], vocals.samples[0]
    err = float(np.max(np.abs(vocals.samples + accomp.samples - mixture.samples)))
    if err > LSB + 1e-9:
        problems.append(f"stems miss the mixture by {err * 32768:.2f} LSB")
    return problems, vocals.samples[0]


def midi_problems(path: Path, roll: PianoRoll) -> list[str]:
    """The SMF parses and holds the roll's notes, times within half a tick."""
    doc, notes = midi.read_smf(path)
    expected = roll_to_notes(roll)
    if len(notes) != len(expected):
        return [f"MIDI has {len(notes)} notes, roll has {len(expected)}"]
    half_tick = 0.5 * doc.tempo / (doc.ticks_per_quarter * 1e6)
    for got, want in zip(notes, expected):
        if (got.pitch, got.velocity) != (want.pitch, want.velocity) or \
                abs(got.start - want.start) > half_tick + 1e-9 or \
                abs(got.end - want.end) > half_tick + 1e-9:
            return [f"MIDI note {got} differs from roll note {want}"]
    return []


class Pipeline60s:
    """``stemscribe pipeline`` on one 60 s mixture with the default config.

    The mixture is six 10 s source sets joined end to end. Inputs come in
    ``REFERENCE_INPUTS`` variants (seed modulo that count), because the
    roll each variant yields at the seed commit is stored for
    ``roll_agreement``.
    """

    name = "pipeline_60s"
    SECTIONS = 6
    SECTION_SECONDS = 10.0
    REFERENCE_INPUTS = 8
    distinct_ops = 1

    def __init__(self, work: Path, seed: int):
        self.variant = seed % self.REFERENCE_INPUTS
        self.truth, self.mixture_path = self.make_input(work, self.variant)
        self.mixture = read_wav(self.mixture_path)
        self.configs = _write_config(work / "run_config.json")
        self.inputs = [self.mixture_path]
        self.audio_seconds = self.mixture.duration
        self.reference = PianoRoll.load(self.reference_path(self.variant))
        # one separator sequence plus the AMT windows of the full clip
        frames = num_cqt_frames(self.mixture.num_samples, PipelineConfig().cqt)
        self.examples = 1 + len(segment(np.zeros((1, frames))).segments)

    @classmethod
    def make_input(cls, work: Path, variant: int) -> tuple[np.ndarray, Path]:
        sets = [synth.make_source_set(cls.SECTION_SECONDS, RATE, 1000 + cls.SECTIONS * variant + j)
                for j in range(cls.SECTIONS)]
        stems = {name: np.concatenate([getattr(s, name).samples for s in sets], axis=1)
                 for name in STEM_NAMES}
        path = work / "mix.wav"
        write_wav(Waveform(sum(stems.values()), RATE), path)
        return stems["vocals"][0], path

    @classmethod
    def reference_path(cls, variant: int) -> Path:
        return REFERENCE_DIR / f"{cls.name}-input{variant}.prol"

    def commands(self, op: int, out: Path) -> list[list[str]]:
        return [["pipeline", str(self.mixture_path), "--out-dir", str(out),
                 "--config", str(self.configs[0])]]

    def check(self, op: int, out: Path) -> tuple[list[str], dict[str, float]]:
        problems, vocals = _stems_sum_problems(out, "mix", self.mixture)
        roll = PianoRoll.load(out / "mix_vocals.prol")
        expected = num_cqt_frames(self.mixture.num_samples, PipelineConfig().cqt)
        if roll.num_frames != expected:
            problems.append(f"roll has {roll.num_frames} frames, expected {expected}")
        problems += midi_problems(out / "mix_vocals.mid", roll)
        report = json.loads((out / "pipeline_report.json").read_text())
        if report["render"]["status"] != "skipped":
            problems.append(f"render status {report['render']['status']}, expected skipped")
        quality = {"vocals_si_sdr_db": bss_metrics.si_sdr(self.truth, vocals)}
        if roll.grid.shape == self.reference.grid.shape:
            quality["roll_agreement"] = float(np.mean(roll.grid == self.reference.grid))
        else:
            problems.append(f"roll shape {roll.grid.shape} differs from the reference "
                            f"{self.reference.grid.shape}")
        return problems, quality


class Separate10s:
    """``stemscribe separate`` on 10 s mixtures, cycling through a few clips."""

    name = "separate_10s"
    CLIPS = 6
    SECONDS = 10.0
    distinct_ops = CLIPS

    def __init__(self, work: Path, seed: int):
        self.clips = []
        for j in range(self.CLIPS):
            s = synth.make_source_set(self.SECONDS, RATE, self.CLIPS * seed + j)
            path = work / f"clip{j}.wav"
            write_wav(mixture_of(s), path)
            self.clips.append((path, read_wav(path), s.vocals.samples[0]))
        self.configs = _write_config(work / "run_config.json")
        self.inputs = [path for path, _, _ in self.clips]
        self.audio_seconds = self.SECONDS
        self.examples = 1

    def commands(self, op: int, out: Path) -> list[list[str]]:
        path = self.clips[op % self.CLIPS][0]
        return [["separate", str(path), "--out-dir", str(out), "--config", str(self.configs[0])]]

    def check(self, op: int, out: Path) -> tuple[list[str], dict[str, float]]:
        path, mixture, truth = self.clips[op % self.CLIPS]
        problems, vocals = _stems_sum_problems(out, path.stem, mixture)
        for suffix in ("mask.csv", "spectrogram_stats.csv"):
            if not (out / f"{path.stem}_{suffix}").is_file():
                problems.append(f"missing {path.stem}_{suffix}")
        return problems, {"vocals_si_sdr_db": bss_metrics.si_sdr(truth, vocals)}


class TrainDesk:
    """``train-amt`` then ``train-separator`` at the sizes of acceptance
    check 12, with fewer epochs. Even and odd ops train from two config
    seeds, so the quality figures average over two training runs."""

    name = "train_desk"
    AMT_CLIPS, AMT_SECONDS, AMT_EPOCHS = 12, 3.0, 20
    WINDOW, HOP_FRAMES = 128, 64
    SEP_SETS, SEP_SECONDS, SEP_RATE, SEP_REMIXES, SEP_EPOCHS = 4, 1.5, 8000, 6, 15
    HELD_OUT = 12
    distinct_ops = 2

    def __init__(self, work: Path, seed: int):
        self.cfgs = [PipelineConfig.from_dict({
            "seed": self.distinct_ops * seed + i, "amt": {"conv_channels": 4, "hidden": 16},
            "separator": {"hidden": 32, "layers": 2}}) for i in range(self.distinct_ops)]
        self.configs = []
        for i, cfg in enumerate(self.cfgs):
            self.configs.append(work / f"run_config{i}.json")
            cfg.save(self.configs[-1])
        self.inputs = []
        self.audio_seconds = self.AMT_CLIPS * self.AMT_SECONDS + self.SEP_REMIXES * self.SEP_SECONDS
        frames = num_cqt_frames(int(round(self.AMT_SECONDS * RATE)), PipelineConfig().cqt)
        windows = len(segment(np.zeros((1, frames)), self.WINDOW, self.HOP_FRAMES).segments)
        self.examples = (self.AMT_CLIPS * windows * self.AMT_EPOCHS
                         + self.SEP_REMIXES * self.SEP_EPOCHS)
        # held-out mixtures for each trained separator, from seeds its training never uses
        self.held_out = [[synth.make_source_set(self.SEP_SECONDS, self.SEP_RATE,
                                                cfg.seed + self.SEP_SETS + j)
                          for j in range(self.HELD_OUT)] for cfg in self.cfgs]

    def commands(self, op: int, out: Path) -> list[list[str]]:
        common = ["--out-dir", str(out), "--config", str(self.configs[op % self.distinct_ops])]
        return [
            ["train-amt", *common, "--synthetic", str(self.AMT_CLIPS),
             "--duration", str(self.AMT_SECONDS), "--epochs", str(self.AMT_EPOCHS),
             "--window", str(self.WINDOW), "--hop-frames", str(self.HOP_FRAMES),
             "--batch-size", "4", "--lr", "5e-3"],
            ["train-separator", *common, "--synthetic", str(self.SEP_SETS),
             "--clip-seconds", str(self.SEP_SECONDS), "--sample-rate", str(self.SEP_RATE),
             "--remix-count", str(self.SEP_REMIXES), "--epochs", str(self.SEP_EPOCHS),
             "--lr", "1e-3"],
        ]

    def check(self, op: int, out: Path) -> tuple[list[str], dict[str, float]]:
        problems = []
        quality = {}
        for stem, epochs, key in (("amt", self.AMT_EPOCHS, "amt_loss_ratio"),
                                  ("separator", self.SEP_EPOCHS, "sep_loss_ratio")):
            with open(out / f"{stem}_loss.csv", newline="") as f:
                losses = [float(row["loss"]) for row in csv.DictReader(f)]
            if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
                problems.append(f"{stem}_loss.csv: {len(losses)} rows for {epochs} epochs, "
                                f"finite {all(math.isfinite(x) for x in losses)}")
            else:
                quality[key] = losses[-1] / losses[0]
        cfg = self.cfgs[op % self.distinct_ops]
        amt = AmtModel(AmtConfig(conv_channels=cfg.amt.conv_channels, hidden=cfg.amt.hidden))
        amt.load_state(nn.load_checkpoint(out / "amt.ssnn"))
        sep = SeparatorModel(cfg.stft.num_bins, cfg.separator.hidden, cfg.separator.layers)
        sep.load_state(nn.load_checkpoint(out / "separator.ssnn"))
        scores = []
        for s in self.held_out[op % self.distinct_ops]:
            vocals, _, _ = separate(mixture_of(s), sep, cfg.stft)
            scores.append(bss_metrics.si_sdr(s.vocals.samples[0], vocals.samples[0]))
        quality["vocals_si_sdr_db"] = float(np.mean(scores))
        return problems, quality


WORKLOADS = {w.name: w for w in (Pipeline60s, Separate10s, TrainDesk)}
