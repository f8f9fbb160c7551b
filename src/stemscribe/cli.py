"""Command-line front end: separate, transcribe, render, pipeline,
evaluate, train-separator, train-amt, mix.

Exit codes are a stable contract: 0 success, 2 invalid input, 3 missing
external dependency, 4 training divergence. Every command is
deterministic under a fixed config seed. Intermediate artifacts (mask
CSV, spectrogram stats, roll binaries, loss traces) are always written
so each stage can be audited after the fact.

The mask CSV has one row per STFT frame and one field per frequency bin,
each value in [0, 1] (a mask with any other value is refused, exit 2):
each field is `%.6f`, fields are separated by `,` and every row ends in
`\\n`, the bytes np.savetxt(path, mask, fmt="%.6f", delimiter=",") writes.
The spectrogram stats CSV is the line `frame,mean_db,max_db`, then one
line per frame, `%d,%.4f,%.4f` of the frame's index and the mean and max
of its log-magnitude row. The loss CSV of a training command is the line
`epoch,loss`, then one line per epoch, `%d,%.8f` of the epoch's index and
its mean loss. Every line of these two ends in `\r\n`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import math
import mmap
import platform
import sys
from pathlib import Path

import numpy as np

from . import bss_metrics, midi, nn, notation, synth
from .audio_io import (UnsupportedCodecError, Waveform, WavFormatError, WavReader, WavWriter,
                       read_wav, resampled_length, write_wav)
from .config import ManifestError, PipelineConfig, load_manifest
from .dsp import WindowError, check_invertible, num_cqt_frames
from .midi import SmfParseError
from .pianoroll import rasterize_notes, roll_to_notes
from .separation import (
    STEM_NAMES,
    MaskSource,
    SampleSource,
    SeparatorModel,
    SourceSet,
    make_training_clip,
    oracle_masks,
    remix,
    separate_blocks,
    sum_accompaniment,
)
from .transcription import (
    AmtModel,
    Scores,
    build_training_pair,
    examples_from_pair,
    frame_metrics,
    onset_metrics,
    transcribe_waveform,
)

log = logging.getLogger("stemscribe")

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_MISSING_DEPENDENCY = 3
EXIT_DIVERGED = 4


def _load_config(path: str | None) -> PipelineConfig:
    return PipelineConfig.load(path) if path else PipelineConfig()


def _separator_model(cfg: PipelineConfig, checkpoint: str | None) -> SeparatorModel:
    model = SeparatorModel(
        num_bins=cfg.stft.num_bins,
        hidden=cfg.separator.hidden,
        layers=cfg.separator.layers,
        seed=cfg.seed,
    )
    if checkpoint:
        model.load_state(nn.load_checkpoint(checkpoint))
    return model


def _amt_model(cfg: PipelineConfig, checkpoint: str | None) -> AmtModel:
    model = AmtModel(cfg.amt, seed=cfg.seed, n_bins=cfg.cqt.n_bins)
    if checkpoint:
        model.load_state(nn.load_checkpoint(checkpoint))
    return model


# A mask value in [0, 1] prints as the 8 bytes d.dddddd of q = rint(m * 1e6).
# With q = 1000 a + b, bytes 0-4 ("d.ddd") are those of the little-endian
# word _HEAD[a] and bytes 5-7 those of _TAIL[b], so one OR gives the field.
_HEAD = np.array([int.from_bytes(b"%d.%03d" % divmod(a, 1000), "little") for a in range(1001)],
                 dtype=np.uint64)
_TAIL = np.array([int.from_bytes(b"\0" * 5 + b"%03d" % b, "little") for b in range(1000)],
                 dtype=np.uint64)
# One field: its 8 bytes, then "," or "\n".
_FIELD = np.dtype([("num", "<u8"), ("sep", "u1")])


def _write_mask_csv(mask: np.ndarray, f) -> None:
    """The bytes np.savetxt(f, mask, fmt="%.6f", delimiter=",") writes to
    the binary file f for a float64 grid with every value in [0, 1] and no
    -0.0, the rows separate_blocks admits.  Rows of a grid written in
    consecutive calls get the bytes of one.  A field whose m * 1e6 lies
    within 1e-6 of a .5 boundary, where the rounded product could round
    the other way from the exact value, is formatted by "%.6f" itself,
    which rounds the exact value half to even."""
    scaled = mask * 1e6
    b = np.rint(scaled).astype(np.intp)  # q, in np.take's index type
    scaled -= b  # what the rounding moved each field by
    halfway = np.abs(scaled, out=scaled) > 0.5 - 1e-6
    # q = 1000 a + b. Each word table is gathered into a buffer whose values
    # are spent; with every index in range, mode="clip" lets np.take write
    # there directly, where mode="raise" would gather into a copy first
    a = b // 1000
    num = np.take(_HEAD, a, out=scaled.view(np.uint64), mode="clip")
    a *= 1000
    b -= a
    num |= np.take(_TAIL, b, out=a.view(np.uint64), mode="clip")
    out = np.empty(mask.shape, _FIELD)
    out["num"] = num
    out["sep"] = ord(",")
    out["sep"][:, -1] = ord("\n")
    if halfway.any():
        for i, j in zip(*np.nonzero(halfway)):
            out["num"][i, j] = int.from_bytes(b"%.6f" % mask[i, j], "little")
    f.write(out)


def _write_stats_csv(log_mag: np.ndarray, f, first_frame: int = 0) -> None:
    """Stats rows of the log-magnitude rows of frames first_frame onward,
    to the text file f (opened with newline=""); the header goes before
    frame 0."""
    rows = np.empty((len(log_mag), 3))
    rows[:, 0] = np.arange(first_frame, first_frame + len(log_mag))
    rows[:, 1] = log_mag.mean(axis=1)
    rows[:, 2] = log_mag.max(axis=1)
    if first_frame == 0:
        f.write("frame,mean_db,max_db\r\n")
    f.write("%d,%.4f,%.4f\r\n" * len(rows) % tuple(rows.reshape(-1).tolist()))


def _write_loss_csv(trace: list[float], path: Path) -> None:
    with open(path, "w", newline="") as f:
        f.write("epoch,loss\r\n")
        f.writelines("%d,%.8f\r\n" % row for row in enumerate(trace))


def _separate_to_dir(mixture: SampleSource, masks: MaskSource, cfg: PipelineConfig,
                     out_dir: Path, stem_name: str) -> dict[str, Path]:
    """Separate the mixture under the mask source, writing the mask and
    stats CSV rows and the stem samples of each block as the pass makes
    them."""
    # refuse an uninvertible window or an empty mixture before any output is opened
    check_invertible(cfg.stft)
    if mixture.num_samples == 0:
        raise ValueError(f"mixture {stem_name!r} has no samples: nothing to separate")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "vocals": out_dir / f"{stem_name}_vocals.wav",
        "accompaniment": out_dir / f"{stem_name}_accompaniment.wav",
        "mask": out_dir / f"{stem_name}_mask.csv",
        "stats": out_dir / f"{stem_name}_spectrogram_stats.csv",
    }
    rate, n = mixture.sample_rate, mixture.num_samples
    try:
        with open(paths["mask"], "wb") as mask_csv, \
                open(paths["stats"], "w", newline="") as stats_csv, \
                WavWriter(paths["vocals"], rate, 1, n) as vocals_wav, \
                WavWriter(paths["accompaniment"], rate, 1, n) as accomp_wav:

            def write_rows(first_frame: int, log_mag: np.ndarray, rows: np.ndarray) -> None:
                _write_mask_csv(rows, mask_csv)
                _write_stats_csv(log_mag, stats_csv, first_frame)

            def write_stems(first_sample: int, vocals: np.ndarray, accomp: np.ndarray) -> None:
                vocals_wav.write(vocals[None, :])
                accomp_wav.write(accomp[None, :])

            separate_blocks(mixture, masks, cfg.stft, write_rows, write_stems)
    except BaseException:
        # a stem cut short would declare frames it does not hold
        for name in ("vocals", "accompaniment"):
            paths[name].unlink(missing_ok=True)
        raise
    for name, wav in (("vocals", vocals_wav), ("accompaniment", accomp_wav)):
        if wav.clipped:
            log.warning("%s stem: %d samples clipped to the PCM16 range in %s",
                        name, wav.clipped, paths[name])
    return paths


def cmd_separate(args) -> int:
    cfg = _load_config(args.config)
    with WavReader(args.input) as mixture:
        if args.mask_mode == "model":
            masks = _separator_model(cfg, args.checkpoint).masks()
        else:  # a constant mask, which reads no checkpoint
            masks = lambda t0, log_mag: np.full_like(log_mag, float(args.mask_mode == "ones"))
        paths = _separate_to_dir(mixture, masks, cfg, Path(args.out_dir), Path(args.input).stem)
    print(f"wrote {paths['vocals']} and {paths['accompaniment']}")
    return EXIT_OK


def _transcribe_to_file(audio: Waveform, model: AmtModel, cfg: PipelineConfig,
                        out_mid: Path) -> Path:
    roll = transcribe_waveform(audio, model, cfg.cqt)
    out_mid.parent.mkdir(parents=True, exist_ok=True)
    roll.save(out_mid.with_suffix(".prol"))
    notes = roll_to_notes(roll)
    midi.write_smf(notes, out_mid)
    return out_mid


def cmd_transcribe(args) -> int:
    cfg = _load_config(args.config)
    audio = read_wav(args.input)
    model = _amt_model(cfg, args.checkpoint)
    out = _transcribe_to_file(audio, model, cfg, Path(args.out))
    print(f"wrote {out}")
    return EXIT_OK


def _render(midi_path: Path, output: Path, musescore: str | None,
            timeout: float = notation.DEFAULT_TIMEOUT) -> Path:
    """Sheet music for a MIDI file through the MuseScore binary that
    notation.resolve_executable finds from musescore."""
    job = notation.NotationJob(midi_path, output, notation.resolve_executable(musescore))
    return notation.export_sheet(job, timeout=timeout)


def cmd_render(args) -> int:
    cfg = _load_config(args.config)
    midi.read_smf(args.input)  # reject malformed input before spawning anything
    out = _render(Path(args.input), Path(args.output), args.musescore or cfg.paths.musescore,
                  args.timeout)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out_dir = Path(args.out_dir)
    stem_name = Path(args.input).stem
    report = {}

    with WavReader(args.input) as mixture:
        sep_model = _separator_model(cfg, args.sep_checkpoint)
        paths = _separate_to_dir(mixture, sep_model.masks(), cfg, out_dir, stem_name)
    # artifacts by their names in out_dir, so the report is the same wherever the run is
    report["separate"] = {"status": "ok", "vocals": paths["vocals"].name,
                          "accompaniment": paths["accompaniment"].name}

    amt_model = _amt_model(cfg, args.amt_checkpoint)
    vocals = read_wav(paths["vocals"])
    mid_path = _transcribe_to_file(vocals, amt_model, cfg, out_dir / f"{stem_name}_vocals.mid")
    report["transcribe"] = {"status": "ok", "midi": mid_path.name}

    try:
        pdf = _render(mid_path, mid_path.with_suffix(".pdf"), args.musescore or cfg.paths.musescore)
        report["render"] = {"status": "ok", "pdf": pdf.name}
    except (notation.MuseScoreNotFoundError, notation.NotationExportError) as e:
        # Score rendering is optional: stems and MIDI already exist.
        log.warning("skipping score render: %s", e)
        report["render"] = {"status": "skipped", "reason": str(e)}

    (out_dir / "pipeline_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"pipeline artifacts in {out_dir}")
    return EXIT_OK


def _reference_stems(entry, mixture: Waveform) -> tuple[Waveform, Waveform] | None:
    """(vocals, accompaniment) references from a manifest entry, if present.
    The metrics compare signals sample by sample, so a stem read here
    whose sample rate or length is not the mixture's raises ValueError."""
    if not entry.stems or "vocals" not in entry.stems:
        return None

    def read(path) -> Waveform:
        stem = read_wav(path)
        if (stem.sample_rate, stem.num_samples) != (mixture.sample_rate, mixture.num_samples):
            raise ValueError(
                f"reference {path} has {stem.num_samples} samples at {stem.sample_rate} Hz, "
                f"the mixture {entry.mixture} {mixture.num_samples} at {mixture.sample_rate} Hz")
        return stem

    ref_vocals = read(entry.stems["vocals"])
    if "accompaniment" in entry.stems:
        ref_accomp = read(entry.stems["accompaniment"])
    else:
        rest = [read(p) for name, p in sorted(entry.stems.items()) if name != "vocals"]
        if not rest:
            return None
        total = np.sum([w.samples for w in rest], axis=0)
        ref_accomp = Waveform(total, rest[0].sample_rate)
    return ref_vocals, ref_accomp


def _scores_dict(s: Scores) -> dict:
    """The three scores plus the sorted names of those reported as 0
    because their denominator was empty."""
    return {**dataclasses.asdict(s), "undefined": sorted(s.undefined)}


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sep_model = _separator_model(cfg, args.sep_checkpoint) if args.separator == "model" else None
    amt_model = _amt_model(cfg, args.amt_checkpoint) if args.amt_mode == "model" else None

    separation_report = {}
    amt_report = {}
    for entry in manifest:
        name = Path(entry.mixture).stem
        mixture = read_wav(entry.mixture)
        refs = _reference_stems(entry, mixture)
        if refs is not None:
            ref_vocals, ref_accomp = refs
            if args.separator == "mixture":
                est_vocals = est_accomp = mixture
            else:  # the oracle source's padded references go with the call
                est_vocals, est_accomp = separate_blocks(
                    mixture, sep_model.masks() if args.separator == "model"
                    else oracle_masks(mixture, ref_vocals, ref_accomp, cfg.stft), cfg.stft)

            def metrics(ref: Waveform, est: Waveform, other: Waveform) -> dict:
                r = bss_metrics.evaluate_pair(mixture.mono_samples(), ref.mono_samples(),
                                              est.mono_samples(),
                                              other_references=[other.mono_samples()])
                return {**r.to_dict(), "clamped": sorted(r.clamped)}

            separation_report[name] = {
                "vocals": metrics(ref_vocals, est_vocals, ref_accomp),
                "accompaniment": metrics(ref_accomp, est_accomp, ref_vocals),
            }
        if entry.midi is not None:
            _, ref_notes = midi.read_smf(entry.midi)
            if args.amt_mode == "oracle":
                # metric plumbing check: the prediction is the truth, on the
                # frame grid the note model would have produced
                n = resampled_length(mixture.num_samples, mixture.sample_rate,
                                     cfg.cqt.sample_rate)
                pred = truth = rasterize_notes(ref_notes, cfg.cqt.frame_time,
                                               num_cqt_frames(n, cfg.cqt))
            else:
                pred = transcribe_waveform(mixture, amt_model, cfg.cqt)
                truth = rasterize_notes(ref_notes, cfg.cqt.frame_time, pred.num_frames)
            amt_report[name] = {
                "frame": _scores_dict(frame_metrics(pred, truth)),
                "onset": _scores_dict(onset_metrics(pred, truth,
                                                    tolerance=args.onset_tolerance)),
            }

    sep_path = out_dir / "separation_metrics.json"
    amt_path = out_dir / "amt_metrics.json"
    sep_path.write_text(json.dumps(separation_report, indent=2, sort_keys=True) + "\n")
    amt_path.write_text(json.dumps(amt_report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sep_path} and {amt_path}")
    return EXIT_OK


def _manifest_source_sets(path) -> list[SourceSet]:
    """One SourceSet per manifest entry that lists stems; those stems must be
    exactly STEM_NAMES."""
    entries = [e for e in load_manifest(path) if e.stems]
    for e in entries:
        if set(e.stems) != set(STEM_NAMES):
            raise ManifestError(
                f"track {e.mixture} has stems {sorted(e.stems)}; "
                f"expected exactly {list(STEM_NAMES)}")
    sets = [SourceSet(**{k: read_wav(p) for k, p in e.stems.items()}) for e in entries]
    if not sets:
        raise ManifestError("manifest has no entries with stems")
    return sets


def _remixes(manifest: str | None, count: int, synthetic: int, seconds: float,
             sample_rate: int, seed: int):
    """count (mixture, targets) remixes of the manifest's source sets, or else
    of synthetic generated ones: the sets load now, each remix as it is taken."""
    sets = (_manifest_source_sets(manifest) if manifest
            else synth.make_source_sets(synthetic, seconds, sample_rate, seed))
    rng = np.random.default_rng(seed)
    return (remix(sets, rng=rng) for _ in range(count))


def _train_and_save(model: nn.Layer, examples: list, out_dir: Path, name: str, *,
                    epochs: int, lr: float, batch_size: int, seed: int) -> int:
    """Fit the model to the examples with nn.fit and Adam, checkpointing it
    to <name>.ssnn before the first epoch and after each one, then write
    <name>_loss.csv.  No examples, no checkpoint."""
    if not examples:
        raise ValueError(f"no {name} training examples: the example list is empty")
    ck_path = out_dir / f"{name}.ssnn"
    nn.save_checkpoint(ck_path, model.state())  # epochs = 0 leaves exactly this

    def save_epoch(epoch: int, loss: float) -> None:
        nn.save_checkpoint(ck_path, model.state())

    trace = nn.fit(model, examples, nn.Adam(lr=lr), epochs=epochs, batch_size=batch_size,
                   rng=np.random.default_rng(seed), epoch_callback=save_epoch)
    _write_loss_csv(trace, out_dir / f"{name}_loss.csv")
    if trace:
        print(f"trained {len(trace)} epochs, loss {trace[0]:.6f} -> {trace[-1]:.6f}")
    print(f"wrote {ck_path}")
    return EXIT_OK


def _require_a_sample(seconds: float, seconds_name: str, rate: int, rate_name: str) -> None:
    """The cross-option rule of a clip made from a duration: at the rate,
    it rounds to at least one sample, as synth counts them."""
    if round(seconds * rate) < 1:
        raise ValueError(f"{seconds_name} {seconds:g} at {rate_name} {rate} makes a clip of "
                         f"no samples: the shortest clip is one sample, {1 / rate:g} s")


def cmd_train_separator(args) -> int:
    cfg = _load_config(args.config)
    if not args.manifest:
        _require_a_sample(args.clip_seconds, "--clip-seconds", args.sample_rate, "--sample-rate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = [make_training_clip(mixture, targets.vocals, sum_accompaniment(targets), cfg.stft)
             for mixture, targets in _remixes(args.manifest, args.remix_count, args.synthetic,
                                              args.clip_seconds, args.sample_rate, cfg.seed)]
    return _train_and_save(_separator_model(cfg, None), clips, out_dir, "separator",
                           epochs=args.epochs, lr=args.lr, batch_size=args.batch_size,
                           seed=cfg.seed)


def cmd_train_amt(args) -> int:
    cfg = _load_config(args.config)
    if args.hop_frames > args.window:
        raise ValueError(f"--hop-frames {args.hop_frames} exceeds --window {args.window}: "
                         "the windows would skip frames")
    _require_a_sample(args.duration, "--duration", cfg.cqt.sample_rate, "cqt.sample_rate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # clip by clip: a clip's audio goes once its examples are cut, so
    # training holds the examples alone
    clips = synth.make_tone_clips(args.synthetic, args.duration, cfg.cqt.sample_rate, cfg.seed)
    examples = [ex for audio, notes in clips for ex in examples_from_pair(*build_training_pair(
        audio, notes, cfg.cqt, duration=args.duration, window=args.window,
        hop_frames=args.hop_frames))]
    return _train_and_save(_amt_model(cfg, None), examples, out_dir, "amt",
                           epochs=args.epochs, lr=args.lr, batch_size=args.batch_size,
                           seed=cfg.seed)


def cmd_mix(args) -> int:
    cfg = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if not args.manifest:
        _require_a_sample(args.duration, "--duration", args.sample_rate, "--sample-rate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (mixture, targets) in enumerate(_remixes(args.manifest, args.count, args.synthetic,
                                                    args.duration, args.sample_rate, seed)):
        write_wav(mixture, out_dir / f"mix_{i:03d}_mixture.wav", bit_depth=32)
        for stem_name, stem in targets.stems().items():
            write_wav(stem, out_dir / f"mix_{i:03d}_{stem_name}.wav", bit_depth=32)
    print(f"wrote {args.count} remixes to {out_dir}")
    return EXIT_OK


class UsageError(ValueError):
    """A command line argparse refuses: a missing or unknown argument, or
    an option value outside its domain."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Refuse the command line as invalid input: the usage line goes to
        stderr, and main logs the message and returns EXIT_INVALID_INPUT."""
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _domain(convert, accepts, rule: str, name: str):
    """An argparse type: the converted text, refused unless `accepts` it.
    argparse then names the option in its error."""

    def parse(text: str):
        value = convert(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = name  # argparse's "invalid <name> value" for text convert refuses
    return parse


# The domains of the numeric options, each declared once, as its type.
positive_int = _domain(int, lambda v: v > 0, "a positive integer", "positive_int")
nonnegative_int = _domain(int, lambda v: v >= 0, "a nonnegative integer", "nonnegative_int")
positive_float = _domain(float, lambda v: 0.0 < v < math.inf, "a positive finite number",
                         "positive_float")
nonnegative_float = _domain(float, lambda v: 0.0 <= v < math.inf,
                            "a nonnegative finite number", "nonnegative_float")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stemscribe",
        description="Separate stems, transcribe to MIDI, and render scores.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="split a mixture into vocals + accompaniment")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--mask-mode", choices=["model", "ones", "zeros"], default="model",
                   help="force a constant mask instead of the model output")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("transcribe", help="audio to MIDI")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("render", help="MIDI to sheet music via MuseScore")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--musescore", help="explicit path to the MuseScore binary")
    p.add_argument("--timeout", type=positive_float, default=notation.DEFAULT_TIMEOUT)
    p.add_argument("--config")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="separate, transcribe vocals, render score")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sep-checkpoint")
    p.add_argument("--amt-checkpoint")
    p.add_argument("--musescore")
    p.add_argument("--config")
    p.add_argument("--seed", type=nonnegative_int)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score estimates against references")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sep-checkpoint")
    p.add_argument("--amt-checkpoint")
    p.add_argument("--config")
    p.add_argument("--separator", choices=["model", "irm", "mixture"], default="model",
                   help="estimate source: model, oracle ratio mask, or the mixture itself")
    p.add_argument("--amt-mode", choices=["model", "oracle"], default="model")
    p.add_argument("--onset-tolerance", type=nonnegative_float, default=0.05)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train-separator", help="fit the mask model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest")
    p.add_argument("--synthetic", type=positive_int, default=4,
                   help="number of generated source sets when no manifest is given")
    p.add_argument("--remix-count", type=nonnegative_int, default=8)
    p.add_argument("--epochs", type=nonnegative_int, default=200)
    p.add_argument("--lr", type=positive_float, default=1e-3)
    p.add_argument("--batch-size", type=positive_int, default=10)
    p.add_argument("--clip-seconds", type=positive_float, default=7.0)
    p.add_argument("--sample-rate", type=positive_int, default=8000)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_separator)

    p = sub.add_parser("train-amt", help="fit the transcription model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--synthetic", type=nonnegative_int, default=8)
    p.add_argument("--epochs", type=nonnegative_int, default=100)
    p.add_argument("--lr", type=positive_float, default=1e-3)
    p.add_argument("--batch-size", type=positive_int, default=10)
    p.add_argument("--duration", type=positive_float, default=6.0)
    p.add_argument("--window", type=positive_int, default=128)
    p.add_argument("--hop-frames", type=positive_int, default=64)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_amt)

    p = sub.add_parser("mix", help="write remixed mixture/stem WAV sets")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=nonnegative_int, required=True)
    p.add_argument("--seed", type=nonnegative_int, help="default: the config's seed")
    p.add_argument("--manifest")
    p.add_argument("--synthetic", type=positive_int, default=4)
    p.add_argument("--duration", type=positive_float, default=2.0)
    p.add_argument("--sample-rate", type=positive_int, default=8000)
    p.add_argument("--config")
    p.set_defaults(func=cmd_mix)

    return parser


# glibc's ceiling for its dynamic mmap threshold on 64-bit hosts
# (DEFAULT_MMAP_THRESHOLD_MAX), and the trim threshold at twice that, the
# ratio its dynamic rule keeps. Pinned, they hold from a command's start
# whatever the process allocated before.
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>

# On a fresh heap a command's temporaries are carved one after the other
# from the top; a later command's go into the free chunks the one before
# gave back, wherever glibc's bins place them, and can reach above where
# the first command's did: up to 1.9 MB for a 10 s separate, whose largest
# block temporaries are 1-2 MB. Each command leaves this much touched heap
# in the top chunk, so that the next one's reach faults in no fresh pages.
_HEAP_RESERVE = 2 * 1024 * 1024


class _MallInfo2(ctypes.Structure):
    """glibc's struct mallinfo2 (2.33 on), <malloc.h>."""
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def _glibc() -> ctypes.CDLL | None:
    """The process's C library if it is glibc, else None: musl's mallopt
    does nothing, and macOS has none."""
    if platform.libc_ver()[0] != "glibc":
        return None
    try:
        return ctypes.CDLL(None)
    except OSError:
        return None


def _pin_heap_thresholds(libc: ctypes.CDLL) -> None:
    """Fix glibc's mmap and trim thresholds for the rest of the process,
    so that multi-MB temporaries (a training batch's, a separation
    block's) reuse the heap their predecessors gave back instead of being
    unmapped or trimmed and faulted in again, and a command run again in
    one process reuses the heap of the run before."""
    try:
        mallopt = libc.mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_reserved_arena = 0  # the main arena's size when _reserve_heap last touched its top


def _reserve_heap(libc: ctypes.CDLL) -> None:
    """Touch one byte of each page of a block _HEAP_RESERVE larger than
    the main arena's top chunk, carved from it, and give it back: the
    top then holds that much touched heap above all the process has
    used. Nothing is done while the arena has not grown since the last
    time, or when the block would be mapped apart from the heap."""
    global _reserved_arena
    try:
        mallinfo2, malloc, free = libc.mallinfo2, libc.malloc, libc.free
    except AttributeError:  # glibc before 2.33
        return
    mallinfo2.restype = _MallInfo2
    info = mallinfo2()
    size = info.keepcost + _HEAP_RESERVE
    if info.arena == _reserved_arena or size >= _MMAP_THRESHOLD:
        return
    malloc.argtypes, malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    free.argtypes, free.restype = (ctypes.c_void_p,), None
    block = malloc(size)
    if block is None:
        return
    pages = np.frombuffer((ctypes.c_char * size).from_address(block), np.uint8)
    pages[::mmap.PAGESIZE] = 0
    pages[-1] = 0
    del pages
    free(block)
    _reserved_arena = mallinfo2().arena


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    libc = _glibc()
    if libc is not None:
        _pin_heap_thresholds(libc)
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        return args.func(args)
    except (notation.MuseScoreNotFoundError, notation.NotationExportError) as e:
        log.error("%s", e)
        return EXIT_MISSING_DEPENDENCY
    except nn.DivergenceError as e:
        log.error("%s", e)
        return EXIT_DIVERGED
    except (WavFormatError, UnsupportedCodecError, SmfParseError, ManifestError, WindowError,
            FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError) as e:
        log.error("%s", e)
        return EXIT_INVALID_INPUT
    finally:
        if libc is not None:
            _reserve_heap(libc)


if __name__ == "__main__":
    sys.exit(main())
