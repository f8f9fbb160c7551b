"""Command-line front end: separate, transcribe, render, pipeline,
evaluate, train-separator, train-amt, mix.

Exit codes are a stable contract: 0 success, 2 invalid input, 3 missing
external dependency, 4 training divergence. Every command is
deterministic under a fixed config seed. Intermediate artifacts (mask
CSV, spectrogram stats, roll binaries, loss traces) are always written
so each stage can be audited after the fact.

The mask CSV has one row per STFT frame and one field per frequency bin:
each field is `%.6f`, fields are separated by `,` and every row ends in
`\\n`, the bytes np.savetxt(path, mask, fmt="%.6f", delimiter=",") writes.
The spectrogram stats CSV has a `frame,mean_db,max_db` header, then one
row per frame with the mean and max of its log-magnitude row as `%.4f`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import bss_metrics, midi, nn, notation, synth
from .audio_io import UnsupportedCodecError, Waveform, WavFormatError, read_wav, resample, write_wav
from .config import ManifestError, PipelineConfig, load_manifest
from .dsp import WindowError, log_magnitude, num_cqt_frames
from .midi import SmfParseError
from .nn.loss import FocalLossParams
from .pianoroll import FrameTiming, rasterize_notes, roll_to_notes
from .separation import (
    STEM_NAMES,
    SeparatorModel,
    SourceSet,
    analysis_spectrogram,
    ideal_ratio_mask,
    make_training_clip,
    remix,
    separate,
    separate_spectrogram,
    sum_accompaniment,
    train_separator,
)
from .transcription import (
    AmtConfig,
    AmtModel,
    Scores,
    build_training_pair,
    frame_metrics,
    onset_metrics,
    train_amt,
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
    model = AmtModel(
        AmtConfig(
            n_bins=cfg.cqt.n_bins,
            conv_channels=cfg.amt.conv_channels,
            hidden=cfg.amt.hidden,
            threshold=cfg.amt.threshold,
        ),
        seed=cfg.seed,
    )
    if checkpoint:
        model.load_state(nn.load_checkpoint(checkpoint))
    return model


# Mask rows per formatted block: its temporaries stay a few MB whatever the
# audio length.
_MASK_CSV_BLOCK = 1024

# A mask value in [0, 1] prints as the 8 bytes d.dddddd of q = rint(m * 1e6).
# With q = 1000 a + b, bytes 0-4 ("d.ddd") are those of the little-endian
# word _HEAD[a] and bytes 5-7 those of _TAIL[b], so one OR gives the field.
_HEAD = np.array([int.from_bytes(b"%d.%03d" % divmod(a, 1000), "little") for a in range(1001)],
                 dtype=np.uint64)
_TAIL = np.array([int.from_bytes(b"\0" * 5 + b"%03d" % b, "little") for b in range(1000)],
                 dtype=np.uint64)
# One field: its 8 bytes, then "," or "\n".
_FIELD = np.dtype([("num", "<u8"), ("sep", "u1")])


def _mask_csv_bytes(block: np.ndarray) -> bytes:
    """Rows of a float64 grid with every value in [0, 1] and no -0.0, as
    np.savetxt(fmt="%.6f", delimiter=",") writes them.  A field whose
    m * 1e6 lies within 1e-6 of a .5 boundary, where the rounded product
    could round the other way from the exact value, is formatted by "%.6f"
    itself, which rounds the exact value half to even."""
    scaled = block * 1e6
    q = np.rint(scaled)
    a, b = np.divmod(q.astype(np.int32), 1000)
    out = np.empty(block.shape, _FIELD)
    num = _HEAD[a]
    num |= _TAIL[b]
    out["num"] = num
    out["sep"] = ord(",")
    out["sep"][:, -1] = ord("\n")
    scaled -= q
    for i, j in zip(*np.nonzero(np.abs(scaled, out=scaled) > 0.5 - 1e-6)):
        out["num"][i, j] = int.from_bytes(b"%.6f" % block[i, j], "little")
    return out.tobytes()


def _write_mask_csv(mask: np.ndarray, path: Path) -> None:
    """The bytes np.savetxt(path, mask, fmt="%.6f", delimiter=","), written
    _MASK_CSV_BLOCK rows at a time.  A grid with a value outside [0, 1] or a
    -0.0 ("-0.000000"), which only a diverged checkpoint gives, goes through
    np.savetxt itself."""
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask >= 0.0) & (mask <= 1.0)) or np.signbit(mask).any():
        np.savetxt(path, mask, fmt="%.6f", delimiter=",")
        return
    with open(path, "wb") as f:
        for r0 in range(0, mask.shape[0], _MASK_CSV_BLOCK):
            f.write(_mask_csv_bytes(mask[r0 : r0 + _MASK_CSV_BLOCK]))


def _write_stats_csv(log_mag: np.ndarray, path: Path) -> None:
    means = [f"{v:.4f}" for v in log_mag.mean(axis=1)]
    maxes = [f"{v:.4f}" for v in log_mag.max(axis=1)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "mean_db", "max_db"])
        writer.writerows(zip(range(len(means)), means, maxes))


def _write_loss_csv(trace: list[float], path: Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(trace):
            writer.writerow([epoch, f"{loss:.8f}"])


def _separate_to_dir(mixture: Waveform, model: SeparatorModel, cfg: PipelineConfig,
                     out_dir: Path, stem_name: str, mask_mode: str = "model") -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = analysis_spectrogram(mixture, cfg.stft)
    log_mag = log_magnitude(spec.magnitude())
    if mask_mode == "model":
        mask = model.predict_mask(log_mag)
    else:
        mask = np.full(spec.bins.shape, 1.0 if mask_mode == "ones" else 0.0)
    vocals, accomp = separate_spectrogram(spec, mixture, mask)
    paths = {
        "vocals": out_dir / f"{stem_name}_vocals.wav",
        "accompaniment": out_dir / f"{stem_name}_accompaniment.wav",
        "mask": out_dir / f"{stem_name}_mask.csv",
        "stats": out_dir / f"{stem_name}_spectrogram_stats.csv",
    }
    for name, stem in (("vocals", vocals), ("accompaniment", accomp)):
        clipped = write_wav(stem, paths[name])
        if clipped:
            log.warning("%s stem: %d samples clipped to the PCM16 range in %s",
                        name, clipped, paths[name])
    _write_mask_csv(mask, paths["mask"])
    _write_stats_csv(log_mag, paths["stats"])
    return paths


def cmd_separate(args) -> int:
    cfg = _load_config(args.config)
    mixture = read_wav(args.input)
    model = _separator_model(cfg, args.checkpoint)
    paths = _separate_to_dir(mixture, model, cfg, Path(args.out_dir),
                             Path(args.input).stem, args.mask_mode)
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
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem_name = Path(args.input).stem
    report = {}

    mixture = read_wav(args.input)
    sep_model = _separator_model(cfg, args.sep_checkpoint)
    paths = _separate_to_dir(mixture, sep_model, cfg, out_dir, stem_name)
    report["separate"] = {"status": "ok", "vocals": str(paths["vocals"]),
                          "accompaniment": str(paths["accompaniment"])}

    amt_model = _amt_model(cfg, args.amt_checkpoint)
    vocals = read_wav(paths["vocals"])
    mid_path = _transcribe_to_file(vocals, amt_model, cfg, out_dir / f"{stem_name}_vocals.mid")
    report["transcribe"] = {"status": "ok", "midi": str(mid_path)}

    try:
        pdf = _render(mid_path, mid_path.with_suffix(".pdf"), args.musescore or cfg.paths.musescore)
        report["render"] = {"status": "ok", "pdf": str(pdf)}
    except (notation.MuseScoreNotFoundError, notation.NotationExportError) as e:
        # Score rendering is optional: stems and MIDI already exist.
        log.warning("skipping score render: %s", e)
        report["render"] = {"status": "skipped", "reason": str(e)}

    (out_dir / "pipeline_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"pipeline artifacts in {out_dir}")
    return EXIT_OK


def _reference_stems(entry) -> tuple[Waveform, Waveform] | None:
    """(vocals, accompaniment) references from a manifest entry, if present."""
    if not entry.stems or "vocals" not in entry.stems:
        return None
    ref_vocals = read_wav(entry.stems["vocals"])
    if "accompaniment" in entry.stems:
        ref_accomp = read_wav(entry.stems["accompaniment"])
    else:
        rest = [read_wav(p) for name, p in sorted(entry.stems.items()) if name != "vocals"]
        if not rest:
            return None
        total = np.sum([w.samples for w in rest], axis=0)
        ref_accomp = Waveform(total, rest[0].sample_rate)
    return ref_vocals, ref_accomp


def _estimate_stems(mixture: Waveform, refs: tuple[Waveform, Waveform], mode: str,
                    model: SeparatorModel, cfg: PipelineConfig) -> tuple[Waveform, Waveform]:
    if mode == "mixture":
        return mixture, mixture
    forced = None
    if mode == "irm":
        ref_vocals, ref_accomp = refs
        forced = ideal_ratio_mask(
            analysis_spectrogram(ref_vocals, cfg.stft).magnitude(),
            analysis_spectrogram(ref_accomp, cfg.stft).magnitude(),
        )
    est_vocals, est_accomp, _ = separate(mixture, model, cfg.stft, mask=forced)
    return est_vocals, est_accomp


def _scores_dict(s: Scores) -> dict:
    """The three scores plus the sorted names of those reported as 0
    because their denominator was empty."""
    return {**dataclasses.asdict(s), "undefined": sorted(s.undefined)}


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sep_model = _separator_model(cfg, args.sep_checkpoint)
    amt_model = _amt_model(cfg, args.amt_checkpoint)

    separation_report = {}
    amt_report = {}
    for entry in manifest:
        name = Path(entry.mixture).stem
        mixture = read_wav(entry.mixture)
        refs = _reference_stems(entry)
        if refs is not None:
            est_vocals, est_accomp = _estimate_stems(mixture, refs, args.separator,
                                                     sep_model, cfg)
            ref_vocals, ref_accomp = refs
            n = min(ref_vocals.num_samples, est_vocals.num_samples)

            def flat(w: Waveform) -> np.ndarray:
                return w.to_mono().samples[0, :n]

            def metrics(ref: Waveform, est: Waveform, other: Waveform) -> dict:
                r = bss_metrics.evaluate_pair(flat(mixture), flat(ref), flat(est),
                                              other_references=[flat(other)])
                return {**r.to_dict(), "clamped": sorted(r.clamped)}

            separation_report[name] = {
                "vocals": metrics(ref_vocals, est_vocals, ref_accomp),
                "accompaniment": metrics(ref_accomp, est_accomp, ref_vocals),
            }
        if entry.midi is not None:
            _, ref_notes = midi.read_smf(entry.midi)
            timing = FrameTiming(cfg.cqt.hop, cfg.cqt.sample_rate)
            if args.amt_mode == "oracle":
                # metric plumbing check: the prediction is the truth, on the
                # frame grid the note model would have produced
                n = resample(mixture, cfg.cqt.sample_rate).num_samples
                pred = truth = rasterize_notes(ref_notes, timing, num_cqt_frames(n, cfg.cqt))
            else:
                pred = transcribe_waveform(mixture, amt_model, cfg.cqt)
                truth = rasterize_notes(ref_notes, timing, pred.num_frames)
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


def _train_and_save(model: nn.Layer, out_dir: Path, name: str, train) -> int:
    """Run train(epoch_callback=...), checkpointing the model to <name>.ssnn
    before the first epoch and after each one, then write <name>_loss.csv."""
    ck_path = out_dir / f"{name}.ssnn"
    nn.save_checkpoint(ck_path, model.state())  # epochs = 0 leaves exactly this

    def save_epoch(epoch: int, loss: float) -> None:
        nn.save_checkpoint(ck_path, model.state())

    trace = train(epoch_callback=save_epoch)
    _write_loss_csv(trace, out_dir / f"{name}_loss.csv")
    if trace:
        print(f"trained {len(trace)} epochs, loss {trace[0]:.6f} -> {trace[-1]:.6f}")
    print(f"wrote {ck_path}")
    return EXIT_OK


def _overridden(settings, **overrides):
    """The settings with each override that was given (not None) applied;
    the settings' own __post_init__ validates the result."""
    return dataclasses.replace(settings, **{k: v for k, v in overrides.items() if v is not None})


def cmd_train_separator(args) -> int:
    cfg = _load_config(args.config)
    sep = _overridden(cfg.separator, epochs=args.epochs, clip_seconds=args.clip_seconds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.manifest:
        sets = _manifest_source_sets(args.manifest)
    else:
        sets = synth.make_source_sets(args.synthetic, sep.clip_seconds, args.sample_rate,
                                      cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    clips = []
    for _ in range(args.remix_count):
        mixture, targets = remix(sets, rng=rng)
        clips.append(make_training_clip(mixture, targets.vocals,
                                        sum_accompaniment(targets), cfg.stft))

    model = _separator_model(cfg, None)
    return _train_and_save(model, out_dir, "separator", partial(
        train_separator, clips, model, epochs=sep.epochs, lr=args.lr,
        batch_size=sep.batch_size, seed=cfg.seed))


def cmd_train_amt(args) -> int:
    cfg = _load_config(args.config)
    amt = _overridden(cfg.amt, epochs=args.epochs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clips = synth.make_tone_clips(args.synthetic, args.duration,
                                  cfg.cqt.sample_rate, cfg.seed)
    pairs = [
        build_training_pair(audio, notes, cfg.cqt, duration=args.duration,
                            window=args.window, hop_frames=args.hop_frames)
        for audio, notes in clips
    ]
    model = _amt_model(cfg, None)
    return _train_and_save(model, out_dir, "amt", partial(
        train_amt, pairs, model, epochs=amt.epochs,
        loss=FocalLossParams(amt.alpha, amt.gamma),
        lr=args.lr, batch_size=args.batch_size, seed=cfg.seed))


def cmd_mix(args) -> int:
    cfg = _load_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.manifest:
        sets = _manifest_source_sets(args.manifest)
    else:
        sets = synth.make_source_sets(args.synthetic, args.duration,
                                      args.sample_rate, args.seed)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        mixture, targets = remix(sets, rng=rng)
        write_wav(mixture, out_dir / f"mix_{i:03d}_mixture.wav", bit_depth=32)
        for stem_name, stem in targets.stems().items():
            write_wav(stem, out_dir / f"mix_{i:03d}_{stem_name}.wav", bit_depth=32)
    print(f"wrote {args.count} remixes to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--timeout", type=float, default=notation.DEFAULT_TIMEOUT)
    p.add_argument("--config")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="separate, transcribe vocals, render score")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sep-checkpoint")
    p.add_argument("--amt-checkpoint")
    p.add_argument("--musescore")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
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
    p.add_argument("--onset-tolerance", type=float, default=0.05)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train-separator", help="fit the mask model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest")
    p.add_argument("--synthetic", type=int, default=4,
                   help="number of generated source sets when no manifest is given")
    p.add_argument("--remix-count", type=int, default=8)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip-seconds", type=float)
    p.add_argument("--sample-rate", type=int, default=8000)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_separator)

    p = sub.add_parser("train-amt", help="fit the transcription model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--synthetic", type=int, default=8)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--hop-frames", type=int, default=64)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_amt)

    p = sub.add_parser("mix", help="write remixed mixture/stem WAV sets")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest")
    p.add_argument("--synthetic", type=int, default=4)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--sample-rate", type=int, default=8000)
    p.add_argument("--config")
    p.set_defaults(func=cmd_mix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (notation.MuseScoreNotFoundError, notation.NotationExportError) as e:
        log.error("%s", e)
        return EXIT_MISSING_DEPENDENCY
    except nn.DivergenceError as e:
        log.error("%s", e)
        return EXIT_DIVERGED
    except (WavFormatError, UnsupportedCodecError, SmfParseError, ManifestError,
            WindowError, FileNotFoundError, NotADirectoryError, ValueError) as e:
        log.error("%s", e)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
