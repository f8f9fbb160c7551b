"""End-to-end demo on a synthetic clip: mix stems, separate the vocals,
transcribe them to a piano roll, and write MIDI (plus sheet music when a
MuseScore binary is available).

Run from the repo root:

    python scripts/demo_pipeline.py --out-dir /tmp/stemscribe_demo
"""

import argparse
from pathlib import Path

import numpy as np

from stemscribe import midi, notation, synth
from stemscribe.audio_io import Waveform, write_wav
from stemscribe.config import PipelineConfig
from stemscribe.pianoroll import roll_to_notes
from stemscribe.separation import SeparatorModel, mixture_of, separate
from stemscribe.transcription import AmtConfig, AmtModel, transcribe_waveform


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--duration", type=float, default=2.0)
    ap.add_argument("--sample-rate", type=int, default=8000)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = PipelineConfig()

    sources = synth.make_source_set(args.duration, args.sample_rate, args.seed)
    mix = mixture_of(sources)
    write_wav(mix, out / "mixture.wav")
    print(f"mixture: {mix.duration:.2f} s at {mix.sample_rate} Hz")

    # Untrained desk-scale models; swap in checkpoints for real output.
    sep_model = SeparatorModel(num_bins=cfg.stft.num_bins, hidden=16,
                               layers=cfg.separator.layers, seed=cfg.seed)
    vocals, accomp, mask = separate(mix, sep_model, cfg.stft)
    write_wav(vocals, out / "vocals.wav")
    write_wav(accomp, out / "accompaniment.wav")
    resid = vocals.samples + accomp.samples - mix.to_mono().samples
    print(f"stems sum back to the mixture within {np.abs(resid).max():.2e}")
    print(f"mask grid: {mask.shape}, mean {mask.mean():.3f}")

    amt_cfg = AmtConfig(conv_channels=4, hidden=16)
    amt_model = AmtModel(amt_cfg, seed=cfg.seed)
    roll = transcribe_waveform(vocals, amt_model, cfg.cqt)
    notes = roll_to_notes(roll)
    print(f"piano roll: {roll.num_frames} frames, {len(notes)} notes")

    mid_path = out / "vocals.mid"
    midi.write_smf(notes, mid_path)
    print(f"wrote {mid_path}")

    try:
        exe = notation.resolve_executable(musescore_hint())
        job = notation.NotationJob(mid_path, out / "vocals.pdf", exe)
        notation.export_sheet(job)
        print(f"wrote {out / 'vocals.pdf'}")
    except notation.MuseScoreNotFoundError as err:
        print(f"skipping sheet export: {err}")


def musescore_hint():
    return None  # set a path here or export MUSESCORE_PATH


if __name__ == "__main__":
    main()
