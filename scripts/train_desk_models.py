"""Train both desk-scale models on synthetic audio and report progress.

Writes the desk config to <out-dir>/desk_config.json, then runs
`stemscribe train-separator` (remixed stem sets at 8 kHz) and
`stemscribe train-amt` (rendered tone clips) with it, each of which writes
its checkpoint and loss CSV to <out-dir>. Last, it prints the frame F1 of
the trained transcriber on held-out tone clips. Both runs finish in well
under ten minutes on a laptop CPU.

    python scripts/train_desk_models.py --out-dir /tmp/desk_models
"""

import argparse
import sys
from pathlib import Path

from stemscribe import cli, synth
from stemscribe.config import PipelineConfig
from stemscribe.pianoroll import FrameTiming, rasterize_notes
from stemscribe.transcription import frame_metrics, transcribe_waveform


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="desk_models")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sep-epochs", type=int, default=50)
    ap.add_argument("--amt-epochs", type=int, default=100)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = PipelineConfig.from_dict({"seed": args.seed,
                                    "separator": {"hidden": 32, "layers": 2},
                                    "amt": {"conv_channels": 4, "hidden": 16}})
    config = out / "desk_config.json"
    cfg.save(config)
    common = ["--out-dir", str(out), "--config", str(config)]
    for argv in (["train-separator", *common, "--epochs", str(args.sep_epochs),
                  "--synthetic", "4", "--clip-seconds", "1.5", "--sample-rate", "8000",
                  "--remix-count", "6", "--lr", "1e-3"],
                 ["train-amt", *common, "--epochs", str(args.amt_epochs),
                  "--synthetic", "12", "--duration", "3.0", "--window", "128",
                  "--hop-frames", "64", "--batch-size", "4", "--lr", "5e-3"]):
        if code := cli.main(argv):
            sys.exit(code)

    model = cli._amt_model(cfg, str(out / "amt.ssnn"))
    timing = FrameTiming(cfg.cqt.hop, cfg.cqt.sample_rate)
    scores = []
    for audio, notes in synth.make_tone_clips(4, 3.0, cfg.cqt.sample_rate, seed=args.seed + 100):
        pred = transcribe_waveform(audio, model, cfg.cqt, window=128, hop_frames=64)
        scores.append(frame_metrics(pred, rasterize_notes(notes, timing, pred.num_frames)).f1)
    print("held-out frame F1:", " ".join(f"{s:.4f}" for s in scores))


if __name__ == "__main__":
    main()
