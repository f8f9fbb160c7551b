"""Lane pass against one pass: how far the burn-in leaves a separator's
masks and vocals from those of one pass over the grid.

For each burn-in W (separation._BURN_IN) in 32, 64, 128 and 256 frames,
separates held-out synthetic tracks in lanes (separation._lane_plan) and
prints the largest difference of any mask value from the one pass's, and
the change of each track's vocals SI-SDR from the one pass's, in dB.
The tracks are synth.make_source_set tracks whose seeds training does not
draw (train-separator draws seeds config seed + i for its sets).

    python scripts/lane_gate.py --checkpoint models/separator.ssnn \\
        --config models/desk_config.json --sample-rate 8000
"""

import argparse
import sys

import numpy as np

from stemscribe import cli, separation, synth
from stemscribe.bss_metrics import si_sdr
from stemscribe.separation import mixture_of, separate


def separate_with(model, mix, cfg, **constants):
    """separate() with some of separation's module constants set."""
    saved = {name: getattr(separation, name) for name in constants}
    try:
        for name, value in constants.items():
            setattr(separation, name, value)
        return separate(mix, model, cfg)
    finally:
        for name, value in saved.items():
            setattr(separation, name, value)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkpoint", help="separator checkpoint; default: untrained weights")
    ap.add_argument("--config", help="run config of the separator's sizes and STFT")
    ap.add_argument("--sample-rate", type=int,
                    help="of the tracks; default: the config's cqt.sample_rate")
    ap.add_argument("--tracks", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=1000, help="of the first track")
    ap.add_argument("--burn-in", type=int, nargs="+", default=[32, 64, 128, 256])
    args = ap.parse_args()

    cfg = cli._load_config(args.config)
    rate = args.sample_rate or cfg.cqt.sample_rate
    model = cli._separator_model(cfg, args.checkpoint)
    frames = separation._grid_frames(round(args.seconds * rate), cfg.stft)
    if frames < separation._LANE_MIN_FRAMES:
        sys.exit(f"{args.seconds:g} s at {rate} Hz is a grid of {frames} frames, which runs "
                 f"as one pass (lanes from {separation._LANE_MIN_FRAMES} frames)")
    plan = separation._lane_plan(frames)
    print(f"{args.tracks} tracks of {args.seconds:g} s at {rate} Hz: {frames} frames, "
          f"{sum(map(len, plan))} lanes in {len(plan)} super-blocks")

    one_pass, worst, deltas = [], dict.fromkeys(args.burn_in, 0.0), {w: [] for w in args.burn_in}
    for i in range(args.tracks):  # a track at a time: a 60 s mask at 22.05 kHz is 42 MB
        sources = synth.make_source_set(args.seconds, rate, args.seed + i)
        mix = mixture_of(sources)
        vocals, _, ref_mask = separate_with(model, mix, cfg.stft, _LANE_MIN_FRAMES=frames + 1)
        one_pass.append(si_sdr(sources.vocals, vocals))
        for burn_in in args.burn_in:
            vocals, _, mask = separate_with(model, mix, cfg.stft, _BURN_IN=burn_in)
            worst[burn_in] = max(worst[burn_in], float(np.abs(mask - ref_mask).max()))
            deltas[burn_in].append(si_sdr(sources.vocals, vocals) - one_pass[-1])
    print("one pass, vocals SI-SDR dB:" + "".join(f"{s:14.4f}" for s in one_pass))
    print(f"{'W':>5s}{'max |dmask|':>14s}" + "".join(f"{f'dSI-SDR {i}':>14s}"
                                                   for i in range(args.tracks)))
    for burn_in in args.burn_in:
        print(f"{burn_in:5d}{worst[burn_in]:14.3e}" + "".join(f"{d:14.3e}"
                                                              for d in deltas[burn_in]))


if __name__ == "__main__":
    main()
