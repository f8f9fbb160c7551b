"""Separation quality bounds on synthetic mixtures: the ideal ratio mask
gives an upper bound for any mask-based separator, the mixture-as-estimate
row the zero-effort baseline (all improvement columns exactly 0 there).

    python scripts/oracle_bounds.py --tracks 3
"""

import argparse

from stemscribe import synth
from stemscribe.bss_metrics import evaluate_pair
from stemscribe.dsp import StftConfig
from stemscribe.separation import mixture_of, oracle_masks, separate_blocks, sum_accompaniment

COLUMNS = ("snr", "snri", "si_sdr", "si_sdri", "si_sir", "si_sar")


def row(label, report):
    vals = report.to_dict()
    print(f"  {label:18s}" + "".join(f"{vals[k]:10.2f}" for k in COLUMNS))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tracks", type=int, default=3)
    ap.add_argument("--duration", type=float, default=2.0)
    ap.add_argument("--sample-rate", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = StftConfig()

    print(f"{'':20s}" + "".join(f"{k:>10s}" for k in COLUMNS))
    for i in range(args.tracks):
        sources = synth.make_source_set(args.duration, args.sample_rate,
                                        seed=args.seed + i)
        vocals = sources.vocals
        accomp = sum_accompaniment(sources)
        mix = mixture_of(sources)

        est_v, _ = separate_blocks(mix, oracle_masks(mix, vocals, accomp, cfg), cfg)

        print(f"track {i} (vocals reference)")
        row("ideal ratio mask", evaluate_pair(mix, vocals, est_v,
                                              other_references=(accomp,)))
        row("mixture baseline", evaluate_pair(mix, vocals, mix.mono_samples(),
                                              other_references=(accomp,)))


if __name__ == "__main__":
    main()
