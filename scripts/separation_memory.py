"""Peak memory of `stemscribe separate` against the length of the audio.

Synthesizes one mixture per length, runs `stemscribe separate` on each in
a fresh interpreter and prints that process's peak RSS (ru_maxrss, in MB
of 1e6 bytes), then the MB it adds per extra second of audio. Separation
holds the signals whole but the spectrogram only one block of frames at
a time, so the slope is a few float64 copies of the signal (0.18 MB per
second each at 22.05 kHz). Exits 1 when the slope passes LIMIT_MB_PER_S.

Run from the repo root:

    python scripts/separation_memory.py
    python scripts/separation_memory.py --seconds 10 30
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from stemscribe import synth
from stemscribe.audio_io import Waveform, write_wav

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_RATE = 22050
# whole-grid separation grew by 3.9 MB per second of audio
LIMIT_MB_PER_S = 2.0


def separate_peak_mb(wav: Path, out_dir: Path) -> float:
    """ru_maxrss of one `stemscribe separate` process, in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "stemscribe.cli", "separate", str(wav), "--out-dir", str(out_dir)]
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"stemscribe separate exited {child.returncode} on {wav}")
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    return usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024) / 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, nargs=2, default=[60.0, 180.0],
                    metavar=("SHORT", "LONG"))
    args = ap.parse_args()
    short, long = args.seconds
    if not 0 < short < long:
        ap.error("--seconds needs 0 < SHORT < LONG")

    rng = np.random.default_rng(0)
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for seconds in (short, long):
            n = int(round(seconds * SAMPLE_RATE))
            x = synth.sine(440.0, seconds, SAMPLE_RATE) + 0.05 * rng.standard_normal(n)
            wav = Path(tmp) / f"mix_{seconds:g}s.wav"
            write_wav(Waveform(x[None, :], SAMPLE_RATE), wav)
            peaks.append(separate_peak_mb(wav, Path(tmp) / "out"))
            print(f"{seconds:g} s: ru_maxrss {peaks[-1]:.1f} MB")
    slope = (peaks[1] - peaks[0]) / (long - short)
    print(f"{slope:.2f} MB per extra second of audio (limit {LIMIT_MB_PER_S:g})")
    if slope > LIMIT_MB_PER_S:
        sys.exit(1)


if __name__ == "__main__":
    main()
