"""Peak memory of `stemscribe separate` against the length of the audio.

Writes one mixture per length, runs `stemscribe separate` on each in a
fresh interpreter and prints that process's peak RSS (ru_maxrss, in MB of
1e6 bytes), then the MB it adds per extra second of audio from the
shortest to the longest. Separation reads the input and writes the stems
one block of frames at a time, so the peak should not grow with the
audio at all. Exits 1 when the slope passes LIMIT_MB_PER_S.

Each `separate` is started by a small launcher interpreter that imports
nothing but the standard library. On Linux, ru_maxrss of a child that
was forked or vforked and then exec'd starts at the peak RSS of the
process it was forked from, so a child started from this script, which
holds the signal it writes, would report the script's peak.

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

from stemscribe.audio_io import WavWriter

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_RATE = 22050
# Samples synthesized and written per block of an input mixture.
WRITE_BLOCK = 1 << 20
# Holding the input and the stems whole took 0.9 MB per second of audio.
LIMIT_MB_PER_S = 0.1

# Runs argv[1:], then prints its exit code and ru_maxrss.
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def write_mixture(path: Path, seconds: float, rng: np.random.Generator) -> None:
    """A 440 Hz sine at amplitude 0.2 plus white noise at 0.05, one block at
    a time."""
    n = int(round(seconds * SAMPLE_RATE))
    with WavWriter(path, SAMPLE_RATE, 1, n) as out:
        for start in range(0, n, WRITE_BLOCK):
            t = np.arange(start, min(start + WRITE_BLOCK, n)) / SAMPLE_RATE
            x = 0.2 * np.sin(2.0 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(t.size)
            out.write(x[None, :])


def separate_peak_mb(wav: Path, out_dir: Path) -> float:
    """ru_maxrss of one `stemscribe separate` process, in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "stemscribe.cli", "separate", str(wav), "--out-dir", str(out_dir)]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], env=env, capture_output=True,
                          text=True, check=True)
    code, maxrss = map(int, done.stdout.split())
    if code:
        sys.exit(f"stemscribe separate exited {code} on {wav}")
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    return maxrss * (1 if sys.platform == "darwin" else 1024) / 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, nargs="+", default=[60.0, 180.0, 600.0],
                    help="two or more increasing lengths of audio")
    args = ap.parse_args()
    lengths = args.seconds
    if len(lengths) < 2 or lengths[0] <= 0 or sorted(set(lengths)) != lengths:
        ap.error("--seconds needs two or more positive lengths in increasing order")

    rng = np.random.default_rng(0)
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for seconds in lengths:
            wav = Path(tmp) / f"mix_{seconds:g}s.wav"
            write_mixture(wav, seconds, rng)
            peaks.append(separate_peak_mb(wav, Path(tmp) / "out"))
            wav.unlink()
            print(f"{seconds:g} s: ru_maxrss {peaks[-1]:.1f} MB")
    slope = (peaks[-1] - peaks[0]) / (lengths[-1] - lengths[0])
    print(f"{slope:.3f} MB per extra second of audio (limit {LIMIT_MB_PER_S:g})")
    if slope > LIMIT_MB_PER_S:
        sys.exit(1)


if __name__ == "__main__":
    main()
