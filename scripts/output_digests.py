"""Print the sha256 of every file the program writes on a fixed set of
inputs, as one sorted JSON map of path -> digest, so that "same outputs"
is one command on each of two trees and a diff of its two maps.

    PYTHONPATH=src python scripts/output_digests.py > after.json
    PYTHONPATH=../parent/src python scripts/output_digests.py > before.json
    diff before.json after.json

The program under test is the stemscribe that Python imports, and the
benchmark inputs and the desk training script are taken from that same
source tree (perfbench/workloads.py, read only, and the scripts), so the
parent's src/ runs with the parent's scripts. Every command and script
runs in this process, the commands through stemscribe.cli.main, with
paths relative to a temporary directory; the map covers every file under
it, inputs and configs included, the commands' stdout
(<subset>/stdout.txt) and each script's (<subset>/<script>.txt). Four
subsets:

  evaluate  a 20 s `mix --seed 3` track, transcribed, through evaluate
            under every --separator and --amt-mode
  pipeline  benchmark pipeline_60s inputs 0-7; the evaluate subset's
            track through separate, pipeline and transcribe; 6 s stereo
            inputs, 24-bit PCM at 44.1 kHz and float32 at 22.05 kHz,
            through separate and pipeline
  separate  benchmark separate_10s seed 3 ops 0-5, three mono inputs, and
            oracle_bounds.py's table
  training  benchmark train_desk seed 1 ops 0-1 and
            train_desk_models.py --sep-epochs 3 --amt-epochs 3

--tiny runs the same commands on seconds-long inputs and one-epoch
training, as a smoke test. The digests depend on the BLAS build and the
CPU, so compare maps made on one host only. All but the evaluate subset's
also hold under any BLAS thread count: the separation metrics are sums
that np.dot splits across threads. No MuseScore is looked up
(PATH and MUSESCORE_PATH are cleared), so every pipeline report says the
render was skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

import stemscribe
from stemscribe import cli, synth
from stemscribe.audio_io import Waveform, write_wav
from stemscribe.separation import mixture_of

TREE = Path(stemscribe.__file__).resolve().parents[2]  # <tree>/src/stemscribe/__init__.py


def tiny(workload, **sizes):
    """The workload class with smaller class-level sizes."""
    return type(workload.__name__, (workload,), sizes)


class Sizes:
    """Inputs and epochs of one run: full, or a few seconds for --tiny."""

    def __init__(self, workloads, small: bool):
        self.pipeline = (tiny(workloads.Pipeline60s, SECTIONS=1, SECTION_SECONDS=1.0)
                         if small else workloads.Pipeline60s)
        self.pipeline_inputs = 2 if small else workloads.Pipeline60s.REFERENCE_INPUTS
        self.separate = (tiny(workloads.Separate10s, CLIPS=2, SECONDS=1.0)
                         if small else workloads.Separate10s)
        self.train = (tiny(workloads.TrainDesk, AMT_CLIPS=2, AMT_SECONDS=1.0, AMT_EPOCHS=1,
                           WINDOW=16, HOP_FRAMES=8, SEP_SETS=2, SEP_SECONDS=0.5,
                           SEP_REMIXES=2, SEP_EPOCHS=1, HELD_OUT=1)
                      if small else workloads.TrainDesk)
        self.track_seconds = 2.0 if small else 20.0
        self.stereo_seconds = 1.0 if small else 6.0
        self.desk_epochs = "1" if small else "3"
        self.oracle_tracks = 1 if small else 3


def run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code:
        raise SystemExit(f"stemscribe {' '.join(argv)} exited {code}")


def run_workload(workload, seed: int, ops, work: Path) -> None:
    """Build the workload's inputs in work and run each op's commands into
    work/op<i>."""
    work.mkdir(parents=True)
    w = workload(work, seed)
    for op in ops:
        for argv in w.commands(op, work / f"op{op}"):
            run(argv)


def run_script(name: str, args: list[str], root: Path) -> None:
    """scripts/<name>.py of the tree under test, its stdout to root/<name>.txt."""
    argv = sys.argv
    sys.argv = [f"{name}.py", *args]
    try:
        with open(root / f"{name}.txt", "w") as out, contextlib.redirect_stdout(out):
            runpy.run_path(str(TREE / "scripts" / f"{name}.py"), run_name="__main__")
    finally:
        sys.argv = argv


def write_pcm24(samples: np.ndarray, rate: int, path: Path) -> None:
    """A (channels, frames) signal in [-1, 1) as 24-bit PCM, through the
    standard library's wave module rather than the program's writer."""
    ints = np.clip(np.round(samples.T * 2.0**23), -(2**23), 2**23 - 1).astype("<i4", order="C")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(samples.shape[0])
        f.setsampwidth(3)
        f.setframerate(rate)
        f.writeframes(ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes())


def stereo(seconds: float, rate: int, seed: int) -> np.ndarray:
    """Two channels from two synthetic mixtures, the right one quieter."""
    left, right = (mixture_of(synth.make_source_set(seconds, rate, seed + i)).samples[0]
                   for i in range(2))
    return np.stack([left, 0.7 * right])


def mix_track(sizes: Sizes, track: Path) -> Path:
    """The 20 s track's mixture and stems, and the mixture transcribed."""
    run(["mix", "--out-dir", str(track), "--count", "1", "--seed", "3",
         "--duration", str(sizes.track_seconds), "--sample-rate", "22050"])
    mixture = track / "mix_000_mixture.wav"
    run(["transcribe", str(mixture), "--out", str(track / "transcribe/mixture.mid")])
    return mixture


def evaluate_subset(sizes: Sizes, root: Path) -> None:
    mixture = mix_track(sizes, root / "track")
    stems = {s: f"mix_000_{s}.wav" for s in ("vocals", "bass", "drums", "other")}
    manifest = root / "track/tracks.json"
    manifest.write_text(json.dumps([{
        "mixture": mixture.name, "stems": stems, "midi": "transcribe/mixture.mid"}]))
    for separator in ("model", "irm", "mixture"):
        for amt_mode in ("model", "oracle"):
            run(["evaluate", "--manifest", str(manifest),
                 "--out-dir", str(root / f"{separator}_{amt_mode}"),
                 "--separator", separator, "--amt-mode", amt_mode])


def pipeline_subset(sizes: Sizes, root: Path) -> None:
    for variant in range(sizes.pipeline_inputs):
        run_workload(sizes.pipeline, variant, [0], root / f"pipeline_60s/input{variant}")

    track = root / "track"
    mixture = mix_track(sizes, track)
    run(["separate", str(mixture), "--out-dir", str(track / "separate")])
    run(["pipeline", str(mixture), "--out-dir", str(track / "pipeline"), "--seed", "3"])

    formats = root / "formats"
    formats.mkdir()
    write_pcm24(stereo(sizes.stereo_seconds, 44100, 11), 44100, formats / "pcm24.wav")
    write_wav(Waveform(stereo(sizes.stereo_seconds, 22050, 13), 22050),
              formats / "float32.wav", bit_depth=32)
    for name in ("pcm24", "float32"):
        source = str(formats / f"{name}.wav")
        run(["separate", source, "--out-dir", str(formats / f"{name}_separate")])
        run(["pipeline", source, "--out-dir", str(formats / f"{name}_pipeline"), "--seed", "3"])


def separate_subset(sizes: Sizes, root: Path) -> None:
    run_workload(sizes.separate, 3, range(sizes.separate.CLIPS), root / "separate_10s")
    mono = root / "mono"
    mono.mkdir()
    # one at the CQT's rate, one at 8 kHz, and one shorter than an STFT frame
    for i, (seconds, rate) in enumerate(((3.0, 22050), (2.5, 8000), (0.01, 22050))):
        path = mono / f"mono{i}.wav"
        write_wav(mixture_of(synth.make_source_set(seconds, rate, 20 + i)), path)
        run(["separate", str(path), "--out-dir", str(mono / f"mono{i}")])
    run_script("oracle_bounds", ["--tracks", str(sizes.oracle_tracks)], root)


def training_subset(sizes: Sizes, root: Path) -> None:
    run_workload(sizes.train, 1, range(2), root / "train_desk")
    run_script("train_desk_models", ["--out-dir", str(root / "desk"), "--sep-epochs",
                                     sizes.desk_epochs, "--amt-epochs", sizes.desk_epochs], root)


SUBSETS = {"evaluate": evaluate_subset, "pipeline": pipeline_subset,
           "separate": separate_subset, "training": training_subset}


def digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--subset", nargs="+", choices=sorted(SUBSETS), default=sorted(SUBSETS))
    ap.add_argument("--tiny", action="store_true", help="seconds-long inputs, one epoch")
    args = ap.parse_args()

    sys.path.insert(0, str(TREE / "perfbench"))
    import workloads  # perfbench/workloads.py of the tree under test

    os.environ.pop("MUSESCORE_PATH", None)
    os.environ["PATH"] = ""
    sizes = Sizes(workloads, args.tiny)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        home = Path.cwd()
        os.chdir(work)
        try:
            for name in sorted(set(args.subset)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    SUBSETS[name](sizes, Path(name))
                Path(name, "stdout.txt").write_text(out.getvalue())
        finally:
            os.chdir(home)
        print(json.dumps(digests(work), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
