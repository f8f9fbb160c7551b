"""Regenerate the reference rolls that ``roll_agreement`` compares against:

    python3 perfbench/make_reference.py

It runs ``stemscribe pipeline`` on every pipeline_60s input variant and
stores the written ``.prol`` roll under ``perfbench/reference/``. The
stored rolls were made at the commit that introduced the benchmark;
regenerate them only when a change to the transcription output is meant.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import run


def main() -> int:
    if not run.prepare_environment():
        return 2
    from stemscribe import cli

    import workloads

    w = workloads.Pipeline60s
    work = run.ROOT / ".perfbench" / "reference-work"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for variant in range(w.REFERENCE_INPUTS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            _, mixture = w.make_input(work, variant)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["pipeline", str(mixture), "--out-dir", str(work / "out")])
            if code:
                print(f"pipeline exited {code} on input {variant}", file=sys.stderr)
                return 1
            shutil.copyfile(work / "out" / "mix_vocals.prol", w.reference_path(variant))
            print(f"wrote {w.reference_path(variant)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
