"""stemscribe benchmark: run one workload in a closed loop and print its
metrics.

    python3 perfbench/run.py --workload pipeline_60s --seed 1 --seconds 20 --trace 0

Ops are ``stemscribe`` CLI commands run in this process through
``stemscribe.cli.main``, one client, each op starting when the previous one
has finished and its outputs have been checked. Times are reported in
reference seconds (see ``probe.py``): each is scaled by the speed a fixed
probe computation shows around and during it. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
prints per-layer self times and counters from the traced ones, plus the
tracing overhead. The last line of standard output is the result object;
the line before it holds run facts and per-op detail.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "audio_s_per_s": "s/s",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb_per_op": "MB",
    "success_rate": "ratio",
    "roll_agreement": "ratio",
    "vocals_si_sdr_db": "dB",
    "amt_loss_ratio": "ratio",
    "sep_loss_ratio": "ratio",
}
# Quality figures each workload measures; the others have no meaning there
# and are printed as 1.0 (a ratio of "no change") and listed as not applicable.
QUALITY_METRICS = ("roll_agreement", "vocals_si_sdr_db", "amt_loss_ratio", "sep_loss_ratio")
QUALITY = {
    "pipeline_60s": ("roll_agreement", "vocals_si_sdr_db"),
    "separate_10s": ("vocals_si_sdr_db",),
    "train_desk": ("vocals_si_sdr_db", "amt_loss_ratio", "sep_loss_ratio"),
}

SPAN_METRICS = [
    "dsp.cqt.s", "separation.predict_mask.s", "nn.Lstm.forward.s", "nn.Lstm.backward.s",
    *(f"nn.{layer}.{pass_}.s" for layer in ("Conv2d", "Dense", "BatchNorm", "MaxPool2d", "Sigmoid")
      for pass_ in ("forward", "backward")),
    "nn.focal_loss.s", "nn.Adam.step.s", "nn.save_checkpoint.s",
    "transcription.build_training_pair.s", "transcription.predict.s",
    "dsp.stft.s", "dsp.istft.s", "cli.self_s",
    "audio_io.read_wav.s", "audio_io.write_wav.s", "pianoroll.roll_to_notes.s",
    "midi.write_smf.s",
]
ARTIFACT_KINDS = ("mask_csv", "stats_csv", "loss_csv", "wav", "midi", "roll", "report",
                  "checkpoint", "other")
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "dsp.cqt.gather_mb": "MB",
    "nn.Lstm.steps": "count",
    "nn.save_checkpoint.calls": "count",
    "transcription.windows": "count",
    "transcription.window_fill": "ratio",
    "transcription.frame_coverage": "ratio",
    "audio_io.write_wav.clipped_samples": "count",
    "midi.notes": "count",
    "audio_io.import_s": "s",
    "trace.overhead_s": "s",
    **{f"cli.{kind}_mb": "MB" for kind in ARTIFACT_KINDS},
}

# Times the imports in a fresh interpreter, then the probe in that same
# process, busy as the imports left it (see probe.py).
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import stemscribe.audio_io\n"
    "t1 = time.perf_counter()\n"
    "import stemscribe.cli\n"
    "t2 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import probe\n"
    "print(t1 - t0, t2 - t0, probe.measure())\n"
)


def prepare_environment() -> bool:
    """Point imports at ``src/`` and set BLAS threads to the CPUs this
    process may use, before numpy loads. False when ``src/`` is missing."""
    if not (SRC / "stemscribe" / "cli.py").is_file():
        print(f"no stemscribe sources under {SRC}", file=sys.stderr)
        return False
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("MUSESCORE_PATH", None)
    sys.path.insert(0, str(SRC))
    return True


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["pipeline_60s", "separate_10s", "train_desk"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure_setup(env: dict) -> tuple[list[float], list[float], list[float]]:
    """Reference seconds to import stemscribe.audio_io and stemscribe.cli,
    each sample from a fresh interpreter, and the raw cli seconds."""
    import probe

    audio_io_s, cli_s, raw_cli_s = [], [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(Path(__file__).parent)],
                             env=env, check=True, capture_output=True, text=True,
                             timeout=120).stdout.split()
        scale = probe.REFERENCE_S / float(out[2])
        audio_io_s.append(float(out[0]) * scale)
        cli_s.append(float(out[1]) * scale)
        raw_cli_s.append(float(out[1]))
    return audio_io_s, cli_s, raw_cli_s


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value,
    percentile, samples beyond). With 10 samples or fewer, the maximum."""
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0, 0
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def artifact_kind(path: Path) -> str:
    name = path.name
    for suffix, kind in (("_mask.csv", "mask_csv"), ("_spectrogram_stats.csv", "stats_csv"),
                         ("_loss.csv", "loss_csv"), (".wav", "wav"), (".mid", "midi"),
                         (".prol", "roll"), (".json", "report"), (".ssnn", "checkpoint")):
        if name.endswith(suffix):
            return kind
    return "other"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_facts(args, workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload_seed": args.seed,
        "input_sha256": {p.name: sha256(p) for p in workload.inputs},
        "run_config_sha256": {p.name: sha256(p) for p in workload.configs},
    }


def run_ops(workload, seconds: float, work: Path, tracer) -> list[dict]:
    """Closed loop of ops until ``seconds`` have passed, and at least two
    ops and one per distinct input, so that a slow machine still yields a
    median. With a tracer, odd-numbered ops are traced. Each op is timed
    in seconds and in reference seconds, scaled by the probe samples taken
    around and during it."""
    from stemscribe import cli

    import layers
    import probe

    records = []
    deadline = time.perf_counter() + seconds
    op = 0
    while op < max(workload.distinct_ops, 2) or time.perf_counter() < deadline:
        traced = tracer is not None and op % 2 == 1
        out = work / f"op{op}"
        rec = {"op": op, "traced": traced, "problems": []}
        if traced:
            tracer.op = op
            layers.install(tracer)
        try:
            with probe.Sampler() as speed, contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                codes = [tracer.call("cli", cli.main, argv) if traced else cli.main(argv)
                         for argv in workload.commands(op, out)]
        except Exception:
            codes = None
            rec["problems"].append(traceback.format_exc(limit=3))
        rec["seconds"] = time.perf_counter() - t0 - speed.spent
        scale = speed.scale()
        rec["probe_s"] = probe.REFERENCE_S / scale
        rec["probe_samples"] = len(speed.samples)
        rec["ref_seconds"] = rec["seconds"] * scale
        if traced:
            tracer.unpatch()
        if codes is not None and any(codes):
            rec["problems"].append(f"exit codes {codes}")
        elif codes is not None:
            try:
                problems, rec["quality"] = workload.check(op, out)
                rec["problems"] += problems
            except Exception:
                rec["problems"].append(traceback.format_exc(limit=3))
        rec["bytes"] = dict.fromkeys(ARTIFACT_KINDS, 0)
        for path in out.rglob("*") if out.exists() else ():
            if path.is_file():
                rec["bytes"][artifact_kind(path)] += path.stat().st_size
        shutil.rmtree(out, ignore_errors=True)
        for problem in rec["problems"]:
            print(f"op {op} failed: {problem}", file=sys.stderr)
        records.append(rec)
        op += 1
    return records


def quality_metrics(workload_name: str, workload, records: list[dict]) -> dict[str, float]:
    """Mean over distinct inputs of each quality figure, from the first
    passing op on each input."""
    first: dict[int, dict] = {}
    for rec in records:
        if not rec["problems"]:
            first.setdefault(rec["op"] % workload.distinct_ops, rec["quality"])
    out = {}
    for name in QUALITY_METRICS:
        if name not in QUALITY[workload_name]:
            out[name] = 1.0
        else:
            values = [q[name] for q in first.values()]
            out[name] = statistics.fmean(values) if values else 0.0
    return out


def end_to_end(args, workload, records, setup_s) -> dict[str, float]:
    times = [r["ref_seconds"] for r in records]
    passed = sum(not r["problems"] for r in records)
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "audio_s_per_s": len(times) * workload.audio_seconds / sum(times),
        "examples_per_s": len(times) * workload.examples / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_mb_per_op": statistics.fmean(sum(r["bytes"].values()) for r in records) / 1e6,
        "success_rate": passed / len(records),
        **quality_metrics(args.workload, workload, records),
    }


def per_layer(tracer, records, audio_io_s) -> dict[str, float]:
    """Medians over traced ops; self times in reference seconds, scaled
    like the op that holds them."""
    import layers

    traced = [r for r in records if r["traced"]]
    per_op = []
    for rec in traced:
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m.update(layers.per_op_metrics(tracer, rec["op"]))
        for name in SPAN_METRICS:
            m[name] *= rec["ref_seconds"] / rec["seconds"]
        m.update({f"cli.{kind}_mb": b / 1e6 for kind, b in rec["bytes"].items()})
        per_op.append(m)
    out = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER_UNITS}
    out["audio_io.import_s"] = statistics.median(audio_io_s)
    out["trace.overhead_s"] = (statistics.median(r["ref_seconds"] for r in traced)
                               - statistics.median(r["ref_seconds"] for r in records
                                                   if not r["traced"]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_environment():
        return 2
    audio_io_s, setup_s, raw_setup_s = measure_setup(dict(os.environ))

    import probe
    import workloads
    from spans import Tracer

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        (work / "empty_path").mkdir(parents=True)
        os.environ["PATH"] = str(work / "empty_path")  # no mscore: render is always skipped
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        facts = run_facts(args, workload)
        tracer = Tracer() if args.trace else None
        records = run_ops(workload, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [r["ref_seconds"] for r in records]
    tail_s, tail_pct, beyond = tail(times)
    failed = sum(bool(r["problems"]) for r in records)
    detail = {
        "workload": args.workload, "trace": args.trace, "facts": facts,
        "ops": len(records), "op_ref_times_s": times,
        "op_times_s": [r["seconds"] for r in records],
        "probe_s": [r["probe_s"] for r in records],
        "probe_samples": [r["probe_samples"] for r in records], "probe_reference_s": probe.REFERENCE_S,
        "setup_ref_s": setup_s, "setup_raw_s": raw_setup_s,
        "op_tail": {"seconds": tail_s, "percentile": tail_pct, "samples_beyond": beyond},
        "error_rate": failed / len(records),
        "not_applicable": [n for n in QUALITY_METRICS if n not in QUALITY[args.workload]],
        "output_bytes_by_kind": {k: statistics.fmean(r["bytes"][k] for r in records)
                                 for k in ARTIFACT_KINDS},
    }
    if args.trace:
        import layers

        metrics = per_layer(tracer, records, audio_io_s)
        units = PER_LAYER_UNITS
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail.update(computed=list(layers.COMPUTED), trace_file=str(trace_file.relative_to(ROOT)),
                      traced_ops=sum(r["traced"] for r in records))
    else:
        metrics = end_to_end(args, workload, records, setup_s)
        units = END_TO_END
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
