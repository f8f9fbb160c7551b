"""The example scripts run end to end as separate processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

from stemscribe import cli, nn
from stemscribe.config import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_oracle_bounds_script(tmp_path):
    done = run_script("oracle_bounds.py", "--tracks", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "ideal ratio mask" in done.stdout and "mixture baseline" in done.stdout


def test_lane_gate_script(tmp_path):
    # a tiny separator, saved as a checkpoint, on one 12 s track: 2,073
    # frames at 22.05 kHz, just past the lane threshold
    config = tmp_path / "tiny.json"
    PipelineConfig.from_dict({"separator": {"hidden": 4, "layers": 2}}).save(config)
    cfg = PipelineConfig.load(config)
    nn.save_checkpoint(tmp_path / "sep.ssnn", cli._separator_model(cfg, None).state())
    done = run_script("lane_gate.py", "--checkpoint", "sep.ssnn", "--config", str(config),
                      "--tracks", "1", "--seconds", "12", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "1 tracks of 12 s at 22050 Hz: 2073 frames, 8 lanes in 1 super-blocks"
    assert lines[1].startswith("one pass, vocals SI-SDR dB:")
    assert lines[2].split() == ["W", "max", "|dmask|", "dSI-SDR", "0"]
    rows = [line.split() for line in lines[3:]]
    assert [int(row[0]) for row in rows] == [32, 64, 128, 256]
    assert all(0.0 < float(row[1]) < 1.0 and abs(float(row[2])) < 1.0 for row in rows)
    # a track that runs as one pass has nothing to compare
    done = run_script("lane_gate.py", "--config", str(config), "--tracks", "1",
                      "--seconds", "11", cwd=tmp_path)
    assert done.returncode == 1 and "which runs as one pass" in done.stderr


def test_separation_memory_script(tmp_path):
    # blocks of 1024 frames at hop 128 are 5.9 s at 22.05 kHz: both lengths
    # hold full blocks (3 and 11), so neither peak is that of a shorter grid
    done = run_script("separation_memory.py", "--seconds", "12", "60", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("12 s: ru_maxrss ") and lines[1].startswith("60 s: ru_maxrss ")
    assert "MB per extra second of audio (limit 0.1)" in lines[2]


def test_train_desk_models_script(tmp_path):
    done = run_script("train_desk_models.py", "--out-dir", "models", "--sep-epochs", "1",
                      "--amt-epochs", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("desk_config.json", "separator.ssnn", "separator_loss.csv", "amt.ssnn",
                 "amt_loss.csv"):
        assert (tmp_path / "models" / name).exists(), name
    assert any(line.startswith("held-out frame F1: ") for line in done.stdout.splitlines())


def test_output_digests_script(tmp_path):
    # two runs print the same map: every file the commands write is
    # named relative to the run's directory and hashed
    maps = []
    for _ in range(2):
        done = run_script("output_digests.py", "--tiny", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        maps.append(done.stdout)
    assert maps[0] == maps[1]
    digests = json.loads(maps[0])
    assert list(digests) == sorted(digests)
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests.values())
    assert {path.split("/")[0] for path in digests} == {"evaluate", "pipeline", "separate",
                                                        "training"}
    for path in ("pipeline/pipeline_60s/input1/op0/mix_vocals.mid",
                 "pipeline/track/pipeline/pipeline_report.json",
                 "evaluate/irm_oracle/separation_metrics.json",
                 "separate/mono/mono2/mono2_mask.csv", "separate/oracle_bounds.txt",
                 "training/train_desk/op1/amt.ssnn", "training/desk/amt_loss.csv",
                 "training/train_desk_models.txt"):
        assert path in digests, path
    assert list(tmp_path.iterdir()) == []  # it writes only in its own temporary directory
