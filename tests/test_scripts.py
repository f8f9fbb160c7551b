"""The example scripts run end to end as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

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
