"""Sheet-music export through an external MuseScore binary.

Everything here is subprocess plumbing: resolve the executable, build the
exact argument vector, run it with a timeout, and validate the output.
No shell is ever involved; arguments stay a discrete vector.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

ENV_VAR = "MUSESCORE_PATH"
PATH_NAME = "mscore"
ALLOWED_EXTENSIONS = ("pdf", "musicxml", "png")
DEFAULT_TIMEOUT = 120.0


class MuseScoreNotFoundError(FileNotFoundError):
    """No usable MuseScore binary; the message lists every probed source."""


class NotationExportError(RuntimeError):
    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message + (f"\nstderr:\n{stderr.strip()}" if stderr.strip() else ""))
        self.stderr = stderr


def resolve_executable(explicit_path: str | os.PathLike | None = None) -> Path:
    """Locate the binary: explicit argument, then MUSESCORE_PATH, then a
    search-path entry named mscore."""
    if explicit_path is not None:
        p = Path(explicit_path)
        if p.exists():
            return p.resolve()  # a bare relative name would hit PATH lookup
        raise MuseScoreNotFoundError(f"explicit path {p} does not exist")
    from_env = os.environ.get(ENV_VAR)
    if from_env:
        p = Path(from_env)
        if p.exists():
            return p.resolve()
        raise MuseScoreNotFoundError(f"{ENV_VAR}={from_env} does not exist")
    found = shutil.which(PATH_NAME)
    if found:
        return Path(found).resolve()
    raise MuseScoreNotFoundError(
        "no MuseScore binary: no explicit path given, "
        f"{ENV_VAR} is unset, and no '{PATH_NAME}' on the search path"
    )


@dataclass(frozen=True)
class NotationJob:
    midi_path: Path
    output_path: Path
    executable: Path

    def __post_init__(self):
        object.__setattr__(self, "midi_path", Path(self.midi_path))
        object.__setattr__(self, "output_path", Path(self.output_path))
        object.__setattr__(self, "executable", Path(self.executable))
        if not self.midi_path.exists():
            raise FileNotFoundError(f"MIDI input {self.midi_path} does not exist")
        ext = self.output_path.suffix.lstrip(".").lower()
        if ext not in ALLOWED_EXTENSIONS:
            raise ValueError(f"output extension {ext!r} not one of {ALLOWED_EXTENSIONS}")


def build_command(job: NotationJob) -> list[str]:
    return [str(job.executable), str(job.midi_path), "-o", str(job.output_path)]


def export_sheet(job: NotationJob, timeout: float = DEFAULT_TIMEOUT) -> Path:
    """Run the export and hand back the output path once it is nonempty."""
    try:
        proc = subprocess.run(
            build_command(job),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except FileNotFoundError as e:
        raise MuseScoreNotFoundError(f"executable {job.executable} vanished: {e}") from e
    except subprocess.TimeoutExpired as e:
        raise NotationExportError(f"export timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise NotationExportError(
            f"{job.executable.name} exited with code {proc.returncode}", proc.stderr
        )
    if not job.output_path.exists() or job.output_path.stat().st_size == 0:
        raise NotationExportError(
            f"{job.executable.name} reported success but wrote nothing to {job.output_path}",
            proc.stderr,
        )
    return job.output_path
