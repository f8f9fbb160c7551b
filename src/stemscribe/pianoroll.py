"""Binary piano rolls, note events, and the conversions between them.

Rolls are (88, frames) 0/1 grids, row r holding MIDI pitch r + 21, each
with its frame period, frame_time seconds; the note model's is
dsp.CqtConfig.frame_time. Two rasterization rules coexist:

  * notes_to_roll: frame t is active iff t * dt lies in [start, end);
    the exact inverse of roll_to_notes, used for round-trip checks.
  * rasterize_notes: note edges snap to the nearest frame; used when
    preparing training targets from recorded MIDI.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_KEYS = 88
LOWEST_PITCH = 21
HIGHEST_PITCH = LOWEST_PITCH + N_KEYS - 1

ROLL_MAGIC = b"PROL"

DEFAULT_VELOCITY = 100


@dataclass(frozen=True)
class NoteEvent:
    pitch: int
    start: float
    end: float
    velocity: int = DEFAULT_VELOCITY

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside MIDI range")
        if self.end <= self.start:
            raise ValueError(f"note must end after it starts ({self.start} .. {self.end})")
        if not 0 <= self.velocity <= 127:
            raise ValueError(f"velocity {self.velocity} outside MIDI range")


@dataclass
class PianoRoll:
    """(88, frames) binary grid; row r is MIDI pitch r + 21."""

    grid: np.ndarray
    frame_time: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid)
        if self.grid.ndim != 2 or self.grid.shape[0] != N_KEYS:
            raise ValueError(f"roll must be ({N_KEYS}, frames), got {self.grid.shape}")
        if not np.isin(self.grid, (0, 1)).all():
            raise ValueError("roll entries must be 0 or 1")
        if not 0 < self.frame_time < math.inf:  # a NaN fails this test too
            raise ValueError(f"frame_time must be positive and finite, got {self.frame_time}")
        self.grid = self.grid.astype(np.uint8)

    @property
    def num_frames(self) -> int:
        return self.grid.shape[1]

    def save(self, path) -> None:
        header = ROLL_MAGIC + struct.pack(
            "<IId", self.grid.shape[0], self.grid.shape[1], self.frame_time
        )
        Path(path).write_bytes(header + np.packbits(self.grid.reshape(-1)).tobytes())

    @classmethod
    def load(cls, path) -> "PianoRoll":
        data = Path(path).read_bytes()
        if len(data) < 20 or data[:4] != ROLL_MAGIC:
            raise ValueError(f"{path}: not a piano-roll file")
        rows, cols, frame_time = struct.unpack_from("<IId", data, 4)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=20))
        if bits.size < rows * cols:
            raise ValueError(f"{path}: truncated payload")
        return cls(bits[: rows * cols].reshape(rows, cols), frame_time)


def _check_piano_pitch(pitch: int) -> None:
    if not LOWEST_PITCH <= pitch <= HIGHEST_PITCH:
        raise ValueError(f"pitch {pitch} outside piano range {LOWEST_PITCH}..{HIGHEST_PITCH}")


def active_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [first, last] index pairs of consecutive ones in a 0/1 row."""
    padded = np.concatenate([[0], row.astype(np.int8), [0]])
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def roll_to_notes(roll: PianoRoll) -> list[NoteEvent]:
    """Group each run of active frames [a..b] into a note spanning
    [a * dt, (b + 1) * dt), dt the roll's frame time, at DEFAULT_VELOCITY,
    ordered by start time then pitch."""
    padded = np.zeros((N_KEYS, roll.num_frames + 2), np.int8)
    padded[:, 1:-1] = roll.grid
    edges = np.diff(padded, axis=1)  # +1 at a run's first frame, -1 after its last
    rows, first = np.nonzero(edges == 1)
    stop = np.nonzero(edges == -1)[1]  # the frame after each run, in the order of first
    starts = first * roll.frame_time
    order = np.lexsort((rows, starts))  # by start, then pitch
    return list(map(NoteEvent, (rows[order] + LOWEST_PITCH).tolist(), starts[order].tolist(),
                    (stop[order] * roll.frame_time).tolist()))


def notes_to_roll(notes, frame_time: float, total_frames: int) -> PianoRoll:
    """Exact inverse of roll_to_notes: frame t active iff t * frame_time
    lies in [start, end)."""
    grid = np.zeros((N_KEYS, total_frames), dtype=np.uint8)
    times = np.arange(total_frames) * frame_time
    for note in notes:
        _check_piano_pitch(note.pitch)
        grid[note.pitch - LOWEST_PITCH] |= (times >= note.start) & (times < note.end)
    return PianoRoll(grid, frame_time)


def rasterize_notes(notes, frame_time: float, total_frames: int) -> PianoRoll:
    """Snap note edges to the nearest frame of frame_time seconds (half
    rounds up) and activate the inclusive frame span, clipped to the grid."""
    grid = np.zeros((N_KEYS, total_frames), dtype=np.uint8)
    for note in notes:
        _check_piano_pitch(note.pitch)
        first = int(np.floor(note.start / frame_time + 0.5))
        last = int(np.floor(note.end / frame_time + 0.5))
        first = max(first, 0)
        last = min(last, total_frames - 1)
        if last >= first:
            grid[note.pitch - LOWEST_PITCH, first : last + 1] = 1
    return PianoRoll(grid, frame_time)
