"""Standard MIDI File writing and parsing, bit-exact and without a MIDI library.

Output is format 0: one track carrying a tempo meta event, note-on/off
pairs with variable-length delta times, and an end-of-track marker.
The parser accepts format 0 and 1, running status, and treats note-on
with velocity 0 as note-off.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pianoroll import NoteEvent

HEADER_MAGIC = b"MThd"
TRACK_MAGIC = b"MTrk"

DEFAULT_DIVISION = 480  # ticks per quarter note
DEFAULT_TEMPO = 500_000  # microseconds per quarter note (120 BPM)

NOTE_OFF = 0x80
NOTE_ON = 0x90
META = 0xFF
META_TEMPO = 0x51
META_END_OF_TRACK = 0x2F

VLQ_MAX = 0x0FFFFFFF  # the largest value four VLQ bytes hold
_VLQ_SHIFTS = np.array([21, 14, 7, 0])  # a VLQ's 7-bit groups, most significant first


class SmfParseError(ValueError):
    pass


@dataclass
class SmfDocument:
    ticks_per_quarter: int = DEFAULT_DIVISION
    tempo: int = DEFAULT_TEMPO
    tracks: list[list[tuple[int, bytes]]] = field(default_factory=list)
    """Per track: (absolute tick, raw event bytes) pairs."""


def encode_vlq(value: int) -> bytes:
    """Variable-length quantity: 7 bits per byte, high bit = continuation."""
    if not 0 <= value <= VLQ_MAX:
        raise ValueError(f"VLQ value {value} out of range")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def decode_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise SmfParseError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise SmfParseError("variable-length quantity longer than 4 bytes")


def seconds_to_ticks(seconds: float, division: int, tempo: int) -> int:
    return int(round(seconds * division * 1e6 / tempo))


def render_smf(notes) -> bytes:
    """Serialize note events to format-0 SMF bytes at DEFAULT_DIVISION
    ticks per quarter note and DEFAULT_TEMPO.

    A note is a note-on at the tick of its start and a note-off at that of
    its end, each seconds_to_ticks rounded half to even. The events go in
    order of tick; at one tick note-offs go before note-ons (so a note
    ending where the next one at its pitch starts survives), and events of
    one kind in order of pitch, then velocity. A NaN or infinite time
    raises as seconds_to_ticks does, before any other check; a negative
    tick or a delta time above 2**28 - 1 raises encode_vlq's ValueError."""
    notes = list(notes)
    n = len(notes)
    seconds = np.empty((n, 2))  # each note's on time, then its off time
    seconds[:, 0] = np.fromiter((note.start for note in notes), np.float64, n)
    seconds[:, 1] = np.fromiter((note.end for note in notes), np.float64, n)
    seconds = seconds.reshape(-1)
    # seconds_to_ticks' expression, which rint rounds half to even as round()
    # does; a time whose product passes the float range becomes inf
    with np.errstate(over="ignore"):
        ticks = np.rint(seconds * DEFAULT_DIVISION * 1e6 / DEFAULT_TEMPO)
    finite = np.isfinite(ticks)
    if not finite.all():  # round() refuses the first, as the note loop did
        seconds_to_ticks(float(seconds[np.argmin(finite)]), DEFAULT_DIVISION, DEFAULT_TEMPO)
    messages = np.empty((n, 2, 3), np.uint8)
    messages[:, :, 0] = NOTE_ON, NOTE_OFF
    messages[:, :, 1] = np.fromiter((note.pitch for note in notes), np.int64, n)[:, None]
    messages[:, 0, 2] = np.fromiter((note.velocity for note in notes), np.int64, n)
    messages[:, 1, 2] = 0
    messages = messages.reshape(-1, 3)

    # NOTE_OFF < NOTE_ON, so (tick, status, pitch, velocity) is the event order
    order = np.lexsort((messages[:, 2], messages[:, 1], messages[:, 0], ticks))
    ticks = ticks[order]
    deltas = np.diff(ticks, prepend=0.0)
    bad = (deltas < 0) | (deltas > VLQ_MAX)
    if bad.any():  # the first delta out of range refuses the track
        i = int(np.argmax(bad))
        encode_vlq(int(ticks[i]) - int(ticks[i - 1] if i else 0))
    deltas = deltas.astype(np.int64)[:, None]
    events = np.empty((2 * n, 7), np.uint8)  # four VLQ bytes, then the message
    events[:, :4] = (deltas >> _VLQ_SHIFTS) & 0x7F
    events[:, :3] |= 0x80
    events[:, 4:] = messages[order]
    keep = np.ones(events.shape, bool)  # a VLQ drops its leading zero groups
    np.greater_equal(deltas, 1 << _VLQ_SHIFTS[:3], out=keep[:, :3])

    track = (encode_vlq(0) + bytes([META, META_TEMPO, 3]) + DEFAULT_TEMPO.to_bytes(3, "big")
             + events[keep].tobytes() + encode_vlq(0) + bytes([META, META_END_OF_TRACK, 0]))
    header = HEADER_MAGIC + struct.pack(">IHHH", 6, 0, 1, DEFAULT_DIVISION)
    return header + TRACK_MAGIC + struct.pack(">I", len(track)) + track


def write_smf(notes, path) -> int:
    data = render_smf(notes)
    Path(path).write_bytes(data)
    return len(data)


def _parse_track(data: bytes) -> list[tuple[int, bytes]]:
    """Expand one MTrk body into (absolute tick, normalized event) pairs."""
    events = []
    pos = 0
    tick = 0
    running_status = None
    while pos < len(data):
        delta, pos = decode_vlq(data, pos)
        tick += delta
        if pos >= len(data):
            raise SmfParseError("event truncated after delta time")
        status = data[pos]
        if status & 0x80:
            pos += 1
            if status < 0xF0:
                running_status = status
        else:
            if running_status is None:
                raise SmfParseError(f"data byte {status:#x} with no running status")
            status = running_status
        if status == META:
            if pos >= len(data):
                raise SmfParseError("truncated meta event")
            meta_type = data[pos]
            length, pos = decode_vlq(data, pos + 1)
            body = data[pos : pos + length]
            if len(body) < length:
                raise SmfParseError("truncated meta event")
            pos += length
            events.append((tick, bytes([META, meta_type]) + body))
            if meta_type == META_END_OF_TRACK:
                break
        elif status in (0xF0, 0xF7):  # sysex
            length, pos = decode_vlq(data, pos)
            pos += length
        else:
            kind = status & 0xF0
            n_data = 1 if kind in (0xC0, 0xD0) else 2
            body = data[pos : pos + n_data]
            if len(body) < n_data:
                raise SmfParseError("truncated channel event")
            pos += n_data
            events.append((tick, bytes([status]) + body))
    return events


def parse_smf(data: bytes) -> tuple[SmfDocument, list[NoteEvent]]:
    """Decode SMF bytes into a document plus note events in seconds.

    Tick times are converted through the tempo map (piecewise, format-1
    tempo changes honored). Unclosed notes raise with pitch and tick.
    """
    if len(data) < 14 or data[:4] != HEADER_MAGIC:
        raise SmfParseError(f"bad header magic {data[:4]!r}")
    header_len, fmt, n_tracks, division = struct.unpack_from(">IHHH", data, 4)
    if header_len != 6:
        raise SmfParseError(f"unexpected header length {header_len}")
    if fmt not in (0, 1):
        raise SmfParseError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise SmfParseError("SMPTE time division is not supported")

    tracks = []
    pos = 14
    for _ in range(n_tracks):
        if pos + 8 > len(data):
            raise SmfParseError("truncated track chunk header")
        if data[pos : pos + 4] != TRACK_MAGIC:
            raise SmfParseError(f"bad track magic {data[pos:pos + 4]!r}")
        (length,) = struct.unpack_from(">I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + length]
        if len(body) < length:
            raise SmfParseError("truncated track chunk")
        tracks.append(_parse_track(body))
        pos += 8 + length

    merged = sorted((tick, ev) for track in tracks for tick, ev in track)

    # Piecewise tick -> seconds conversion over tempo changes.
    tempo_changes = [(0, DEFAULT_TEMPO)]
    for tick, ev in merged:
        if ev[0] == META and ev[1] == META_TEMPO:
            tempo_changes.append((tick, int.from_bytes(ev[2:5], "big")))

    def tick_to_seconds(tick: int) -> float:
        seconds = 0.0
        prev_tick, tempo = tempo_changes[0]
        for change_tick, new_tempo in tempo_changes[1:]:
            if change_tick >= tick:
                break
            seconds += (change_tick - prev_tick) * tempo / (division * 1e6)
            prev_tick, tempo = change_tick, new_tempo
        return seconds + (tick - prev_tick) * tempo / (division * 1e6)

    notes = []
    pending: dict[int, tuple[int, int]] = {}  # pitch -> (start tick, velocity)
    for tick, ev in merged:
        kind = ev[0] & 0xF0
        if kind == NOTE_ON and ev[2] > 0:
            pending.setdefault(ev[1], (tick, ev[2]))
        elif kind == NOTE_OFF or (kind == NOTE_ON and ev[2] == 0):
            started = pending.pop(ev[1], None)
            if started is not None:
                start_tick, velocity = started
                start = tick_to_seconds(start_tick)
                end = tick_to_seconds(max(tick, start_tick + 1))
                notes.append(NoteEvent(ev[1], start, end, velocity))
    if pending:
        pitch, (tick, _) = next(iter(pending.items()))
        raise SmfParseError(f"dangling note-on for pitch {pitch} at tick {tick}")

    notes.sort(key=lambda n: (n.start, n.pitch))
    doc = SmfDocument(division, tempo_changes[-1][1] if len(tempo_changes) > 1 else DEFAULT_TEMPO, tracks)
    return doc, notes


def read_smf(path) -> tuple[SmfDocument, list[NoteEvent]]:
    return parse_smf(Path(path).read_bytes())
