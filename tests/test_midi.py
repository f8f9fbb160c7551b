import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stemscribe.midi import (DEFAULT_DIVISION, DEFAULT_TEMPO, HEADER_MAGIC, META,
                             META_END_OF_TRACK, META_TEMPO, NOTE_OFF, NOTE_ON, TRACK_MAGIC,
                             SmfParseError, decode_vlq, encode_vlq, parse_smf,
                             read_smf, render_smf, seconds_to_ticks, write_smf)
from stemscribe.pianoroll import NoteEvent

# ticks are 1/960 s at the default division and tempo
TICK_SECONDS = DEFAULT_TEMPO / (DEFAULT_DIVISION * 1e6)

VLQ_VECTORS = [
    (0x00, b"\x00"),
    (0x40, b"\x40"),
    (0x7F, b"\x7f"),
    (0x80, b"\x81\x00"),
    (200, b"\x81\x48"),
    (0x2000, b"\xc0\x00"),
    (0x3FFF, b"\xff\x7f"),
    (0x4000, b"\x81\x80\x00"),
    (0x1FFFFF, b"\xff\xff\x7f"),
    (0x200000, b"\x81\x80\x80\x00"),
    (0x0FFFFFFF, b"\xff\xff\xff\x7f"),
]


@pytest.mark.parametrize("value, encoded", VLQ_VECTORS)
def test_vlq_known_encodings(value, encoded):
    assert encode_vlq(value) == encoded
    decoded, pos = decode_vlq(encoded, 0)
    assert decoded == value
    assert pos == len(encoded)


def test_vlq_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_vlq(-1)
    with pytest.raises(ValueError):
        encode_vlq(0x10000000)


def test_vlq_decode_rejects_overlong_and_truncated():
    with pytest.raises(SmfParseError):
        decode_vlq(b"\xff\xff\xff\xff\x7f", 0)
    with pytest.raises(SmfParseError):
        decode_vlq(b"\x80", 0)


def test_seconds_to_ticks_rounds():
    assert seconds_to_ticks(1.0, DEFAULT_DIVISION, DEFAULT_TEMPO) == 960
    assert seconds_to_ticks(0.0, DEFAULT_DIVISION, DEFAULT_TEMPO) == 0
    assert seconds_to_ticks(TICK_SECONDS * 10.4, DEFAULT_DIVISION, DEFAULT_TEMPO) == 10


# ---------------------------------------------------------------- render

def test_empty_render_is_header_tempo_eot():
    data = render_smf([])
    assert data[:4] == b"\x4d\x54\x68\x64"
    header_len, fmt, n_tracks, division = struct.unpack_from(">IHHH", data, 4)
    assert (header_len, fmt, n_tracks, division) == (6, 0, 1, DEFAULT_DIVISION)
    assert data[14:18] == b"MTrk"
    body = data[22:]
    assert body == (b"\x00\xff\x51\x03" + DEFAULT_TEMPO.to_bytes(3, "big")
                    + b"\x00\xff\x2f\x00")


def test_single_note_event_bytes():
    data = render_smf([NoteEvent(60, 0.0, 1.0, 100)])
    body = data[22:]
    expected = (b"\x00\xff\x51\x03\x07\xa1\x20"  # tempo 500000
                b"\x00\x90\x3c\x64"              # on, pitch 60, vel 100 at tick 0
                b"\x87\x40\x80\x3c\x00"          # off after 960 ticks
                b"\x00\xff\x2f\x00")
    assert body == expected


def test_write_smf_returns_length_and_starts_with_magic(tmp_path):
    path = tmp_path / "t.mid"
    n = write_smf([NoteEvent(72, 0.1, 0.3, 64)], path)
    raw = path.read_bytes()
    assert len(raw) == n
    assert raw[:4] == HEADER_MAGIC


def random_notes(seed, count=12):
    rng = np.random.default_rng(seed)
    notes = []
    for pitch in rng.choice(np.arange(21, 109), size=count, replace=False):
        start = float(rng.uniform(0.0, 8.0))
        notes.append(NoteEvent(int(pitch), start,
                               start + float(rng.uniform(0.05, 1.5)),
                               int(rng.integers(1, 128))))
    return notes


@pytest.mark.parametrize("seed", range(20))
def test_render_parse_round_trip(seed):
    notes = random_notes(seed)
    doc, parsed = parse_smf(render_smf(notes))
    assert doc.ticks_per_quarter == DEFAULT_DIVISION
    assert len(parsed) == len(notes)
    for orig, back in zip(sorted(notes, key=lambda n: (n.start, n.pitch)), parsed):
        assert back.pitch == orig.pitch
        assert back.velocity == orig.velocity
        assert abs(back.start - orig.start) <= 0.5 * TICK_SECONDS + 1e-9
        assert abs(back.end - orig.end) <= 0.5 * TICK_SECONDS + 1e-9


def loop_render_smf(notes):
    """render_smf as a loop over the notes and a sort of (tick, order,
    message) tuples, the reference of the array form."""
    events = []  # (tick, order, message); offs sort before ons at equal ticks
    for note in notes:
        on = seconds_to_ticks(note.start, DEFAULT_DIVISION, DEFAULT_TEMPO)
        off = seconds_to_ticks(note.end, DEFAULT_DIVISION, DEFAULT_TEMPO)
        events.append((on, 1, bytes([NOTE_ON, note.pitch, note.velocity])))
        events.append((off, 0, bytes([NOTE_OFF, note.pitch, 0])))
    events.sort()

    track = bytearray()
    track += encode_vlq(0)
    track += bytes([META, META_TEMPO, 3]) + DEFAULT_TEMPO.to_bytes(3, "big")
    prev_tick = 0
    for tick, _, message in events:
        track += encode_vlq(tick - prev_tick)
        track += message
        prev_tick = tick
    track += encode_vlq(0) + bytes([META, META_END_OF_TRACK, 0])

    header = HEADER_MAGIC + struct.pack(">IHHH", 6, 0, 1, DEFAULT_DIVISION)
    return header + TRACK_MAGIC + struct.pack(">I", len(track)) + bytes(track)


def outcome(render, notes):
    """The bytes a renderer returns, or the type and text of what it raises."""
    try:
        return render(notes)
    except Exception as e:
        return type(e), str(e)


# tick gaps either side of the VLQ byte boundaries 2**7, 2**14 and 2**21,
# zero (events on one tick) and the 4-byte maximum
GAPS = [0, 1, 2**7 - 1, 2**7, 2**7 + 1, 2**14 - 1, 2**14, 2**14 + 1,
        2**21 - 1, 2**21, 2**21 + 1, 2**28 - 1]
# where in its tick a time falls: on it, either side of the half, on the half
# (which rounds to even), and just below the next tick
OFFSETS = [0.0, 0.25, 0.4999, 0.5, 0.5001, 0.999]


@st.composite
def tick_notes(draw):
    """Unsorted, overlapping notes whose ticks are sums of GAPS, so that the
    track's delta times fall either side of each VLQ byte boundary."""
    notes, tick = [], 0
    for _ in range(draw(st.integers(0, 12))):
        tick += draw(st.sampled_from(GAPS))
        length = draw(st.sampled_from(GAPS[1:]))
        start = (tick + draw(st.sampled_from(OFFSETS))) * TICK_SECONDS
        end = (tick + length + draw(st.sampled_from(OFFSETS))) * TICK_SECONDS
        notes.append(NoteEvent(draw(st.integers(0, 127)), start, end, draw(st.integers(0, 127))))
    return draw(st.permutations(notes))


@given(notes=tick_notes())
def test_render_is_the_event_loop_at_vlq_boundaries(notes):
    assert outcome(render_smf, notes) == outcome(loop_render_smf, notes)


@given(notes=st.lists(st.builds(NoteEvent, st.integers(0, 127), st.floats(0.0, 30.0),
                                st.floats(30.0, 60.0), st.integers(0, 127)), max_size=40),
       pitches=st.integers(1, 4))
def test_render_is_the_event_loop_on_shared_ticks(notes, pitches):
    # few pitches and times on a coarse grid: notes on equal ticks, of one
    # pitch at one tick, and overlapping ones
    notes = [NoteEvent(n.pitch % pitches + 60, round(n.start, 1), round(n.end, 1), n.velocity)
             for n in notes]
    assert outcome(render_smf, notes) == outcome(loop_render_smf, notes)


@pytest.mark.parametrize("gap", GAPS[1:])
def test_one_note_of_each_boundary_length_renders_as_the_loop(gap):
    notes = [NoteEvent(60, 0.0, gap * TICK_SECONDS, 90)]
    assert render_smf(notes) == loop_render_smf(notes)


BAD_TIMES = [math.nan, math.inf, -math.inf, 1e306, -1.0, -1e-4, 2**28 * TICK_SECONDS, 1e9]


@given(times=st.lists(st.tuples(st.sampled_from(BAD_TIMES + [0.0, 1.0, 2.0]),
                                st.sampled_from([0.5, 3.0, math.inf, 2**28 * TICK_SECONDS])),
                      min_size=1, max_size=6))
def test_render_refuses_what_the_event_loop_refuses(times):
    # a negative tick, a delta above 2**28 - 1, a NaN or infinite time and a
    # finite time past the float range of the tick product: the same
    # exception with the same text, for the first fault the loop meets
    notes = [NoteEvent(60 + i, start, start + length) for i, (start, length) in enumerate(times)
             if not start + length <= start]
    assert outcome(render_smf, notes) == outcome(loop_render_smf, notes)


@pytest.mark.parametrize("start, end, error", [
    (-1.0, 0.5, ValueError), (0.0, 1.0 + 2**28 * TICK_SECONDS, ValueError),
    (math.nan, 1.0, ValueError), (0.0, math.nan, ValueError),
    (0.0, math.inf, OverflowError), (-math.inf, 0.0, OverflowError),
    (0.0, 1e306, OverflowError)])
def test_render_refuses_a_bad_time(start, end, error):
    notes = [NoteEvent(61, 0.0, 1.0), NoteEvent(60, start, end)]
    with pytest.raises(error):
        render_smf(notes)
    assert outcome(render_smf, notes) == outcome(loop_render_smf, notes)


def test_adjacent_same_pitch_notes_survive():
    # the off at the shared tick must be written before the next on
    notes = [NoteEvent(60, 0.0, 0.5, 90), NoteEvent(60, 0.5, 1.0, 70)]
    _, parsed = parse_smf(render_smf(notes))
    assert [(n.pitch, n.velocity) for n in parsed] == [(60, 90), (60, 70)]
    assert parsed[0].end == pytest.approx(parsed[1].start)


def test_deltas_nonnegative_and_events_balanced():
    for seed in range(5):
        doc, _ = parse_smf(render_smf(random_notes(seed)))
        (track,) = doc.tracks
        ticks = [tick for tick, _ in track]
        assert ticks == sorted(ticks)
        ons = sum(1 for _, ev in track if ev[0] & 0xF0 == 0x90 and ev[2] > 0)
        offs = sum(1 for _, ev in track
                   if ev[0] & 0xF0 == 0x80 or (ev[0] & 0xF0 == 0x90 and ev[2] == 0))
        assert ons == offs


# ----------------------------------------------------------------- parse

def track_chunk(body: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(body)) + body


def smf_bytes(track_body: bytes, fmt=0, division=DEFAULT_DIVISION) -> bytes:
    header = HEADER_MAGIC + struct.pack(">IHHH", 6, fmt, 1, division)
    return header + track_chunk(track_body)


def test_velocity_zero_note_on_acts_as_off():
    body = (b"\x00\x90\x3c\x64"   # on
            b"\x81\x48\x90\x3c\x00"  # vel-0 "off" after 200 ticks
            b"\x00\xff\x2f\x00")
    _, notes = parse_smf(smf_bytes(body))
    assert len(notes) == 1
    assert notes[0].end == pytest.approx(200 * TICK_SECONDS)


def test_running_status_reuses_previous_status_byte():
    body = (b"\x00\x90\x3c\x64"  # explicit note-on
            b"\x0a\x3e\x50"      # running status: pitch 62 on
            b"\x0a\x80\x3c\x00"  # explicit off
            b"\x00\x3e\x00"      # running status off
            b"\x00\xff\x2f\x00")
    _, notes = parse_smf(smf_bytes(body))
    assert sorted(n.pitch for n in notes) == [60, 62]


def test_data_byte_without_running_status_rejected():
    with pytest.raises(SmfParseError):
        parse_smf(smf_bytes(b"\x00\x3c\x64\x00\xff\x2f\x00"))


def test_bad_header_magic_rejected():
    data = bytearray(render_smf([]))
    data[:4] = b"RIFF"
    with pytest.raises(SmfParseError):
        parse_smf(bytes(data))


def test_unsupported_format_rejected():
    with pytest.raises(SmfParseError):
        parse_smf(smf_bytes(b"\x00\xff\x2f\x00", fmt=2))


def test_smpte_division_rejected():
    with pytest.raises(SmfParseError):
        parse_smf(smf_bytes(b"\x00\xff\x2f\x00", division=0xE250))


def test_truncated_track_chunk_rejected():
    data = render_smf([NoteEvent(60, 0.0, 1.0, 100)])
    with pytest.raises(SmfParseError):
        parse_smf(data[:-4])


def test_meta_status_without_a_type_byte_rejected():
    with pytest.raises(SmfParseError, match="truncated meta event"):
        parse_smf(smf_bytes(b"\x00\xff"))


def test_dangling_note_on_names_pitch_and_tick():
    body = b"\x0a\x90\x3c\x64" b"\x00\xff\x2f\x00"
    with pytest.raises(SmfParseError, match=r"pitch 60.*tick 10"):
        parse_smf(smf_bytes(body))


def test_mid_track_tempo_change_scales_later_ticks():
    body = (b"\x00\xff\x51\x03\x07\xa1\x20"  # 500000 us/qn
            b"\x00\x90\x3c\x64"              # on at tick 0
            b"\x83\x60\xff\x51\x03\x0f\x42\x40"  # tick 480: tempo 1000000
            b"\x83\x60\x80\x3c\x00"          # off at tick 960
            b"\x00\xff\x2f\x00")
    _, notes = parse_smf(smf_bytes(body))
    assert notes[0].start == pytest.approx(0.0)
    # 480 ticks at 500 ms/qn then 480 ticks at 1 s/qn
    assert notes[0].end == pytest.approx(1.5, abs=1e-9)


def test_read_smf_from_disk(tmp_path):
    notes = random_notes(3)
    path = tmp_path / "roundtrip.mid"
    write_smf(notes, path)
    _, parsed = read_smf(path)
    assert [n.pitch for n in parsed] == [n.pitch for n in sorted(notes, key=lambda n: (n.start, n.pitch))]
