import numpy as np
import pytest

from stemscribe.pianoroll import (DEFAULT_VELOCITY, N_KEYS, ROLL_MAGIC, NoteEvent, PianoRoll,
                                  active_runs, notes_to_roll, rasterize_notes, roll_to_notes)

DT = 512 / 22050  # the frame period of the default CQT


def silent_roll(frames, frame_time=DT):
    return PianoRoll(np.zeros((N_KEYS, frames), dtype=np.uint8), frame_time)


def random_roll(seed, frames=60, density=0.08):
    rng = np.random.default_rng(seed)
    return PianoRoll((rng.random((N_KEYS, frames)) < density).astype(np.uint8), DT)


def test_note_event_validation():
    with pytest.raises(ValueError):
        NoteEvent(128, 0.0, 1.0)
    with pytest.raises(ValueError):
        NoteEvent(60, 1.0, 1.0)  # zero length
    with pytest.raises(ValueError):
        NoteEvent(60, 0.0, 1.0, velocity=200)
    assert NoteEvent(60, 0.0, 1.0).velocity == DEFAULT_VELOCITY


def test_roll_validation():
    with pytest.raises(ValueError):
        PianoRoll(np.zeros((87, 4)), DT)
    with pytest.raises(ValueError):
        PianoRoll(np.full((N_KEYS, 4), 2), DT)
    with pytest.raises(ValueError):
        PianoRoll(np.zeros((N_KEYS, 4)), 0.0)
    assert silent_roll(7).num_frames == 7


# ----------------------------------------------------------- active_runs

def test_active_runs_cases():
    assert active_runs(np.array([0, 0, 0])) == []
    assert active_runs(np.array([1, 1, 1])) == [(0, 2)]
    assert active_runs(np.array([0, 1, 1, 0, 1, 0, 1, 1])) == [(1, 2), (4, 4), (6, 7)]


def test_active_runs_match_transition_scan():
    rng = np.random.default_rng(11)
    for _ in range(50):
        row = (rng.random(40) < 0.3).astype(np.uint8)
        runs = active_runs(row)
        rebuilt = np.zeros_like(row)
        for a, b in runs:
            assert row[a : b + 1].all()
            rebuilt[a : b + 1] = 1
        np.testing.assert_array_equal(rebuilt, row)


# --------------------------------------------------------- notes <-> roll

def test_single_run_becomes_note_with_half_open_span():
    roll = silent_roll(30)
    roll.grid[39, 10:21] = 1  # row 39 -> pitch 60, frames 10..20
    (note,) = roll_to_notes(roll)
    assert note.pitch == 60
    assert note.start == pytest.approx(10 * DT)
    assert note.end == pytest.approx(21 * DT)
    assert note.velocity == DEFAULT_VELOCITY


def test_empty_roll_yields_no_notes():
    assert roll_to_notes(silent_roll(25)) == []


def test_one_frame_note_spans_single_frame():
    notes = [NoteEvent(60, 0.0, DT * 0.999)]
    roll = notes_to_roll(notes, DT, 5)
    np.testing.assert_array_equal(roll.grid[39], [1, 0, 0, 0, 0])


@pytest.mark.parametrize("seed", range(100))
def test_roll_notes_roll_identity(seed):
    roll = random_roll(seed)
    notes = roll_to_notes(roll)
    back = notes_to_roll(notes, DT, roll.num_frames)
    np.testing.assert_array_equal(back.grid, roll.grid)


def test_overlapping_notes_union():
    notes = [NoteEvent(60, 0.0, 5 * DT), NoteEvent(60, 3 * DT, 8 * DT)]
    roll = notes_to_roll(notes, DT, 10)
    expected = np.zeros(10, dtype=np.uint8)
    expected[0:8] = 1
    np.testing.assert_array_equal(roll.grid[39], expected)


def test_roll_uses_own_frame_time_when_timing_omitted():
    roll = silent_roll(10, 0.1)
    roll.grid[39, 2:4] = 1
    (note,) = roll_to_notes(roll)
    assert note.start == pytest.approx(0.2)
    assert note.end == pytest.approx(0.4)


def test_notes_to_roll_rejects_out_of_range_pitch():
    with pytest.raises(ValueError):
        notes_to_roll([NoteEvent(109, 0.0, 1.0)], DT, 10)
    with pytest.raises(ValueError):
        notes_to_roll([NoteEvent(20, 0.0, 1.0)], DT, 10)


# ------------------------------------------------------------- rasterize

def test_rasterize_rounds_half_up_inclusive():
    roll = rasterize_notes([NoteEvent(60, 0.25, 0.55)], 0.1, 10)
    # 0.25/0.1 + 0.5 = 3.0 -> frame 3; 0.55 -> round(5.5) -> frame 6, inclusive
    np.testing.assert_array_equal(np.flatnonzero(roll.grid[39]), [3, 4, 5, 6])


def test_rasterize_clips_to_grid():
    roll = rasterize_notes([NoteEvent(60, 0.0, 99.0)], 0.1, 4)
    assert roll.grid[39].sum() == 4
    roll = rasterize_notes([NoteEvent(60, 5.0, 6.0)], 0.1, 4)
    assert roll.grid.sum() == 0  # entirely past the grid


def test_rasterize_short_note_still_marks_one_frame():
    roll = rasterize_notes([NoteEvent(60, 0.301, 0.302)], 0.1, 10)
    np.testing.assert_array_equal(np.flatnonzero(roll.grid[39]), [3])


# ------------------------------------------------------------- save/load

def test_save_load_round_trip(tmp_path):
    roll = random_roll(5, frames=37)
    path = tmp_path / "roll.bin"
    roll.save(path)
    assert path.read_bytes()[:4] == ROLL_MAGIC
    back = PianoRoll.load(path)
    assert back.frame_time == roll.frame_time
    np.testing.assert_array_equal(back.grid, roll.grid)


def test_load_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "roll.bin"
    random_roll(6).save(path)
    data = bytearray(path.read_bytes())
    data[:4] = b"JUNK"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        PianoRoll.load(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(ValueError):
        PianoRoll.load(short)
