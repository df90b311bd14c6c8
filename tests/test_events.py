import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import events as ev
from evpose import gating
from evpose.errors import (
    BadMagic,
    DataError,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
    WindowLimit,
    ZeroWindow,
)

from oracles import random_stream


def make_blob(width=346, height=260, records=()):
    import struct

    blob = struct.pack("<4sHHHQ", b"EVT1", 1, width, height, len(records))
    for t, x, y, p in records:
        blob += struct.pack("<QHHb3x", t, x, y, p)
    return blob


class Evt1:
    """EVT1 as a counted-record format: the records are events."""

    writer = ev.EventStreamWriter
    serialize = staticmethod(lambda geometry, stream: ev.serialize_stream(stream))
    read = staticmethod(ev.parse_stream)

    @staticmethod
    def records(rng, geometry, n):
        return random_stream(rng, geometry, n)

    @staticmethod
    def append(out, stream):
        out.append(stream.t, stream.x, stream.y, stream.p)


class Msk1:
    """MSK1 as a counted-record format: the records are masks."""

    writer = gating.MaskStackWriter
    serialize = staticmethod(gating.serialize_masks)
    read = staticmethod(lambda blob: gating.parse_masks(blob)[1])

    @staticmethod
    def records(rng, geometry, n):
        return rng.random((n, geometry.height, geometry.width)) > 0.5

    @staticmethod
    def append(out, masks):
        for mask in masks:
            out.append(mask)


# the counted-record contract, checked once per format
EACH_FORMAT = pytest.mark.parametrize("fmt", [Evt1, Msk1], ids=["EVT1", "MSK1"])


class TestParse:
    def test_header_only(self):
        s = ev.parse_stream(make_blob())
        assert len(s) == 0
        assert s.geometry == ev.SensorGeometry(346, 260)

    def test_single_record(self):
        s = ev.parse_stream(make_blob(records=[(1000, 0, 0, 1)]))
        assert len(s) == 1
        assert s[0] == ev.Event(t=1000, x=0, y=0, polarity=1)

    def test_order_preserved(self):
        recs = [(10, 1, 2, 1), (10, 5, 6, -1), (20, 1, 2, 1)]
        s = ev.parse_stream(make_blob(records=recs))
        assert [(e.t, e.x, e.y, e.polarity) for e in s] == recs

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            ev.parse_stream(b"NOPE" + bytes(20))

    def test_bad_version(self):
        blob = bytearray(make_blob())
        blob[4] = 9
        with pytest.raises(BadMagic):
            ev.parse_stream(bytes(blob))

    def test_truncated_payload(self):
        blob = make_blob(records=[(1, 0, 0, 1)])
        with pytest.raises(TruncatedRecord):
            ev.parse_stream(blob[:-3])

    def test_count_mismatch(self):
        blob = make_blob(records=[(1, 0, 0, 1)])
        import struct

        forged = blob[:10] + struct.pack("<Q", 7) + blob[18:]
        with pytest.raises(TruncatedRecord):
            ev.parse_stream(forged)

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            ev.parse_stream(make_blob(width=10, height=10, records=[(1, 10, 0, 1)]))

    def test_bad_polarity(self):
        with pytest.raises(OutOfBounds):
            ev.parse_stream(make_blob(records=[(1, 0, 0, 0)]))

    def test_non_monotonic(self):
        blob = make_blob(records=[(100, 0, 0, 1), (99, 0, 0, 1)])
        with pytest.raises(NonMonotonic):
            ev.parse_stream(blob)

    def test_regression_within_tolerance(self):
        blob = make_blob(records=[(100, 0, 0, 1), (99, 0, 0, 1)])
        s = ev.parse_stream(blob, tolerance_us=1)
        assert len(s) == 2

    def test_equal_timestamps_allowed(self):
        s = ev.parse_stream(make_blob(records=[(5, 0, 0, 1), (5, 1, 1, -1)]))
        assert len(s) == 2

    @EACH_FORMAT
    def test_version_2_is_bad_magic(self, small_geometry, rng, fmt):
        blob = bytearray(fmt.serialize(small_geometry, fmt.records(rng, small_geometry, 3)))
        blob[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(BadMagic, match="version 2"):
            fmt.read(bytes(blob))

    @EACH_FORMAT
    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0"],
                             ids=["short", "long"])
    def test_payload_off_by_one_byte_is_truncated(self, small_geometry, rng, fmt, edit):
        blob = fmt.serialize(small_geometry, fmt.records(rng, small_geometry, 3))
        with pytest.raises(TruncatedRecord, match="payload"):
            fmt.read(edit(blob))

    def test_other_magic_is_bad_magic(self, small_geometry, rng):
        masks = Msk1.records(rng, small_geometry, 2)
        with pytest.raises(BadMagic):
            ev.parse_stream(gating.serialize_masks(small_geometry, masks))


class TestSerialize:
    def test_empty(self):
        s = ev.EventStream.empty(ev.SensorGeometry(346, 260))
        assert ev.serialize_stream(s) == make_blob()

    def test_single_event_size(self):
        s = ev.EventStream.from_arrays(ev.SensorGeometry(346, 260),
                                       [1000], [0], [0], [1])
        blob = ev.serialize_stream(s)
        assert len(blob) == ev.HEADER_SIZE + ev.RECORD_SIZE
        assert ev.RECORD_SIZE == 16

    def test_round_trip_random(self, davis_geometry, rng):
        s = random_stream(rng, davis_geometry, 10_000)
        blob = ev.serialize_stream(s)
        back = ev.parse_stream(blob)
        assert ev.serialize_stream(back) == blob
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)
        assert np.array_equal(back.p, s.p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        width = data.draw(st.integers(1, 400))
        height = data.draw(st.integers(1, 300))
        n = data.draw(st.integers(0, 50))
        ts = sorted(data.draw(st.lists(
            st.integers(0, 2**64 - 1), min_size=n, max_size=n)))
        records = [
            (ts[i],
             data.draw(st.integers(0, width - 1)),
             data.draw(st.integers(0, height - 1)),
             data.draw(st.sampled_from([-1, 1])))
            for i in range(n)
        ]
        blob = make_blob(width, height, records)
        assert ev.serialize_stream(ev.parse_stream(blob)) == blob


class TestStreamWriter:
    def _chunks(self, stream, cuts):
        edges = [0, *cuts, len(stream)]
        return [stream[a:b] for a, b in zip(edges[:-1], edges[1:])]

    def test_chunks_match_serialize(self, tmp_path, small_geometry, rng):
        s = random_stream(rng, small_geometry, 1000)
        path = tmp_path / "events.evt1"
        with ev.EventStreamWriter(path, small_geometry) as out:
            for chunk in self._chunks(s, [0, 10, 10, 400, 999]):
                out.append(chunk.t, chunk.x, chunk.y, chunk.p)
        assert out.count == 1000
        assert path.read_bytes() == ev.serialize_stream(s)

    def test_no_chunk_is_the_empty_stream(self, tmp_path, small_geometry):
        path = tmp_path / "events.evt1"
        with ev.EventStreamWriter(path, small_geometry):
            pass
        assert path.read_bytes() == ev.serialize_stream(ev.EventStream.empty(small_geometry))
        assert len(path.read_bytes()) == ev.HEADER_SIZE

    def test_chunk_may_start_at_previous_end(self, tmp_path, small_geometry):
        path = tmp_path / "events.evt1"
        with ev.EventStreamWriter(path, small_geometry) as out:
            out.append([5, 9], [1, 2], [0, 0], [1, 1])
            out.append([9, 12], [0, 3], [1, 1], [-1, 1])
        assert ev.read_stream(path).t.tolist() == [5, 9, 9, 12]

    @pytest.mark.parametrize("second, error", [
        (([8], [0], [0], [1]), NonMonotonic),       # earlier than the previous chunk
        (([10, 9], [0, 0], [0, 0], [1, 1]), NonMonotonic),  # unsorted within the chunk
        (([10], [32], [0], [1]), OutOfBounds),      # x outside the 32x24 sensor
        (([10], [0], [0], [0]), OutOfBounds),       # polarity 0
        (([10], [0, 1], [0], [1]), TruncatedRecord),
    ])
    def test_bad_chunk_leaves_no_valid_file(self, tmp_path, small_geometry, second, error):
        path = tmp_path / "events.evt1"
        with pytest.raises(error):
            with ev.EventStreamWriter(path, small_geometry) as out:
                out.append([5, 9], [1, 2], [0, 0], [1, 1])
                out.append(*second)
        with pytest.raises(DataError):
            ev.read_stream(path)

    @pytest.mark.parametrize("chunks", [0, 1])
    def test_failure_leaves_no_valid_file(self, tmp_path, small_geometry, chunks):
        path = tmp_path / "events.evt1"
        path.write_bytes(ev.serialize_stream(ev.EventStream.empty(small_geometry)))
        with pytest.raises(RuntimeError):
            with ev.EventStreamWriter(path, small_geometry) as out:
                for _ in range(chunks):
                    out.append([], [], [], [])
                raise RuntimeError("fails partway")
        with pytest.raises(BadMagic):
            ev.read_stream(path)


    @EACH_FORMAT
    def test_pieces_match_serialize_of_the_whole(self, tmp_path, small_geometry, rng, fmt):
        whole = fmt.records(rng, small_geometry, 40)
        path = tmp_path / "records"
        with fmt.writer(path, small_geometry) as out:
            for a, b in [(0, 0), (0, 1), (1, 17), (17, 17), (17, 40)]:
                fmt.append(out, whole[a:b])
        assert out.count == 40
        assert path.read_bytes() == fmt.serialize(small_geometry, whole)

    @EACH_FORMAT
    def test_no_record_is_the_count_zero_file(self, tmp_path, small_geometry, rng, fmt):
        path = tmp_path / "records"
        with fmt.writer(path, small_geometry):
            pass
        blob = path.read_bytes()
        assert blob == fmt.serialize(small_geometry, fmt.records(rng, small_geometry, 0))
        assert len(blob) == ev.HEADER_SIZE == 18
        assert len(fmt.read(blob)) == 0

    @EACH_FORMAT
    def test_exception_partway_leaves_bad_magic(self, tmp_path, small_geometry, rng, fmt):
        path = tmp_path / "records"
        with pytest.raises(RuntimeError):
            with fmt.writer(path, small_geometry) as out:
                fmt.append(out, fmt.records(rng, small_geometry, 5))
                raise RuntimeError("fails partway")
        assert path.stat().st_size > ev.HEADER_SIZE
        with pytest.raises(BadMagic):
            fmt.read(path.read_bytes())


class TestSliceConstantTime:
    def test_example_buckets(self, small_geometry):
        ms = 1000
        s = ev.EventStream.from_arrays(small_geometry, [5 * ms, 15 * ms, 25 * ms],
                                       [0, 1, 2], [0, 1, 2], [1, 1, -1])
        windows = ev.slice_constant_time(s, 20 * ms, 0)
        assert [list(w.t) for w in windows] == [[5 * ms, 15 * ms], [25 * ms]]

    def test_empty_stream(self, small_geometry):
        assert ev.slice_constant_time(ev.EventStream.empty(small_geometry), 100) == []

    def test_regression_within_tolerance_is_sorted_first(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [100, 90], [0, 1], [0, 1], [1, 1],
                                       tolerance_us=20)
        assert list(s.t) == [90, 100] and list(s.x) == [1, 0]
        windows = ev.slice_constant_time(s, 50, 0)
        assert [list(w.t) for w in windows] == [[], [90], [100]]

    def test_one_second_uniform(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 20_000, duration_us=1_000_000)
        windows = ev.slice_constant_time(s, 20_000, 0)
        assert len(windows) == 50
        assert sum(len(w) for w in windows) == len(s)

    def test_partition_is_disjoint_and_complete(self, small_geometry, rng):
        for trial in range(20):
            n = int(rng.integers(1, 500))
            window = int(rng.integers(1, 30_000))
            origin = int(rng.integers(0, 50_000))
            s = random_stream(rng, small_geometry, n, duration_us=100_000)
            windows = ev.slice_constant_time(s, window, origin)
            merged = [t for w in windows for t in w.t.tolist()]
            kept = [t for t in s.t.tolist() if t >= origin]
            assert merged == kept
            for i, w in enumerate(windows):
                lo = origin + i * window
                for t in w.t.tolist():
                    assert lo <= t < lo + window

    def test_empty_middle_window_emitted(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [5, 45], [0, 0], [0, 0], [1, 1])
        windows = ev.slice_constant_time(s, 20, 0)
        assert [len(w) for w in windows] == [1, 0, 1]

    def test_zero_window(self, small_geometry):
        with pytest.raises(ZeroWindow):
            ev.slice_constant_time(ev.EventStream.empty(small_geometry), 0)


class TestIterWindows:
    @settings(max_examples=60, deadline=None)
    @given(n_events=st.integers(0, 300), window=st.integers(1, 40_000),
           origin=st.integers(0, 120_000), seed=st.integers(0, 2**16))
    def test_partition_and_end_times(self, n_events, window, origin, seed):
        geometry = ev.SensorGeometry(8, 8)
        s = random_stream(np.random.default_rng(seed), geometry, n_events,
                          duration_us=100_000)
        pairs = list(ev.iter_windows(s, window, origin))
        kept = s.t[s.t >= np.uint64(origin)]
        if kept.size == 0:
            assert pairs == []
            return
        assert len(pairs) == (int(s.t[-1]) - origin) // window + 1
        assert np.array_equal(np.concatenate([w.t for _, w in pairs]), kept)
        for k, (end_us, w) in enumerate(pairs):
            assert end_us == origin + (k + 1) * window
            assert np.all(w.t >= np.uint64(end_us - window))
            assert np.all(w.t < np.uint64(end_us))

    def test_windows_are_unchecked_views(self, small_geometry, rng, monkeypatch):
        calls = []
        checked = ev.validate_columns

        def counted(*args, **kwargs):
            calls.append(args)
            return checked(*args, **kwargs)

        monkeypatch.setattr(ev, "validate_columns", counted)
        s = random_stream(rng, small_geometry, 2000, duration_us=100_000)
        assert len(calls) == 1
        windows = [w for _, w in ev.iter_windows(s, 7_000, 0)]
        windows += [s[i:i + 300] for i in range(0, len(s), 300)]
        assert len(calls) == 1
        for w in windows:
            assert w.geometry == s.geometry and w.tolerance_us == s.tolerance_us
            for name in "txyp":
                col = getattr(w, name)
                assert not col.flags.writeable
                assert len(w) == 0 or np.shares_memory(col, getattr(s, name))

    def test_stream_slices_take_step_one(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 10)
        assert np.array_equal(s[2:7].t, s.t[2:7])
        with pytest.raises(ValueError):
            s[::-1]

    def test_gap_within_bound(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [0, 10**9], [0, 1], [0, 1], [1, 1])
        windows = ev.iter_windows(s, 20_000)
        end_us, first = next(windows)
        assert (end_us, len(first)) == (20_000, 1)
        assert sum(1 for _ in windows) == 50_000

    def test_window_count_bounded(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [0, 10**12], [0, 1], [0, 1], [1, 1])
        with pytest.raises(WindowLimit, match="50000001 windows"):
            next(ev.iter_windows(s, 20_000))

    def test_last_end_within_u64(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [2**64 - 30_000, 2**64 - 2],
                                       [0, 1], [0, 1], [1, 1])
        with pytest.raises(WindowLimit, match=str(2**64)):
            next(ev.iter_windows(s, 20_000, 2**64 - 40_000))
        pairs = list(ev.iter_windows(s, 20_001, 2**64 - 40_003))
        assert [(end, len(w)) for end, w in pairs] == [(2**64 - 20_002, 1), (2**64 - 1, 1)]

    def test_origin_past_last_event(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [5], [0], [0], [1])
        assert list(ev.iter_windows(s, 10, 6)) == []
        assert list(ev.iter_windows(s, 10, 2**70)) == []


def ramp_file(path, geometry, n):
    """n events 1000us apart written to path as EVT1; returns the path."""
    ev.write_stream(path, ev.EventStream.from_arrays(
        geometry, 1000 * np.arange(1, n + 1), np.arange(n) % geometry.width,
        np.zeros(n), np.ones(n)))
    return path


def edit_records(path, edit):
    """Apply edit to the record array of the EVT1 file at path, in place."""
    blob = bytearray(path.read_bytes())
    edit(np.frombuffer(blob, dtype=ev.RECORD_DTYPE, offset=ev.HEADER_SIZE))
    path.write_bytes(bytes(blob))


class TestEventFile:
    """The two-pass reader, its chunks shrunk so that small files span many."""

    @pytest.fixture(params=[1, 2, 7])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(ev, "READ_CHUNK_EVENTS", request.param)
        return request.param

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 300])
    def test_windows_match_the_stream(self, tmp_path, small_geometry, rng, chunk, n):
        s = random_stream(rng, small_geometry, n, duration_us=100_000)
        path = tmp_path / "events.evt1"
        ev.write_stream(path, s)
        f = ev.EventFile(path)
        assert (f.geometry, len(f)) == (small_geometry, n)
        chunks = list(f)
        assert all(0 < len(c) <= chunk for c in chunks)
        assert all(not getattr(c, name).flags.writeable for c in chunks for name in "txyp")
        for window, origin in [(7_000, 0), (3_000, 30_000), (1, 99_000), (200_000, 0)]:
            got = list(ev.iter_windows(f, window, origin))
            want = list(ev.iter_windows(s, window, origin))
            assert [end for end, _ in got] == [end for end, _ in want]
            for (_, a), (_, b) in zip(got, want):
                for name in "txyp":
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("field, value, message", [
        ("x", 32, "outside 32x24"), ("y", 24, "outside 32x24"), ("p", 0, "has polarity 0"),
    ])
    def test_bad_record_names_file_and_index(self, tmp_path, small_geometry, chunk,
                                             field, value, message):
        path = ramp_file(tmp_path / "events.evt1", small_geometry, 20)
        bad = 19 - 19 % chunk  # first record of the last chunk
        edit_records(path, lambda rec: rec[field].__setitem__(bad, value))
        with pytest.raises(OutOfBounds, match=f"{path}: record {bad} .*{message}"):
            ev.EventFile(path)

    def test_regression_across_chunk_boundary(self, tmp_path, small_geometry, chunk):
        path = ramp_file(tmp_path / "events.evt1", small_geometry, 20)
        edit_records(path, lambda rec: rec["t"].__setitem__(chunk, rec["t"][chunk - 1] - 1))
        with pytest.raises(NonMonotonic, match=f"{path}: .* by 1us at record {chunk} "):
            ev.EventFile(path)

    @pytest.mark.parametrize("cut", [1, 5, ev.RECORD_SIZE])
    def test_truncated_payload_names_the_file(self, tmp_path, small_geometry, chunk, cut):
        path = tmp_path / "events.evt1"
        path.write_bytes(ramp_file(path, small_geometry, 20).read_bytes()[:-cut])
        with pytest.raises(TruncatedRecord, match=f"{path}: event payload"):
            ev.EventFile(path)

    @pytest.mark.parametrize("keep", [0, 6, 19])
    def test_file_shrunk_before_second_pass(self, tmp_path, small_geometry, chunk, keep):
        path = ramp_file(tmp_path / "events.evt1", small_geometry, 20)
        f = ev.EventFile(path)
        with open(path, "r+b") as out:
            out.truncate(ev.HEADER_SIZE + keep * ev.RECORD_SIZE)
        with pytest.raises(TruncatedRecord, match=str(path)):
            list(ev.iter_windows(f, 5_000))

    def test_record_changed_before_second_pass(self, tmp_path, small_geometry, chunk):
        path = ramp_file(tmp_path / "events.evt1", small_geometry, 20)
        f = ev.EventFile(path)
        edit_records(path, lambda rec: rec["x"].__setitem__(13, 32))
        with pytest.raises(OutOfBounds, match=f"{path}: record 13 "):
            list(ev.iter_windows(f, 5_000))

    def test_pipe_is_refused_by_name(self, tmp_path, small_geometry):
        blob = ramp_file(tmp_path / "events.evt1", small_geometry, 20).read_bytes()
        r, w = os.pipe()
        try:
            os.write(w, blob)  # 338 bytes fit the pipe's buffer
            path = f"/dev/fd/{r}"
            with pytest.raises(DataError, match=f"{path}: input must be a regular file"):
                ev.EventFile(path)
        finally:
            os.close(r)
            os.close(w)

    def test_file_shrunk_during_second_pass(self, tmp_path, small_geometry, chunk):
        # past the reader's 8 KiB buffer, so the cut shows before the last chunk
        path = ramp_file(tmp_path / "events.evt1", small_geometry, 2000)
        windows = ev.iter_windows(ev.EventFile(path), 50_000)
        next(windows)
        with open(path, "r+b") as out:
            out.truncate(ev.HEADER_SIZE + 100 * ev.RECORD_SIZE)
        with pytest.raises(TruncatedRecord, match=f"{path}: file ends within records"):
            list(windows)


class TestConcatenate:
    @settings(max_examples=50, deadline=None)
    @given(n_events=st.integers(0, 200), chunk=st.integers(1, 50))
    def test_concatenation_property(self, n_events, chunk):
        geometry = ev.SensorGeometry(8, 8)
        s = random_stream(np.random.default_rng(n_events * 77 + chunk),
                          geometry, n_events)
        pieces = [s[i:i + chunk] for i in range(0, n_events, chunk)]
        rebuilt = ev.concatenate(pieces, geometry)
        for name in "txyp":
            assert np.array_equal(getattr(rebuilt, name), getattr(s, name))
        assert rebuilt.geometry == geometry


class TestStreamValidation:
    def test_stream_is_immutable(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [1], [0], [0], [1])
        with pytest.raises(ValueError):
            s.t[0] = 5

    def test_caller_arrays_stay_writeable(self, small_geometry):
        t = np.array([1, 2, 3], dtype=np.uint64)
        x = np.array([0, 1, 2], dtype=np.uint16)
        y = np.array([2, 1, 0], dtype=np.uint16)
        p = np.array([1, -1, 1], dtype=np.int8)
        s = ev.EventStream.from_arrays(small_geometry, t, x, y, p)
        for mine, stored in zip((t, x, y, p), (s.t, s.x, s.y, s.p)):
            assert mine.flags.writeable
            assert not stored.flags.writeable

    def test_bounds_checked_on_construction(self, small_geometry):
        with pytest.raises(OutOfBounds):
            ev.EventStream.from_arrays(small_geometry, [1], [small_geometry.width],
                                       [0], [1])

    @pytest.mark.parametrize("t, x, y, p, column", [
        pytest.param([5], [65539], [2], [1], "x", id="t0-x0-x"),
        pytest.param([1.5], [3], [2], [1], "t", id="t1-x1-t"),
        pytest.param([-5], [3], [2], [1], "t", id="-5,3,2,1-t"),
        pytest.param([5], np.array([65539], np.int64), [2], [1], "x", id="5,65539,2,1-x"),
        pytest.param([5], [3], [-1], [1], "y", id="5,3,-1,1-y"),
        pytest.param([5], [3], [2], [257], "p", id="5,3,2,257-p"),
        pytest.param(np.array([2**64], dtype=object), [3], [2], [1], "t", id="2**64,3,2,1-t"),
    ])
    def test_array_value_outside_stored_dtype_rejected(self, small_geometry, t, x, y, p, column):
        with pytest.raises(OutOfBounds, match=f"^record 0 has {column} = "):
            ev.EventStream.from_arrays(small_geometry, t, x, y, p)

    def test_values_the_stored_dtype_holds_are_accepted(self, small_geometry):
        s = ev.EventStream.from_arrays(small_geometry, [7.0, 2.0**63], np.array([0, 3], np.int64),
                                       [1, 2], np.array([1, -1], np.int64))
        assert s.t.tolist() == [7, 2**63]
        assert s.x.tolist() == [0, 3]

    def test_file_round_trip(self, tmp_path, small_geometry, rng):
        s = random_stream(rng, small_geometry, 100)
        path = tmp_path / "events.evt1"
        ev.write_stream(path, s)
        back = ev.read_stream(path)
        assert np.array_equal(back.t, s.t)
