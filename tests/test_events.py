import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import events as ev
from evpose.errors import (
    BadMagic,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
    WindowLimit,
    ZeroCount,
    ZeroWindow,
)

from oracles import random_stream


def make_blob(width=346, height=260, records=()):
    import struct

    blob = struct.pack("<4sHHHQ", b"EVT1", 1, width, height, len(records))
    for t, x, y, p in records:
        blob += struct.pack("<QHHb3x", t, x, y, p)
    return blob


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


class TestCsv:
    def test_round_trip(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 200)
        buf = io.StringIO()
        ev.write_csv(buf, s)
        back = ev.read_csv(io.StringIO(buf.getvalue()), small_geometry)
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.p, s.p)

    def test_empty(self, small_geometry):
        buf = io.StringIO()
        ev.write_csv(buf, ev.EventStream.empty(small_geometry))
        back = ev.read_csv(io.StringIO(buf.getvalue()), small_geometry)
        assert len(back) == 0

    def test_bad_header(self, small_geometry):
        with pytest.raises(BadMagic):
            ev.read_csv(io.StringIO("a,b,c\n"), small_geometry)

    def test_matches_per_event_format(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 300, t_start=2**62)
        buf = io.StringIO()
        ev.write_csv(buf, s)
        expect = ev.CSV_HEADER + "\n" + "".join(
            f"{int(s.t[i])},{int(s.x[i])},{int(s.y[i])},{int(s.p[i])}\n"
            for i in range(len(s)))
        assert buf.getvalue() == expect


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
        windows += [c.stream for c in ev.slice_constant_count(s, 300)]
        windows.append(s.restrict(10_000, 60_000))
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


class TestSliceConstantCount:
    def test_exact_division(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 10)
        chunks = ev.slice_constant_count(s, 5)
        assert [len(c.stream) for c in chunks] == [5, 5]
        assert [c.partial for c in chunks] == [False, False]

    def test_remainder_flagged(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 7)
        chunks = ev.slice_constant_count(s, 5)
        assert [(len(c.stream), c.partial) for c in chunks] == [(5, False), (2, True)]

    @settings(max_examples=50, deadline=None)
    @given(n_events=st.integers(0, 200), chunk=st.integers(1, 50))
    def test_concatenation_property(self, n_events, chunk):
        geometry = ev.SensorGeometry(8, 8)
        s = random_stream(np.random.default_rng(n_events * 77 + chunk),
                          geometry, n_events)
        chunks = ev.slice_constant_count(s, chunk)
        rebuilt = ev.concatenate([c.stream for c in chunks], geometry)
        assert np.array_equal(rebuilt.t, s.t)
        assert np.array_equal(rebuilt.x, s.x)
        assert sum(c.partial for c in chunks) <= 1

    def test_zero_count(self, small_geometry):
        with pytest.raises(ZeroCount):
            ev.slice_constant_count(ev.EventStream.empty(small_geometry), 0)


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

    @pytest.mark.parametrize("row, column", [("-5,3,2,1", "t"), ("5,65539,2,1", "x"),
                                             ("5,3,-1,1", "y"), ("5,3,2,257", "p")])
    def test_csv_value_outside_stored_dtype_rejected(self, small_geometry, row, column):
        with pytest.raises(OutOfBounds, match=f"^record 0 has {column} = "):
            ev.read_csv(io.StringIO(f"{ev.CSV_HEADER}\n{row}\n"), small_geometry)

    @pytest.mark.parametrize("t, x, column", [([5], [65539], "x"), ([1.5], [3], "t")])
    def test_array_value_outside_stored_dtype_rejected(self, small_geometry, t, x, column):
        with pytest.raises(OutOfBounds, match=f"^record 0 has {column} = "):
            ev.EventStream.from_arrays(small_geometry, t, x, [2], [1])

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
