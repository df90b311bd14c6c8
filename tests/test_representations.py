import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import gating
from evpose import representations as rep
from evpose.errors import (
    BadMagic,
    ConfigError,
    GeometryMismatch,
    InvalidTau,
    NonMonotonic,
    OutOfBounds,
    TimeRegression,
    TruncatedRecord,
    WindowLimit,
    ZeroWindow,
)
from evpose.events import DAVIS346, Event, EventStream, SensorGeometry

from oracles import decay_fifo, fifo_replay, random_stream, tore_brute_force

TAU = 5_000_000


def one_pixel_stream(geometry, ts, x=3, y=2, p=1):
    n = len(ts)
    return EventStream.from_arrays(geometry, ts, [x] * n, [y] * n, [p] * n)


def column_stamps(state, x, y, p):
    """The stamps in the FIFO column of pixel (x, y) and polarity p, newest
    first: offset + base of each slot that is not empty."""
    c0 = (0 if p > 0 else 1) * state.k
    return [offset + state.base for offset in state.fifo[c0:c0 + state.k, y, x].tolist()
            if offset != rep.EMPTY_SLOT]


class TestIngest:
    def test_single_event(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        state.ingest(Event(t=100, x=3, y=2, polarity=1))
        assert column_stamps(state, 3, 2, 1) == [100]
        assert (state.fifo != rep.EMPTY_SLOT).sum() == 1

    def test_fifo_overflow_drops_oldest(self, small_geometry):
        k = 4
        state = rep.ToreState(geometry=small_geometry, k=k)
        ts = [10, 20, 30, 40, 50]
        for t in ts:
            state.ingest(Event(t=t, x=0, y=0, polarity=-1))
        assert column_stamps(state, 0, 0, -1) == [50, 40, 30, 20]

    def test_random_stream_matches_replay(self, small_geometry, rng):
        k = 3
        s = random_stream(rng, small_geometry, 10_000)
        state = rep.ToreState(s.geometry, k, TAU).ingest_stream(s)
        expected = fifo_replay(s, k)
        for (x, y, p), stamps in expected.items():
            assert column_stamps(state, x, y, p) == stamps
        touched = sum(len(v) > 0 for v in expected.values())
        filled = (state.fifo != rep.EMPTY_SLOT).reshape(2, k, -1).any(axis=1)
        assert int(filled.sum()) == touched

    def test_out_of_bounds(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        with pytest.raises(OutOfBounds):
            state.ingest(Event(t=1, x=small_geometry.width, y=0, polarity=1))

    def test_time_regression(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        state.ingest(Event(t=100, x=0, y=0, polarity=1))
        with pytest.raises(TimeRegression):
            state.ingest(Event(t=99, x=0, y=0, polarity=1))

    def test_equal_timestamp_ok(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        state.ingest(Event(t=100, x=0, y=0, polarity=1))
        state.ingest(Event(t=100, x=1, y=0, polarity=1))
        assert state.last_t == 100

    def test_bulk_regression_rejected(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        state.ingest(Event(t=1000, x=0, y=0, polarity=1))
        with pytest.raises(TimeRegression):
            state.ingest_stream(one_pixel_stream(small_geometry, [1, 2]))

    def test_top_of_u64_range_is_ingested(self, small_geometry):
        top = 2**64 - 1
        s = EventStream.from_arrays(small_geometry,
                                    np.array([5, top - 3, top, top, top], dtype=np.uint64),
                                    [3, 3, 3, 0, 3], [2, 2, 2, 0, 2], [1, 1, 1, -1, 1])
        per_event = rep.ToreState(small_geometry, 3, TAU)
        for e in s:
            per_event.ingest(e)
        bulk = rep.ToreState(small_geometry, 3, TAU).ingest_stream(s)
        assert bulk.fifo.tobytes() == per_event.fifo.tobytes()
        assert bulk.last_t == per_event.last_t == top
        assert column_stamps(bulk, 3, 2, 1) == [top, top, top - 3]
        assert (bulk.materialize(top).data.tobytes()
                == tore_brute_force(s, 3, TAU, top).tobytes())
        with pytest.raises(OutOfBounds, match="past the u64 range"):
            per_event.ingest(Event(t=2**64, x=0, y=0, polarity=1))
        assert per_event.fifo.tobytes() == bulk.fifo.tobytes()


class TestMaterialize:
    def test_untouched_pixels_are_zero(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry, k=2, tau_us=TAU)
        state.ingest(Event(t=50, x=1, y=1, polarity=1))
        vol = state.materialize(60)
        nz = np.nonzero(vol.data)
        assert set(zip(*nz)) == {(0, 1, 1)}

    @pytest.mark.parametrize("t_query", [0, TAU // 2, 2**64 - 1])
    def test_empty_state_reads_zero(self, small_geometry, t_query):
        state = rep.ToreState(geometry=small_geometry, k=3, tau_us=TAU)
        assert not state.materialize(t_query).data.any()

    def test_query_at_top_of_range(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry, k=2, tau_us=TAU)
        state.ingest(Event(t=2**64 - 2, x=1, y=1, polarity=-1))
        vol = state.materialize(2**64 - 1)
        assert set(zip(*np.nonzero(vol.data))) == {(2, 1, 1)}
        assert vol.data[2, 1, 1] == 1.0

    @pytest.mark.parametrize("t_query", [-1, 2**64])
    def test_query_outside_u64_is_config_error(self, small_geometry, t_query):
        state = rep.ToreState(geometry=small_geometry, k=2, tau_us=TAU)
        state.ingest(Event(t=3, x=1, y=1, polarity=1))
        with pytest.raises(ConfigError, match=str(t_query)):
            state.materialize(t_query)

    def test_boundary_constants(self):
        assert rep.decay_value(1, TAU) == 1.0
        assert rep.decay_value(TAU, TAU) == 0.0
        assert rep.decay_value(0.5, TAU) == 1.0  # floored at 1us
        assert abs(rep.decay_value(TAU ** 0.3, TAU) - 1.0) < 1e-6

    def test_saturation_edge_on_integer_path(self, small_geometry):
        # largest integer age inside the saturation band
        edge = int(TAU ** 0.3)
        state = rep.ToreState(geometry=small_geometry, k=1, tau_us=TAU)
        state.ingest(Event(t=0, x=0, y=0, polarity=1))
        assert state.materialize(edge).data[0, 0, 0] == 1.0
        just_out = state.materialize(edge + 1).data[0, 0, 0]
        assert 0.0 < just_out < 1.0

    def test_age_beyond_tau_is_zero(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry, k=1, tau_us=TAU)
        state.ingest(Event(t=0, x=0, y=0, polarity=1))
        assert state.materialize(TAU).data[0, 0, 0] == 0.0
        assert state.materialize(TAU - 1).data[0, 0, 0] > 0.0

    def test_channel_layout(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry, k=2, tau_us=TAU)
        state.ingest(Event(t=10, x=4, y=5, polarity=1))
        state.ingest(Event(t=1_000, x=4, y=5, polarity=-1))
        state.ingest(Event(t=500_000, x=4, y=5, polarity=-1))
        vol = state.materialize(1_000_000)  # ages spread beyond saturation
        assert vol.data[0, 5, 4] > 0          # newest positive
        assert vol.data[1, 5, 4] == 0         # only one positive event
        assert vol.data[2, 5, 4] > vol.data[3, 5, 4] > 0  # two negatives, newest first

    def test_channel_values_non_increasing_with_slot(self, small_geometry, rng):
        k = 4
        s = random_stream(rng, small_geometry, 5000)
        state = rep.ToreState(s.geometry, k, TAU).ingest_stream(s)
        vol = state.materialize(int(s.t[-1]) + 1)
        per_slot = vol.data.reshape(2, k, *vol.data.shape[1:])
        assert np.all(np.diff(per_slot, axis=1) <= 0)

    def test_values_in_unit_range(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 3000)
        vol = rep.ToreState(s.geometry, tau_us=TAU).ingest_stream(s).materialize(int(s.t[-1]))
        assert vol.data.min() >= 0.0
        assert vol.data.max() <= 1.0

    def test_query_before_last_event_rejected(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry)
        state.ingest(Event(t=100, x=0, y=0, polarity=1))
        with pytest.raises(TimeRegression):
            state.materialize(99)

    @settings(max_examples=300, deadline=None)
    @given(tau_us=st.integers(2, 2**31 - 1),
           past=st.one_of(st.integers(1, 2**10), st.integers(1, 2**64 - 2**31)))
    def test_ages_older_than_tau_decay_to_exactly_0(self, tau_us, past):
        # the FIFO marks stamps older than tau as empty slots on this ground
        assert rep.decay_value(tau_us + past, tau_us) == 0.0
        ages = np.arange(tau_us + 1, tau_us + 2**10 + 1)
        assert not rep.decay_value(ages, tau_us).any()

    def test_invalid_tau(self, small_geometry):
        with pytest.raises(InvalidTau):
            rep.ToreState(geometry=small_geometry, tau_us=1)
        with pytest.raises(InvalidTau, match=f"below 2\\^31us, got {2**31}$"):
            rep.ToreState(geometry=small_geometry, tau_us=2**31)
        rep.ToreState(geometry=small_geometry, tau_us=2**31 - 1)
        with pytest.raises(InvalidTau):
            rep.decay_value(10, 1)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fifo_not_accepted(self, small_geometry, order):
        # the state owns its FIFO; a caller's array could have another
        # layout and silently lose writes made through reshape(-1)
        fifo = np.full((8, small_geometry.height, small_geometry.width),
                       rep.EMPTY_SLOT, dtype=np.uint64, order=order)
        with pytest.raises(TypeError):
            rep.ToreState(small_geometry, fifo=fifo)


class TestMaterializeBuffers:
    def test_volumes_do_not_alias(self, small_geometry, rng):
        state = rep.ToreState(small_geometry, 2, TAU).ingest_stream(
            random_stream(rng, small_geometry, 500, duration_us=10_000))
        first = state.materialize(10_000)
        kept = first.data.copy()
        second = state.materialize(2_000_000)
        assert np.array_equal(first.data, kept)
        assert not np.array_equal(second.data, kept)
        assert not np.shares_memory(first.data, second.data)

    def test_high_timestamps_match_replay(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 2000, duration_us=3_000_000, t_start=2**62)
        state = rep.ToreState(s.geometry, 3, TAU).ingest_stream(s)
        for t_query in (int(s.t[-1]), 2**62 + 4_000_000, 2**62 + 9_000_000):
            assert np.array_equal(state.materialize(t_query).data,
                                  tore_brute_force(s, 3, TAU, t_query))


def full_stream(geometry, k, t_start=0):
    """K events at every pixel and polarity, so every FIFO slot fills."""
    hw = geometry.num_pixels
    pol, pix = np.divmod(np.tile(np.arange(2 * hw), k), hw)
    t = np.uint64(t_start) + np.arange(pol.size, dtype=np.uint64) * np.uint64(7)
    return EventStream.from_arrays(geometry, t, pix % geometry.width, pix // geometry.width,
                                   np.where(pol == 0, 1, -1))


# name -> (K, stream, bounds on the share of filled FIFO slots)
SPARSITY_CASES = {
    "empty": lambda g, rng: (4, random_stream(rng, g, 0), (0.0, 0.0)),
    "fill_5pct": lambda g, rng: (2, random_stream(rng, g, 160), (0.03, 0.07)),
    "fill_full": lambda g, rng: (3, full_stream(g, 3), (1.0, 1.0)),
    "k1": lambda g, rng: (1, random_stream(rng, g, 3000), (0.0, 1.0)),
    "k300": lambda g, rng: (300, random_stream(rng, g, 20_000), (0.0, 1.0)),
    "t_from_2^62": lambda g, rng: (4, random_stream(rng, g, 5000, duration_us=3_000_000,
                                                    t_start=2**62), (0.0, 1.0)),
    "full_from_2^63": lambda g, rng: (2, full_stream(g, 2, t_start=2**63 + 5), (1.0, 1.0)),
}


class TestMaterializeSparsity:
    @pytest.mark.parametrize("case", list(SPARSITY_CASES))
    def test_bitwise_brute_force_and_state_untouched(self, small_geometry, rng, case):
        k, s, (lo, hi) = SPARSITY_CASES[case](small_geometry, rng)
        state = rep.ToreState(s.geometry, k, TAU).ingest_stream(s)
        assert lo <= np.mean(state.fifo != rep.EMPTY_SLOT) <= hi
        fifo, last_t = state.fifo.tobytes(), state.last_t
        for t_query in (last_t, last_t + 3_000_000, 2**64 - 1):
            vol = state.materialize(t_query)
            assert vol.data.tobytes() == tore_brute_force(s, k, TAU, t_query).tobytes()
        assert state.fifo.tobytes() == fifo
        assert state.last_t == last_t


class TestIngestPieces:
    def test_stream_past_one_piece(self, small_geometry, rng):
        n = rep.INGEST_PIECE_EVENTS + 5000
        s = random_stream(rng, small_geometry, n)  # ~9 events per pixel and polarity
        whole = rep.ToreState(s.geometry, 4, TAU).ingest_stream(s)
        t_query = int(s.t[-1]) + 1000
        assert (whole.materialize(t_query).data.tobytes()
                == tore_brute_force(s, 4, TAU, t_query).tobytes())
        split = rep.ToreState(geometry=small_geometry, k=4, tau_us=TAU)
        cuts = (0, rep.INGEST_PIECE_EVENTS // 3, rep.INGEST_PIECE_EVENTS + 10, n)
        for i0, i1 in zip(cuts[:-1], cuts[1:]):
            split.ingest_stream(EventStream(s.geometry, s.t[i0:i1], s.x[i0:i1],
                                            s.y[i0:i1], s.p[i0:i1]))
        assert np.array_equal(split.fifo, whole.fifo)
        assert split.last_t == whole.last_t

    @pytest.mark.parametrize("piece", [1, 2, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_small_pieces_match_per_event_ingest(self, rng, monkeypatch, piece, k):
        monkeypatch.setattr(rep, "INGEST_PIECE_EVENTS", piece)
        geometry = SensorGeometry(5, 3)
        s = random_stream(rng, geometry, 300, duration_us=20_000)  # ~10 per column, some equal
        per_event = rep.ToreState(geometry, k, TAU)
        for e in s:
            per_event.ingest(e)
        bulk = rep.ToreState(geometry, k, TAU).ingest_stream(s)
        assert bulk.fifo.tobytes() == per_event.fifo.tobytes()
        assert bulk.last_t == per_event.last_t
        t_query = int(s.t[-1]) + 500
        assert (bulk.materialize(t_query).data.tobytes()
                == tore_brute_force(s, k, TAU, t_query).tobytes())


@st.composite
def long_recordings(draw):
    """(tau_us, k, stream) on a 3x2 sensor: a recording that starts anywhere
    up to 2^64 - 2 and spans more than 2^32 us, with gaps of a few us, up
    to tau and longer than tau."""
    tau_us = draw(st.one_of(st.sampled_from([2, 9170, 2**31 - 1]), st.integers(2, 2**31 - 1)))
    gaps = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, tau_us),
                                   st.integers(tau_us + 1, 2**33)), min_size=1, max_size=30))
    gaps.insert(draw(st.integers(0, len(gaps))), draw(st.integers(2**32 + 1, 2**34)))
    start = min(draw(st.integers(0, 2**64 - 2)), 2**64 - 2 - sum(gaps))
    t = [start + sum(gaps[:i]) for i in range(len(gaps) + 1)]
    n = len(t)
    pixels = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    pix = np.array(draw(pixels))
    stream = EventStream.from_arrays(SensorGeometry(3, 2), np.array(t, dtype=np.uint64),
                                     pix % 3, pix // 3,
                                     draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                                   max_size=n)))
    return tau_us, draw(st.integers(1, 5)), stream


class TestMovingBase:
    """The FIFO's uint32 offsets from a base that follows the newest stamp."""

    @settings(max_examples=120, deadline=None)
    @given(recording=long_recordings(), data=st.data())
    def test_volumes_are_brute_force_and_bulk_ingest_is_per_event(self, recording, data):
        tau_us, k, s = recording
        per_event = rep.ToreState(s.geometry, k, tau_us)
        for e in s:
            per_event.ingest(e)
        bulk = rep.ToreState(s.geometry, k, tau_us)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(s)), max_size=4)))
        piece = data.draw(st.integers(1, 5))
        for i0, i1 in zip([0, *cuts], [*cuts, len(s)]):
            with mock.patch.object(rep, "INGEST_PIECE_EVENTS", piece):
                bulk.ingest_stream(s[i0:i1])
            if i1:  # a query between this piece and the next event
                bound = int(s.t[i1]) if i1 < len(s) else 2**64 - 1
                t_query = data.draw(st.integers(bulk.last_t, bound))
                assert (bulk.materialize(t_query).data.tobytes()
                        == tore_brute_force(s[:i1], k, tau_us, t_query).tobytes())
        assert bulk.fifo.tobytes() == per_event.fifo.tobytes()
        assert bulk.base == per_event.base > 0 and bulk.last_t == per_event.last_t
        for t_query in (bulk.last_t, 2**64 - 1):
            assert (bulk.materialize(t_query).data.tobytes()
                    == tore_brute_force(s, k, tau_us, t_query).tobytes())

    # at tau = 9170 an age of exactly tau decays to 3.2e-16, not 0, so a stamp
    # of that age stays: 1us above the base, or at a multiple of 2^31 the base
    # would move to 1us later, from 0 or from -2^31
    @pytest.mark.parametrize("t0, base", [(2**31 + 1, 2**31), (2**31, 0), (0, -2**31)])
    def test_a_stamp_of_age_tau_is_kept(self, small_geometry, t0, base):
        tau_us = 9170
        s = one_pixel_stream(small_geometry, [t0, t0 + tau_us])
        state = rep.ToreState(small_geometry, 2, tau_us).ingest_stream(s)
        assert state.base == base
        assert column_stamps(state, 3, 2, 1) == [t0 + tau_us, t0]
        vol = state.materialize(state.last_t)
        assert 0 < vol.data[1, 2, 3] < 1e-15
        assert vol.data.tobytes() == tore_brute_force(s, 2, tau_us, state.last_t).tobytes()

    @pytest.mark.parametrize("ts, kept", [
        ([5, 6, 2**31 + TAU + 7], [2**31 + TAU + 7]),
        ([5, 2**31, 2**31 + 1, 2**31 + TAU + 1], [2**31 + TAU + 1, 2**31 + 1]),  # one at the base
    ])
    def test_stamps_at_or_below_the_base_read_as_empty_slots(self, small_geometry, ts, kept):
        s = one_pixel_stream(small_geometry, ts)
        state = rep.ToreState(small_geometry, 3, TAU).ingest_stream(s)
        assert state.base == 2**31
        assert column_stamps(state, 3, 2, 1) == kept
        assert (state.materialize(state.last_t).data.tobytes()
                == tore_brute_force(s, 3, TAU, state.last_t).tobytes())

    def test_no_step_holds_a_fifo_sized_temporary(self, rng, tmp_path):
        # a step that held one byte a slot would peak at a quarter of the FIFO
        state = rep.ToreState(DAVIS346, 4, TAU)
        bound = state.fifo.nbytes // 4
        t0 = 2**31 + TAU  # the base moves from -2^31 by 2^32, then by more than 2^32
        pieces = [random_stream(rng, DAVIS346, rep.INGEST_PIECE_EVENTS, t_start=t)
                  for t in (0, t0, 2**34)]
        mask = rng.random((DAVIS346.height, DAVIS346.width)) < 0.5
        steps = [lambda s=s: state.ingest_stream(s) for s in pieces] + [
            lambda: state.ingest(Event(t=2**35, x=0, y=0, polarity=1)),
            lambda: rep.WindowFrame(state, 2**35).activity,
            lambda: rep.WindowFrame(state, 2**35).above_percentile(80.0),
            lambda: rep.WindowFrame(state, 2**35).write(tmp_path / "t.tore"),
            lambda: rep.WindowFrame(state, 2**35).write(tmp_path / "m.tore", mask)]
        bases = []
        for step in steps:
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (len(bases), peak)
            bases.append(state.base)
        assert bases[:4] == [-2**31, 2**31, 2**34 - 2**31, 2**35 - 2**31]


class TestStreamingBatchEquivalence:
    def test_bitwise_equal_volumes(self, small_geometry, rng):
        for trial in range(10):
            n = int(rng.integers(1, 4000))
            s = random_stream(rng, small_geometry, n)
            per_event = rep.ToreState(geometry=small_geometry, k=4, tau_us=TAU)
            for e in s:
                per_event.ingest(e)
            bulk = rep.ToreState(s.geometry, 4, TAU).ingest_stream(s)
            t_query = int(s.t[-1]) + int(rng.integers(0, 100_000))
            a = per_event.materialize(t_query)
            b = bulk.materialize(t_query)
            assert np.array_equal(a.data, b.data)

    def test_chunked_bulk_matches_single_pass(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 6000)
        whole = rep.ToreState(s.geometry, 4, TAU).ingest_stream(s)
        chunked = rep.ToreState(geometry=small_geometry, k=4, tau_us=TAU)
        step = 800
        for i0 in range(0, len(s), step):
            chunk = EventStream(s.geometry, s.t[i0:i0 + step], s.x[i0:i0 + step],
                                s.y[i0:i0 + step], s.p[i0:i0 + step])
            chunked.ingest_stream(chunk)
        t_query = int(s.t[-1])
        assert np.array_equal(whole.materialize(t_query).data,
                              chunked.materialize(t_query).data)


class TestWindowVolumes:
    def test_each_window_matches_oracle_at_its_end(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 3000, duration_us=200_000)
        window, origin = 17_000, 9_000
        volumes = list(rep.window_volumes(s, 3, TAU, window, origin))
        assert len(volumes) == (int(s.t[-1]) - origin) // window + 1
        for i, vol in enumerate(volumes):
            end = origin + (i + 1) * window
            assert vol.query_time_us == end
            i0, i1 = np.searchsorted(s.t, [origin, end])
            expected = tore_brute_force(s[i0:i1], 3, TAU, end)
            assert np.array_equal(vol.data, expected)

    def test_first_volume_after_long_gap_is_prompt(self, small_geometry):
        # 5 * 10^6 windows: within MAX_WINDOWS, so only laziness keeps this fast
        s = one_pixel_stream(small_geometry, [0, 10, 10**11])
        volumes = rep.window_volumes(s, 4, TAU, 20_000)
        start = time.perf_counter()
        first = next(volumes)
        assert time.perf_counter() - start < 1.0
        assert first.query_time_us == 20_000
        head = s[:np.searchsorted(s.t, 20_000)]
        assert np.array_equal(first.data, tore_brute_force(head, 4, TAU, 20_000))


    @pytest.mark.parametrize("k, tau_us, window_us, origin_us, error", [
        (0, TAU, 20_000, 0, InvalidTau),
        (4, 1, 20_000, 0, InvalidTau),
        (4, TAU, 0, 0, ZeroWindow),
        (4, TAU, 20_000, -1, ZeroWindow),
        (4, TAU, 20_000, 0, WindowLimit),  # 5 * 10^7 windows, past MAX_WINDOWS
    ])
    def test_settings_fail_when_called(self, small_geometry, k, tau_us, window_us,
                                       origin_us, error):
        s = one_pixel_stream(small_geometry, [0, 10**12])
        with pytest.raises(error):
            rep.window_volumes(s, k, tau_us, window_us, origin_us)


class TestOracleEquivalence:
    def test_matches_brute_force(self, small_geometry, rng):
        for trial in range(25):
            n = int(rng.integers(0, 8000))
            s = random_stream(rng, small_geometry, n)
            k = int(rng.integers(1, 6))
            t_query = (int(s.t[-1]) if n else 0) + int(rng.integers(0, 2_000_000))
            vol = rep.ToreState(s.geometry, k, TAU).ingest_stream(s).materialize(t_query)
            expected = tore_brute_force(s, k, TAU, t_query)
            assert np.array_equal(vol.data, expected)
        # FIFO depths past 255 with one pixel firing more than K times,
        # ingested in two chunks so older entries are carried down
        for k in (255, 256, 300):
            extra = random_stream(rng, small_geometry, 2000)
            t = np.concatenate((extra.t, np.arange(300, dtype=np.uint64) * 1000))
            order = np.argsort(t, kind="stable")
            s = EventStream.from_arrays(
                small_geometry, t[order],
                np.concatenate((extra.x, np.full(300, 3)))[order],
                np.concatenate((extra.y, np.full(300, 2)))[order],
                np.concatenate((extra.p, np.ones(300)))[order])
            state = rep.ToreState(geometry=small_geometry, k=k, tau_us=TAU)
            cut = np.searchsorted(s.t, 150_000)
            state.ingest_stream(s[:cut]).ingest_stream(s[cut:])
            t_query = int(s.t[-1]) + 1000
            vol = state.materialize(t_query)
            expected = tore_brute_force(s, k, TAU, t_query)
            assert np.array_equal(vol.data, expected)
            assert np.count_nonzero(vol.data[:k, 2, 3]) == min(k, 300)


class TestOutOfOrderStream:
    """Events (t=100 at (0,0)) then (t=90 at (1,1)) within a 20us tolerance."""

    @staticmethod
    def stream(geometry):
        return EventStream.from_arrays(geometry, [100, 90], [0, 1], [0, 1], [1, 1],
                                       tolerance_us=20)

    def test_per_event_and_bulk_agree(self, small_geometry):
        s = self.stream(small_geometry)
        per_event = rep.ToreState(geometry=small_geometry, k=2, tau_us=TAU)
        for e in s:
            per_event.ingest(e)
        bulk = rep.ToreState(s.geometry, 2, TAU).ingest_stream(s)
        assert per_event.last_t == bulk.last_t == 100
        assert np.array_equal(per_event.materialize(100).data, bulk.materialize(100).data)

    def test_query_before_newest_event_rejected(self, small_geometry):
        state = rep.ToreState(small_geometry, 2, TAU).ingest_stream(self.stream(small_geometry))
        with pytest.raises(TimeRegression):
            state.materialize(95)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_per_event_and_bulk_agree_or_both_raise(self, data):
        geometry = SensorGeometry(4, 3)
        n = data.draw(st.integers(0, 12))
        try:
            s = EventStream.from_arrays(
                geometry,
                data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n)),
                data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
                tolerance_us=data.draw(st.integers(0, 100)))
        except NonMonotonic:
            return
        k = data.draw(st.integers(1, 3))
        prior = Event(t=data.draw(st.integers(0, 100)), x=0, y=0, polarity=1)
        per_event = rep.ToreState(geometry=geometry, k=k, tau_us=TAU).ingest(prior)
        bulk = rep.ToreState(geometry=geometry, k=k, tau_us=TAU).ingest(prior)
        outcomes = []
        for ingest in (lambda: [per_event.ingest(e) for e in s],
                       lambda: bulk.ingest_stream(s)):
            try:
                ingest()
                outcomes.append("ok")
            except TimeRegression:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1]
        if outcomes[0] == "ok":
            t_query = bulk.last_t + data.draw(st.integers(0, 1000))
            assert np.array_equal(per_event.materialize(t_query).data,
                                  bulk.materialize(t_query).data)


class TestDecayOrdering:
    def test_single_event_two_queries(self, small_geometry):
        state = rep.ToreState(geometry=small_geometry, k=1, tau_us=TAU)
        state.ingest(Event(t=0, x=0, y=0, polarity=1))
        near = state.materialize(10).data[0, 0, 0]
        far = state.materialize(100_000).data[0, 0, 0]
        assert near >= far

    def test_everything_zero_after_five_seconds(self, small_geometry, rng):
        s = random_stream(rng, small_geometry, 2000)
        state = rep.ToreState(s.geometry, tau_us=TAU).ingest_stream(s)
        vol = state.materialize(int(s.t[-1]) + TAU)
        assert not vol.data.any()

    def test_pairwise_monotonicity_randomized(self, small_geometry, rng):
        for trial in range(10):
            s = random_stream(rng, small_geometry, int(rng.integers(1, 3000)))
            state = rep.ToreState(s.geometry, tau_us=TAU).ingest_stream(s)
            t1 = int(s.t[-1]) + int(rng.integers(0, 1_000_000))
            t2 = t1 + int(rng.integers(0, 6_000_000))
            assert np.all(state.materialize(t2).data <= state.materialize(t1).data)

    # A volume's activity image, its maximum over each polarity's channels,
    # is that polarity's newest slot only while decay, once stored as
    # float32, never rises with age.
    @pytest.mark.parametrize("tau_us", [2, rep.DEFAULT_TAU_US, 2**62])
    def test_float32_decay_non_increasing_in_age(self, tau_us):
        every = np.arange(2**20 + 1)
        log_spaced = np.unique(np.geomspace(1, tau_us, 10_000).round())
        for ages in (every, log_spaced):
            values = np.float32(rep.decay_value(ages, tau_us))
            assert np.all(np.diff(values) <= 0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 400), k=st.integers(1, 5),
           tau_us=st.sampled_from([2, 1_000, TAU]), duration=st.integers(1, 3 * TAU),
           lag=st.integers(0, 2 * TAU), seed=st.integers(0, 2**16))
    def test_newest_slot_is_channel_maximum(self, n, k, tau_us, duration, lag, seed):
        geometry = SensorGeometry(6, 5)
        s = random_stream(np.random.default_rng(seed), geometry, n, duration_us=duration)
        state = rep.ToreState(geometry, k=k, tau_us=tau_us).ingest_stream(s)
        vol = state.materialize(state.last_t + lag).data.view(np.uint32)  # bitwise
        for c0 in (0, k):
            assert np.array_equal(vol[c0], vol[c0:c0 + k].max(axis=0))


def filled_state(geometry, k, tau_us, fill, t_query, rng):
    """A state that ingested, in each (polarity, pixel) column, a run of
    stamps, a share `fill` of all slots filled. Ages at t_query are 0, up
    to tau**0.3 (where decay saturates at 1), tau or more (where it reads
    0) or anywhere between."""
    shape = (2, k, geometry.num_pixels)  # polarity, slot, pixel
    kind = rng.integers(0, 4, shape)
    age = np.select([kind == 0, kind == 1, kind == 2],
                    [0, rng.integers(1, int(tau_us**0.3) + 1, shape),
                     rng.integers(tau_us, 3 * tau_us, shape)],
                    rng.integers(0, 3 * tau_us, shape))
    filled = np.arange(k)[None, :, None] < rng.binomial(k, fill, (2, 1, geometry.num_pixels))
    pol, _, pix = np.nonzero(filled)
    t = np.uint64(t_query) - age[filled].astype(np.uint64)
    order = np.argsort(t, kind="stable")
    stream = EventStream.from_arrays(geometry, t[order], pix[order] % geometry.width,
                                     pix[order] // geometry.width,
                                     np.where(pol[order] == 0, 1, -1))
    return rep.ToreState(geometry, k=k, tau_us=tau_us).ingest_stream(stream)


class TestWindowFrame:
    GEO = SensorGeometry(23, 17)
    TAU = 1_000
    T = 10**6

    @pytest.mark.parametrize("block", [1, 7, GEO.num_pixels])  # the last is a whole channel
    @pytest.mark.parametrize("k", [1, 5])  # at K = 1 channels 0 and K are adjacent
    @pytest.mark.parametrize("fill", [0.0, 0.05, 0.5, 1.0])
    def test_activity_is_channel_maximum(self, rng, monkeypatch, block, k, fill):
        monkeypatch.setattr(rep, "DECAY_BLOCK_SLOTS", block)
        state = filled_state(self.GEO, k, self.TAU, fill, self.T, rng)
        want = state.materialize(self.T)
        got = rep.WindowFrame(state, self.T).activity
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.data.max(axis=0).view(np.uint32))
        assert np.array_equal(want.activity.view(np.uint32), got.view(np.uint32))

    @pytest.mark.parametrize("block", [1, 7, GEO.num_pixels])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("fill", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("cover", ["empty", "full", "random"])
    def test_masked_is_apply_mask(self, rng, monkeypatch, tmp_path, block, k, fill, cover):
        monkeypatch.setattr(rep, "DECAY_BLOCK_SLOTS", block)
        state = filled_state(self.GEO, k, self.TAU, fill, self.T, rng)
        mask = {"empty": np.zeros((self.GEO.height, self.GEO.width), bool),
                "full": np.ones((self.GEO.height, self.GEO.width), bool),
                "random": rng.random((self.GEO.height, self.GEO.width)) < 0.3}[cover]
        want = gating.apply_mask(state.materialize(self.T), mask)
        rep.WindowFrame(state, self.T).write(tmp_path / "m.tore", mask)
        assert (tmp_path / "m.tore").read_bytes() == rep.serialize_tensor(want.data)

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_valued_mask_reads_as_bool(self, rng, tmp_path, value):
        state = filled_state(self.GEO, 2, self.TAU, 0.5, self.T, rng)
        cover = rng.random((self.GEO.height, self.GEO.width)) < 0.3
        mask = np.where(cover, value, 0.0).astype(np.float32)
        want = gating.apply_mask(state.materialize(self.T), mask)
        assert np.array_equal(want.data, gating.apply_mask(state.materialize(self.T), cover).data)
        rep.WindowFrame(state, self.T).write(tmp_path / "m.tore", mask)
        assert (tmp_path / "m.tore").read_bytes() == rep.serialize_tensor(want.data)

    def test_data_is_materialize(self, rng):
        state = filled_state(self.GEO, 3, self.TAU, 0.5, self.T, rng)
        assert np.array_equal(rep.WindowFrame(state, self.T).data,
                              state.materialize(self.T).data)

    def test_frame_read_after_the_next_is_drawn_raises(self, small_geometry, rng, tmp_path):
        s = random_stream(rng, small_geometry, 400, duration_us=60_000)
        frames = rep.window_frames(s, 2, TAU, 20_000)
        first = next(frames)
        assert np.array_equal(first.data, tore_brute_force(s[:np.searchsorted(s.t, 20_000)],
                                                           2, TAU, 20_000))
        second = next(frames)
        mask = np.ones((small_geometry.height, small_geometry.width), bool)
        for read in (lambda f: f.data, lambda f: f.activity,
                     lambda f: f.write(tmp_path / "whole.tore"),
                     lambda f: f.write(tmp_path / "masked.tore", mask)):
            with pytest.raises(RuntimeError, match="read after the next frame was drawn"):
                read(first)
        assert not any(tmp_path.iterdir())
        assert first.query_time_us == 20_000
        *_, last = [second, *frames]
        # the last frame stays valid once the windows run out
        assert np.array_equal(last.data, tore_brute_force(s, 2, TAU, last.query_time_us))

    def test_masked_temporaries_do_not_grow_with_k(self, rng, tmp_path):
        # a masked write that built the masked volume would take ~2K channels more
        geometry = SensorGeometry(64, 48)
        mask = rng.random((geometry.height, geometry.width)) < 0.2
        peaks = {}
        for k in (4, 64):
            frame = rep.WindowFrame(filled_state(geometry, k, self.TAU, 0.5, self.T, rng),
                                    self.T)
            tracemalloc.start()
            try:
                frame.write(tmp_path / f"k{k}.tore", mask)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        channel_bytes = 4 * geometry.num_pixels
        assert peaks[64] - peaks[4] < channel_bytes

    @pytest.mark.parametrize("t_query, error", [(150, TimeRegression), (-1, ConfigError),
                                                (2**64 + 5, ConfigError)])
    def test_query_time_is_checked_when_the_frame_is_made(self, tmp_path, t_query, error):
        # the pixel that fired at 200us would wrap to age ~2^64 at 150us and read 0
        state = rep.ToreState(SensorGeometry(4, 3), k=2, tau_us=TAU)
        state.ingest(Event(t=100, x=0, y=0, polarity=1))
        state.ingest(Event(t=200, x=3, y=2, polarity=-1))
        with pytest.raises(error, match=str(t_query)):
            rep.WindowFrame(state, t_query).write(tmp_path / "t.tore")
        assert not (tmp_path / "t.tore").exists()


class TestWindowFrameWrite:
    GEO = SensorGeometry(23, 17)
    TAU = 1_000
    T = 10**6

    # at 2^63 + 1500 the base is 2^63, above the stamps older than 1500us
    @pytest.mark.parametrize("t_query", [T, 2**63 + 1500])
    @pytest.mark.parametrize("block", [1, 7, GEO.num_pixels])  # the last is a whole channel
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("fill", [0.0, 0.05, 0.5, 1.0])
    def test_bytes_are_the_collected_tensor(self, rng, monkeypatch, tmp_path, block, k, fill,
                                            t_query):
        monkeypatch.setattr(rep, "DECAY_BLOCK_SLOTS", block)
        state = filled_state(self.GEO, k, self.TAU, fill, t_query, rng)
        frame = rep.WindowFrame(state, t_query)
        data = frame.data
        assert data.tobytes() == decay_fifo(state.fifo, state.base, self.TAU,
                                            t_query).tobytes()
        frame.write(tmp_path / "whole.tore")
        assert (tmp_path / "whole.tore").read_bytes() == rep.serialize_tensor(data)
        shape = (self.GEO.height, self.GEO.width)
        for cover, mask in (("empty", np.zeros(shape, bool)), ("full", np.ones(shape, bool)),
                            ("random", rng.random(shape) < 0.3)):
            frame.write(tmp_path / f"{cover}.tore", mask)
            assert ((tmp_path / f"{cover}.tore").read_bytes()
                    == rep.serialize_tensor(data * mask)), cover

    @pytest.mark.parametrize("block", [1, 7, GEO.num_pixels])
    def test_empty_slots_read_0_before_tau(self, rng, monkeypatch, tmp_path, block):
        # before tau the base is -2^31: an empty slot reads 0 at its age,
        # t_query + 2^31, and would decay above 0 at an age of t_query
        monkeypatch.setattr(rep, "DECAY_BLOCK_SLOTS", block)
        s = random_stream(rng, self.GEO, 2000, duration_us=100_000)
        t_query = int(s.t[-1]) + 10
        want = tore_brute_force(s, 3, TAU, t_query)
        frame = rep.WindowFrame(rep.ToreState(self.GEO, 3, TAU).ingest_stream(s), t_query)
        mask = rng.random((self.GEO.height, self.GEO.width)) < 0.6
        frame.write(tmp_path / "whole.tore")
        frame.write(tmp_path / "masked.tore", mask)
        assert (tmp_path / "whole.tore").read_bytes() == rep.serialize_tensor(want)
        assert (tmp_path / "masked.tore").read_bytes() == rep.serialize_tensor(want * mask)

    def test_collectors_do_not_alias_the_state_buffers(self, rng, tmp_path):
        state = filled_state(self.GEO, 2, self.TAU, 0.5, self.T, rng)
        frame = rep.WindowFrame(state, self.T)
        mask = rng.random((self.GEO.height, self.GEO.width)) < 0.5
        kept = [frame.data, frame.activity, state.materialize(self.T).data]
        copies = [a.copy() for a in kept]
        frame.write(tmp_path / "t.tore", mask)
        rep.WindowFrame(state, 3 * self.T).write(tmp_path / "u.tore")
        for a, b in zip(kept, copies):
            assert a.tobytes() == b.tobytes()
            assert not any(np.shares_memory(a, buf)
                           for buf in (state._channel, state._block, *state._scratch))

    def test_bad_mask_writes_no_file(self, rng, tmp_path):
        frame = rep.WindowFrame(filled_state(self.GEO, 2, self.TAU, 0.5, self.T, rng), self.T)
        with pytest.raises(GeometryMismatch):
            frame.write(tmp_path / "t.tore", np.ones((self.GEO.width, self.GEO.height), bool))
        assert not (tmp_path / "t.tore").exists()


def stamped_state(geometry, k, tau_us, fill, tied, t_last, rng):
    """A state that ingested, in each (polarity, pixel) column, a run of
    stamps, a share `fill` of all slots filled, the newest at t_last: every
    stamp at t_last if tied, else at ages 0, up to tau**0.3, tau or more or
    anywhere up to 3 tau, none before time 0."""
    shape = (2, k, geometry.num_pixels)  # polarity, slot, pixel
    kind = rng.integers(0, 4, shape)
    age = np.select([kind == 0, kind == 1, kind == 2],
                    [0, rng.integers(1, int(tau_us**0.3) + 1, shape),
                     rng.integers(tau_us, 3 * tau_us, shape)],
                    rng.integers(0, 3 * tau_us, shape))
    filled = np.arange(k)[None, :, None] < rng.binomial(k, fill, (2, 1, geometry.num_pixels))
    pol, _, pix = np.nonzero(filled)
    t = np.uint64(t_last) - np.minimum(age[filled], 0 if tied else t_last).astype(np.uint64)
    if t.size:
        t[rng.integers(t.size)] = t_last
    order = np.argsort(t, kind="stable")
    stream = EventStream.from_arrays(geometry, t[order], pix[order] % geometry.width,
                                     pix[order] // geometry.width,
                                     np.where(pol[order] == 0, 1, -1))
    return rep.ToreState(geometry, k=k, tau_us=tau_us).ingest_stream(stream)


class TestAbovePercentile:
    TAU = 1_000

    # a last stamp at or below tau keeps the base at -2^31; one past
    # 2^31 + tau moves it to 2^31, where a stamp 3 tau old sits at the base;
    # a query at 2^64 - 1 clamps the age of the base
    @settings(max_examples=300, deadline=None)
    @given(geometry=st.sampled_from([SensorGeometry(1, 1), SensorGeometry(5, 1),
                                     SensorGeometry(23, 17)]),
           k=st.sampled_from([1, 4]), fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           tied=st.booleans(),
           t_last=st.sampled_from([TAU // 2, TAU, 2**31 + 3 * TAU]),
           lag=st.sampled_from([0, 1, TAU // 2, 2 * TAU, None]),
           q=st.one_of(st.sampled_from([0.0, 80.0, 100.0]), st.floats(0.0, 100.0)),
           seed=st.integers(0, 2**16))
    def test_is_the_activity_threshold(self, geometry, k, fill, tied, t_last, lag, q, seed):
        state = stamped_state(geometry, k, self.TAU, fill, tied, t_last,
                              np.random.default_rng(seed))
        assert state.last_t in (0, t_last)  # 0 if no slot is filled
        assert state.base == (2**31 if state.last_t > 2**31 else -2**31)
        t_query = 2**64 - 1 if lag is None else t_last + lag
        frame = rep.WindowFrame(state, t_query)
        fifo = state.fifo.tobytes()
        activity = frame.activity
        want = activity > float(rep._percentile(activity, q))
        assert np.array_equal(want, activity > np.float32(np.percentile(activity, q)))
        got = frame.above_percentile(q)
        assert got.dtype == bool and got.shape == activity.shape
        assert np.array_equal(got, want)
        assert np.array_equal(state.materialize(t_query).above_percentile(q), want)
        assert state.fifo.tobytes() == fifo  # the FIFO itself is never sorted


class TestTensorContainer:
    def test_binary_round_trip(self, rng, tmp_path):
        data = rng.random((8, 5, 7)).astype(np.float32)
        path = tmp_path / "t.tore"
        rep.write_tensor(path, data)
        assert np.array_equal(rep.read_tensor(path), data)

    def test_write_matches_serialize(self, rng, tmp_path):
        data = rng.random((5, 7, 3)).transpose(2, 0, 1)  # float64, not contiguous
        path = tmp_path / "t.tore"
        rep.write_tensor(path, data)
        assert path.read_bytes() == rep.serialize_tensor(data)

    def test_header_contents(self):
        blob = rep.serialize_tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert blob[:4] == b"TORE"
        assert len(blob) == 16 + 2 * 3 * 4 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.tore"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(BadMagic):
            rep.read_tensor(path)

    def test_truncated(self, tmp_path):
        blob = rep.serialize_tensor(np.zeros((1, 2, 2), dtype=np.float32))
        path = tmp_path / "t.tore"
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedRecord):
            rep.read_tensor(path)

    def test_forged_dims_fail_before_allocating(self, tmp_path):
        # 2^32 - 1 cubed float32s: were the payload not checked first, the
        # allocation would fail as a MemoryError, not a data error
        blob = rep.serialize_tensor(np.zeros((1, 2, 2), dtype=np.float32))
        path = tmp_path / "t.tore"
        path.write_bytes(blob[:4] + bytes([0xFF]) * 12 + blob[16:])
        with pytest.raises(TruncatedRecord, match=f"{path}: tensor payload 16 bytes"):
            rep.read_tensor(path)
