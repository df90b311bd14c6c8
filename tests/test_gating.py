import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import gating
from evpose.errors import (
    BadMagic,
    ConfigError,
    DataError,
    EmptyPlan,
    GeometryMismatch,
    ProbabilityOutOfRange,
)
from evpose.events import SensorGeometry
from evpose.representations import ToreVolume

from oracles import connected_components, dilate3x3_direct, erode3x3_direct

GEO = SensorGeometry(width=20, height=14)


def volume_from(data, query_time_us=0, geometry=GEO):
    return ToreVolume(geometry=geometry, data=np.asarray(data, dtype=np.float32),
                      query_time_us=query_time_us)


def indexed_volumes(count, geometry=GEO, channels=2):
    """Volumes whose query_time_us doubles as the frame index."""
    return [volume_from(np.zeros((channels, geometry.height, geometry.width)),
                        query_time_us=i, geometry=geometry)
            for i in range(count)]


class ScriptedBackend:
    """Plan scores looked up by the issuing frame (the volume's
    query_time_us); masks are all-ones and irrelevant to scheduling."""

    def __init__(self, scores_by_frame, geometry=GEO):
        self.scores_by_frame = np.asarray(scores_by_frame, dtype=np.float64)
        self.horizon = self.scores_by_frame.shape[1]
        self.geometry = geometry
        self.calls = []

    def predict(self, vol):
        frame = vol.query_time_us
        self.calls.append(frame)
        masks = np.ones((self.horizon, self.geometry.height, self.geometry.width),
                        dtype=bool)
        return gating.MaskPlan(masks=masks, scores=self.scores_by_frame[frame])


class TestApplyMask:
    def test_all_ones_identity(self, rng):
        vol = volume_from(rng.random((3, GEO.height, GEO.width)))
        out = gating.apply_mask(vol, np.ones((GEO.height, GEO.width), bool))
        assert np.array_equal(out.data, vol.data)

    def test_all_zeros(self, rng):
        vol = volume_from(rng.random((3, GEO.height, GEO.width)))
        out = gating.apply_mask(vol, np.zeros((GEO.height, GEO.width), bool))
        assert not out.data.any()

    def test_rectangle_support(self, rng):
        vol = volume_from(rng.random((2, GEO.height, GEO.width)) + 0.1)
        mask = np.zeros((GEO.height, GEO.width), bool)
        mask[3:7, 5:11] = True
        out = gating.apply_mask(vol, mask)
        for y in range(GEO.height):
            for x in range(GEO.width):
                if mask[y, x]:
                    assert np.array_equal(out.data[:, y, x], vol.data[:, y, x])
                else:
                    assert not out.data[:, y, x].any()

    def test_idempotent(self, rng):
        vol = volume_from(rng.random((2, GEO.height, GEO.width)))
        mask = rng.random((GEO.height, GEO.width)) > 0.5
        once = gating.apply_mask(vol, mask)
        twice = gating.apply_mask(once, mask)
        assert np.array_equal(once.data, twice.data)

    def test_geometry_mismatch(self, rng):
        vol = volume_from(rng.random((2, GEO.height, GEO.width)))
        with pytest.raises(GeometryMismatch):
            gating.apply_mask(vol, np.ones((5, 5), bool))


class TestMaskQuality:
    def test_identical_masks(self, rng):
        m = rng.random((GEO.height, GEO.width)) > 0.5
        assert gating.mask_quality_ground_truth(m, m) == 1.0

    def test_complementary_masks(self, rng):
        m = rng.random((GEO.height, GEO.width)) > 0.5
        assert gating.mask_quality_ground_truth(m, ~m) == 0.0

    def test_ten_percent_disagreement(self):
        gt = np.zeros((10, 10), bool)
        pred = gt.copy()
        pred.reshape(-1)[:10] = True
        assert math.isclose(gating.mask_quality_ground_truth(pred, gt), 0.9,
                            rel_tol=1e-12)

    def test_strictly_decreasing_in_hamming_distance(self, rng):
        gt = rng.random((8, 8)) > 0.5
        last = 1.0
        pred = gt.copy()
        order = rng.permutation(64)
        for i in range(0, 64, 8):
            for j in order[i : i + 8]:
                pred.reshape(-1)[j] = not pred.reshape(-1)[j]
            score = gating.mask_quality_ground_truth(pred, gt)
            assert score < last
            last = score


class TestScheduler:
    def test_beta_zero_minimizes_calls(self):
        horizon = 4
        frames = 10
        backend = ScriptedBackend(np.full((frames, horizon), 0.01))
        result = gating.schedule_masks(indexed_volumes(frames), backend, beta=0.0)
        assert result.backend_calls == math.ceil(frames / horizon)
        assert backend.calls == [0, 4, 8]
        assert [e.recompute for e in result.entries] == [
            True, False, False, False, True, False, False, False, True, False]

    def test_beta_one_with_imperfect_scores_calls_every_frame(self):
        frames = 7
        scores = np.full((frames, 3), 0.999)
        scores[:, 0] = 1.0  # current-frame score never consulted for reuse
        backend = ScriptedBackend(scores)
        result = gating.schedule_masks(indexed_volumes(frames), backend, beta=1.0)
        assert result.backend_calls == frames
        assert all(e.recompute for e in result.entries)

    def test_hand_simulated_alternation(self):
        # plan scores [1.0, 0.9, 0.5]: beta 0.85 reuses exactly one future
        # mask per plan, then recomputes
        frames = 6
        scores = np.tile([1.0, 0.9, 0.5], (frames, 1))
        backend = ScriptedBackend(scores)
        result = gating.schedule_masks(indexed_volumes(frames), backend, beta=0.85)
        assert [e.recompute for e in result.entries] == [
            True, False, True, False, True, False]
        assert result.backend_calls == 3

    def test_hand_simulated_no_reuse_above_scores(self):
        frames = 4
        scores = np.tile([1.0, 0.9, 0.5], (frames, 1))
        backend = ScriptedBackend(scores)
        result = gating.schedule_masks(indexed_volumes(frames), backend, beta=0.95)
        assert result.backend_calls == frames

    def test_score_used_reported(self):
        scores = np.tile([1.0, 0.9, 0.5], (4, 1))
        backend = ScriptedBackend(scores)
        result = gating.schedule_masks(indexed_volumes(4), backend, beta=0.0)
        assert [e.score_used for e in result.entries] == [1.0, 0.9, 0.5, 1.0]

    def test_call_count_non_decreasing_in_beta(self, rng):
        # score vectors fixed per sequence (offset-dependent only); for
        # those the early-exit rule is provably monotone in beta
        for trial in range(30):
            horizon = int(rng.integers(1, 6))
            frames = int(rng.integers(1, 40))
            vector = rng.uniform(0.0, 1.0, horizon)
            vector[0] = 1.0
            scores = np.tile(vector, (frames, 1))
            counts = []
            for beta in np.linspace(0.0, 1.0, 9):
                backend = ScriptedBackend(scores)
                result = gating.schedule_masks(indexed_volumes(frames), backend,
                                               beta=float(beta))
                counts.append(result.backend_calls)
            assert counts == sorted(counts)

    def test_empty_frames(self):
        backend = ScriptedBackend(np.ones((1, 2)))
        result = gating.schedule_masks([], backend, beta=0.5)
        assert result.backend_calls == 0
        assert result.entries == []

    def test_invalid_beta(self):
        backend = ScriptedBackend(np.ones((1, 2)))
        with pytest.raises(ConfigError):
            gating.schedule_masks(indexed_volumes(1), backend, beta=1.5)

    def test_invalid_beta_fails_when_called(self):
        drawn = []
        frames = (drawn.append(vol) or vol for vol in indexed_volumes(1))
        with pytest.raises(ConfigError):
            gating.iter_schedule(frames, ScriptedBackend(np.ones((1, 2))), beta=1.5)
        assert drawn == []

    def test_empty_plan_rejected(self):
        class NonePlanBackend:
            horizon = 1

            def predict(self, vol):
                return None

        with pytest.raises(EmptyPlan):
            gating.schedule_masks(indexed_volumes(1), NonePlanBackend(), beta=0.0)
        with pytest.raises(EmptyPlan):
            gating.MaskPlan(masks=np.zeros((0, 4, 4), bool), scores=np.zeros(0))

    def test_plan_score_range_checked(self):
        with pytest.raises(ProbabilityOutOfRange):
            gating.MaskPlan(masks=np.zeros((1, 4, 4), bool), scores=np.array([1.2]))

    def test_nan_plan_score_rejected(self):
        with pytest.raises(ProbabilityOutOfRange):
            gating.MaskPlan(masks=np.zeros((1, 4, 4), bool), scores=np.array([np.nan]))


class TestReferenceBackend:
    def _volume_with_blobs(self, blobs, value=0.9):
        data = np.zeros((2, GEO.height, GEO.width), dtype=np.float32)
        for (y0, y1, x0, x1) in blobs:
            data[0, y0:y1, x0:x1] = value
        return volume_from(data)

    def test_zero_volume_gives_empty_mask_and_floor_scores(self):
        plan = gating.ReferenceMaskBackend(horizon=3).predict(
            volume_from(np.zeros((2, GEO.height, GEO.width))))
        assert plan.horizon == 3
        assert not plan.masks.any()
        assert np.array_equal(plan.scores, [0.2, 0.2, 0.2])

    def test_single_blob_covered(self):
        vol = self._volume_with_blobs([(3, 8, 4, 10)])
        plan = gating.ReferenceMaskBackend().predict(vol)
        blob = np.zeros((GEO.height, GEO.width), bool)
        blob[3:8, 4:10] = True
        assert plan.masks[0][blob].all()
        comps = connected_components(vol.data.max(axis=0) > 0)
        assert len(comps) == 1
        assert {(y, x) for y, x in comps[0]} <= set(zip(*np.nonzero(plan.masks[0])))

    def test_larger_blob_wins(self):
        vol = self._volume_with_blobs([(2, 10, 2, 8), (11, 13, 15, 17)])
        plan = gating.ReferenceMaskBackend().predict(vol)
        comps = connected_components(vol.data.max(axis=0) > 0)
        assert len(comps) == 2
        big, small = comps
        mask_pixels = set(zip(*np.nonzero(plan.masks[0])))
        assert big <= mask_pixels
        assert not (small & mask_pixels)

    def test_future_masks_grow_and_scores_decay(self):
        vol = self._volume_with_blobs([(5, 9, 5, 9)])
        plan = gating.ReferenceMaskBackend(horizon=10).predict(vol)
        for k in range(1, 10):
            assert plan.masks[k][plan.masks[k - 1]].all()
            assert plan.masks[k].sum() >= plan.masks[k - 1].sum()
        assert np.allclose(plan.scores, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.2])

    @pytest.mark.parametrize("settings", [
        {"horizon": 0}, {"activity_percentile": -1.0}, {"activity_percentile": 100.5},
    ])
    def test_settings_out_of_range_are_config_errors(self, settings):
        with pytest.raises(ConfigError):
            gating.ReferenceMaskBackend(**settings)

    def test_deterministic(self, rng):
        vol = volume_from(rng.random((4, GEO.height, GEO.width)))
        a = gating.ReferenceMaskBackend().predict(vol)
        b = gating.ReferenceMaskBackend().predict(vol)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.scores, b.scores)


@st.composite
def activity_images(draw):
    """float32 (H, W) images of values in [0, 1]: all zero, drawn from a few
    values (ties), or any float32, from one pixel up."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["zero", "ties", "any"]))
    if kind == "zero":
        return np.zeros((h, w), np.float32)
    value = (st.sampled_from([0.0, 0.25, 1 / 3, 1.0]) if kind == "ties"
             else st.floats(0.0, 1.0, width=32))
    return np.array(draw(st.lists(value, min_size=h * w, max_size=h * w)),
                    np.float32).reshape(h, w)


class TestPercentile:
    @settings(max_examples=400, deadline=None)
    @given(image=activity_images(), data=st.data())
    def test_is_np_percentile_bit_for_bit(self, image, data):
        # q at random, at the backend's default and the ends, or halfway
        # between two order statistics, where numpy switches formula
        n = image.size
        q = data.draw(st.one_of(
            st.sampled_from([0.0, 80.0, 100.0]), st.floats(0.0, 100.0),
            st.integers(0, max(n - 2, 0)).map(lambda i: min(100 * (i + 0.5) / max(n - 1, 1),
                                                            100.0))))
        got = gating._percentile(image, q)
        assert type(got) is np.float32
        assert got.view(np.uint32) == np.float32(np.percentile(image, q)).view(np.uint32)

    def test_sweep_is_np_percentile_bit_for_bit(self, rng):
        for _ in range(3000):
            n = int(rng.integers(1, 60))
            image = (rng.random(n) ** rng.choice([1, 8])).astype(np.float32)
            half = 100 * (int(rng.integers(0, n)) + 0.5) / max(n - 1, 1)
            q = min(float(rng.choice([rng.uniform(0, 100), half])), 100.0)
            got = gating._percentile(image, q)
            assert got.view(np.uint32) == np.float32(np.percentile(image, q)).view(np.uint32)

    def test_reads_a_copy(self, rng):
        image = rng.random((14, 20)).astype(np.float32)
        kept = image.copy()
        gating._percentile(image, 80.0)
        assert image.tobytes() == kept.tobytes()


@st.composite
def bool_masks(draw, max_side=12):
    """Bool masks: 1xW and Hx1 strips, all-false, all-true, random
    densities and rectangles that may touch or cross the border."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(["empty", "full", "random", "blobs"]))
    if kind == "empty":
        return np.zeros((h, w), dtype=bool)
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        return np.array(bits, dtype=bool).reshape(h, w)
    m = np.zeros((h, w), dtype=bool)
    for _ in range(draw(st.integers(1, 4))):
        y0, x0 = draw(st.integers(-2, h - 1)), draw(st.integers(-2, w - 1))
        y1, x1 = y0 + draw(st.integers(1, 5)), x0 + draw(st.integers(1, 5))
        m[max(y0, 0):y1, max(x0, 0):x1] = True
    return m


def largest_by_bfs(mask):
    comps = connected_components(mask)
    out = np.zeros(mask.shape, dtype=bool)
    if comps:
        ys, xs = zip(*comps[0])
        out[list(ys), list(xs)] = True
    return out


class TestMaskKernels:
    @settings(max_examples=200, deadline=None)
    @given(bool_masks())
    def test_dilate_matches_oracle(self, mask):
        before = mask.copy()
        out = gating._dilate(mask)
        assert out.dtype == bool and out.shape == mask.shape
        assert np.array_equal(out, dilate3x3_direct(mask))
        assert np.array_equal(mask, before)

    @settings(max_examples=200, deadline=None)
    @given(bool_masks())
    def test_erode_matches_oracle(self, mask):
        before = mask.copy()
        out = gating._erode(mask)
        assert out.dtype == bool and out.shape == mask.shape
        assert np.array_equal(out, erode3x3_direct(mask))
        assert np.array_equal(mask, before)

    @settings(max_examples=300, deadline=None)
    @given(bool_masks(max_side=16))
    def test_largest_component_matches_bfs(self, mask):
        before = mask.copy()
        out = gating._largest_component(mask)
        assert out.dtype == bool and out.shape == mask.shape
        assert np.array_equal(out, largest_by_bfs(mask))
        assert np.array_equal(mask, before)

    def test_diagonal_touch_joins_components(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True  # one diagonal, size 3
        mask[4, 0] = mask[4, 1] = True                 # size 2
        assert np.array_equal(gating._largest_component(mask), largest_by_bfs(mask))
        assert gating._largest_component(mask).sum() == 3

    @pytest.mark.parametrize("first,second", [
        # first pixel earlier in the same row
        ([(1, 1), (1, 2), (2, 1)], [(1, 5), (2, 5), (2, 6)]),
        # first pixel in an earlier row but a later column
        ([(0, 7), (1, 7), (1, 6)], [(2, 0), (3, 0), (3, 1)]),
        # the later component reaches further up-left after its first pixel
        ([(2, 3), (2, 4), (3, 4)], [(3, 1), (4, 0), (5, 0)]),
    ])
    def test_tie_goes_to_first_in_raster_order(self, first, second):
        mask = np.zeros((7, 9), dtype=bool)
        for y, x in first + second:
            mask[y, x] = True
        assert len(connected_components(mask)) == 2
        expected = np.zeros_like(mask)
        for y, x in first:
            expected[y, x] = True
        assert np.array_equal(gating._largest_component(mask), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predict_matches_oracle_pipeline(self, data):
        h, w = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        params = gating.ReferenceMaskBackend(
            horizon=data.draw(st.integers(1, 4)),
            activity_percentile=data.draw(st.sampled_from([0.0, 50.0, 80.0, 95.0])))
        seed = data.draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).random((2, h, w)).astype(np.float32)
        plan = params.predict(
            volume_from(values, geometry=SensorGeometry(width=w, height=h)))
        activity = values.max(axis=0)
        fg = activity > float(np.percentile(activity, params.activity_percentile))
        expected = [largest_by_bfs(erode3x3_direct(dilate3x3_direct(fg)))]
        for _ in range(1, params.horizon):
            expected.append(dilate3x3_direct(expected[-1]))
        assert np.array_equal(plan.masks, np.stack(expected))


class TestMaskStackIO:
    def test_round_trip(self, tmp_path, rng):
        masks = rng.random((5, GEO.height, GEO.width)) > 0.6
        path = tmp_path / "masks.msk1"
        gating.write_masks(path, GEO, masks)
        geometry, back = gating.read_masks(path)
        assert geometry == GEO
        assert np.array_equal(back, masks)

    def test_empty_stack_round_trips(self, tmp_path):
        empty = np.zeros((0, GEO.height, GEO.width), dtype=bool)
        path = tmp_path / "masks.msk1"
        gating.write_masks(path, GEO, empty)
        assert path.stat().st_size == 18  # the header alone
        geometry, back = gating.read_masks(path)
        assert geometry == GEO
        assert back.shape == empty.shape

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "masks.msk1"
        path.write_bytes(b"GARBAGE___________")
        with pytest.raises(BadMagic):
            gating.read_masks(path)

    def test_pipe_is_refused_by_name(self, tmp_path):
        blob = gating.serialize_masks(GEO, np.ones((2, GEO.height, GEO.width), bool))
        r, w = os.pipe()
        try:
            os.write(w, blob)  # 88 bytes fit the pipe's buffer
            path = f"/dev/fd/{r}"
            with pytest.raises(DataError, match=f"{path}: mask stack must be a regular file"):
                gating.read_masks(path)
        finally:
            os.close(r)
            os.close(w)

    def test_truncated(self, tmp_path, rng):
        blob = gating.serialize_masks(GEO, rng.random((2, GEO.height, GEO.width)) > 0.5)
        path = tmp_path / "masks.msk1"
        path.write_bytes(blob[:-1])
        from evpose.errors import TruncatedRecord

        with pytest.raises(TruncatedRecord):
            gating.read_masks(path)

    def test_read_holds_the_stack_once(self, tmp_path, rng):
        geometry = SensorGeometry(width=346, height=260)
        masks = rng.integers(0, 2, (60, geometry.height, geometry.width), np.uint8).astype(bool)
        path = tmp_path / "masks.msk1"
        gating.write_masks(path, geometry, masks)
        tracemalloc.start()
        try:
            _, back = gating.read_masks(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, masks)
        # the unpacked stack plus the file's bytes, not a second unpacked copy
        assert peak <= 1.3 * back.nbytes

    def test_external_backend_shares_the_stack(self, rng):
        masks = rng.random((3, GEO.height, GEO.width)) > 0.5
        scores = rng.random((3, 2))
        backend = gating.ExternalMaskBackend(masks, 10, 0, 2, scores)
        assert np.shares_memory(backend.masks, masks)
        for k in range(3):  # each plan a view, one mask long at the stack's end
            plan = backend.predict(volume_from(np.zeros((2, GEO.height, GEO.width)),
                                               query_time_us=10 * (k + 1)))
            assert np.shares_memory(plan.masks, masks)
            assert np.array_equal(plan.masks, masks[k:k + 2])
            assert np.array_equal(plan.scores, scores[k, :len(plan.masks)])

    def test_long_horizon_budgets_only_the_score_table(self):
        # on DAVIS346, 10 masks at horizon 30000: a 2.4 MB score table,
        # where plans of horizon * H * W bytes would ask for 2.7 GB
        geometry = SensorGeometry(width=346, height=260)
        masks = np.zeros((10, geometry.height, geometry.width), bool)
        backend = gating.ExternalMaskBackend(masks, 10, 0, 30_000)
        assert backend.scores.nbytes == 8 * 10 * 30_000
        for k in (0, 9):
            plan = backend.predict(volume_from(np.zeros((2, geometry.height, geometry.width)),
                                               query_time_us=10 * (k + 1), geometry=geometry))
            assert np.shares_memory(plan.masks, masks)
            assert len(plan.masks) == 10 - k

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_external_stack_fails_at_the_first_window_past_it(self, rng, n, horizon, beta):
        masks = rng.random((n, GEO.height, GEO.width)) > 0.5
        backend = gating.ExternalMaskBackend(masks, 10, 0, horizon)
        frames = [volume_from(np.zeros((2, GEO.height, GEO.width)), query_time_us=10 * (k + 1))
                  for k in range(n + 2)]
        scheduled = gating.iter_schedule(frames, backend, beta)
        for k in range(n):
            assert np.array_equal(next(scheduled)[2], masks[k])
        with pytest.raises(DataError, match=f"no external mask for window {n}: "
                                            f"the stack holds {n} mask"):
            next(scheduled)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_external_backend_checks_its_score_table(self, rng, bad):
        masks = rng.random((3, GEO.height, GEO.width)) > 0.5
        scores = np.ones((3, 2))
        scores[2, 1] = bad  # a score no plan of the first two windows reads
        with pytest.raises(ProbabilityOutOfRange):
            gating.ExternalMaskBackend(masks, 10, 0, 2, scores)


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        entries = [gating.ScheduleEntry(frame=0, recompute=True, score_used=1.0),
                   gating.ScheduleEntry(frame=1, recompute=False, score_used=0.875)]
        path = tmp_path / "schedule.csv"
        gating.write_schedule_csv(path, entries)
        assert gating.read_schedule_csv(path) == entries

    @pytest.mark.parametrize("text, message", [
        ("frame,score\n0,1,1.0\n", "expected header 'frame,recompute,score_used'"),
        (gating.SCHEDULE_HEADER + "0,1\n", "line 2: expected 3 fields, got 2"),
    ], ids=["header", "two_fields"])
    def test_bad_file_is_data_error_naming_it(self, tmp_path, text, message):
        path = tmp_path / "schedule.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message) as info:
            gating.read_schedule_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("rows, message", [
        ("0,1,1.0\n1,7,0.5\n", "line 3: expected frame 1, recompute 0 or 1 .* got '1,7,0.5'"),
        ("0,1,1.0\n1,0,nan\n", "line 3: .* got '1,0,nan'"),
        ("0,1,1.0\n1,0,inf\n", "line 3: .* got '1,0,inf'"),
        ("0,-1,2.5\n", "line 2: .* got '0,-1,2.5'"),
        ("0,1,2.5\n", "line 2: .* got '0,1,2.5'"),
        ("0,1,-0.25\n", "line 2: .* got '0,1,-0.25'"),
        ("1,1,1.0\n", "line 2: expected frame 0, .* got '1,1,1.0'"),
        ("0,1,1.0\n0,0,1.0\n", "line 3: expected frame 1, .* got '0,0,1.0'"),
        ("0,1,1.0\n2,0,1.0\n", "line 3: expected frame 1, .* got '2,0,1.0'"),
        ("0,1,1.0\n1,x,1.0\n", "line 3: invalid literal"),
    ], ids=["flag", "nan", "inf", "negative_flag", "score_above_1", "score_below_0",
            "first_frame", "repeated_frame", "skipped_frame", "syntax"])
    def test_bad_row_is_data_error_naming_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "schedule.csv"
        path.write_text(gating.SCHEDULE_HEADER + rows)
        with pytest.raises(DataError, match=message) as info:
            gating.read_schedule_csv(path)
        assert str(info.value).startswith(f"{path}: line ")
