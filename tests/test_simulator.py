import dataclasses
import functools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import simulator as sim
from evpose.camera import (
    CameraModel,
    denormalize_camera_points,
    load_camera,
    normalize_camera_points,
    project_camera_points,
    save_camera,
    view_half_extents,
)
from evpose.errors import (
    BehindCamera,
    ConfigError,
    DataError,
    EmptySequence,
    FpsMismatch,
    GeometryMismatch,
    InvalidDepth,
    LengthMismatch,
    NonFinite,
    ZeroMass,
)
from evpose.events import EventStream, SensorGeometry, serialize_stream
from evpose.pose_math import (DISTRIBUTION_ATOL, Heatmaps, cell_centers, denormalize,
                              fuse_planes, soft_argmax)

from oracles import (
    composite_whole_clip,
    frames_to_events_direct,
    frames_to_events_whole_clip,
    heatmaps_per_plane,
    interpolate_whole_clip,
)

GEO = SensorGeometry(width=16, height=12)


def const_frames(value, count, fps=100.0, geometry=GEO):
    frames = np.full((count, geometry.height, geometry.width), value)
    return sim.FrameSequence(geometry=geometry, fps=fps, frames=frames)


def quiet_params(**kw):
    return sim.PixelModelParams(leak_rate_hz=0.0, shot_noise_scale=0.0, **kw)


def simple_camera(f=320.0, cx=173.0, cy=130.0):
    intrinsic = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    extrinsic = np.hstack([np.eye(3), np.zeros((3, 1))])
    return CameraModel(intrinsic=intrinsic, extrinsic=extrinsic)


def camera_frame_skeleton(rng, z_range=(800.0, 3000.0)):
    joints = np.column_stack([
        rng.uniform(-300.0, 300.0, 13),
        rng.uniform(-300.0, 300.0, 13),
        rng.uniform(*z_range, 13),
    ])
    return sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")


class TestComposite:
    def test_all_ones_mask_keeps_foreground(self, rng):
        fg = const_frames(0.8, 3)
        bg = const_frames(0.2, 3)
        masks = sim.MaskSequence(GEO, 100.0, np.ones((3, GEO.height, GEO.width), bool))
        out = sim.composite(fg, masks, bg)
        assert np.array_equal(out.frames, fg.frames)

    def test_all_zeros_mask_keeps_background(self):
        fg = const_frames(0.8, 3)
        bg = const_frames(0.2, 3)
        masks = sim.MaskSequence(GEO, 100.0, np.zeros((3, GEO.height, GEO.width), bool))
        out = sim.composite(fg, masks, bg)
        assert np.array_equal(out.frames, bg.frames)

    def test_checkerboard_against_pixel_oracle(self, rng):
        fg_frames = rng.random((2, GEO.height, GEO.width))
        bg_frames = rng.random((2, GEO.height, GEO.width))
        mask = np.indices((GEO.height, GEO.width)).sum(axis=0) % 2 == 0
        masks = np.stack([mask, ~mask])
        out = sim.composite(
            sim.FrameSequence(GEO, 50.0, fg_frames),
            sim.MaskSequence(GEO, 50.0, masks),
            sim.FrameSequence(GEO, 50.0, bg_frames))
        for i in range(2):
            for y in range(GEO.height):
                for x in range(GEO.width):
                    want = fg_frames[i, y, x] if masks[i, y, x] else bg_frames[i, y, x]
                    assert out.frames[i, y, x] == want

    def test_mismatches_rejected(self):
        fg = const_frames(0.5, 2)
        masks = sim.MaskSequence(GEO, 100.0, np.ones((2, GEO.height, GEO.width), bool))
        with pytest.raises(FpsMismatch):
            sim.composite(fg, masks, const_frames(0.5, 2, fps=60.0))
        with pytest.raises(LengthMismatch):
            sim.composite(fg, masks, const_frames(0.5, 3))
        other = SensorGeometry(8, 8)
        with pytest.raises(GeometryMismatch):
            sim.composite(fg, masks, const_frames(0.5, 2, geometry=other))


def _image_dir(path, images, fmt, fps=50.0):
    """(T, H, W) uint8 images as a PGM directory, or as float32 u8 / 255 in an f32 one."""
    path.mkdir()
    for i, img in enumerate(images):
        if fmt == "pgm":
            sim.write_pgm(path / f"{i:04d}.pgm", img / 255)
        else:
            (img / 255).astype("<f4").tofile(path / f"{i:04d}.f32")
    _, h, w = images.shape
    (path / "manifest.json").write_text(json.dumps(
        {"fps": fps, "width": w, "height": h, "format": fmt}))
    return sim.list_frames(path)


def _as_read(images, fmt):
    """What a directory of _image_dir reads back as: float64 intensities."""
    return images / 255 if fmt == "pgm" else (images / 255).astype(np.float32).astype(np.float64)


class TestCompositeDirectories:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), formats=st.tuples(*[st.sampled_from(["pgm", "f32"])] * 3))
    def test_blend_is_the_float_blend_bit_for_bit(self, data, formats):
        """8-bit foreground, mask and background images, the mask always
        holding 127 and 128: on PGM directories the 8-bit blend equals
        np.where(m / 255 > 0.5, fg / 255, bg / 255), and any set with an f32
        directory blends the images as they read, each frame a fresh array."""
        t, h, w = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(2, 6)))
        images = [np.array(data.draw(st.lists(st.integers(0, 255), min_size=t * h * w,
                                              max_size=t * h * w)), np.uint8).reshape(t, h, w)
                  for _ in range(3)]
        images[1][:, 0, :2] = (127, 128)
        with tempfile.TemporaryDirectory() as d:
            dirs = [_image_dir(Path(d) / name, img, fmt)
                    for name, img, fmt in zip(("fg", "masks", "bg"), images, formats)]
            got = list(sim.iter_composite(*dirs))
        fg, m, bg = (_as_read(img, fmt) for img, fmt in zip(images, formats))
        assert len(got) == t and all(frame.dtype == np.float64 for frame in got)
        assert np.stack(got).tobytes() == np.where(m > 0.5, fg, bg).tobytes()


class TestStreamingMatchesWholeClip:
    """iter_composite, iter_interpolated and iter_events collected into lists
    equal the whole-clip oracles: a generator that reused an array it had
    already yielded would change the frames or chunks collected before."""

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("params", [
        quiet_params(),
        quiet_params(theta_pos=0.13, theta_neg=0.27),
        sim.PixelModelParams(leak_rate_hz=5.0, shot_noise_scale=30.0, seed=3),
        sim.PixelModelParams(theta_pos=0.15, theta_neg=0.25, hot_pixels=((1, 2), (7, 5), (1, 2)),
                             hot_pixel_rate_hz=500.0, seed=4),
    ], ids=["quiet", "thresholds", "noise", "hot"])
    def test_collected_generators_match_whole_clip_oracles(self, tmp_path, rng, factor, params):
        t, fps = 5, 50.0
        fg = rng.integers(20, 240, (t, GEO.height, GEO.width), np.uint8)
        bg = rng.integers(20, 240, (t, GEO.height, GEO.width), np.uint8)
        columns, frames = np.arange(GEO.width)[None, None, :], np.arange(t)[:, None, None]
        bar = (columns - 3 * frames) % GEO.width < 6
        masks = np.broadcast_to(np.where(bar, 128, 127), fg.shape).astype(np.uint8)
        dirs = [_image_dir(tmp_path / name, img, "pgm")
                for name, img in (("fg", fg), ("masks", masks), ("bg", bg))]
        whole = composite_whole_clip(sim.FrameSequence(GEO, fps, fg / 255),
                                     sim.MaskSequence(GEO, fps, masks / 255 > 0.5),
                                     sim.FrameSequence(GEO, fps, bg / 255))
        composited = list(sim.iter_composite(*dirs))
        assert np.stack(composited).tobytes() == whole.frames.tobytes()

        whole = interpolate_whole_clip(whole, factor)
        interpolated = list(sim.iter_interpolated(iter(composited), factor))
        assert np.stack(interpolated).tobytes() == whole.frames.tobytes()
        assert len({id(frame) for frame in interpolated}) == len(interpolated)

        chunks = list(sim.iter_events(sim.iter_interpolated(sim.iter_composite(*dirs), factor),
                                      GEO, whole.fps, params))
        got = EventStream(GEO, *(np.concatenate(col) for col in zip(*chunks)))
        assert len(chunks) > 1 and len(got) > 0
        assert serialize_stream(got) == serialize_stream(frames_to_events_whole_clip(whole, params))


class TestInterpolate:
    def test_factor_one_is_identity(self):
        f = const_frames(0.4, 3)
        out = sim.interpolate_linear(f, 1)
        assert np.array_equal(out.frames, f.frames)
        assert out.fps == f.fps

    def test_midpoint(self):
        frames = np.stack([np.zeros((GEO.height, GEO.width)),
                           np.ones((GEO.height, GEO.width))])
        out = sim.interpolate_linear(sim.FrameSequence(GEO, 10.0, frames), 2)
        assert len(out) == 3
        assert out.fps == 20.0
        assert np.allclose(out.frames[1], 0.5)

    def test_factor_four_matches_ramp(self):
        base = np.linspace(0.0, 1.0, 4)[:, None, None] * np.ones((GEO.height, GEO.width))
        out = sim.interpolate_linear(sim.FrameSequence(GEO, 30.0, base), 4)
        expected = np.linspace(0.0, 1.0, 13)
        assert out.frames.shape[0] == 13
        assert np.allclose(out.frames[:, 0, 0], expected)

    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            sim.interpolate_linear(const_frames(0.1, 2), 0)


class TestFramesToEvents:
    def test_constant_video_no_noise_is_silent(self):
        stream = sim.frames_to_events(const_frames(0.5, 20), quiet_params())
        assert len(stream) == 0

    def test_frames_of_another_shape_fail_before_any_chunk(self, rng):
        # on an 8-wide, 6-high sensor, (W, H) frames hold as many pixels
        geometry = SensorGeometry(8, 6)
        transposed = rng.uniform(0.05, 0.95, (3, 8, 6))
        with pytest.raises(GeometryMismatch, match=r"^frame shape \(8, 6\) "):
            sim.iter_events(iter(transposed), geometry, 100.0, quiet_params())
        # a later frame of another shape fails when it is drawn
        good = rng.uniform(0.05, 0.95, (2, 6, 8))
        chunks = sim.iter_events([*good, transposed[2]], geometry, 100.0, quiet_params())
        assert len(next(chunks)[0]) > 0
        with pytest.raises(GeometryMismatch, match=r"^frame shape \(8, 6\) "):
            next(chunks)

    def test_step_emits_threshold_count(self):
        theta = 0.2
        eps = 0.02
        i0 = 0.2
        # step just past two full crossings; floor gives exactly 2 events
        l0 = math.log(i0 + eps)
        i1 = math.exp(l0 + 2.05 * theta) - eps
        frames = np.full((2, GEO.height, GEO.width), i0)
        frames[1, 5, 5] = i1
        f = sim.FrameSequence(GEO, 100.0, frames)
        stream = sim.frames_to_events(f, quiet_params(theta_pos=theta, eps=eps))
        assert len(stream) == 2
        assert all(e.x == 5 and e.y == 5 and e.polarity == 1 for e in stream)
        assert all(0 <= e.t <= 10_000 for e in stream)

    def test_negative_step(self):
        theta = 0.15
        eps = 0.02
        l1 = math.log(0.9 + eps)
        frames = np.full((2, GEO.height, GEO.width), 0.9)
        frames[1, 2, 3] = math.exp(l1 - 3.1 * theta) - eps
        f = sim.FrameSequence(GEO, 100.0, frames)
        stream = sim.frames_to_events(f, quiet_params(theta_neg=theta, eps=eps))
        assert len(stream) == 3
        assert all(e.polarity == -1 for e in stream)

    def test_analytic_ramp(self):
        # log intensity rises linearly by 10.00x thresholds over one second
        eps = 0.02
        fps = 25.0
        frames_count = 26
        l0 = math.log(0.1 + eps)
        l1 = math.log(0.9 + eps)
        theta = (l1 - l0) / 10.0001
        t_axis = np.arange(frames_count) / (frames_count - 1)
        levels = l0 + (l1 - l0) * t_axis
        pixel = np.exp(levels) - eps
        frames = np.tile(pixel[:, None, None], (1, GEO.height, GEO.width))
        f = sim.FrameSequence(GEO, fps, frames)
        stream = sim.frames_to_events(f, quiet_params(theta_pos=theta,
                                                      theta_neg=theta, eps=eps))
        per_pixel = 10
        assert len(stream) == per_pixel * GEO.num_pixels
        duration_us = (frames_count - 1) / fps * 1e6
        frame_us = duration_us / (frames_count - 1)
        slope = (l1 - l0) / duration_us
        ts = np.sort(stream.t[(stream.x == 0) & (stream.y == 0)]).astype(np.float64)
        expected = np.array([j * theta / slope for j in range(1, per_pixel + 1)])
        assert np.all(np.abs(ts - expected) <= frame_us + 1.0)

    def test_conservation_with_residual_carry(self, rng):
        # event count equals full crossings of the cumulative log change
        frames = rng.uniform(0.05, 0.95, size=(12, GEO.height, GEO.width))
        theta = 0.17
        eps = 0.02
        f = sim.FrameSequence(GEO, 50.0, frames)
        stream = sim.frames_to_events(f, quiet_params(theta_pos=theta,
                                                      theta_neg=theta, eps=eps))
        log_frames = np.log(frames + eps)
        counts = np.zeros((GEO.height, GEO.width), dtype=np.int64)
        for y in range(GEO.height):
            for x in range(GEO.width):
                ref = log_frames[0, y, x]
                total = 0
                for i in range(1, len(frames)):
                    d = log_frames[i, y, x] - ref
                    n = math.floor(abs(d) / theta) if d != 0 else 0
                    if d < 0:
                        ref -= n * theta
                    else:
                        ref += n * theta
                    total += n
                counts[y, x] = total
        got = np.zeros_like(counts)
        np.add.at(got, (stream.y.astype(int), stream.x.astype(int)), 1)
        assert np.array_equal(got, counts)

    def test_dark_pixels_noisier_than_bright(self):
        fps = 10.0
        n_frames = 101  # ten seconds
        shot = 20.0
        params = sim.PixelModelParams(shot_noise_scale=shot, seed=7)
        dark = sim.frames_to_events(const_frames(0.1, n_frames, fps=fps), params)
        bright = sim.frames_to_events(const_frames(0.9, n_frames, fps=fps), params)
        duration_s = (n_frames - 1) / fps
        mu_dark = shot * 0.9 * duration_s * GEO.num_pixels
        mu_bright = shot * (1.0 - 0.9) * duration_s * GEO.num_pixels
        assert abs(len(dark) - mu_dark) <= 3.0 * math.sqrt(mu_dark)
        assert abs(len(bright) - mu_bright) <= 3.0 * math.sqrt(mu_bright)

    def test_leak_only_noise(self):
        params = sim.PixelModelParams(leak_rate_hz=5.0, seed=3)
        stream = sim.frames_to_events(const_frames(0.5, 51, fps=10.0), params)
        mu = 5.0 * 5.0 * GEO.num_pixels
        assert abs(len(stream) - mu) <= 3.0 * math.sqrt(mu)
        assert set(np.unique(stream.p)) <= {-1, 1}

    def test_hot_pixel(self):
        params = sim.PixelModelParams(hot_pixels=((4, 7),), hot_pixel_rate_hz=100.0,
                                      seed=5)
        stream = sim.frames_to_events(const_frames(0.5, 21, fps=10.0), params)
        assert len(stream) > 0
        assert np.all(stream.x == 4)
        assert np.all(stream.y == 7)

    def test_deterministic_given_seed(self, rng):
        frames = rng.uniform(0.1, 0.9, size=(6, GEO.height, GEO.width))
        f = sim.FrameSequence(GEO, 30.0, frames)
        params = sim.PixelModelParams(shot_noise_scale=10.0, leak_rate_hz=1.0, seed=42)
        a = sim.frames_to_events(f, params)
        b = sim.frames_to_events(f, params)
        assert serialize_stream(a) == serialize_stream(b)

    def test_timestamps_sorted_and_bounded(self, rng):
        frames = rng.uniform(0.1, 0.9, size=(8, GEO.height, GEO.width))
        f = sim.FrameSequence(GEO, 40.0, frames)
        stream = sim.frames_to_events(f, sim.PixelModelParams(shot_noise_scale=5.0,
                                                              seed=1))
        assert np.all(np.diff(stream.t.astype(np.int64)) >= 0)
        assert stream.t.min(initial=0) >= 0
        assert stream.t.max(initial=0) <= f.frame_time_us(7)

    def test_still_pixel_one_threshold_off_gets_finite_time(self):
        # float rounding leaves this pixel exactly one threshold from its
        # reference while it holds still between the last two frames
        geometry = SensorGeometry(1, 1)
        levels = np.array([174, 219, 187, 115, 109, 120, 174, 174]) / 255.0
        f = sim.FrameSequence(geometry, 100.0, levels[:, None, None])
        stream = sim.frames_to_events(f, sim.PixelModelParams())
        assert stream.t.max() <= f.frame_time_us(len(f) - 1)
        assert int(stream.t[5]) == f.frame_time_us(6)

    @pytest.mark.parametrize("params, factor", [
        (quiet_params(theta_pos=0.13, theta_neg=0.27), 1),
        (sim.PixelModelParams(leak_rate_hz=30.0, seed=11), 1),
        (sim.PixelModelParams(shot_noise_scale=40.0, theta_neg=0.31, seed=12), 1),
        (sim.PixelModelParams(leak_rate_hz=2.0, hot_pixels=((1, 2), (1, 2), (5, 0)),
                              hot_pixel_rate_hz=300.0, seed=13), 1),
        (sim.PixelModelParams(shot_noise_scale=20.0, theta_pos=0.11, seed=14), 2),
    ], ids=["thresholds", "leak", "shot", "hot", "interpolated"])
    def test_matches_scalar_oracle(self, rng, params, factor):
        geometry = SensorGeometry(6, 5)
        frames = rng.uniform(0.05, 0.95, size=(7, geometry.height, geometry.width))
        frames[:, 0, 0] = frames[0, 0, 0]  # one pixel that never changes
        f = sim.interpolate_linear(sim.FrameSequence(geometry, 50.0, frames), factor)
        got = sim.frames_to_events(f, params)
        assert len(got) > 0
        assert serialize_stream(got) == serialize_stream(frames_to_events_direct(f, params))

    def test_still_pixel_one_threshold_off_matches_scalar_oracle(self):
        levels = np.array([174, 219, 187, 115, 109, 120, 174, 174]) / 255.0
        f = sim.FrameSequence(SensorGeometry(1, 1), 100.0, levels[:, None, None])
        params = sim.PixelModelParams()
        assert serialize_stream(sim.frames_to_events(f, params)) == \
            serialize_stream(frames_to_events_direct(f, params))

    def test_threshold_edges_match_scalar_oracle(self):
        # each pixel moves k thresholds from its first level, then a few
        # float64 steps either way, so the quotient the counts floor lands
        # on, just under and just over whole numbers of either sign
        eps, theta_pos, theta_neg = 0.02, 0.13, 0.29
        ks, nudges = np.array([-3, -2, -1, 1, 2, 3, 0]), np.arange(-3, 4)
        geometry = SensorGeometry(len(nudges), len(ks))  # the k = 0 row holds still
        base = 0.3 + 0.004 * np.arange(ks.size * nudges.size).reshape(ks.size, nudges.size)
        l0 = np.log(base + eps)
        k = np.broadcast_to(ks[:, None], l0.shape)
        edge = np.exp(l0 + np.where(k > 0, k * theta_pos, k * theta_neg)) - eps
        for n in nudges:
            for _ in range(abs(n)):
                edge[:-1, n + 3] = np.nextafter(edge[:-1, n + 3], n * np.inf)
        q = np.log(edge + eps) - l0
        q = np.where(k > 0, q / theta_pos, q / theta_neg)
        for rows in (k > 0, k < 0):
            assert {-1, 0, 1} <= set(np.sign(q - k)[rows].tolist())

        f = sim.FrameSequence(geometry, 100.0, np.stack([base, edge, base, edge, edge]))
        params = quiet_params(theta_pos=theta_pos, theta_neg=theta_neg, eps=eps)
        got = sim.frames_to_events(f, params)
        assert len(got) > 0
        assert serialize_stream(got) == serialize_stream(frames_to_events_direct(f, params))

    def test_sparse_scene_matches_whole_clip_oracle(self):
        # a soft-edged bright bar sweeping across half the rows of a 64x48
        # sensor: its leading edge fires positive, its trailing edge
        # negative, and few pixels fire per interval
        n, geometry = 30, SensorGeometry(64, 48)
        columns = np.arange(geometry.width)[None, None, :]
        position = 8.0 + 1.7 * np.arange(n)[:, None, None]
        bar = np.clip((6.0 - np.abs(columns - position)) / 3.0, 0.0, 1.0)
        frames = np.full((n, geometry.height, geometry.width), 0.15)
        frames[:, 12:36] += 0.7 * bar
        f = sim.FrameSequence(geometry, 100.0, frames)
        params = sim.PixelModelParams(theta_pos=0.17, theta_neg=0.23, leak_rate_hz=1.0,
                                      shot_noise_scale=2.0, hot_pixels=((3, 4), (60, 40)),
                                      hot_pixel_rate_hz=400.0, seed=21)
        got = sim.frames_to_events(sim.interpolate_linear(f, 2), params)
        # under 10% of the pixels fire in a 5 ms interval, on average
        fired = np.unique((got.t // 5000).astype(np.int64) * frames[0].size
                          + got.y.astype(np.int64) * geometry.width + got.x)
        assert 0 < fired.size < 0.1 * frames[0].size * (n - 1) * 2
        assert serialize_stream(got) == serialize_stream(
            frames_to_events_whole_clip(interpolate_whole_clip(f, 2), params))

    @pytest.mark.parametrize("fps, offset_type", [
        (10_000.0, np.uint8), (100.0, np.uint16), (10.0, np.uint32)])
    def test_interval_sort_at_each_offset_width_matches_whole_clip_oracle(
            self, rng, fps, offset_type):
        """Each interval is sorted by its offsets from t0 in the smallest type
        that holds t1 - t0; its chunks still join to the one global stable
        sort, with crossings and noise tied on some rounded microseconds."""
        geometry = SensorGeometry(32, 24)
        f = sim.FrameSequence(geometry, fps, rng.uniform(0.05, 0.95, (5, 24, 32)))
        interval_us = f.frame_time_us(1)
        assert np.min_scalar_type(interval_us) == offset_type
        # about 500 noise events per interval, whatever its length
        rate_hz = 1.3e6 / interval_us
        params = sim.PixelModelParams(theta_pos=0.1, theta_neg=0.13, shot_noise_scale=rate_hz,
                                      hot_pixels=((2, 3), (30, 20)),
                                      hot_pixel_rate_hz=10 * rate_hz, seed=5)
        chunks = list(sim.iter_events(f.frames, geometry, fps, params))
        got = EventStream(geometry, *(np.concatenate(col) for col in zip(*chunks)))
        assert serialize_stream(got) == serialize_stream(frames_to_events_whole_clip(f, params))
        # the noise draws do not depend on the thresholds, so these two runs
        # hold the crossings and the noise of the run above
        crossings = sim.frames_to_events(f, dataclasses.replace(
            params, shot_noise_scale=0.0, hot_pixel_rate_hz=0.0))
        noise = sim.frames_to_events(f, dataclasses.replace(params, theta_pos=1e9, theta_neg=1e9))
        assert len(crossings) + len(noise) == len(got)
        assert np.intersect1d(crossings.t, noise.t).size > 0

    def test_peak_memory_is_per_frame_not_per_clip(self):
        # a slow edge: the bright side advances by 0.16 px a frame
        n, geometry = 400, SensorGeometry(64, 48)
        edge = np.arange(n)[:, None, None] * geometry.width / n
        columns = np.arange(geometry.width)[None, None, :]
        frames = np.broadcast_to(np.where(columns < edge, 0.8, 0.2),
                                 (n, geometry.height, geometry.width))
        f = sim.FrameSequence(geometry, 1000.0, frames)
        tracemalloc.start()
        try:
            stream = sim.frames_to_events(f, quiet_params())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) > 0
        assert peak < f.frames.nbytes / 2

    def test_single_frame_rejected(self):
        with pytest.raises(EmptySequence):
            sim.frames_to_events(const_frames(0.5, 1), quiet_params())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            sim.PixelModelParams(theta_pos=0.0)
        with pytest.raises(ConfigError):
            sim.PixelModelParams(eps=1.5)
        with pytest.raises(ConfigError):
            sim.PixelModelParams(leak_rate_hz=-1.0)
        with pytest.raises(ConfigError):
            sim.PixelModelParams(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, None])
    def test_seed_that_is_not_an_integer_is_refused_at_construction(self, seed):
        # refused whether or not the run would draw noise, never at its first chunk
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            sim.PixelModelParams(seed=seed)

    def test_numpy_integer_seed_is_a_seed(self):
        f = sim.FrameSequence(GEO, 100.0, np.random.default_rng(1).uniform(0.1, 0.9, (3, 12, 16)))
        got, want = (sim.frames_to_events(f, sim.PixelModelParams(seed=seed, shot_noise_scale=50.0))
                     for seed in (np.int64(7), 7))
        assert serialize_stream(got) == serialize_stream(want)


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        cam = simple_camera(f=300.0, cx=160.0, cy=120.0)
        s = sim.SkeletonFrame(t_us=0, joints=np.tile([0.0, 0.0, 1000.0], (13, 1)),
                              frame="camera")
        uv = project_camera_points(cam, sim.skeleton_camera_joints(s, cam))
        assert np.allclose(uv, [160.0, 120.0])

    def test_translation_matches_matrix_oracle(self, rng):
        intrinsic = np.array([[400.0, 0.0, 170.0], [0.0, 380.0, 125.0], [0.0, 0.0, 1.0]])
        extrinsic = np.hstack([np.eye(3), np.array([[50.0], [-30.0], [200.0]])])
        cam = CameraModel(intrinsic=intrinsic, extrinsic=extrinsic)
        joints = np.column_stack([rng.uniform(-200, 200, 13),
                                  rng.uniform(-200, 200, 13),
                                  rng.uniform(500, 2000, 13)])
        s = sim.SkeletonFrame(t_us=0, joints=joints, frame="world")
        uv = project_camera_points(cam, sim.skeleton_camera_joints(s, cam))
        for j in range(13):
            hom = intrinsic @ (extrinsic @ np.append(joints[j], 1.0))
            assert np.allclose(uv[j], hom[:2] / hom[2])

    def test_behind_camera(self):
        cam = simple_camera()
        joints = np.tile([0.0, 0.0, 1000.0], (13, 1))
        joints[4, 2] = -5.0
        s = sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")
        with pytest.raises(BehindCamera):
            project_camera_points(cam, sim.skeleton_camera_joints(s, cam))
        # a label cannot hold NaN, but a camera-frame point can
        joints[4, 2] = math.nan
        with pytest.raises(BehindCamera) as info:
            project_camera_points(cam, joints)
        assert info.value.point == 4


class TestNormalization:
    def test_head_depth_is_zero(self, rng):
        cam = simple_camera()
        s = camera_frame_skeleton(rng)
        norm = sim.normalize_labels(s, cam)
        assert norm[s.head_index(), 2] == 0.0

    def test_round_trip(self, rng):
        for trial in range(20):
            cam = simple_camera(f=float(rng.uniform(200, 700)),
                                cx=float(rng.uniform(100, 250)),
                                cy=float(rng.uniform(80, 200)))
            s = camera_frame_skeleton(rng)
            norm = sim.normalize_labels(s, cam)
            depth = sim.head_depth_mm(s, cam)
            back = denormalize(norm, cam, depth)
            assert np.allclose(back.joints, s.joints, rtol=1e-9, atol=1e-9)

    def test_cube_corner_maps_to_frustum_corner(self):
        cam = simple_camera(f=300.0, cx=150.0, cy=100.0)
        z_ref = 2000.0
        ax = cam.cx * z_ref / cam.fx
        ay = cam.cy * z_ref / cam.fy
        z = z_ref + ax
        joints = np.tile([0.0, 0.0, z_ref], (13, 1))
        joints[1] = [ax * z / z_ref, ay * z / z_ref, z]  # corner joint
        s = sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")
        norm = sim.normalize_labels(s, cam)
        assert np.allclose(norm[1], [1.0, 1.0, 1.0])

    # cameras whose data send a normalized joint past float64: cx = cy = 0
    # divides by a zero half extent, and an extrinsic gain of 1e308 on x
    # overflows the head's x
    @pytest.mark.parametrize("camera", ["centre at 0", "x gain 1e308"])
    def test_non_finite_position_names_label_and_joint(self, camera):
        joints = np.tile([2.0, -1.0, 1000.0], (13, 1))
        s = sim.SkeletonFrame(t_us=7, joints=joints, frame="world")
        cam = simple_camera(cx=0.0, cy=0.0) if camera == "centre at 0" else CameraModel(
            simple_camera().intrinsic, np.diag([1e308, 1.0, 1.0, 1.0])[:3])
        with pytest.raises(NonFinite, match=r"^label t_us 7, joint 'head': normalized "
                                            r"position \[.*\] is not finite$"):
            sim.normalize_labels(s, cam)
        # with heatmaps, as simulate asks, the same joint has no mass
        with pytest.raises(ZeroMass, match=r"^label t_us 7, joint 'head': plane xy at \(inf,"):
            sim.normalize_labels(s, cam, (8, 2.0))

    @pytest.mark.parametrize("heatmap", [None, (8, 2.0)])
    def test_head_at_infinite_depth_is_a_data_error(self, heatmap):
        cam = CameraModel(simple_camera().intrinsic, np.diag([1.0, 1.0, 1e306, 1.0])[:3])
        s = sim.SkeletonFrame(t_us=7, joints=np.tile([2.0, -1.0, 1000.0], (13, 1)),
                              frame="world")
        with pytest.raises(NonFinite, match=r"^label t_us 7, joint 'head': reference depth "
                                            r"must be positive and finite, got inf$"):
            sim.normalize_labels(s, cam, heatmap)

    def test_behind_camera_rejected(self):
        cam = simple_camera()
        joints = np.tile([0.0, 0.0, 1000.0], (13, 1))
        joints[0, 2] = -10.0
        s = sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")
        with pytest.raises(BehindCamera):
            sim.normalize_labels(s, cam)
        # NaN depth, which a label cannot hold, either way through the cube
        nan_point = [[0.0, 0.0, 1.0], [0.0, 0.0, math.nan]]
        for convert in (normalize_camera_points, denormalize_camera_points):
            with pytest.raises(BehindCamera) as info:
                convert(cam, nan_point, 1000.0)
            assert info.value.point == 1

    def test_cube_origin_lands_on_optical_axis_at_head_depth(self):
        cam = simple_camera()
        head_depth = 1500.0
        back = denormalize(np.zeros((13, 3)), cam, head_depth)
        assert np.allclose(back.joints, [0.0, 0.0, head_depth])

    def test_invalid_head_depth(self):
        from evpose.errors import InvalidDepth

        cam = simple_camera()
        with pytest.raises(InvalidDepth):
            denormalize(np.zeros((13, 3)), cam, 0.0)

    @pytest.mark.parametrize("z_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_depth(self, z_ref):
        with pytest.raises(InvalidDepth):
            view_half_extents(simple_camera(), z_ref)


@functools.lru_cache(maxsize=64)
def mass_edge(resolution, sigma):
    """The last depth b whose plane centred at col 0, row b keeps mass, and
    the next float, which leaves none, found by summing whole planes."""
    centers = cell_centers(resolution)
    sig = sigma * 2.0 / resolution

    def mass(a, b):
        return np.exp(-((centers[None, :] - a) ** 2 + (centers[:, None] - b) ** 2)
                      / (2.0 * sig * sig)).sum()

    inside, outside = 1.0, 1e3
    while np.nextafter(inside, outside) < outside:
        mid = (inside + outside) / 2
        inside, outside = (mid, outside) if mass(0.0, mid) > 0 else (inside, mid)
    assert mass(0.0, outside) == 0 < mass(0.0, inside)
    return inside, outside


class TestHeatmaps:
    def test_centered_joint(self):
        stack = sim.make_heatmaps(np.zeros((1, 3)), resolution=16, sigma=2.0)
        assert stack.shape == (3, 16, 16) and stack.dtype == np.float64
        for grid in stack:
            assert abs(grid.sum() - 1.0) < 1e-6
            assert np.allclose(soft_argmax(grid), [0.0, 0.0], atol=1e-12)
            # symmetric plateau around the center for even resolutions
            assert grid[7, 7] == grid.max()

    @pytest.mark.parametrize("resolution", [8, 16])
    def test_zero_joints_make_an_empty_stack_that_fuses_to_no_joints(self, resolution):
        stack = sim.make_heatmaps(np.zeros((0, 3)), resolution)
        assert stack.shape == (0, resolution, resolution) and stack.dtype == np.float64
        assert fuse_planes(Heatmaps(stack)).shape == (0, 3)

    def test_sums_to_one(self, rng):
        joints = rng.uniform(-0.8, 0.8, size=(13, 3))
        stack = sim.make_heatmaps(joints, resolution=32, sigma=1.5)
        assert stack.shape == (39, 32, 32)
        for grid in stack:
            assert abs(grid.sum() - 1.0) < 1e-6

    def test_soft_argmax_recovers_joint(self, rng):
        resolution = 64
        cell = 2.0 / resolution
        joints = rng.uniform(-0.7, 0.7, size=(8, 3))
        stack = sim.make_heatmaps(joints, resolution=resolution, sigma=2.0)
        for j, (x, y, z) in enumerate(joints):
            xy, xz, zy = stack[3 * j:3 * j + 3]
            ax, ay = soft_argmax(xy)
            bx, bz = soft_argmax(xz)
            cz, cy_ = soft_argmax(zy)
            for got, want in ((ax, x), (ay, y), (bx, x), (bz, z), (cz, z), (cy_, y)):
                assert abs(got - want) <= 0.5 * cell

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n_joints=st.integers(1, 13),
           resolution=st.sampled_from([8, 9, 33, 64]),
           sigma=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 10.0]), st.floats(0.5, 10.0)))
    def test_stack_is_the_per_plane_oracle_bit_for_bit(self, data, n_joints, resolution,
                                                       sigma):
        """Random joints in the cube, often one coordinate moved to either
        side of the underflow edge: the stack equals the per-plane oracle's
        bits, every plane is a distribution, and ZeroMass is raised exactly
        when an oracle plane has no mass to divide by."""
        inside, outside = mass_edge(resolution, sigma)
        joints = np.reshape(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=3 * n_joints,
                                               max_size=3 * n_joints)), (n_joints, 3))
        edge = data.draw(st.none() | st.tuples(
            st.integers(0, joints.size - 1), st.sampled_from([inside, -inside, outside, -outside])))
        if edge is not None:
            joints.flat[edge[0]] = edge[1]
        with np.errstate(invalid="ignore"):
            want = heatmaps_per_plane(joints, resolution, sigma)
        if not np.isfinite(want).all():
            with pytest.raises(ZeroMass):
                sim.make_heatmaps(joints, resolution, sigma)
            return
        got = sim.make_heatmaps(joints, resolution, sigma)
        assert got.shape == (3 * n_joints, resolution, resolution)
        assert got.tobytes() == want.tobytes()
        assert got.min() >= 0
        assert np.all(np.abs(got.reshape(len(got), -1).sum(axis=1) - 1.0)
                      <= DISTRIBUTION_ATOL)

    def test_peak_memory_is_the_stack(self, rng):
        # the operations run in place, so no R^2 temporary sits beside the stack
        resolution = 256
        joints = rng.uniform(-0.8, 0.8, size=(13, 3))
        tracemalloc.start()
        try:
            stack = sim.make_heatmaps(joints, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.nbytes == 312 * resolution**2
        assert peak <= 1.25 * stack.nbytes

    def test_mass_check_meets_the_grid_at_the_underflow_edge(self):
        """The last depth whose planes keep mass, and the next float, which
        leaves none, found by summing whole planes: the one-cell check agrees."""
        resolution, sigma = 16, 2.0
        inside, outside = mass_edge(resolution, sigma)
        stack = sim.make_heatmaps([[0.0, 0.0, inside]], resolution, sigma)
        for grid in stack:
            assert np.isfinite(grid).all() and abs(grid.sum() - 1.0) < 1e-6
        joints = np.zeros((3, 3))
        joints[1, 2] = outside
        with pytest.raises(ZeroMass, match=r"^plane xz at \(0.000,") as info:
            sim.make_heatmaps(joints, resolution, sigma)
        assert info.value.point == 1
        joints[1] = [-outside, 0.0, 0.0]  # the edge is the same on the far side of x
        with pytest.raises(ZeroMass, match=r"^plane xy at "):
            sim.check_heatmap_mass(joints, resolution, sigma)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            sim.make_heatmaps(np.zeros((1, 3)), resolution=4)
        with pytest.raises(ConfigError):
            sim.make_heatmaps(np.zeros((1, 3)), sigma=0.0)


class TestSkeletonIO:
    def test_csv_round_trip(self, tmp_path, rng):
        frames = [sim.SkeletonFrame(t_us=i * 3333, joints=rng.normal(size=(13, 3)) * 100)
                  for i in range(5)]
        path = tmp_path / "skeleton.csv"
        sim.write_skeleton_csv(path, frames)
        back = sim.read_skeleton_csv(path)
        assert len(back) == 5
        for a, b in zip(frames, back):
            assert a.t_us == b.t_us
            assert np.array_equal(a.joints, b.joints)

    def test_missing_joint_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,joint_name,x_mm,y_mm,z_mm\n0,head,1.0,2.0,3.0\n")
        with pytest.raises(DataError):
            sim.read_skeleton_csv(path)

    def test_duplicate_joint_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,joint_name,x_mm,y_mm,z_mm\n"
                        "0,head,1,2,3\n0,head,4,5,6\n")
        with pytest.raises(DataError):
            sim.read_skeleton_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0,head,1,2\n", "line 2: expected 5 fields, got 4"),
        ("0,head,1,2,3\n0,neck,1,2,3,4\n", "line 3: expected 5 fields, got 6"),
        ("0,head,1,2,3\n0,neck,1,y,3\n", "line 3: .*'y'"),
        ("0.5,head,1,2,3\n", "line 2: .*'0.5'"),
        ("0,nose,1,2,3\n", "line 2: unknown joint name 'nose'"),
        ("0,head,1,2,3\n0,head,4,5,6\n", "line 3: duplicate joint 'head'"),
        # a label time is a u64 us count; the line is the label's first
        *((f"{t},hand_r,1,2,3\n{t},head,1,2,3\n",
           rf"line 2: t_us must lie in \[0, {2**64 - 1}\], got {t}") for t in (-5, 2**64, 2**70)),
    ])
    def test_malformed_row_is_data_error_naming_its_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,joint_name,x_mm,y_mm,z_mm\n" + body)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            sim.read_skeleton_csv(path)

    @pytest.mark.parametrize("t", [-1, 2**64])
    def test_frame_time_outside_u64_is_a_data_error(self, t):
        with pytest.raises(DataError, match="t_us must lie in"):
            sim.SkeletonFrame(t_us=t, joints=np.zeros((13, 3)))
        sim.SkeletonFrame(t_us=2**64 - 1, joints=np.zeros((13, 3)))


class TestCameraIO:
    def test_camera_file_round_trip(self, tmp_path, rng):
        from oracles import random_camera

        cam = random_camera(rng)
        path = tmp_path / "camera.txt"
        save_camera(path, cam)
        back = load_camera(path)
        assert np.array_equal(back.intrinsic, cam.intrinsic)
        assert np.array_equal(back.extrinsic, cam.extrinsic)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "camera.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(DataError):
            load_camera(path)


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.random((12, 16))
        sim.write_pgm(tmp_path / "0.pgm", img)
        (tmp_path / "manifest.json").write_text(json.dumps({"fps": 30, "width": 16, "height": 12}))
        back = sim.list_frames(tmp_path).read(0)
        assert back.shape == img.shape and back.dtype == np.float64
        assert np.allclose(back, img, atol=1.0 / 255.0 / 2.0 + 1e-12)

    def test_frame_directory(self, tmp_path, rng):
        d = tmp_path / "frames"
        d.mkdir()
        frames = rng.random((4, 12, 16))
        for i, frame in enumerate(frames):
            sim.write_pgm(d / f"{i:04d}.pgm", frame)
        (d / "manifest.json").write_text(json.dumps(
            {"fps": 60.0, "width": 16, "height": 12}))
        seq = sim.load_frame_sequence(d)
        assert len(seq) == 4
        assert seq.fps == 60.0
        assert seq.geometry == SensorGeometry(16, 12)

    def test_f32_directory(self, tmp_path, rng):
        d = tmp_path / "frames"
        d.mkdir()
        frames = rng.random((3, 6, 8)).astype("<f4")
        for i, frame in enumerate(frames):
            frame.tofile(d / f"{i}.f32")
        (d / "manifest.json").write_text(json.dumps(
            {"fps": 30, "width": 8, "height": 6, "format": "f32"}))
        seq = sim.load_frame_sequence(d)
        assert np.allclose(seq.frames, frames.astype(np.float64))

    def test_mask_directory(self, tmp_path):
        d = tmp_path / "masks"
        d.mkdir()
        mask = np.zeros((12, 16))
        mask[3:6, 4:9] = 1.0
        sim.write_pgm(d / "0.pgm", mask)
        (d / "manifest.json").write_text(json.dumps(
            {"fps": 60.0, "width": 16, "height": 12}))
        seq = sim.load_mask_sequence(d)
        assert np.array_equal(seq.masks[0], mask.astype(bool))

    def test_missing_manifest(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        with pytest.raises(DataError):
            sim.load_frame_sequence(d)

