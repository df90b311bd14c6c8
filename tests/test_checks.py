"""The two shared input rules and the non-finite values they catch.

Every closed-interval check goes through `errors.check_range`, and every
image-versus-geometry check through `SensorGeometry.check_shape`. Each
site keeps its own error type and names its value in the message. NaN
and +-inf lie in no finite interval, and a non-finite setting is a typed
error, never a silent NaN result.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from evpose import camera, gating, metrics
from evpose import pose_math as pm
from evpose import representations as rep
from evpose import simulator as sim
from evpose.errors import (
    ConfigError,
    DataError,
    FpsMismatch,
    GeometryMismatch,
    InvalidDistribution,
    MAX_ARRAY_BYTES,
    ProbabilityOutOfRange,
    check_budget,
    check_range,
)
from evpose.events import SensorGeometry

GEO = SensorGeometry(width=6, height=4)


def _volume(query_time_us=0):
    return rep.ToreVolume(GEO, np.zeros((2, GEO.height, GEO.width), np.float32),
                          query_time_us)


def _plan_scores(v):
    gating.MaskPlan(masks=np.zeros((2, GEO.height, GEO.width), bool), scores=[1.0, v])


def _soft_mask(v):
    gating.binarize_mask(np.array([[0.5, v]]))


def _beta(v):
    backend = gating.ReferenceMaskBackend()
    list(gating.iter_schedule([_volume()], backend, v))


def _external_scores(v):
    gating.ExternalMaskBackend(np.zeros((2, GEO.height, GEO.width), bool), 10, 0, 2,
                               np.array([[1.0, 1.0], [1.0, v]]))


def _bce(v):
    pm.bce(np.array([0.0, 1.0]), np.array([0.5, v]))


def _mask_loss(v):
    masks = np.full((2, 3, 3), 0.5)
    pm.mask_loss(masks, masks > 0.4, np.array([1.0, v]))


def _step(v):
    pm.gradient_check(lambda x: float((x ** 2).sum()), lambda x: 2 * x, np.ones(2), v)


def _occlude(v):
    metrics.occlude(_volume(), v, np.random.default_rng(0))


def _frames(v):
    frames = np.full((2, GEO.height, GEO.width), 0.5)
    frames[1, 2, 3] = v
    sim.FrameSequence(GEO, 30.0, frames)


def _frame_file(v):
    frame = np.full((GEO.height, GEO.width), 0.5, dtype="<f4")
    frame[2, 3] = v
    with tempfile.TemporaryDirectory() as d:
        frame.tofile(Path(d) / "0000.f32")
        (Path(d) / "manifest.json").write_text(json.dumps(
            {"fps": 30, "width": GEO.width, "height": GEO.height, "format": "f32"}))
        sim.list_frames(d).read(0)


# site: (call, lo, hi, error type, name in the message, dtype the value is stored in)
RANGE_SITES = {
    "MaskPlan.scores": (_plan_scores, 0, 1, ProbabilityOutOfRange, "plan scores", np.float64),
    "binarize_mask": (_soft_mask, 0, 1, ProbabilityOutOfRange, "soft mask values", np.float64),
    "iter_schedule.beta": (_beta, 0, 1, ConfigError, "beta", np.float64),
    "ReferenceMaskBackend.activity_percentile": (
        lambda v: gating.ReferenceMaskBackend(activity_percentile=v), 0, 100, ConfigError,
        "activity_percentile", np.float64),
    "ExternalMaskBackend.scores": (_external_scores, 0, 1, ProbabilityOutOfRange,
                                   "external scores", np.float64),
    "bce": (_bce, 0, 1, ProbabilityOutOfRange, "probabilities", np.float64),
    "mask_loss": (_mask_loss, 0, 1, ProbabilityOutOfRange, "scores", np.float64),
    "gradient_check.step": (_step, 1e-6, 1e-3, DataError, "step", np.float64),
    "occlude.prob": (_occlude, 0, 1, ConfigError, "prob", np.float64),
    "FrameSequence.frames": (_frames, 0, 1, DataError, "frame intensities", np.float64),
    "FrameDirectory.read": (_frame_file, 0, 1, DataError, "frame intensities", np.float32),
}


def _outside(lo, hi, dtype):
    """NaN, both infinities and the nearest stored value past each bound."""
    return [math.nan, math.inf, -math.inf,
            float(np.nextafter(dtype(lo), dtype(-np.inf))),
            float(np.nextafter(dtype(hi), dtype(np.inf)))]


@pytest.mark.parametrize("site", RANGE_SITES)
def test_range_site_rejects_values_outside_and_accepts_both_bounds(site):
    call, lo, hi, error, name, dtype = RANGE_SITES[site]
    for v in _outside(lo, hi, dtype):
        with pytest.raises(error, match=name):
            call(v)
    for v in (lo, hi):
        call(v)


class TestCheckRange:
    def test_returns_its_argument(self):
        a = np.array([0.0, 0.5, 1.0])
        assert check_range("a", a, 0, 1) is a
        assert check_range("x", 0.25, 0, 1) == 0.25

    def test_empty_array_passes(self):
        check_range("a", np.zeros(0), 0, 1)

    def test_message_names_the_value_and_the_interval(self):
        with pytest.raises(ConfigError, match=r"^beta must lie in \[0, 1\], got nan$"):
            check_range("beta", math.nan, 0, 1)
        with pytest.raises(DataError, match=r"^frames must lie in \[0, 1\]$"):
            check_range("frames", np.array([0.5, 2.0]), 0, 1, DataError)


class TestCheckBudget:
    def test_the_budget_passes_and_one_byte_more_names_setting_and_bytes(self):
        check_budget("k", 1, MAX_ARRAY_BYTES)
        with pytest.raises(ConfigError, match=rf"^k = 2 asks for {MAX_ARRAY_BYTES + 1} bytes, "
                                              rf"more than the {MAX_ARRAY_BYTES}-byte budget$"):
            check_budget("k", 2, MAX_ARRAY_BYTES + 1)

    # petabyte requests: were a check missing, the allocation would fail at
    # once rather than fill memory
    def test_each_site_checks_before_it_allocates(self):
        big = 2**50
        with pytest.raises(ConfigError, match=f"^k = {big} asks for {16 * big * GEO.num_pixels} "):
            rep.ToreState(GEO, k=big)
        plan_bytes = f"^horizon = {big} asks for {big * GEO.num_pixels} "
        with pytest.raises(ConfigError, match=plan_bytes):
            gating.ReferenceMaskBackend(horizon=big).check_geometry(GEO)
        with pytest.raises(ConfigError, match=plan_bytes):
            gating.ReferenceMaskBackend(horizon=big).predict(_volume())
        with pytest.raises(ConfigError, match=plan_bytes):  # a plan outweighs 2 scores
            gating.ExternalMaskBackend(np.zeros((2, GEO.height, GEO.width), bool), 10, 0, big)
        with pytest.raises(ConfigError, match=f"^horizon = {big} asks for {8 * 10**6 * big} "):
            gating.ExternalMaskBackend(np.zeros((10**6, 1, 1), bool), 10, 0, big)


def _transposed(ndim):
    """An all-zero image of GEO with its last two axes swapped."""
    return np.zeros((2,) * (ndim - 2) + (GEO.width, GEO.height))


def _pgm_directory():
    with tempfile.TemporaryDirectory() as d:
        sim.write_pgm(Path(d) / "0000.pgm", _transposed(2))
        (Path(d) / "manifest.json").write_text(json.dumps(
            {"fps": 30, "width": GEO.width, "height": GEO.height}))
        sim.list_frames(d).read(0)


class _TransposedBackend:
    def predict(self, vol):
        return gating.MaskPlan(masks=_transposed(3).astype(bool), scores=[1.0, 1.0])


SHAPE_SITES = {
    "ToreVolume": lambda: rep.ToreVolume(GEO, _transposed(3)),
    "apply_mask": lambda: gating.apply_mask(_volume(), _transposed(2)),
    "iter_schedule": lambda: list(gating.iter_schedule([_volume()], _TransposedBackend(), 0.5)),
    "serialize_masks": lambda: gating.serialize_masks(GEO, _transposed(3)),
    "FrameSequence": lambda: sim.FrameSequence(GEO, 30.0, _transposed(3)),
    "MaskSequence": lambda: sim.MaskSequence(GEO, 30.0, _transposed(3) > 0),
    "FrameDirectory.read": _pgm_directory,
}


@pytest.mark.parametrize("site", SHAPE_SITES)
def test_shape_site_rejects_transposed_image(site):
    with pytest.raises(GeometryMismatch, match="does not match geometry"):
        SHAPE_SITES[site]()


def test_check_shape():
    a = np.zeros((3, GEO.height, GEO.width))
    assert GEO.check_shape("a", a, 3) is a
    assert GEO.check_shape("a", a[0]).shape == (GEO.height, GEO.width)
    for bad, ndim in ((a, 2), (a[0], 3), (a[:, :, :-1], 3), (a.reshape(-1), 1)):
        with pytest.raises(GeometryMismatch, match=r"^a shape"):
            GEO.check_shape("a", bad, ndim)


class TestNonFiniteSettings:
    @pytest.mark.parametrize("field", ["theta_pos", "theta_neg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
    def test_contrast_threshold_positive_and_finite(self, field, value):
        with pytest.raises(ConfigError, match="contrast thresholds"):
            sim.PixelModelParams(**{field: value})

    @pytest.mark.parametrize("field", ["leak_rate_hz", "shot_noise_scale", "hot_pixel_rate_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_noise_rate_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError, match="noise rates"):
            sim.PixelModelParams(**{field: value})

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0])
    def test_heatmap_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            sim.make_heatmaps(np.zeros((1, 3)), sigma=sigma)

    @pytest.mark.parametrize("fps", [math.nan, math.inf, 0.0])
    def test_frame_sequence_fps(self, fps):
        with pytest.raises(FpsMismatch):
            sim.FrameSequence(GEO, fps, np.zeros((2, GEO.height, GEO.width)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_camera_entries_finite(self, value):
        for index in range(21):
            vals = np.hstack([[200.0, 0, 3, 0, 200.0, 2, 0, 0, 1], np.eye(3, 4).ravel()])
            vals[index] = value
            with pytest.raises(DataError, match="finite"):
                camera.CameraModel(vals[:9].reshape(3, 3), vals[9:].reshape(3, 4))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_heatmap_plane_finite(self, value):
        planes = {p: np.full((4, 4), 1 / 16) for p in ("xy", "xz", "zy")}
        planes["xz"][1, 2] = value
        with pytest.raises(InvalidDistribution, match="xz plane"):
            pm.HeatmapTriplet(**planes)
