"""Motion-to-event simulation from pre-rendered frame sequences.

Frames are grayscale intensities in [0, 1]. Each pixel tracks its log
intensity L = ln(I + eps) against a memorized reference level; every
full contrast-threshold crossing between consecutive frames emits one
event, timestamped by linear interpolation of the crossing level inside
the inter-frame interval. Sub-threshold change carries over to the next
frame, so slow ramps eventually fire. Sensor noise is a per-pixel
Poisson process whose rate grows as the pixel darkens:

    rate = leak_rate_hz + shot_noise_scale * (1 - I)

with uniformly random timestamps and random polarity. Hot pixels add a
fixed extra rate at listed coordinates. Everything is deterministic for
a fixed seed.

Per frame interval, the whole frame is touched only to take the log,
the change against the reference and its quotient by the threshold, and
to list the pixels whose quotient reaches +1 or -1. Counts, crossing
times and reference updates are computed at those fired pixels alone,
typically a few percent of the sensor, so the rest of the work follows
the events rather than the sensor size. The log intensities and the
quotient live in frame-sized float64 buffers made once per clip; the
noise rate reuses the quotient's buffer, and it and the random generator
exist only when a noise rate is configured. 8-bit frame files are
blended as stored and converted to float64 once per frame.

The module also produces the paired ground truth a simulated recording
needs downstream: skeleton label files, normalized cube coordinates,
and Gaussian marginal heatmaps.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .camera import CameraModel, normalize_camera_points, to_camera_frame
from .errors import (
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
    check_budget,
    check_range,
    from_file,
)
from .events import EventStream, SensorGeometry, freeze, read_table, table_writer
from .pose_math import JOINT_NAMES_13, PLANE_COLS, PLANE_ROWS, PLANES, cell_centers

HEATMAP_RESOLUTION = 64  # grid cells per side
HEATMAP_SIGMA = 2.0  # grid cells


@dataclass(frozen=True)
class FrameSequence:
    geometry: SensorGeometry
    fps: float
    frames: np.ndarray = field(repr=False)  # (T, H, W) in [0, 1]

    def __post_init__(self):
        f = self.geometry.check_shape("frames", freeze(self, "frames", np.float64), 3)
        _check_frame_times(len(f), self.fps)
        check_range("frame intensities", f, 0, 1, DataError)

    def __len__(self) -> int:
        return self.frames.shape[0]


def _check_frame_times(count: int, fps: float) -> None:
    """Raise FpsMismatch unless fps is positive and finite and the last of
    count frames, whose time interpolation keeps, has a u64 time in us."""
    if not 0 < fps < math.inf:
        raise FpsMismatch(f"fps must be positive and finite, got {fps}")
    if not (count - 1) * 1e6 / fps < 2.0**64:  # a float below 2^64 rounds to itself
        raise FpsMismatch(f"frame {count - 1} at fps {fps} lies past the u64 range of times")


@dataclass(frozen=True)
class MaskSequence:
    geometry: SensorGeometry
    fps: float
    masks: np.ndarray = field(repr=False)  # (T, H, W) bool, 1 = foreground

    def __post_init__(self):
        self.geometry.check_shape("masks", freeze(self, "masks", bool), 3)

    def __len__(self) -> int:
        return self.masks.shape[0]


@dataclass(frozen=True)
class PixelModelParams:
    """Event-pixel model knobs; thresholds are log-intensity units."""

    theta_pos: float = 0.2
    theta_neg: float = 0.2
    leak_rate_hz: float = 0.0
    shot_noise_scale: float = 0.0
    eps: float = 0.02
    seed: int = 0
    hot_pixels: tuple = ()
    hot_pixel_rate_hz: float = 0.0

    def __post_init__(self):
        if not (0 < self.theta_pos < math.inf and 0 < self.theta_neg < math.inf):
            raise ConfigError("contrast thresholds must be positive and finite")
        if not all(0 <= r < math.inf for r in
                   (self.leak_rate_hz, self.shot_noise_scale, self.hot_pixel_rate_hz)):
            raise ConfigError("noise rates must be finite and non-negative")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        # the generator's seeding takes only integers, and a noise-free run never seeds it
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        check_range("seed", self.seed, 0, math.inf)


@dataclass(frozen=True)
class SkeletonFrame:
    """The joints of JOINT_NAMES_13 at one timestamp, in that order, millimeters."""

    t_us: int
    joints: np.ndarray = field(repr=False)  # (13, 3)
    frame: str = "world"  # "world" | "camera"

    def __post_init__(self):
        j = freeze(self, "joints", np.float64)
        if j.shape != (len(JOINT_NAMES_13), 3):
            raise LengthMismatch(
                f"expected {len(JOINT_NAMES_13)} joints, got shape {j.shape}")
        if not np.all(np.isfinite(j)):
            raise DataError("joint coordinates must be finite")
        check_range("label t_us", self.t_us, 0, 2**64 - 1, DataError)  # a u64 us count

    def head_index(self) -> int:
        return JOINT_NAMES_13.index("head")


# -- compositing and interpolation ----------------------------------------------


def _check_aligned(fg, fg_masks, bg) -> None:
    """Foreground, masks and background share geometry, fps and length."""
    if not (fg.geometry == fg_masks.geometry == bg.geometry):
        raise GeometryMismatch("foreground, masks and background geometries differ")
    if not (fg.fps == fg_masks.fps == bg.fps):
        raise FpsMismatch(f"fps differ: {fg.fps}, {fg_masks.fps}, {bg.fps}")
    if not (len(fg) == len(fg_masks) == len(bg)):
        raise LengthMismatch(
            f"lengths differ: fg {len(fg)}, masks {len(fg_masks)}, bg {len(bg)}")


def composite(fg: FrameSequence, fg_masks: MaskSequence,
              bg: FrameSequence) -> FrameSequence:
    """Per-pixel blend: mask selects foreground, elsewhere background."""
    _check_aligned(fg, fg_masks, bg)
    return FrameSequence(geometry=fg.geometry, fps=fg.fps,
                         frames=np.where(fg_masks.masks, fg.frames, bg.frames))


def iter_composite(fg: FrameDirectory, fg_masks: FrameDirectory,
                   bg: FrameDirectory) -> Iterator[np.ndarray]:
    """composite over frame directories, one frame read from each at a time.

    The directories' manifests are checked against each other before this
    returns; each frame is read, range-checked and blended when consumed.
    When foreground and background both hold PGM files, their 8-bit images
    are blended as stored and the blend converted once, as
    `FrameDirectory.read` converts each image, to the same bits. Each
    frame is a fresh array.
    """
    _check_aligned(fg, fg_masks, bg)
    if fg.format == bg.format == "pgm":
        return (_unit(np.where(fg_masks.read_mask(i), fg._read(i), bg._read(i)))
                for i in range(len(fg)))
    return (np.where(fg_masks.read_mask(i), fg.read(i), bg.read(i)) for i in range(len(fg)))


def iter_interpolated(frames: Iterable[np.ndarray], factor: int) -> Iterator[np.ndarray]:
    """Insert factor - 1 linear blends between neighboring frames, lazily.

    Each neighboring pair (prev, cur) yields (1 - w) * prev + w * cur for
    w = j / factor, j = 0 .. factor - 1, and the last frame follows, so T
    frames become (T - 1) * factor + 1 at fps * factor. A cheap stand-in
    for learned frame interpolation. Each blend is a fresh array.
    """
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return iter(frames)
    return _blends(frames, factor)


_BLEND_ROWS = 32  # rows per w * cur product


def _blends(frames, factor):
    prev = product = None  # product holds w * cur, _BLEND_ROWS rows at a time
    for cur in frames:
        if prev is not None:
            if product is None:
                product = np.empty_like(cur[:_BLEND_ROWS])
            for j in range(factor):
                w = j / factor
                blend = np.multiply(1.0 - w, prev)
                for r in range(0, len(cur), _BLEND_ROWS):
                    rows = cur[r:r + _BLEND_ROWS]
                    blend[r:r + _BLEND_ROWS] += np.multiply(w, rows, out=product[:len(rows)])
                yield blend
        prev = cur
    if prev is not None:
        yield prev


def interpolate_linear(f: FrameSequence, factor: int) -> FrameSequence:
    """iter_interpolated over a whole clip."""
    frames = list(iter_interpolated(f.frames, factor))
    return FrameSequence(geometry=f.geometry, fps=f.fps * factor,
                         frames=np.stack(frames) if frames else f.frames)


# -- event synthesis --------------------------------------------------------------


def _expand_counts(pix: np.ndarray, counts: np.ndarray):
    """Each of pix repeated counts times, in order, and each repeat's 1-based
    rank within its pixel."""
    starts = np.cumsum(counts) - counts
    pix_rep = np.repeat(pix, counts)
    return pix_rep, np.arange(pix_rep.size) - np.repeat(starts, counts) + 1


def iter_events(frames: Iterable[np.ndarray], geometry: SensorGeometry, fps: float,
                p: PixelModelParams) -> Iterator[tuple[np.ndarray, ...]]:
    """Synthesize events from an intensity sequence, one interval at a time.

    Frames are (H, W) intensities in [0, 1] at fps, consumed one at a
    time. With noise off, the per-pixel event count over the whole
    sequence is the number of full threshold crossings of ln(I + eps),
    residual change carried across frames. Timestamps fall inside the
    inter-frame interval where the linearly interpolated log intensity
    crosses each successive threshold level. Each interval emits its
    positive crossings, then its negative crossings, then its noise, each
    in raster order, and yields them stably sorted by rounded timestamp as
    (t, x, y, polarity) columns; an interval without events yields
    nothing. Every event of interval i lies in [t_i, t_i+1] and interval
    i + 1 starts at t_i+1, so the chunks in order are one stable sort of
    the whole clip's events: at a tie on t_i+1, interval i comes first.

    Only the fired pixels, those whose quotient of change by threshold
    reaches +1 or -1, get counts, crossing times and a reference update;
    any other pixel would add exactly 0.0 to its reference. The quotient
    that picks them is the one the counts floor.

    Each frame must be (H, W), or it is a GeometryMismatch. The hot
    pixels, the event budget and the two-frame minimum are checked on
    call: the first two frames are drawn, and checked, then, before the
    first chunk.
    """
    h, w = geometry.height, geometry.width
    # 8 bytes a timestamp: a pixel crosses at most ln((1 + eps) / eps) / theta + 1 levels
    span, theta = math.log1p(p.eps) - math.log(p.eps), min(p.theta_pos, p.theta_neg)
    check_budget("contrast threshold", theta, 8 * geometry.num_pixels * (span / theta + 1))
    rate = p.leak_rate_hz + p.shot_noise_scale + p.hot_pixel_rate_hz
    check_budget("noise rate", rate, 8 * geometry.num_pixels * rate * (1 / fps + 1e-6))
    noise_rate = np.zeros((h, w)) if p.hot_pixels else None
    for hx, hy in p.hot_pixels:
        if not (0 <= hx < w and 0 <= hy < h):
            raise ConfigError(f"hot pixel ({hx},{hy}) outside geometry")
        noise_rate[hy, hx] += p.hot_pixel_rate_hz
    frames = (geometry.check_shape("frame", f) for f in frames)
    prev, cur = next(frames, None), next(frames, None)
    if cur is None:
        raise EmptySequence(f"need at least 2 frames, got {int(prev is not None)}")
    return _synthesize(prev, cur, frames, geometry, fps, p, noise_rate)


_NOISE_BLOCK = 2**13  # pixels per Poisson draw


def _log_intensity(frame, eps, out):
    """ln(frame + eps) in out, a flat float64 buffer of the frame's size."""
    np.add(frame.reshape(-1), eps, out=out)
    return np.log(out, out=out)


def _synthesize(prev, cur, frames, geometry, fps, p, noise_rate):
    """iter_events from its first two frames on, holding one interval at a time.

    Its frame-sized float64 arrays are buffers made once: the log
    intensities l_prev and l_new, which swap each interval, the reference,
    and the quotient q by theta_neg, with q_pos by theta_pos only when the
    thresholds differ. An interval's noise reads only its first frame, so
    it is drawn first, its rate in q, and that frame is dropped before the
    crossings are found. The interval's Poisson counts and event columns
    are dropped before its chunk is yielded.
    """
    shape, n = (geometry.height, geometry.width), geometry.num_pixels
    noisy = p.leak_rate_hz > 0 or p.shot_noise_scale > 0 or (
        noise_rate is not None and noise_rate.any())
    rng = np.random.default_rng(p.seed) if noisy else None
    l_prev, l_new, q = np.empty(n), np.empty(n), np.empty(n)
    q_pos = q if p.theta_pos == p.theta_neg else np.empty(n)
    ref = _log_intensity(prev, p.eps, l_prev).copy()

    def noise(t0, t1, first):
        """The interval's noise events, from its first frame, as a list of at
        most one (t, flat pixel, polarity) part."""
        lam = q.reshape(shape)
        np.subtract(1.0, first, out=lam)
        lam *= p.shot_noise_scale
        lam += p.leak_rate_hz
        if noise_rate is not None:
            lam += noise_rate
        lam *= (t1 - t0) * 1e-6
        # a block at a time, the counts take 64 KiB, not a frame: the same
        # draws in the same order as one draw over the frame, and a rate of
        # 0 draws nothing
        pix = []
        for start in range(0, n, _NOISE_BLOCK):
            counts = rng.poisson(q[start:start + _NOISE_BLOCK])
            hit = np.flatnonzero(counts)
            pix.append(np.repeat(hit + start, counts[hit]))
        pix = np.concatenate(pix)
        if not pix.size:
            return []
        return [(rng.uniform(t0, t1, pix.size), pix,
                 (rng.integers(0, 2, pix.size) * 2 - 1).astype(np.int8))]

    def crossings(t0, t1, l_prev, l_new):
        """The interval's threshold crossings as (t, flat pixel, polarity)
        parts, positive then negative; ref moves by them."""
        np.subtract(l_new, ref, out=q)
        if q_pos is not q:
            np.divide(q, p.theta_pos, out=q_pos)
        np.divide(q, p.theta_neg, out=q)
        # the same quotients the counts floor: a pixel fires iff its count is >= 1
        fired = np.flatnonzero((q_pos >= 1.0) | (q <= -1.0))
        up = q_pos[fired] >= 1.0
        parts = []
        for sign, theta, quotient, pix in ((+1, p.theta_pos, q_pos, fired[up]),
                                           (-1, p.theta_neg, q, fired[~up])):
            if not pix.size:
                continue
            step = sign * theta
            counts = np.floor(sign * quotient[pix]).astype(np.int64)
            pix_rep, rank = _expand_counts(pix, counts)
            level = ref[pix_rep] + rank * step
            lp = l_prev[pix_rep]
            # a still pixel (span 0) that rounding left one threshold off
            # its reference still crosses; its event falls at t0
            span = l_new[pix_rep] - lp
            frac = np.clip(np.divide(level - lp, span, out=np.zeros_like(span),
                                     where=span != 0), 0.0, 1.0)
            parts.append((t0 + frac * (t1 - t0), pix_rep, np.full(pix_rep.size, sign, np.int8)))
            ref[pix] += counts * step
        return parts

    for i in itertools.count():
        t0, t1 = round(i * 1e6 / fps), round((i + 1) * 1e6 / fps)
        parts = [] if rng is None else noise(t0, t1, prev)
        prev = cur
        parts = crossings(t0, t1, l_prev, _log_intensity(cur, p.eps, l_new)) + parts
        l_prev, l_new = l_new, l_prev
        if parts:
            yield _sorted_chunk(parts, t0, t1, geometry.width)
        if (cur := next(frames, None)) is None:
            return


def _sorted_chunk(parts, t0, t1, width):
    """The (t, flat pixel, polarity) parts of the interval [t0, t1] as one
    chunk of (t, x, y, polarity) columns, stably sorted by rounded
    timestamp. parts is emptied once its columns are joined."""
    ts, pix, ps = (np.concatenate(col) for col in zip(*parts))
    parts.clear()
    ts = np.rint(ts).astype(np.uint64)
    # every rounded timestamp lies in [t0, t1]: t0 and t1 are whole
    # floats and t0 + frac * (t1 - t0) rounds monotonically, as does
    # uniform(t0, t1); so the offsets fit t1 - t0's type, uint16 at
    # video rates, whose stable sort is a radix sort
    order = np.argsort((ts - np.uint64(t0)).astype(np.min_scalar_type(t1 - t0)), kind="stable")
    pix = pix[order]
    return ts[order], (pix % width).astype(np.uint16), (pix // width).astype(np.uint16), ps[order]


def frames_to_events(f: FrameSequence, p: PixelModelParams) -> EventStream:
    """iter_events over a whole clip, as one stream."""
    chunks = list(iter_events(f.frames, f.geometry, f.fps, p))
    if not chunks:
        return EventStream.empty(f.geometry)
    return EventStream(f.geometry, *(np.concatenate(col) for col in zip(*chunks)))


# -- ground-truth labels -----------------------------------------------------------


def skeleton_camera_joints(s: SkeletonFrame, cam: CameraModel) -> np.ndarray:
    if s.frame == "camera":
        return np.asarray(s.joints, dtype=np.float64)
    return to_camera_frame(cam, s.joints)


def normalize_labels(s: SkeletonFrame, cam: CameraModel,
                     heatmap: tuple[int, float] | None = None) -> np.ndarray:
    """Joints in the [-1, 1]^3 cube anchored at the head joint's depth.

    The head joint's normalized depth is exactly 0 by construction. A joint
    behind the camera is BehindCamera; a head at infinite depth, or a joint
    whose normalized position is not finite, is NonFinite; and, given
    heatmap = (resolution, sigma), a joint with a plane of make_heatmaps of
    no mass, non-finite ones first, is ZeroMass. Each error names the
    label's t_us and the joint.
    """
    try:
        with np.errstate(all="ignore"):
            norm = normalize_camera_points(cam, skeleton_camera_joints(s, cam),
                                           head_depth_mm(s, cam))
        if heatmap is not None:
            check_heatmap_mass(norm, *heatmap)
        bad = np.flatnonzero(~np.isfinite(norm).all(axis=1))
        if bad.size:
            err = NonFinite(f"normalized position {norm[bad[0]]} is not finite")
            err.point = int(bad[0])
            raise err
        return norm
    except InvalidDepth as e:  # only the head's depth, the reference, can be infinite here
        raise NonFinite(f"label t_us {s.t_us}, joint "
                        f"{JOINT_NAMES_13[s.head_index()]!r}: {e}") from e
    except (BehindCamera, NonFinite, ZeroMass) as e:
        raise type(e)(f"label t_us {s.t_us}, joint {JOINT_NAMES_13[e.point]!r}: {e}") from e


def head_depth_mm(s: SkeletonFrame, cam: CameraModel) -> float:
    return float(skeleton_camera_joints(s, cam)[s.head_index(), 2])


def check_heatmap_settings(resolution: int, sigma: float) -> None:
    """Raise ConfigError unless make_heatmaps takes resolution and sigma:
    a label's three float64 planes per joint must fit the byte budget."""
    if resolution < 8:
        raise ConfigError(f"resolution must be >= 8, got {resolution}")
    check_budget("heatmap_resolution", resolution,
                 3 * len(JOINT_NAMES_13) * resolution * resolution * 8)
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")


# exp(-inf) = 0, and the NaN of a non-finite joint or an underflowed 2 sig^2, are no mass
@np.errstate(all="ignore")
def check_heatmap_mass(joints_norm: np.ndarray, resolution: int, sigma: float) -> None:
    """Raise ZeroMass, its `point` the first joint, unless every plane
    make_heatmaps builds of joints_norm has mass. Every step of a cell's
    value is monotone in its squared distances to the joint along each
    axis, so the cell nearest on both axes holds the plane's maximum, and
    that one value, found by the plane's own operations, decides."""
    joints = np.asarray(joints_norm, dtype=np.float64)
    near = ((cell_centers(resolution) - joints[..., None]) ** 2).min(axis=-1)
    sig = sigma * 2.0 / resolution
    peak = np.exp(-(near[:, PLANE_COLS] + near[:, PLANE_ROWS]) / (2.0 * sig * sig))
    for point, plane in np.argwhere(~(peak > 0))[:1]:
        err = ZeroMass(f"plane {PLANES[plane]} at ({joints[point, PLANE_COLS[plane]]:.3f},"
                       f"{joints[point, PLANE_ROWS[plane]]:.3f}) leaves no mass on the grid")
        err.point = int(point)
        raise err


def make_heatmaps(joints_norm: np.ndarray, resolution: int = HEATMAP_RESOLUTION,
                  sigma: float = HEATMAP_SIGMA) -> np.ndarray:
    """Gaussian marginal heatmaps of normalized joints as the (3J, R, R)
    float64 stack of `pose_math.Heatmaps`, laid out by its plane table.

    sigma is in grid cells; every plane is normalized to sum to 1, and one
    with no mass is the ZeroMass error check_heatmap_mass raises. Each
    cell is exp(-((c - a)^2 + (c' - b)^2) / (2 sig^2)), built in place in
    the stack, so the stack is the only allocation that grows with R^2.
    """
    check_heatmap_settings(resolution, sigma)
    joints = np.asarray(joints_norm, dtype=np.float64)
    centers = cell_centers(resolution)
    sig = sigma * 2.0 / resolution
    # per plane, squared distances along the col axis (to a) and the row axis (to b)
    da = (centers[None, :] - joints[:, PLANE_COLS].reshape(-1, 1)) ** 2
    db = (centers[None, :] - joints[:, PLANE_ROWS].reshape(-1, 1)) ** 2
    g = np.add(da[:, None, :], db[:, :, None])
    np.negative(g, out=g)
    np.divide(g, 2.0 * sig * sig, out=g)
    np.exp(g, out=g)
    sums = g.reshape(len(g), resolution * resolution).sum(axis=1)
    if not sums.all():  # non-negative cells sum to 0 exactly when the peak the check reads is 0
        check_heatmap_mass(joints, resolution, sigma)
    g /= sums[:, None, None]
    return g


# -- skeleton CSV ---------------------------------------------------------------------

SKELETON_HEADER = "t_us,joint_name,x_mm,y_mm,z_mm"


def write_skeleton_csv(path, frames: Sequence[SkeletonFrame]) -> None:
    with table_writer(path, SKELETON_HEADER, "%s,%s,%r,%r,%r") as write:
        for s in frames:
            write((s.t_us, name, *xyz) for name, xyz in zip(JOINT_NAMES_13, s.joints.tolist()))


def read_skeleton_csv(path) -> list[SkeletonFrame]:
    known = set(JOINT_NAMES_13)
    rows: dict[int, dict[str, int]] = {}  # t_us -> joint name -> its row
    with open(path) as f, from_file(path):
        line_nos, (ts, names, *xyz) = read_table(f, SKELETON_HEADER,
                                                 (int, str, float, float, float))
        for i, t, name in zip(range(len(ts)), ts, names):
            if name not in known:
                raise DataError(f"line {line_nos[i]}: unknown joint name {name!r}")
            if rows.setdefault(t, {}).setdefault(name, i) != i:
                raise DataError(f"line {line_nos[i]}: duplicate joint {name!r} at t={t}")
        for t, named in sorted(rows.items()):
            check_range(f"line {line_nos[min(named.values())]}: t_us", t, 0, 2**64 - 1, DataError)
            if len(named) != len(known):
                raise DataError(f"t={t} missing joints: {sorted(known - named.keys())}")
    times = sorted(rows)
    joints = np.array(xyz, dtype=np.float64).T[[rows[t][n] for t in times for n in JOINT_NAMES_13]]
    return list(map(SkeletonFrame, times, joints.reshape(-1, len(JOINT_NAMES_13), 3)))


# -- frame and mask directories ------------------------------------------------------

_NUM_RE = re.compile(r"(\d+)")


def _numeric_key(name: str):
    parts = _NUM_RE.split(name)
    return tuple(int(s) if s.isdigit() else s for s in parts)


def _unit(u8: np.ndarray) -> np.ndarray:
    """8-bit pixels as float64 intensities u8 / 255, which lie in [0, 1]."""
    a = u8.astype(np.float64)
    a /= 255.0
    return a


def _pgm_pixels(blob: bytes) -> np.ndarray:
    """A binary PGM's pixels as stored: an (H, W) uint8 view of blob."""
    if not blob.startswith(b"P5"):
        raise DataError("not a binary PGM")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            pos = blob.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DataError("only maxval 255 is supported")
    if not (w > 0 and h > 0 and w * h <= len(blob) - pos):
        raise DataError(f"PGM size {w}x{h} does not fit its {len(blob) - pos} pixel bytes")
    return np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)



@dataclass(frozen=True)
class FrameDirectory:
    """A frame directory's checked manifest and its image file names in
    numeric order. No image is read until `read` or `read_mask` asks."""

    path: Path
    geometry: SensorGeometry
    fps: float
    format: str  # "pgm" or "f32"
    names: tuple = field(repr=False)  # names, not paths: a long clip's listing stays small

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return map(self.read, range(len(self)))

    def read(self, i: int) -> np.ndarray:
        """Image i as (H, W) float64 intensities, checked to lie in [0, 1]."""
        return self._read(i, lambda img: _unit(img) if img.dtype == np.uint8
                          else check_range("frame intensities", img, 0, 1, DataError))

    def read_mask(self, i: int) -> np.ndarray:
        """Image i as an (H, W) bool mask: pixels above 0.5 are foreground."""
        # u8 / 255 > 0.5 is u8 >= 128
        return self._read(i, lambda img: img >= 128 if img.dtype == np.uint8 else img > 0.5)

    def _read(self, i, convert=None):
        """convert of image i as stored, uint8 for PGM and float64 for f32,
        or the stored image itself; errors name the file."""
        fp = self.path / self.names[i]
        h, w = self.geometry.height, self.geometry.width
        with from_file(fp):
            if self.format == "pgm":
                img = _pgm_pixels(fp.read_bytes())
            else:
                with np.errstate(invalid="ignore"):  # a signalling NaN reads as a quiet one
                    img = np.fromfile(fp, dtype="<f4").astype(np.float64)
                if img.size != h * w:
                    raise DataError(f"expected {h * w} floats, got {img.size}")
                img = img.reshape(h, w)
            img = self.geometry.check_shape("image", img)
            return img if convert is None else convert(img)


def list_frames(dirpath) -> FrameDirectory:
    """Directory of numbered grayscale images plus a manifest.json giving
    fps, width, height and optionally format ("pgm" or "f32"). The
    manifest is checked and the images listed; none is read."""
    dirpath = Path(dirpath)
    mf = dirpath / "manifest.json"
    if not mf.exists():
        raise DataError(f"missing manifest.json in {dirpath}")
    with from_file(mf):
        manifest = json.loads(mf.read_text())
        if not isinstance(manifest, dict):
            raise DataError("manifest is not a JSON object")
        for key in ("fps", "width", "height"):
            if key not in manifest:
                raise DataError(f"manifest lacks {key!r}")
        for key in ("width", "height"):
            if type(manifest[key]) is not int or manifest[key] <= 0:
                raise DataError(f"{key} must be a positive integer, got {manifest[key]!r}")
        fps = manifest["fps"]
        if type(fps) not in (int, float) or not 0 < fps <= sys.float_info.max:
            raise DataError(f"fps must be a positive number, got {fps!r}")
        fmt = manifest.get("format", "pgm")
        if fmt not in ("pgm", "f32"):
            raise DataError(f"unknown frame format {fmt!r}")
        geometry = SensorGeometry(width=manifest["width"], height=manifest["height"])
    names = sorted((p.name for p in dirpath.iterdir() if p.suffix == "." + fmt),
                   key=_numeric_key)
    if not names:
        raise DataError(f"no .{fmt} files in {dirpath}")
    with from_file(mf):
        _check_frame_times(len(names), fps)
    return FrameDirectory(dirpath, geometry, float(fps), fmt, tuple(names))


def load_frame_sequence(dirpath) -> FrameSequence:
    """A frame directory (see list_frames) read whole."""
    d = list_frames(dirpath)
    return FrameSequence(geometry=d.geometry, fps=d.fps, frames=np.stack(list(d)))


def load_mask_sequence(dirpath) -> MaskSequence:
    """Frame directory as masks: pixels above 0.5 are foreground."""
    d = list_frames(dirpath)
    return MaskSequence(geometry=d.geometry, fps=d.fps,
                        masks=np.stack([d.read_mask(i) for i in range(len(d))]))
