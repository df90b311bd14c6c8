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

The module also produces the paired ground truth a simulated recording
needs downstream: skeleton label files, pinhole projections, normalized
cube coordinates, and Gaussian marginal heatmaps.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .camera import CameraModel, normalize_camera_points, project_camera_points, to_camera_frame
from .errors import (
    ConfigError,
    DataError,
    EmptySequence,
    FpsMismatch,
    GeometryMismatch,
    LengthMismatch,
    ZeroMass,
    from_file,
)
from .events import EventStream, SensorGeometry
from .pose_math import HeatmapTriplet, cell_centers

JOINT_NAMES_13 = (
    "head",
    "shoulder_r", "shoulder_l",
    "elbow_r", "elbow_l",
    "hand_r", "hand_l",
    "hip_r", "hip_l",
    "knee_r", "knee_l",
    "foot_r", "foot_l",
)

REC601_WEIGHTS = np.array([0.299, 0.587, 0.114])

LABEL_FPS = 300  # canonical skeleton label rate


@dataclass(frozen=True)
class FrameSequence:
    geometry: SensorGeometry
    fps: float
    frames: np.ndarray = field(repr=False)  # (T, H, W) in [0, 1]

    def __post_init__(self):
        if self.fps <= 0:
            raise FpsMismatch(f"fps must be positive, got {self.fps}")
        f = np.ascontiguousarray(self.frames, dtype=np.float64)
        if f.ndim != 3 or f.shape[1:] != (self.geometry.height, self.geometry.width):
            raise GeometryMismatch(
                f"frames shape {f.shape} does not match geometry {self.geometry}")
        if f.size and (f.min() < 0.0 or f.max() > 1.0):
            raise DataError("frame intensities must lie in [0, 1]")
        f.setflags(write=False)
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def frame_time_us(self, index: int) -> int:
        return round(index * 1e6 / self.fps)


@dataclass(frozen=True)
class MaskSequence:
    geometry: SensorGeometry
    fps: float
    masks: np.ndarray = field(repr=False)  # (T, H, W) bool, 1 = foreground

    def __post_init__(self):
        m = np.ascontiguousarray(self.masks).astype(bool)
        if m.ndim != 3 or m.shape[1:] != (self.geometry.height, self.geometry.width):
            raise GeometryMismatch(
                f"masks shape {m.shape} does not match geometry {self.geometry}")
        m.setflags(write=False)
        object.__setattr__(self, "masks", m)

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
        if self.theta_pos <= 0 or self.theta_neg <= 0:
            raise ConfigError("contrast thresholds must be positive")
        if self.leak_rate_hz < 0 or self.shot_noise_scale < 0 or self.hot_pixel_rate_hz < 0:
            raise ConfigError("noise rates must be non-negative")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class SkeletonFrame:
    """13 named joints at one timestamp, millimeters."""

    t_us: int
    joints: np.ndarray = field(repr=False)  # (13, 3)
    frame: str = "world"  # "world" | "camera"
    names: tuple = JOINT_NAMES_13

    def __post_init__(self):
        j = np.ascontiguousarray(self.joints, dtype=np.float64)
        if j.shape != (len(self.names), 3):
            raise LengthMismatch(
                f"expected {len(self.names)} joints, got shape {j.shape}")
        if not np.all(np.isfinite(j)):
            raise DataError("joint coordinates must be finite")
        j.setflags(write=False)
        object.__setattr__(self, "joints", j)
        object.__setattr__(self, "names", tuple(self.names))

    def head_index(self, head_joint: str = "head") -> int:
        try:
            return self.names.index(head_joint)
        except ValueError:
            raise DataError(f"no joint named {head_joint!r}") from None


def rgb_to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of (..., 3) RGB in [0, 1]."""
    a = np.asarray(rgb, dtype=np.float64)
    if a.shape[-1] != 3:
        raise DataError(f"expected trailing RGB axis, got shape {a.shape}")
    return a @ REC601_WEIGHTS


# -- compositing and interpolation ----------------------------------------------


def composite(fg: FrameSequence, fg_masks: MaskSequence,
              bg: FrameSequence) -> FrameSequence:
    """Per-pixel blend: mask selects foreground, elsewhere background."""
    if not (fg.geometry == fg_masks.geometry == bg.geometry):
        raise GeometryMismatch("foreground, masks and background geometries differ")
    if not (fg.fps == fg_masks.fps == bg.fps):
        raise FpsMismatch(f"fps differ: {fg.fps}, {fg_masks.fps}, {bg.fps}")
    if not (len(fg) == len(fg_masks) == len(bg)):
        raise LengthMismatch(
            f"lengths differ: fg {len(fg)}, masks {len(fg_masks)}, bg {len(bg)}")
    m = fg_masks.masks
    out = np.where(m, fg.frames, bg.frames)
    return FrameSequence(geometry=fg.geometry, fps=fg.fps, frames=out)


def interpolate_linear(f: FrameSequence, factor: int) -> FrameSequence:
    """Insert factor - 1 linear blends between neighboring frames.

    A cheap stand-in for learned frame interpolation; output frame rate
    is fps * factor.
    """
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if factor == 1 or len(f) < 2:
        return FrameSequence(geometry=f.geometry, fps=f.fps * factor, frames=f.frames)
    t = len(f)
    out = np.empty(((t - 1) * factor + 1,) + f.frames.shape[1:], dtype=np.float64)
    for j in range(factor):
        w = j / factor
        out[j::factor][: t - 1] = (1.0 - w) * f.frames[:-1] + w * f.frames[1:]
    out[-1] = f.frames[-1]
    return FrameSequence(geometry=f.geometry, fps=f.fps * factor, frames=out)


# -- event synthesis --------------------------------------------------------------


def _expand_counts(counts: np.ndarray):
    """Flat index of each pixel of a count frame, raster order, repeated once
    per count, and each repeat's 1-based rank within its pixel."""
    flat = counts.reshape(-1)
    pix = np.flatnonzero(flat)
    reps = flat[pix]
    starts = np.cumsum(reps) - reps
    pix_rep = np.repeat(pix, reps)
    return pix_rep, np.arange(pix_rep.size) - np.repeat(starts, reps) + 1


def frames_to_events(f: FrameSequence, p: PixelModelParams) -> EventStream:
    """Synthesize an event stream from an intensity sequence.

    With noise off, the per-pixel event count over the whole sequence is
    the number of full threshold crossings of ln(I + eps), residual
    change carried across frames. Timestamps fall inside the inter-frame
    interval where the linearly interpolated log intensity crosses each
    successive threshold level. Each interval emits its positive
    crossings, then its negative crossings, then its noise, each in raster
    order; the stream is their stable sort by rounded timestamp.
    """
    if len(f) < 2:
        raise EmptySequence(f"need at least 2 frames, got {len(f)}")
    h, w = f.geometry.height, f.geometry.width
    noise_rate = np.zeros((h, w))
    for hx, hy in p.hot_pixels:
        if not (0 <= hx < w and 0 <= hy < h):
            raise ConfigError(f"hot pixel ({hx},{hy}) outside geometry")
        noise_rate[hy, hx] += p.hot_pixel_rate_hz

    rng = np.random.default_rng(p.seed)
    l_prev = np.log(f.frames[0] + p.eps).reshape(-1)
    ref = l_prev.copy()
    parts = []  # (t, flat pixel, polarity) per source and interval
    for i in range(len(f) - 1):
        t0, t1 = f.frame_time_us(i), f.frame_time_us(i + 1)
        l_new = np.log(f.frames[i + 1] + p.eps).reshape(-1)
        d = l_new - ref
        n_pos = np.where(d > 0, np.floor(d / p.theta_pos), 0.0).astype(np.int64)
        n_neg = np.where(d < 0, np.floor(-d / p.theta_neg), 0.0).astype(np.int64)
        for counts, sign, theta in ((n_pos, +1, p.theta_pos), (n_neg, -1, p.theta_neg)):
            pix, rank = _expand_counts(counts)
            if pix.size:
                level = ref[pix] + sign * rank * theta
                lp = l_prev[pix]
                # a still pixel (span 0) that rounding left one threshold off
                # its reference still crosses; its event falls at t0
                span = l_new[pix] - lp
                frac = np.clip(np.divide(level - lp, span, out=np.zeros_like(span),
                                         where=span != 0), 0.0, 1.0)
                parts.append((t0 + frac * (t1 - t0), pix, np.full(pix.size, sign, np.int8)))
        ref += n_pos * p.theta_pos - n_neg * p.theta_neg

        lam = (p.leak_rate_hz + p.shot_noise_scale * (1.0 - f.frames[i]) + noise_rate)
        lam = lam * ((t1 - t0) * 1e-6)
        if np.any(lam > 0):
            pix, _ = _expand_counts(rng.poisson(lam))
            if pix.size:
                parts.append((rng.uniform(t0, t1, pix.size), pix,
                              (rng.integers(0, 2, pix.size) * 2 - 1).astype(np.int8)))
        l_prev = l_new

    if not parts:
        return EventStream.empty(f.geometry)
    ts, pix, ps = (np.concatenate(col) for col in zip(*parts))
    ts = np.rint(ts).astype(np.uint64)
    order = np.argsort(ts, kind="stable")
    pix = pix[order]
    return EventStream(f.geometry, ts[order], (pix % w).astype(np.uint16),
                       (pix // w).astype(np.uint16), ps[order])


# -- ground-truth labels -----------------------------------------------------------


def skeleton_camera_joints(s: SkeletonFrame, cam: CameraModel) -> np.ndarray:
    if s.frame == "camera":
        return np.asarray(s.joints, dtype=np.float64)
    return to_camera_frame(cam, s.joints)


def project_skeleton(s: SkeletonFrame, cam: CameraModel) -> np.ndarray:
    """Pinhole projection of all joints to (J, 2) pixel coordinates."""
    return project_camera_points(cam, skeleton_camera_joints(s, cam))


def normalize_labels(s: SkeletonFrame, cam: CameraModel,
                     head_joint: str = "head") -> np.ndarray:
    """Joints in the [-1, 1]^3 cube anchored at the head joint's depth.

    The head joint's normalized depth is exactly 0 by construction.
    """
    pts = skeleton_camera_joints(s, cam)
    z_ref = float(pts[s.head_index(head_joint), 2])
    return normalize_camera_points(cam, pts, z_ref)


def head_depth_mm(s: SkeletonFrame, cam: CameraModel,
                  head_joint: str = "head") -> float:
    return float(skeleton_camera_joints(s, cam)[s.head_index(head_joint), 2])


def make_heatmaps(joints_norm: np.ndarray, resolution: int = 64,
                  sigma: float = 2.0) -> list[HeatmapTriplet]:
    """Gaussian marginal heatmaps of normalized joints, one triplet each.

    sigma is in grid cells; every plane is normalized to sum to 1.
    """
    if resolution < 8:
        raise ConfigError(f"resolution must be >= 8, got {resolution}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    joints = np.asarray(joints_norm, dtype=np.float64)
    centers = cell_centers(resolution)
    sig = sigma * 2.0 / resolution

    def plane(a: float, b: float) -> np.ndarray:
        # col axis carries a, row axis carries b
        g = np.exp(-((centers[None, :] - a) ** 2 + (centers[:, None] - b) ** 2)
                   / (2.0 * sig * sig))
        total = g.sum()
        if total <= 0:
            raise ZeroMass(f"joint at ({a:.3f},{b:.3f}) leaves no mass on the grid")
        return g / total

    out = []
    for x, y, z in joints:
        out.append(HeatmapTriplet(xy=plane(x, y), xz=plane(x, z), zy=plane(z, y)))
    return out


# -- skeleton CSV (t_us,joint_name,x_mm,y_mm,z_mm) -----------------------------------


def write_skeleton_csv(path, frames: Sequence[SkeletonFrame]) -> None:
    with open(path, "w") as f:
        f.write("t_us,joint_name,x_mm,y_mm,z_mm\n")
        for s in frames:
            for name, (x, y, z) in zip(s.names, s.joints):
                f.write(f"{s.t_us},{name},{float(x)!r},{float(y)!r},{float(z)!r}\n")


def read_skeleton_csv(path, names: Sequence[str] = JOINT_NAMES_13,
                      frame: str = "world") -> list[SkeletonFrame]:
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    by_t: dict[int, np.ndarray] = {}
    seen: dict[int, set] = {}
    with open(path) as f, from_file(path):
        header = f.readline().strip()
        if header != "t_us,joint_name,x_mm,y_mm,z_mm":
            raise DataError(f"unexpected skeleton CSV header: {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            t_s, name, xs, ys, zs = line.split(",")
            if name not in index:
                raise DataError(f"unknown joint name {name!r}")
            t = int(t_s)
            if t not in by_t:
                by_t[t] = np.full((len(names), 3), np.nan)
                seen[t] = set()
            if name in seen[t]:
                raise DataError(f"duplicate joint {name!r} at t={t}")
            seen[t].add(name)
            by_t[t][index[name]] = (float(xs), float(ys), float(zs))
    out = []
    for t in sorted(by_t):
        if len(seen[t]) != len(names):
            missing = set(names) - seen[t]
            raise DataError(f"t={t} missing joints: {sorted(missing)}")
        out.append(SkeletonFrame(t_us=t, joints=by_t[t], frame=frame, names=names))
    return out


def nearest_skeleton(frames: Sequence[SkeletonFrame], t_us: int) -> SkeletonFrame:
    """Label whose timestamp is nearest to t_us; earlier wins ties."""
    if not frames:
        raise EmptySequence("no skeleton frames")
    return min(frames, key=lambda s: (abs(s.t_us - t_us), s.t_us))


# -- frame and mask directories ------------------------------------------------------

_NUM_RE = re.compile(r"(\d+)")


def _numeric_key(name: str):
    parts = _NUM_RE.split(name)
    return tuple(int(s) if s.isdigit() else s for s in parts)


def write_pgm(path, image01: np.ndarray) -> None:
    a = np.asarray(image01, dtype=np.float64)
    b = np.rint(np.clip(a, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{b.shape[1]} {b.shape[0]}\n255\n".encode())
        f.write(b.tobytes())


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM file to float image in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    with from_file(path):
        return parse_pgm(blob)


def parse_pgm(blob: bytes) -> np.ndarray:
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
    a = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    return a.reshape(h, w).astype(np.float64) / 255.0


def _read_directory(dirpath):
    """Geometry, fps and (T, H, W) float images of a frame directory. The
    manifest is read first, then the images; the geometry is built last."""
    dirpath = Path(dirpath)
    mf = dirpath / "manifest.json"
    if not mf.exists():
        raise DataError(f"missing manifest.json in {dirpath}")
    with from_file(mf):
        manifest = json.loads(mf.read_text())
        for key in ("fps", "width", "height"):
            if key not in manifest:
                raise DataError(f"manifest lacks {key!r}")
    fmt = manifest.get("format", "pgm")
    h, w = manifest["height"], manifest["width"]
    suffix = {"pgm": ".pgm", "f32": ".f32"}.get(fmt)
    if suffix is None:
        raise DataError(f"unknown frame format {fmt!r}")
    files = sorted((p for p in dirpath.iterdir() if p.suffix == suffix),
                   key=lambda p: _numeric_key(p.name))
    if not files:
        raise DataError(f"no {suffix} files in {dirpath}")
    frames = np.empty((len(files), h, w), dtype=np.float64)
    for i, fp in enumerate(files):
        with from_file(fp):
            if fmt == "pgm":
                img = parse_pgm(fp.read_bytes())
            else:
                img = np.fromfile(fp, dtype="<f4").astype(np.float64)
                if img.size != h * w:
                    raise DataError(f"expected {h * w} floats, got {img.size}")
                img = img.reshape(h, w)
            if img.shape != (h, w):
                raise GeometryMismatch(f"image is {img.shape}, manifest says {(h, w)}")
        frames[i] = img
    return SensorGeometry(width=w, height=h), float(manifest["fps"]), frames


def load_frame_sequence(dirpath) -> FrameSequence:
    """Directory of numbered grayscale images plus a manifest.json giving
    fps, width, height and optionally format ("pgm" or "f32")."""
    geometry, fps, frames = _read_directory(dirpath)
    return FrameSequence(geometry=geometry, fps=fps, frames=frames)


def load_mask_sequence(dirpath) -> MaskSequence:
    """Frame directory as masks: pixels above 0.5 are foreground."""
    geometry, fps, frames = _read_directory(dirpath)
    return MaskSequence(geometry=geometry, fps=fps, masks=frames > 0.5)
