"""Seeded input generators for the three benchmark workloads.

Nothing here imports evpose: the program under test only ever sees the
files written below, and a change to the simulator cannot move the
inputs of `tore_dense` or `filter_silhouette`.

The scene shared by the silhouette workloads is a 13-joint stick figure
dancing in front of a DAVIS346 sensor (3 m away, f = 300 px) over a
textured background crossed by a bright band that sweeps down the image.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 346, 260
WINDOW_US = 20_000
K = 4
TAU_US = 5_000_000
EVT1_HEADER = struct.Struct("<4sHHHQ")
EVT1_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("pad", "V3")])

JOINTS = ("head", "shoulder_r", "shoulder_l", "elbow_r", "elbow_l", "hand_r", "hand_l",
          "hip_r", "hip_l", "knee_r", "knee_l", "foot_r", "foot_l")
BONES = ((0, 1), (0, 2), (1, 2), (1, 3), (3, 5), (2, 4), (4, 6), (1, 7), (2, 8),
         (7, 8), (7, 9), (9, 11), (8, 10), (10, 12))
FOCAL_PX = 300.0
DEPTH_MM = 3000.0
INTRINSIC = np.array([[FOCAL_PX, 0.0, WIDTH / 2], [0.0, FOCAL_PX, HEIGHT / 2], [0.0, 0.0, 1.0]])
EXTRINSIC = np.hstack([np.eye(3), [[0.0], [0.0], [DEPTH_MM]]])  # world -> camera, mm

# tore_dense: 1M events over 0.5 s, ~11 per pixel, every pixel active
DENSE_EVENTS = 1_000_000
DENSE_DURATION_US = 500_000

# filter_silhouette: 1 s (two dance periods) at 1 ms steps; any beta in (0.8, 0.9] both reuses
# and recomputes with the reference backend's scores 1.0, 0.9, 0.8, 0.7
FILTER_DURATION_US = 1_000_000
FILTER_STEP_US = 1_000
FILTER_NOISE_HZ = 0.2  # per pixel
FILTER_BETA = 0.85
DANCE_HZ = 2.0
BAND_SPEED_PX_S = 120.0
BAND_HALF_PX = 12.0


@dataclass(frozen=True)
class Clip:
    """One `evpose simulate` input: fixed frames, seeded labels and noise."""

    name: str
    fps: float
    frames: int
    gain: float             # scene brightness; low light is a small gain
    shot_noise_scale: float
    interpolate: int

    @property
    def duration_us(self) -> int:
        # the simulator's own frame clock: round(index * 1e6 / fps)
        return round((self.frames - 1) * 1e6 / self.fps)


# Frames do not depend on the seed. Which pixels hit the simulator's
# NaN-timestamp fault depends only on the frames, so every seed fails the
# same clips and the failed share of a run is the same on every seed.
CLIPS = (
    Clip("bright", fps=100.0, frames=80, gain=1.0, shot_noise_scale=0.0, interpolate=1),
    Clip("lowlight", fps=50.0, frames=40, gain=0.2, shot_noise_scale=2.0, interpolate=2),
)
SIM_THETA = 0.2
SIM_EPS = 0.02
LABEL_PERIOD_US = WINDOW_US
LABEL_JITTER_MM = 3.0


# -- scene ------------------------------------------------------------------------


def skeleton_mm(t_s: float, phase: float = 0.0) -> np.ndarray:
    """(13, 3) world joints in mm: swaying body, swinging arms, stepping legs.

    Every motion repeats with period 1 / DANCE_HZ, so a recording of whole
    periods holds about the same number of events whatever the phase.
    """
    w = 2 * np.pi * DANCE_HZ * t_s + phase
    a, b, k = 0.9 * np.sin(w), 0.9 * np.sin(w + np.pi), 0.5 * np.sin(w)
    j = np.zeros((13, 3))
    j[0] = (0, -750, 0)
    j[1], j[2] = (-180, -550, 0), (180, -550, 0)
    j[7], j[8] = (-110, -50, 0), (110, -50, 0)
    j[3] = j[1] + (-250 * np.cos(a), -250 * np.sin(a), 80 * np.sin(a))
    j[4] = j[2] + (250 * np.cos(b), -250 * np.sin(b), 80 * np.sin(b))
    j[5] = j[3] + (-200 * np.cos(2 * a), -200 * np.sin(2 * a), 60)
    j[6] = j[4] + (200 * np.cos(2 * b), -200 * np.sin(2 * b), 60)
    j[9] = j[7] + (200 * np.sin(k), 430 * np.cos(k), 100 * np.sin(k))
    j[10] = j[8] + (-200 * np.sin(k), 430 * np.cos(k), -100 * np.sin(k))
    j[11], j[12] = j[9] + (0, 430, 0), j[10] + (0, 430, 0)
    j[:, 0] += 250 * np.sin(w)
    j[:, 1] += 30 * np.sin(2 * w)
    return j


def project_px(joints_mm: np.ndarray) -> np.ndarray:
    cam = joints_mm @ EXTRINSIC[:, :3].T + EXTRINSIC[:, 3]
    uvw = cam @ INTRINSIC.T
    return uvw[:, :2] / uvw[:, 2:3]


def render_mask(px: np.ndarray, limb_radius: float = 7.0, head_radius: float = 14.0) -> np.ndarray:
    """Capsule limbs and a disc head, drawn only inside each part's bounding box."""
    mask = np.zeros((HEIGHT, WIDTH), dtype=bool)
    parts = [(px[a], px[b], limb_radius) for a, b in BONES] + [(px[0], px[0], head_radius)]
    for p, q, r in parts:
        x0 = max(int(np.floor(min(p[0], q[0]) - r)), 0)
        x1 = min(int(np.ceil(max(p[0], q[0]) + r)) + 1, WIDTH)
        y0 = max(int(np.floor(min(p[1], q[1]) - r)), 0)
        y1 = min(int(np.ceil(max(p[1], q[1]) + r)) + 1, HEIGHT)
        if x0 >= x1 or y0 >= y1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        d = q - p
        u = np.clip(((xx - p[0]) * d[0] + (yy - p[1]) * d[1]) / max(d @ d, 1e-9), 0.0, 1.0)
        mask[y0:y1, x0:x1] |= (xx - p[0] - u * d[0]) ** 2 + (yy - p[1] - u * d[1]) ** 2 <= r * r
    return mask


def band_distance(t_s: float, offset: float = 0.0) -> np.ndarray:
    """(H, 1) row distance to the centre of the bright band. The band sweeps
    down at BAND_SPEED_PX_S and wraps from the bottom edge to the top, so it
    is always wholly in view."""
    centre = (offset + t_s * BAND_SPEED_PX_S) % HEIGHT
    d = np.abs(np.arange(HEIGHT)[:, None] - centre)
    return np.minimum(d, HEIGHT - d)


_YY, _XX = np.mgrid[0:HEIGHT, 0:WIDTH]
_BG_TEXTURE = 0.35 + 0.1 * np.sin(_XX / 17.0) * np.cos(_YY / 23.0)
_FG_TEXTURE = 0.8 - 0.15 * np.sin(_XX / 9.0 + _YY / 13.0)


def background(t_s: float) -> np.ndarray:
    band = np.clip(1.0 - band_distance(t_s) / BAND_HALF_PX, 0.0, 1.0)
    return np.clip(_BG_TEXTURE + 0.4 * band, 0.0, 1.0)


# -- file writers (formats as documented by the program) --------------------------


def write_evt1(path: Path, t, x, y, p) -> None:
    rec = np.zeros(len(t), dtype=EVT1_RECORD)
    rec["t"], rec["x"], rec["y"], rec["p"] = t, x, y, p
    with open(path, "wb") as f:
        f.write(EVT1_HEADER.pack(b"EVT1", 1, WIDTH, HEIGHT, len(t)))
        f.write(rec.tobytes())


def to_u8(image01: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(image01, 0.0, 1.0) * 255).astype(np.uint8)


def write_pgm_dir(dirpath: Path, images_u8: np.ndarray, fps: float) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "manifest.json").write_text(
        json.dumps({"fps": fps, "width": WIDTH, "height": HEIGHT, "format": "pgm"}))
    header = f"P5\n{WIDTH} {HEIGHT}\n255\n".encode()
    for i, img in enumerate(images_u8):
        (dirpath / f"{i:05d}.pgm").write_bytes(header + img.tobytes())


def write_camera(path: Path) -> None:
    rows = list(INTRINSIC) + list(EXTRINSIC)
    path.write_text("".join(" ".join(repr(float(v)) for v in r) + "\n" for r in rows))


# -- workloads --------------------------------------------------------------------


def make_tore_dense(seed: int, path: Path, n_events: int = DENSE_EVENTS,
                    duration_us: int = DENSE_DURATION_US) -> dict:
    """Uniform random EVT1 stream; each pixel gets at least one event."""
    rng = np.random.default_rng(seed)
    npix = WIDTH * HEIGHT
    pix = np.concatenate([np.arange(npix), rng.integers(0, npix, n_events - npix)])
    pix = rng.permutation(pix)
    t = np.sort(rng.integers(0, duration_us, n_events)).astype(np.uint64)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), n_events)
    write_evt1(path, t, pix % WIDTH, pix // WIDTH, p)
    return {"events": n_events, "windows": int(t[-1]) // WINDOW_US + 1}


def make_filter_silhouette(seed: int, path: Path, duration_us: int = FILTER_DURATION_US) -> dict:
    """Sparse events from the dancing silhouette and the sweeping band, plus noise.

    The scene is sampled every millisecond; a pixel whose level (body >
    band > background) changes fires one event of the change's sign at a
    uniform time inside that millisecond.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi)
    band_offset = rng.uniform(0, HEIGHT)
    steps = duration_us // FILTER_STEP_US

    def level(step: int) -> np.ndarray:
        t_s = step * FILTER_STEP_US * 1e-6
        lv = np.zeros((HEIGHT, WIDTH), dtype=np.int8)
        lv[band_distance(t_s, band_offset)[:, 0] <= BAND_HALF_PX] = 1
        lv[render_mask(project_px(skeleton_mm(t_s, phase)))] = 2
        return lv

    ts, xs, ys, ps = [], [], [], []
    prev = level(0)
    for step in range(1, steps):
        cur = level(step)
        yy, xx = np.nonzero(cur != prev)
        ts.append((step - 1) * FILTER_STEP_US + rng.integers(0, FILTER_STEP_US, len(xx)))
        xs.append(xx)
        ys.append(yy)
        ps.append(np.where(cur[yy, xx] > prev[yy, xx], 1, -1))
        prev = cur
    n_noise = round(FILTER_NOISE_HZ * WIDTH * HEIGHT * duration_us * 1e-6)
    ts.append(rng.integers(0, duration_us, n_noise))
    xs.append(rng.integers(0, WIDTH, n_noise))
    ys.append(rng.integers(0, HEIGHT, n_noise))
    ps.append(rng.choice([-1, 1], n_noise))
    t = np.concatenate(ts)
    order = np.argsort(t, kind="stable")
    t = t[order].astype(np.uint64)
    write_evt1(path, t, np.concatenate(xs)[order], np.concatenate(ys)[order],
               np.concatenate(ps)[order])
    return {"events": len(t), "windows": int(t[-1]) // WINDOW_US + 1}


def clip_frames(clip: Clip) -> dict[str, np.ndarray]:
    """8-bit foreground, mask and background frames of one clip (seed-free)."""
    fg, masks, bg = [], [], []
    for i in range(clip.frames):
        t_s = i / clip.fps
        masks.append(render_mask(project_px(skeleton_mm(t_s))))
        fg.append(to_u8(_FG_TEXTURE * clip.gain))
        bg.append(to_u8(background(t_s) * clip.gain))
    return {"frames": np.stack(fg), "masks": np.stack(masks).astype(np.uint8) * 255,
            "background": np.stack(bg)}


def make_simulate_silhouette(seed: int, root: Path, clips=CLIPS) -> list[dict]:
    """Frame, mask and background directories plus labels and a camera per clip."""
    rng = np.random.default_rng(seed)
    out = []
    for clip in clips:
        cdir = root / clip.name
        images = clip_frames(clip)
        for sub, imgs in images.items():
            write_pgm_dir(cdir / sub, imgs, clip.fps)
        label_t = np.arange(0, clip.duration_us + 1, LABEL_PERIOD_US)
        lines = ["t_us,joint_name,x_mm,y_mm,z_mm"]
        for t_us in label_t:
            joints = skeleton_mm(t_us * 1e-6) + rng.uniform(-LABEL_JITTER_MM, LABEL_JITTER_MM, (13, 3))
            lines += [f"{t_us},{n},{x!r},{y!r},{z!r}" for n, (x, y, z) in zip(JOINTS, joints.tolist())]
        (cdir / "skeleton.csv").write_text("\n".join(lines) + "\n")
        write_camera(cdir / "camera.txt")
        out.append({"clip": clip, "dir": cdir, "images": images,
                    "sim_seed": int(rng.integers(0, 2**31)), "windows": clip.duration_us / WINDOW_US})
    return out
