"""Marginal-heatmap triangulation.

A label's joints are represented by marginal heatmaps in one (3J, R, R)
stack, the layout of every `heatmaps_*.tore` file: plane 3j + i is joint
j's PLANES[i] plane. Grids are indexed [row, col] and a plane's name gives
its column axis first: xy holds col=x/row=y, xz col=x/row=z, zy col=z/row=y
(PLANE_COLS, PLANE_ROWS). Cell centers sit at (2k + 1) / R - 1 so a
symmetric grid soft-argmaxes to exactly 0.

Triangulation takes x and y from the xy plane and averages the two z
readings (rows of xz, columns of zy). The soft-argmax, the plane JSD and
the elementwise BCE and MSE have analytic gradients that gradient_check
verifies against central finite differences. Poses are saved as pose
CSVs, `events` text tables whose layout `POSE_HEADER` and
`write_pose_csv` hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .camera import CameraModel, denormalize_camera_points
from .errors import (
    DataError,
    InvalidDistribution,
    LengthMismatch,
    NonFinite,
    ProbabilityOutOfRange,
    ZeroMass,
    check_range,
    from_file,
)
from .events import freeze, read_table, table_writer

BCE_CLIP = 1e-7
DISTRIBUTION_ATOL = 1e-6

# the 13 joints, in the order labels, heatmap stacks and evaluated poses hold them
JOINT_NAMES_13 = (
    "head",
    "shoulder_r", "shoulder_l",
    "elbow_r", "elbow_l",
    "hand_r", "hand_l",
    "hip_r", "hip_l",
    "knee_r", "knee_l",
    "foot_r", "foot_l",
)


def cell_centers(resolution: int) -> np.ndarray:
    """Normalized coordinates of grid cell centers, in [-1, 1]."""
    return (2.0 * np.arange(resolution) + 1.0) / resolution - 1.0


# a joint's planes in stack order, and the coordinate (0 = x, 1 = y, 2 = z)
# each one's columns and rows carry, read from its name
PLANES = ("xy", "xz", "zy")
PLANE_COLS, PLANE_ROWS = np.array([["xyz".index(c) for c in p] for p in PLANES]).T


@dataclass(frozen=True)
class Heatmaps:
    """A label's marginal heatmaps as one (3J, R, R) float64 stack, each
    plane a square probability grid: non-negative, summing to 1 within
    1e-6. Checked at construction, the error naming the joint and plane."""

    stack: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = freeze(self, "stack", np.float64)
        if h.ndim != 3 or len(h) % 3 or h.shape[1] != h.shape[2]:
            raise InvalidDistribution(f"heatmaps must be (3J, R, R), got {h.shape}")
        totals = h.sum(axis=(1, 2))
        off = ~(np.abs(totals - 1.0) <= DISTRIBUTION_ATOL)  # NaN and +-inf too
        for i in np.flatnonzero(off | (h < 0).any(axis=(1, 2))):
            plane = f"joint {i // 3} {PLANES[i % 3]} plane"
            if off[i]:
                raise InvalidDistribution(f"{plane} sums to {totals[i]:.9f}, expected 1")
            raise InvalidDistribution(f"{plane} has negative mass")


@dataclass(frozen=True)
class Pose3D:
    """Joint coordinates, either normalized cube units or millimeters."""

    joints: np.ndarray = field(repr=False)
    frame: str = "camera"  # "normalized" | "camera" | "world"

    def __post_init__(self):
        j = freeze(self, "joints", np.float64)
        if j.ndim != 2 or j.shape[1] != 3:
            raise DataError(f"joints must be (J, 3), got {j.shape}")
        if not np.all(np.isfinite(j)):
            raise NonFinite("joint coordinates must be finite")

    @property
    def num_joints(self) -> int:
        return self.joints.shape[0]


def soft_argmax(h: np.ndarray) -> np.ndarray:
    """Expected (col, row) cell-center coordinates under the grid.

    The grid is normalized internally, so any finite non-negative grid
    with positive mass works; the result lives in (-1, 1)^2.
    """
    g = np.asarray(h, dtype=np.float64)
    if not np.all((g >= 0) & (g < np.inf)):
        raise InvalidDistribution("grid has negative or non-finite entries")
    total = float(g.sum())
    if total <= 0:
        raise ZeroMass("grid has no mass")
    c = cell_centers(g.shape[1])
    r = cell_centers(g.shape[0])
    a = float(g.sum(axis=0) @ c) / total
    b = float(g.sum(axis=1) @ r) / total
    return np.array([a, b])


def soft_argmax_grad(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and Jacobian (2, R, R) of soft_argmax w.r.t. the grid."""
    g = np.asarray(h, dtype=np.float64)
    ab = soft_argmax(g)
    total = float(g.sum())
    c = cell_centers(g.shape[1])
    r = cell_centers(g.shape[0])
    jac = np.empty((2,) + g.shape)
    jac[0] = (c[None, :] - ab[0]) / total
    jac[1] = (r[:, None] - ab[1]) / total
    return ab, jac


def fuse_planes(h: Heatmaps) -> np.ndarray:
    """Triangulate the (J, 3) joints: x and y from the xy plane, z averaged
    from the xz rows and zy columns."""
    xy, xz, zy = np.array([soft_argmax(g) for g in h.stack]).reshape(-1, 3, 2).transpose(1, 0, 2)
    return np.column_stack([xy, (xz[:, 1] + zy[:, 0]) / 2.0])


# -- divergences and elementwise losses -----------------------------------------


def _same_shape(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as float64 arrays, once checked to share one shape."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence, natural log, 0*log(0) = 0.

    Defined for any pair of same-shaped non-negative arrays; for
    probability distributions the value lies in [0, ln 2].
    """
    a, b = _same_shape(np.ravel(p), np.ravel(q))
    if np.any(a < 0) or np.any(b < 0):
        raise InvalidDistribution("negative mass")
    m = 0.5 * (a + b)
    log_m = np.log(np.where(m > 0, m, 1.0))
    term_a, term_b = (np.where(v > 0, v * (np.log(np.where(v > 0, v, 1.0)) - log_m), 0.0)
                      for v in (a, b))
    return float(0.5 * (term_a.sum() + term_b.sum()))


def jsd_grad(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of jsd w.r.t. both arguments; requires strictly positive
    entries (the divergence is not differentiable at zeros)."""
    a, b = _same_shape(p, q)
    if np.any(a <= 0) or np.any(b <= 0):
        raise InvalidDistribution("gradient needs strictly positive entries")
    m = 0.5 * (a + b)
    return 0.5 * np.log(a / m), 0.5 * np.log(b / m)


def bce(target: np.ndarray, prob: np.ndarray) -> float:
    """Mean binary cross entropy; probabilities are clipped away from
    {0, 1} by 1e-7 before the logs."""
    y, p = _same_shape(target, prob)
    check_range("probabilities", p, 0, 1, ProbabilityOutOfRange)
    pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)))


def bce_grad(target: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Gradient of bce w.r.t. prob, exact where the clip is inactive."""
    y, p = _same_shape(target, prob)
    p = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    return (-(y / p) + (1.0 - y) / (1.0 - p)) / p.size


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    a, b = _same_shape(pred, target)
    return float(np.mean((a - b) ** 2))


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    a, b = _same_shape(pred, target)
    return 2.0 * (a - b) / a.size


def mask_errors(pred_masks: np.ndarray, gt_masks: np.ndarray) -> np.ndarray:
    """Mean absolute error of each mask of an (N, ...) stack, float64 (N,)."""
    p, g = _same_shape(pred_masks, gt_masks)
    return np.abs(p - g).reshape(p.shape[0], -1).mean(axis=1)


# -- numeric gradient verification ------------------------------------------------


def gradient_check(f: Callable[[np.ndarray], float],
                   grad: Callable[[np.ndarray], np.ndarray] | np.ndarray,
                   point: np.ndarray, step: float = 1e-5) -> float:
    """Max relative deviation between an analytic gradient and central
    finite differences, over all coordinates of `point`.

    Relative deviation per coordinate is |analytic - fd| / (|fd| + 1e-8).
    """
    check_range("step", step, 1e-6, 1e-3, DataError)
    x = np.array(point, dtype=np.float64)
    analytic = np.asarray(grad(x) if callable(grad) else grad, dtype=np.float64)
    if analytic.shape != x.shape:
        raise LengthMismatch(f"gradient shape {analytic.shape} vs point {x.shape}")
    if not np.all(np.isfinite(analytic)):
        raise NonFinite("analytic gradient is not finite")
    worst = 0.0
    flat = x.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(f(x))
        flat[i] = keep - step
        lo = float(f(x))
        flat[i] = keep
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFinite(f"function not finite near coordinate {i}")
        fd = (hi - lo) / (2.0 * step)
        dev = abs(analytic.reshape(-1)[i] - fd) / (abs(fd) + 1e-8)
        worst = max(worst, dev)
    return worst


# -- denormalization ---------------------------------------------------------------


def denormalize(pose, cam: CameraModel, head_depth_mm: float) -> Pose3D:
    """Map a normalized-cube pose back to camera-frame millimeters.

    Exact inverse of the label normalization for the same camera and
    head depth.
    """
    joints = pose.joints if isinstance(pose, Pose3D) else np.asarray(pose, dtype=np.float64)
    return Pose3D(joints=denormalize_camera_points(cam, joints, head_depth_mm),
                  frame="camera")


# -- pose CSV ----------------------------------------------------------------------


POSE_HEADER = "joint,x,y,z"


def write_pose_csv(path, pose: Pose3D, names: Sequence[str]) -> None:
    if len(names) != pose.num_joints:
        raise LengthMismatch(f"{len(names)} names for {pose.num_joints} joints")
    for name in names:  # either would split the name's row on reading
        if "," in name or "".join(name.splitlines()) != name:
            raise DataError(f"joint name {name!r} holds a comma or a line break")
    with table_writer(path, POSE_HEADER, "%s,%r,%r,%r") as write:
        write((name, *xyz) for name, xyz in zip(names, pose.joints.tolist()))


def read_pose_csv(path) -> tuple[list[str], Pose3D]:
    with open(path) as f, from_file(path):
        _, (names, *xyz) = read_table(f, POSE_HEADER, (str, float, float, float))
        return names, Pose3D(joints=np.array(xyz, dtype=np.float64).T)
