"""Pinhole camera model, projection, and the normalized prediction cube.

World joints (millimeters) map through the 3x4 extrinsic into the camera
frame, then through the 3x3 intrinsic onto the image plane. For network
targets, camera-frame joints are normalized into a [-1, 1]^3 cube that is
anchored at a reference depth (the head joint in practice):

  1. project every joint through the camera center onto the plane
     parallel to the image plane at depth z_ref;
  2. scale plane coordinates by the view half-extents at that depth,
     a_x = cx * z_ref / fx and a_y = cy * z_ref / fy (the principal
     point is assumed centered on the sensor);
  3. express depth as (z - z_ref) / a_x, sharing the horizontal extent
     so x and z are metrically comparable.

The mapping is affine per axis, exactly invertible given the camera and
z_ref, and sends the reference joint's depth coordinate to exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, DataError, InvalidDepth, from_file
from .events import freeze


@dataclass(frozen=True)
class CameraModel:
    intrinsic: np.ndarray = field(repr=False)   # 3x3
    extrinsic: np.ndarray = field(repr=False)   # 3x4, world -> camera, mm

    def __post_init__(self):
        k = freeze(self, "intrinsic", np.float64)
        e = freeze(self, "extrinsic", np.float64)
        if k.shape != (3, 3):
            raise DataError(f"intrinsic must be 3x3, got {k.shape}")
        if e.shape != (3, 4):
            raise DataError(f"extrinsic must be 3x4, got {e.shape}")
        if not (np.isfinite(k).all() and np.isfinite(e).all()):
            raise DataError("camera entries must be finite")
        if k[1, 0] != 0 or k[2, 0] != 0 or k[2, 1] != 0 or k[2, 2] != 1:
            raise DataError("intrinsic must be upper-triangular with K[2,2] = 1")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise DataError("focal entries must be positive")

    @property
    def fx(self) -> float:
        return float(self.intrinsic[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsic[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsic[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsic[1, 2])


def to_camera_frame(cam: CameraModel, pts_world: np.ndarray) -> np.ndarray:
    """Apply the extrinsic transform to (N, 3) world points."""
    pts = np.asarray(pts_world, dtype=np.float64)
    return pts @ cam.extrinsic[:, :3].T + cam.extrinsic[:, 3]


def _check_depth(z: np.ndarray) -> np.ndarray:
    """z once every depth is positive, else BehindCamera, its `point` the first that is not."""
    behind = np.flatnonzero(~(z > 0))
    if behind.size:
        err = BehindCamera(f"point {behind[0]} at non-positive depth {z[behind[0]]} mm")
        err.point = int(behind[0])
        raise err
    return z


def project_camera_points(cam: CameraModel, pts_cam: np.ndarray) -> np.ndarray:
    """Pinhole projection of camera-frame points to (N, 2) pixels."""
    pts = np.asarray(pts_cam, dtype=np.float64)
    _check_depth(pts[:, 2])
    uvw = pts @ cam.intrinsic.T
    return uvw[:, :2] / uvw[:, 2:3]


def view_half_extents(cam: CameraModel, z_ref: float) -> tuple[float, float]:
    """Half width/height of the viewed plane at depth z_ref (mm)."""
    if not 0 < z_ref < math.inf:
        raise InvalidDepth(f"reference depth must be positive and finite, got {z_ref}")
    return cam.cx * z_ref / cam.fx, cam.cy * z_ref / cam.fy


def normalize_camera_points(cam: CameraModel, pts_cam: np.ndarray,
                            z_ref: float) -> np.ndarray:
    """Map camera-frame points (mm) into the [-1, 1]^3 cube at z_ref."""
    pts = np.asarray(pts_cam, dtype=np.float64)
    z = _check_depth(pts[:, 2])
    ax, ay = view_half_extents(cam, z_ref)
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 0] * z_ref / z / ax
    out[:, 1] = pts[:, 1] * z_ref / z / ay
    out[:, 2] = (z - z_ref) / ax
    return out


def denormalize_camera_points(cam: CameraModel, pts_norm: np.ndarray,
                              z_ref: float) -> np.ndarray:
    """Exact inverse of normalize_camera_points."""
    pts = np.asarray(pts_norm, dtype=np.float64)
    ax, ay = view_half_extents(cam, z_ref)
    z = _check_depth(z_ref + pts[:, 2] * ax)
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 0] * ax * z / z_ref
    out[:, 1] = pts[:, 1] * ay * z / z_ref
    out[:, 2] = z
    return out


# -- text file format: 9 intrinsic floats then 12 extrinsic floats, row-major --


def save_camera(path, cam: CameraModel) -> None:
    with open(path, "w") as f:
        for row in cam.intrinsic:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")
        for row in cam.extrinsic:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_camera(path) -> CameraModel:
    with open(path) as f, from_file(path):
        vals = [float(v) for line in f for v in line.split()]
        if len(vals) != 21:
            raise DataError(f"camera file must hold 9 + 12 floats, got {len(vals)}")
        a = np.asarray(vals, dtype=np.float64)
        return CameraModel(intrinsic=a[:9].reshape(3, 3), extrinsic=a[9:].reshape(3, 4))
