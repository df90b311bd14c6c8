"""Pose-error metrics, occlusion augmentation, and evaluation reports.

MPJPE averages per-joint Euclidean error in millimeters. PCK is the
fraction of joints whose error is strictly below a threshold (150 mm by
default); the strict inequality follows the sign-based counting rule, so
a zero threshold scores 0 even for perfect joints. AUC averages PCK over
30 thresholds evenly spaced from 0 to 500 mm inclusive, which puts a
perfect prediction at exactly 29/30.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, DataError, EmptyInput, JointCountMismatch, check_range, from_file
from .events import table_writer
from .pose_math import JOINT_NAMES_13, Pose3D, mask_errors, read_pose_csv

if TYPE_CHECKING:
    from .gating import MaskPredictorBackend
    from .representations import ToreVolume

PCK_THRESHOLD_MM = 150.0
AUC_MAX_MM = 500.0
AUC_STEPS = 30

CONDITION_AXES = {
    "lighting": ("high", "medium", "low"),
    "background": ("static", "dynamic"),
    "view": ("front", "back", "left", "right"),
}


def _joints(pose) -> np.ndarray:
    a = pose.joints if isinstance(pose, Pose3D) else np.asarray(pose, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise JointCountMismatch(f"pose must be (J, 3), got {a.shape}")
    return a


def joint_errors(pred, gt) -> np.ndarray:
    p, g = _joints(pred), _joints(gt)
    if p.shape != g.shape:
        raise JointCountMismatch(f"joint counts differ: {p.shape[0]} vs {g.shape[0]}")
    return np.linalg.norm(p - g, axis=1)


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error in millimeters."""
    return float(joint_errors(pred, gt).mean())


def pck(pred, gt, alpha_mm: float = PCK_THRESHOLD_MM) -> float:
    """Fraction of joints with error strictly below alpha_mm."""
    if not 0 <= alpha_mm < math.inf:
        raise ConfigError(f"alpha_mm must be non-negative and finite, got {alpha_mm}")
    return float(_pck(joint_errors(pred, gt), alpha_mm))


def auc_thresholds() -> np.ndarray:
    return np.linspace(0.0, AUC_MAX_MM, AUC_STEPS)


def auc(pred, gt) -> float:
    """Mean PCK over the standard 30-threshold sweep."""
    return float(_auc(joint_errors(pred, gt)))


def _pck(err: np.ndarray, alpha_mm) -> np.ndarray:
    """PCK of each record of joint errors whose last axis is the joints."""
    return np.mean(err < alpha_mm, axis=-1)


def _auc(err: np.ndarray) -> np.ndarray:
    return np.mean(_pck(err[..., None, :], auc_thresholds()[:, None]), axis=-1)


# -- occlusion augmentation -------------------------------------------------------


def occlude(vol: ToreVolume, prob: float, rng,
            max_height: int = 80, max_width: int = 80) -> ToreVolume:
    """With probability prob, zero one random axis-aligned rectangle
    across all channels.

    Side lengths are uniform in [1, max] (clipped to the frame), the
    location uniform over in-bounds placements. Draw order is fixed
    (occlude?, height, width, top, left) so a seeded run replays exactly.
    """
    check_range("prob", prob, 0, 1)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if gen.random() >= prob:
        return vol
    h_img, w_img = vol.geometry.height, vol.geometry.width
    h = int(gen.integers(1, min(max_height, h_img) + 1))
    w = int(gen.integers(1, min(max_width, w_img) + 1))
    top = int(gen.integers(0, h_img - h + 1))
    left = int(gen.integers(0, w_img - w + 1))
    data = vol.data.copy()
    data[:, top : top + h, left : left + w] = 0.0
    return replace(vol, data=data)


# -- grouped evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    frame_id: int
    pred: Pose3D
    gt: Pose3D
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        for pose, which in ((self.pred, "pred"), (self.gt, "gt")):
            if pose.num_joints != len(JOINT_NAMES_13):
                raise JointCountMismatch(f"{which} pose has {pose.num_joints} joints, "
                                         f"expected {len(JOINT_NAMES_13)}")
        for axis, allowed in CONDITION_AXES.items():
            v = self.tags.get(axis)
            if v is not None and v not in allowed:
                raise DataError(f"tag {axis}={v!r} not in {allowed}")


@dataclass(frozen=True)
class GroupMetrics:
    count: int
    mpjpe: float
    pck: float
    auc: float


@dataclass(frozen=True)
class EvalReport:
    overall: GroupMetrics
    groups: dict  # group label -> GroupMetrics
    per_joint_mpjpe: np.ndarray = field(repr=False)
    group_by: tuple = ()


def _metrics_over(err: np.ndarray) -> GroupMetrics:
    """Means over records of MPJPE, PCK and AUC, from (R, J) joint errors."""
    return GroupMetrics(
        count=len(err),
        mpjpe=float(np.mean(err.mean(axis=1))),
        pck=float(np.mean(_pck(err, PCK_THRESHOLD_MM))),
        auc=float(np.mean(_auc(err))),
    )


def evaluate(records: Sequence[EvalRecord], group_by: Sequence[str] = ()) -> EvalReport:
    """Overall, per-group and per-joint metrics over a record set.

    group_by names condition axes; records grouped by their tag tuple.
    With no axes, the report holds a single overall row.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no evaluation records")
    group_by = tuple(group_by)
    for axis in group_by:
        if axis not in CONDITION_AXES:
            raise ConfigError(f"unknown group-by axis {axis!r}, expected one of "
                              f"{', '.join(CONDITION_AXES)}")
    err = np.stack([joint_errors(r.pred, r.gt) for r in records])
    buckets: dict = {}
    for i, r in enumerate(records):
        buckets.setdefault(tuple(r.tags.get(a, "?") for a in group_by), []).append(i)
    groups = {"/".join(key): _metrics_over(err[buckets[key]])
              for key in sorted(buckets)} if group_by else {}
    return EvalReport(overall=_metrics_over(err), groups=groups,
                      per_joint_mpjpe=err.mean(axis=0), group_by=group_by)


def report_to_csv(report: EvalReport, path) -> None:
    o = report.overall
    scopes = [("overall", "", o), *(("group", key, g) for key, g in report.groups.items())]
    with table_writer(path, "scope,key,count,mpjpe_mm,pck,auc", "%s,%s,%d,%r,%s,%s") as write:
        write((scope, key, g.count, g.mpjpe, repr(g.pck), repr(g.auc)) for scope, key, g in scopes)
        write(("joint", name, o.count, err, "", "")
              for name, err in zip(JOINT_NAMES_13, report.per_joint_mpjpe.tolist()))


def format_report(report: EvalReport) -> str:
    lines = []
    o = report.overall
    lines.append(f"{'scope':24s} {'n':>6s} {'MPJPE(mm)':>12s} {'PCK':>8s} {'AUC':>8s}")
    lines.append(f"{'overall':24s} {o.count:6d} {o.mpjpe:12.3f} {o.pck:8.4f} {o.auc:8.4f}")
    for key, g in report.groups.items():
        lines.append(f"{key:24s} {g.count:6d} {g.mpjpe:12.3f} {g.pck:8.4f} {g.auc:8.4f}")
    lines.append("")
    lines.append("per-joint MPJPE(mm):")
    for name, err in zip(JOINT_NAMES_13, report.per_joint_mpjpe):
        lines.append(f"  {name:14s} {float(err):10.3f}")
    return "\n".join(lines)


def _canonical_pose(path) -> Pose3D:
    """A pose CSV's pose in JOINT_NAMES_13 order, or a DataError naming the file."""
    names, pose = read_pose_csv(path)
    if sorted(names) != sorted(JOINT_NAMES_13):
        raise DataError(f"{path}: joint names {names} are not the 13 joints "
                        f"{list(JOINT_NAMES_13)} in some order")
    return replace(pose, joints=pose.joints[[names.index(n) for n in JOINT_NAMES_13]])


# the JSON type of each field a manifest record may hold
_RECORD_FIELDS = {"frame": (int, "integer"), "pred": (str, "string"), "gt": (str, "string"),
                  **dict.fromkeys(CONDITION_AXES, (str, "string"))}


def load_eval_manifest(path) -> list[EvalRecord]:
    """Manifest JSON: {"records": [{"frame": i, "pred": path, "gt": path,
    "lighting"/"background"/"view": tag}, ...]}; pose paths are relative
    to the manifest. Paths and tags are strings, a tag one of its
    CONDITION_AXES values, and a frame an integer; any other value is a
    DataError naming the record and the field. Every
    pose file must name the 13 joints of JOINT_NAMES_13, in any order, and
    its joints are put in that order."""
    path = Path(path)
    out = []
    with from_file(path):
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
            raise DataError("manifest lacks a records list")
        for i, entry in enumerate(doc["records"]):
            if not isinstance(entry, dict) or not {"pred", "gt"} <= entry.keys():
                raise DataError(f"record {i} lacks a 'pred' or 'gt' path")
            for key, (kind, name) in _RECORD_FIELDS.items():
                if key not in entry:
                    continue
                # exact types: a JSON true is no frame number, nor 1.5 frame 1
                if type(entry[key]) is not kind:
                    raise DataError(f"record {i} field {key!r} must be a JSON {name}, "
                                    f"got {json.dumps(entry[key])}")
                allowed = CONDITION_AXES.get(key)
                if allowed and entry[key] not in allowed:
                    raise DataError(f"record {i} field {key!r} must be one of "
                                    f"{', '.join(map(repr, allowed))}, "
                                    f"got {json.dumps(entry[key])}")
            tags = {a: entry[a] for a in CONDITION_AXES if a in entry}
            out.append(EvalRecord(frame_id=entry.get("frame", i),
                                  pred=_canonical_pose(path.parent / entry["pred"]),
                                  gt=_canonical_pose(path.parent / entry["gt"]), tags=tags))
    return out


# -- early-exit threshold sweep -------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    beta: float
    backend_calls: int
    elapsed_s: float
    mask_mae: float | None = None


def threshold_sweep(frames: Sequence[ToreVolume], backend: MaskPredictorBackend,
                    betas: Sequence[float],
                    gt_masks: np.ndarray | None = None) -> list[SweepPoint]:
    """Run the mask schedule once per beta over the same frames.

    Reports backend call counts, wall time, and (when ground-truth masks
    are supplied) the mean absolute error of the masks actually used.
    MAE stands in for pose accuracy here since no trained pose backend
    is part of the toolkit.
    """
    from .gating import schedule_masks

    frames = list(frames)
    betas = list(betas)
    if not frames or not betas:
        raise EmptyInput("need at least one frame and one beta")
    if gt_masks is not None and len(gt_masks) != len(frames):
        raise DataError(f"{len(gt_masks)} ground-truth masks for {len(frames)} frames")
    out = []
    for beta in betas:
        start = time.perf_counter()
        result = schedule_masks(frames, backend, beta)
        elapsed = time.perf_counter() - start
        mae = None
        if gt_masks is not None:
            mae = float(np.mean(mask_errors(result.masks, gt_masks)))
        out.append(SweepPoint(beta=float(beta), backend_calls=result.backend_calls,
                              elapsed_s=elapsed, mask_mae=mae))
    return out
