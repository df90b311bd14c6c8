"""Human-body mask gating of decay volumes with early-exit reuse.

A mask predictor returns, per invocation, a plan: masks for the current
frame and a few future frames, each with a quality score in [0, 1]
(higher is better; scores are oriented as 1 - MAE against ground truth).
The scheduler reuses a planned future mask whenever its score clears the
threshold beta, and only invokes the predictor again when the plan runs
out or the score falls short. beta = 0 therefore minimizes predictor
calls at ceil(F / horizon); beta = 1 with imperfect scores recomputes on
every frame. A schedule is saved as schedule.csv, an `events` text table
whose layout `SCHEDULE_HEADER` and `schedule_writer` hold.

The trained predictor itself is a pluggable backend. A deterministic
reference backend (activity percentile, morphological closing, largest
connected component, dilated future masks with decaying scores) stands
in so the pipeline runs end to end without a network. It reads a frame
only through `above_percentile`, its seed mask. Its image kernels are
numpy only: `_dilate` and `_erode` are 3x3 shifted ORs and ANDs, in
place on copies of the mask, with the pixels outside the image left out
(read as 0), and `_largest_component` is a run-based labeling in
the spirit of He, Chao and Suzuki, "A run-based two-scan labeling
algorithm" (IEEE TIP 2008), with the run equivalences resolved by
vectorised root hooking and pointer jumping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyPlan,
    GeometryMismatch,
    LengthMismatch,
    ProbabilityOutOfRange,
    check_budget,
    check_range,
    from_file,
)
from .events import (RecordFileWriter, SensorGeometry, freeze, pack_header, read_header,
                     read_table, table_writer)
from .representations import ToreVolume, WindowFrame


@dataclass(frozen=True)
class MaskPlan:
    """Masks for the issuing frame plus following frames, with scores."""

    masks: np.ndarray = field(repr=False)   # (N, H, W) bool
    scores: np.ndarray = field(repr=False)  # (N,) in [0, 1]

    def __post_init__(self):
        m = freeze(self, "masks", bool)
        s = freeze(self, "scores", np.float64)
        if m.ndim != 3:
            raise GeometryMismatch(f"masks must be (N, H, W), got {m.shape}")
        if m.shape[0] == 0:
            raise EmptyPlan("plan must hold at least one mask")
        if s.shape != (m.shape[0],):
            raise EmptyPlan(f"{m.shape[0]} masks but {s.shape} scores")
        check_range("plan scores", s, 0, 1, ProbabilityOutOfRange)

    @property
    def horizon(self) -> int:
        return self.masks.shape[0]


class MaskPredictorBackend(Protocol):
    """Seam for the trained predictor; must be deterministic.

    `vol` is a `ToreVolume` or a `representations.WindowFrame`, whose
    docstring states what a frame offers and how long it stays valid; a
    backend must not keep it. The reference backend reads only
    `vol.above_percentile(q)`, which both types compute bit for bit alike.
    """

    def predict(self, vol: ToreVolume | WindowFrame) -> MaskPlan: ...


def apply_mask(vol: ToreVolume, mask: np.ndarray) -> ToreVolume:
    """Zero every channel outside the mask, read as bool like every mask of
    the toolkit: a nonzero value is foreground, its pixel kept unscaled."""
    m = vol.geometry.check_shape("mask", np.asarray(mask, dtype=bool))
    return replace(vol, data=vol.data * m.astype(vol.data.dtype))


def mask_quality_ground_truth(pred: np.ndarray, gt: np.ndarray) -> float:
    """1 - MAE between binary masks, so identical masks score 1.0 and
    complementary masks score 0.0."""
    from .pose_math import mask_errors  # here, so that importing gating loads no pose_math

    return 1.0 - float(mask_errors(np.asarray(pred)[None], np.asarray(gt)[None])[0])


# -- scheduling ----------------------------------------------------------------


class ScheduleEntry(NamedTuple):
    """One frame's decision, and one schedule.csv row."""

    frame: int
    recompute: bool
    score_used: float


@dataclass(frozen=True)
class ScheduleResult:
    entries: list[ScheduleEntry]
    masks: np.ndarray = field(repr=False)  # (F, H, W) bool, mask used per frame
    backend_calls: int = 0


def iter_schedule(frames: Iterable[ToreVolume | WindowFrame], backend: MaskPredictorBackend,
                  beta: float) -> Iterator[tuple[ToreVolume | WindowFrame, ScheduleEntry,
                                                 np.ndarray]]:
    """Run the early-exit mask schedule over frames, one frame at a time.

    Frame 0 always invokes the backend. Frame k reuses the most recent
    plan's mask for k when that mask's score is >= beta; otherwise the
    backend runs on frame k and starts a new plan. The decision reads only
    the plan's scores, so a reused frame is never read here. Only the
    newest plan is retained, during the backend's call too: the old plan is
    dropped before it, and each yielded mask is a copy, so a caller that
    keeps the last mask keeps no plan. Yields (frame, entry, mask) per
    frame and draws the next frame only after the caller has taken the
    last one; beta is checked when this is called, before the first frame
    is drawn.

    Frames are `ToreVolume`s or the lazy `representations.WindowFrame`s,
    whose contract `WindowFrame` states.
    """
    check_range("beta", beta, 0, 1)
    return _schedule(frames, backend, beta)


def _schedule(frames, backend, beta):
    plan: MaskPlan | None = None
    plan_start = 0  # frame whose volume the backend predicted `plan` from
    for k, vol in enumerate(frames):
        offset = k - plan_start
        reuse = plan is not None and offset < plan.horizon and plan.scores[offset] >= beta
        if not reuse:
            plan = None  # freed before the backend builds the next
            plan = backend.predict(vol)
            if plan is None or plan.horizon < 1:
                raise EmptyPlan("backend returned an empty plan")
            vol.geometry.check_shape("backend plan masks", plan.masks, 3)
            plan_start, offset = k, 0
        entry = ScheduleEntry(frame=k, recompute=not reuse,
                              score_used=float(plan.scores[offset]))
        yield vol, entry, plan.masks[offset].copy()


def schedule_masks(frames: Sequence[ToreVolume], backend: MaskPredictorBackend,
                   beta: float) -> ScheduleResult:
    """Collect iter_schedule over a frame sequence into one result."""
    entries: list[ScheduleEntry] = []
    masks = []
    for _, entry, mask in iter_schedule(frames, backend, beta):
        entries.append(entry)
        masks.append(mask)
    stack = np.stack(masks) if masks else np.zeros((0, 0, 0), dtype=bool)
    return ScheduleResult(entries=entries, masks=stack,
                          backend_calls=sum(e.recompute for e in entries))


SCHEDULE_HEADER = "frame,recompute,score_used\n"


def schedule_writer(path):
    """`events.table_writer` of ScheduleEntry rows; a score's repr round-trips exactly."""
    return table_writer(path, SCHEDULE_HEADER.strip(), "%d,%d,%r")


def write_schedule_csv(path, entries: Sequence[ScheduleEntry]) -> None:
    with schedule_writer(path) as write:
        write(entries)


def read_schedule_csv(path) -> list[ScheduleEntry]:
    """Inverse of write_schedule_csv: rows number the frames 0, 1, 2, ...,
    flag a recompute 0 or 1 and hold a score in [0, 1], or the row is a
    DataError naming the file and the line (the header is line 1)."""
    out = []
    with open(path) as f, from_file(path):
        line_nos, columns = read_table(f, SCHEDULE_HEADER.strip(), (int, int, float))
        for line_no, frame, rec, score in zip(line_nos, *columns):
            if frame != len(out) or rec not in (0, 1) or not 0.0 <= score <= 1.0:  # NaN too
                raise DataError(f"line {line_no}: expected frame {len(out)}, recompute 0 or 1 "
                                f"and a score in [0, 1], got '{frame},{rec},{score!r}'")
            out.append(ScheduleEntry(frame=frame, recompute=rec == 1, score_used=score))
    return out


# -- deterministic reference backend --------------------------------------------


# 3x3 morphology as shifted ORs / ANDs, separable into a row pass and a
# column pass, each in place on a copy; no pass reads outside the image.

def _combine3x3(mask: np.ndarray, op) -> np.ndarray:
    """op, a bitwise ufunc, of each pixel and its in-image 3x3 neighbours."""
    rows = mask.copy()
    op(rows[:, 1:], mask[:, :-1], out=rows[:, 1:])
    op(rows[:, :-1], mask[:, 1:], out=rows[:, :-1])
    out = rows.copy()
    op(out[1:], rows[:-1], out=out[1:])
    op(out[:-1], rows[1:], out=out[:-1])
    return out


def _dilate(mask: np.ndarray) -> np.ndarray:
    """3x3 binary dilation; outside pixels are 0."""
    return _combine3x3(mask, np.bitwise_or)


def _erode(mask: np.ndarray) -> np.ndarray:
    """3x3 binary erosion; outside pixels are 0, so it clears the image border."""
    out = _combine3x3(mask, np.bitwise_and)
    out[[0, -1]] = False
    out[:, [0, -1]] = False
    return out


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Largest 8-connected component of a 2-D bool mask.

    Run-based labeling: each row's runs of set pixels are nodes, runs in
    adjacent rows that touch (diagonally included) are edges, and a
    union-find over the runs hooks every root to the smallest root among
    its neighbours, then jumps pointers until each run points at its
    component's first run in raster order. On a size tie the component
    whose first pixel comes first in raster order wins.
    """
    h, w = mask.shape
    stride = w + 1  # a zero column starts every row, so no run crosses rows
    flat = np.zeros(h * stride + 1, dtype=bool)
    flat[:-1].reshape(h, stride)[:, 1:] = mask
    starts = np.flatnonzero(flat[1:] > flat[:-1]) + 1
    ends = np.flatnonzero(flat[1:] < flat[:-1]) + 1  # exclusive
    if starts.size == 0:
        return np.zeros((h, w), dtype=bool)
    # runs of the row above that touch run i: columns overlap once widened by 1
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    counts = hi - lo
    below = np.repeat(np.arange(starts.size), counts)
    above = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(below.size)
    parent = np.arange(starts.size)
    while above.size:
        ra, rb = parent[above], parent[below]
        split = ra != rb
        above, below, ra, rb = above[split], below[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    sizes = np.bincount(parent, weights=ends - starts, minlength=starts.size)
    keep = parent == int(np.argmax(sizes))
    marks = np.zeros(h * stride + 1, dtype=np.int8)
    marks[starts[keep]] = 1
    marks[ends[keep]] = -1
    return np.cumsum(marks, dtype=np.int8).view(bool)[:-1].reshape(h, stride)[:, 1:].copy()


@dataclass(frozen=True)
class ReferenceMaskBackend:
    """Stand-in predictor: no training, pure image morphology.

    Foreground is the set of pixels whose activity, the maximum over the
    channels, exceeds the configured percentile of the activity image
    (`vol.above_percentile`), cleaned by one 3x3 binary closing, reduced
    to the single largest connected component (the toolkit is
    single-person). Future mask k
    dilates mask k - 1 once to absorb plausible motion and scores
    max(0.2, 1 - 0.1 k); an empty mask scores 0.2 everywhere.
    """

    horizon: int = 4
    activity_percentile: float = 80.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        check_range("activity_percentile", self.activity_percentile, 0, 100)

    def check_geometry(self, geometry: SensorGeometry) -> None:
        """ConfigError unless a plan on geometry, horizon masks of one byte
        per pixel, fits the byte budget."""
        check_budget("horizon", self.horizon, self.horizon * geometry.num_pixels)

    def predict(self, vol: ToreVolume | WindowFrame) -> MaskPlan:
        self.check_geometry(vol.geometry)
        fg = _largest_component(_erode(_dilate(vol.above_percentile(self.activity_percentile))))
        masks = np.empty((self.horizon,) + fg.shape, dtype=bool)
        masks[0] = fg
        for k in range(1, self.horizon):
            masks[k] = _dilate(masks[k - 1])
        if fg.any():
            scores = np.maximum(0.2, 1.0 - 0.1 * np.arange(self.horizon))
        else:
            scores = np.full(self.horizon, 0.2)
        return MaskPlan(masks=masks, scores=scores)


class ExternalMaskBackend:
    """Backend serving precomputed per-window masks.

    The plan for a query volume starts at the window whose end time
    matches the volume's query timestamp: a view of the stack's next
    horizon masks, fewer at its end, so a window past the stack is a
    DataError. Score rows come from an optional CSV (one row per frame,
    horizon columns), defaulting to 1.0.
    """

    def __init__(self, masks: np.ndarray, window_us: int, origin_us: int,
                 horizon: int, scores: np.ndarray | None = None):
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        self.masks = np.asarray(masks, dtype=bool)  # the caller's bool stack, not a copy
        # the score table, 8 bytes a score; a plan is a view of the stack
        check_budget("horizon", horizon, 8 * self.masks.shape[0] * horizon)
        self.window_us = window_us
        self.origin_us = origin_us
        self.horizon = horizon
        if scores is None:
            scores = np.ones((self.masks.shape[0], horizon))
        self.scores = np.asarray(scores, dtype=np.float64)
        if self.scores.shape != (self.masks.shape[0], horizon):
            raise LengthMismatch(
                f"scores must be ({self.masks.shape[0]}, {horizon}), "
                f"got {self.scores.shape}")
        check_range("external scores", self.scores, 0, 1, ProbabilityOutOfRange)

    def predict(self, vol: ToreVolume | WindowFrame) -> MaskPlan:
        k = (vol.query_time_us - self.origin_us) // self.window_us - 1
        n = self.masks.shape[0]
        if not 0 <= k < n:
            raise DataError(f"no external mask for window {k}: the stack holds {n} mask(s)")
        plan = self.masks[k:k + self.horizon]
        return MaskPlan(masks=plan, scores=self.scores[k, :len(plan)])


# -- MSK1 mask stack format -------------------------------------------------------
# The counted-record layout of `events` with magic b"MSK1": each record is
# one mask, ceil(W*H/8) bytes, bit-packed row-major.

MSK1_MAGIC = b"MSK1"


def _mask_bytes(geometry: SensorGeometry) -> int:
    return -(-geometry.num_pixels // 8)


def _mask_record(geometry: SensorGeometry, mask: np.ndarray) -> bytes:
    m = geometry.check_shape("mask", np.asarray(mask).astype(bool, copy=False))
    return np.packbits(m.reshape(-1)).tobytes()


def serialize_masks(geometry: SensorGeometry, masks: np.ndarray) -> bytes:
    records = [_mask_record(geometry, m) for m in masks]
    return pack_header(MSK1_MAGIC, geometry, len(records)) + b"".join(records)


def write_masks(path, geometry: SensorGeometry, masks: np.ndarray) -> None:
    with MaskStackWriter(path, geometry) as out:
        for mask in masks:
            out.append(mask)


def read_masks(path) -> tuple[SensorGeometry, np.ndarray]:
    """The file's geometry and masks. The stack unpacks to a byte a pixel,
    so its header is checked against the byte budget before the payload
    is read, which needs the file's size: a pipe or device is refused."""
    with open(path, "rb") as f, from_file(path):
        geometry, count = read_header(f, MSK1_MAGIC, _mask_bytes, "mask", "mask stack")
        check_budget("external_masks", path, count * geometry.num_pixels)
        size = _mask_bytes(geometry)
        bits = np.fromfile(f, np.uint8, count * size).reshape(count, size)  # fails if it shrank
    # 0/1 bytes unpacked once, then viewed as bool: the stack is held once
    unpacked = np.unpackbits(bits, axis=1, count=geometry.num_pixels)
    return geometry, unpacked.view(bool).reshape(count, geometry.height, geometry.width)


class MaskStackWriter(RecordFileWriter):
    """MSK1 file written one mask at a time, as a context manager (see
    `events.RecordFileWriter`). A completed file is byte-identical to
    `serialize_masks`."""

    def __init__(self, path, geometry: SensorGeometry):
        super().__init__(path, MSK1_MAGIC, geometry)

    def append(self, mask: np.ndarray) -> None:
        self.write(_mask_record(self.geometry, mask), 1)
