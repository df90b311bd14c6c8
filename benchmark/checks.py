"""Output checks for the benchmark workloads.

Each check compares the program's files with a computation made here,
apart from the program (a full-history replay of the event stream, the
pinhole normalization written out from its definition), or with a
property the method must have. Nothing is compared with a stored copy of
earlier output. Every check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from pathlib import Path

import numpy as np

import workloads as wl

NAN_TIMESTAMP = 2**63  # what a NaN float timestamp becomes when cast to uint64
_TENSOR_HEADER = struct.Struct("<4sIII")
_MSK1_HEADER = struct.Struct("<4sHHHQ")


# -- readers written from the format descriptions ---------------------------------


def read_evt1(path: Path):
    blob = Path(path).read_bytes()
    magic, version, width, height, count = wl.EVT1_HEADER.unpack_from(blob, 0)
    if magic != b"EVT1" or version != 1:
        raise ValueError(f"{path}: not EVT1 v1")
    rec = np.frombuffer(blob, dtype=wl.EVT1_RECORD, count=count, offset=wl.EVT1_HEADER.size)
    return (width, height), rec["t"], rec["x"].astype(np.int64), rec["y"].astype(np.int64), rec["p"]


def read_tensor(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, c, h, w = _TENSOR_HEADER.unpack_from(blob, 0)
    if magic != b"TORE" or len(blob) != _TENSOR_HEADER.size + 4 * c * h * w:
        raise ValueError(f"{path}: malformed tensor")
    return np.frombuffer(blob, dtype="<f4", offset=_TENSOR_HEADER.size).reshape(c, h, w)


def read_msk1(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, version, width, height, count = _MSK1_HEADER.unpack_from(blob, 0)
    stride = -(-width * height // 8)
    if magic != b"MSK1" or version != 1 or len(blob) != _MSK1_HEADER.size + count * stride:
        raise ValueError(f"{path}: malformed mask stack")
    bits = np.frombuffer(blob, dtype=np.uint8, offset=_MSK1_HEADER.size).reshape(count, stride)
    return np.unpackbits(bits, axis=1)[:, : width * height].reshape(count, height, width) > 0


# -- independent TORE volumes --------------------------------------------------------


def tore_volumes(t, x, y, p, k: int, tau_us: int, window_us: int) -> np.ndarray:
    """Volume at the end of every window, replayed from the whole history.

    Events are grouped by (polarity, pixel) and time once; for each window
    end the k newest timestamps before it are looked up per group and put
    through the flipped log-age transform. No state carries from one window
    to the next, unlike the program's incremental FIFO.
    """
    h, w = wl.HEIGHT, wl.WIDTH
    if int(t[-1]) >= 2**40:
        raise ValueError("replay packs timestamps into 40 bits")
    n_windows = int(t[-1]) // window_us + 1
    key = ((p < 0).astype(np.int64) * h + y) * w + x
    packed = np.sort(key * 2**40 + t.astype(np.int64))
    groups, starts = np.unique(packed >> 40, return_index=True)
    stamps = packed & (2**40 - 1)
    pol, pix = groups // (h * w), groups % (h * w)
    out = np.zeros((n_windows, 2 * k * h * w), dtype=np.float32)
    for i in range(n_windows):
        t_query = (i + 1) * window_us
        end = np.searchsorted(packed, groups * 2**40 + t_query, side="left")
        for slot in range(k):
            idx = end - 1 - slot
            has = idx >= starts
            delta = np.maximum((t_query - stamps[idx[has]]).astype(np.float64), 1.0)
            value = np.clip(1.0 - np.log(delta) / math.log(tau_us), 0.0, 0.7) / 0.7
            out[i, (pol[has] * k + slot) * (h * w) + pix[has]] = value.astype(np.float32)
    return out.reshape(n_windows, 2 * k, h, w)


def expected_volumes(events_path: Path) -> np.ndarray:
    _, t, x, y, p = read_evt1(events_path)
    return tore_volumes(t, x, y, p, wl.K, wl.TAU_US, wl.WINDOW_US)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


# -- tore_dense -------------------------------------------------------------------------


def check_tore(out_dir: Path, expected: np.ndarray) -> list[str]:
    """One tensor per window the recording spans, each in [0, 1], non-increasing
    from newest to oldest slot, and bitwise equal to the replay."""
    n_windows = len(expected)
    files = sorted(Path(out_dir).glob("tore_*.tore"))
    if [f.name for f in files] != [f"tore_{i:05d}.tore" for i in range(n_windows)]:
        return [f"expected {n_windows} tensors tore_00000..., found {len(files)}"]
    problems = []
    for f, expect in zip(files, expected):
        vol = read_tensor(f)
        if vol.shape != expect.shape:
            problems.append(f"{f.name}: shape {vol.shape}")
            continue
        if not (np.all(vol >= 0.0) and np.all(vol <= 1.0)):
            problems.append(f"{f.name}: values outside [0, 1]")
        for pol in range(2):
            slots = vol[pol * wl.K:(pol + 1) * wl.K]
            if np.any(slots[1:] > slots[:-1]):
                problems.append(f"{f.name}: polarity {pol} not newest-to-oldest non-increasing")
        if not _same_bits(vol, expect):
            problems.append(f"{f.name}: differs from the per-event replay")
    return problems


# -- filter_silhouette ----------------------------------------------------------------


def check_filter(out_dir: Path, expected: np.ndarray, stdout: str, beta: float) -> list[str]:
    """Masked tensors against mask stack and replay; schedule against its rules."""
    out_dir = Path(out_dir)
    n_windows = len(expected)
    m = re.search(r"(\d+) window\(s\), (\d+) backend call\(s\)", stdout)
    if not m:
        return [f"no window/backend-call summary in output {stdout!r}"]
    printed_windows, calls = int(m.group(1)), int(m.group(2))
    problems = []
    if printed_windows != n_windows:
        problems.append(f"printed {printed_windows} windows, recording spans {n_windows}")
    with open(out_dir / "schedule.csv", newline="") as f:
        rows = list(csv.reader(f))
    if rows[:1] != [["frame", "recompute", "score_used"]]:
        return problems + [f"schedule.csv header {rows[:1]}"]
    rows = rows[1:]
    if len(rows) != n_windows or [int(r[0]) for r in rows] != list(range(n_windows)):
        problems.append(f"schedule.csv has {len(rows)} rows, not frames 0..{n_windows - 1}")
    elif rows[0][1] != "1":
        problems.append("frame 0 does not recompute")
    for r in rows:
        if r[1] == "0" and float(r[2]) < beta:
            problems.append(f"frame {r[0]} reused a mask scored {r[2]} < beta {beta}")
    if sum(r[1] == "1" for r in rows) != calls:
        problems.append(f"{sum(r[1] == '1' for r in rows)} recomputes, {calls} backend calls printed")
    masks = read_msk1(out_dir / "masks.msk1")
    if masks.shape != (n_windows,) + expected.shape[2:]:
        return problems + [f"masks.msk1 holds {masks.shape}"]
    for i, expect in enumerate(expected):
        vol = read_tensor(out_dir / f"masked_{i:05d}.tore")
        outside = ~masks[i]
        if np.any(vol[:, outside] != 0.0):
            problems.append(f"masked_{i:05d}: nonzero outside its mask")
        if not _same_bits(np.where(outside, np.float32(0.0), vol), np.where(outside, np.float32(0.0), expect)):
            problems.append(f"masked_{i:05d}: differs from the replay inside its mask")
    return problems


# -- simulate_silhouette --------------------------------------------------------------


def normalized_joints(joints_mm: np.ndarray) -> np.ndarray:
    """World joints into the [-1, 1]^3 cube anchored at the head's depth."""
    cam = joints_mm @ wl.EXTRINSIC[:, :3].T + wl.EXTRINSIC[:, 3]
    fx, fy, cx, cy = wl.INTRINSIC[0, 0], wl.INTRINSIC[1, 1], wl.INTRINSIC[0, 2], wl.INTRINSIC[1, 2]
    z_ref = cam[0, 2]
    ax, ay = cx * z_ref / fx, cy * z_ref / fy
    z = cam[:, 2]
    return np.stack([cam[:, 0] * z_ref / z / ax, cam[:, 1] * z_ref / z / ay, (z - z_ref) / ax], 1)


def read_labels(path: Path) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    with open(path, newline="") as f:
        for row in list(csv.reader(f))[1:]:
            out.setdefault(int(row[0]), np.zeros((len(wl.JOINTS), 3)))[
                wl.JOINTS.index(row[1])] = [float(v) for v in row[2:]]
    return out


def check_simulate(out_dir: Path, clip: wl.Clip, frames: dict, labels_path: Path,
                   resolution: int = 64) -> tuple[list[str], int]:
    """Returns (problems, NaN-timestamp events). A NaN-timestamp event is the
    simulator's known fault; it is reported apart from other problems."""
    out_dir = Path(out_dir)
    problems = []
    geometry, t, x, y, p = read_evt1(out_dir / "events.evt1")
    if geometry != (wl.WIDTH, wl.HEIGHT):
        problems.append(f"events geometry {geometry}")
    if np.any(t[1:] < t[:-1]):
        problems.append("events are not sorted by time")
    nan_events = int(np.sum(t == NAN_TIMESTAMP))
    stray = (t > clip.duration_us) & (t != NAN_TIMESTAMP)
    if np.any(stray):
        problems.append(f"{int(stray.sum())} events outside [0, {clip.duration_us}] us")
    if clip.shot_noise_scale == 0.0:
        npix = wl.WIDTH * wl.HEIGHT
        pix = y * wl.WIDTH + x
        n_pos = np.bincount(pix[p > 0], minlength=npix)
        n_neg = np.bincount(pix[p < 0], minlength=npix)
        scene = np.where(frames["masks"] > 127, frames["frames"], frames["background"]) / 255.0
        dlog = (np.log(scene[-1] + wl.SIM_EPS) - np.log(scene[0] + wl.SIM_EPS)).reshape(-1)
        off = np.abs(wl.SIM_THETA * (n_pos - n_neg) - dlog)
        if np.any(off > wl.SIM_THETA + 1e-9):
            problems.append(f"{int(np.sum(off > wl.SIM_THETA + 1e-9))} pixels break "
                            "event-count conservation")
    labels = read_labels(labels_path)
    files = sorted(out_dir.glob("heatmaps_*.tore"))
    if [f.name for f in files] != [f"heatmaps_{t_us:012d}.tore" for t_us in sorted(labels)]:
        return problems + [f"{len(files)} heatmap files for {len(labels)} labels"], nan_events
    for f, t_us in zip(files, sorted(labels)):
        hm = read_tensor(f).astype(np.float64)
        if hm.shape != (3 * len(wl.JOINTS), resolution, resolution):
            problems.append(f"{f.name}: shape {hm.shape}")
            continue
        sums = hm.sum(axis=(1, 2))
        if np.any(np.abs(sums - 1.0) > 1e-4):
            problems.append(f"{f.name}: plane sums {sums.min():.6f}..{sums.max():.6f}")
        cells = (normalized_joints(labels[t_us]) + 1.0) * resolution / 2 - 0.5
        for j, (cx, cy, cz) in enumerate(cells):
            for plane, (col, row) in enumerate(((cx, cy), (cx, cz), (cz, cy))):
                r, c = np.unravel_index(np.argmax(hm[3 * j + plane]), hm.shape[1:])
                if abs(c - col) > 1.0 or abs(r - row) > 1.0:
                    problems.append(f"{f.name}: joint {wl.JOINTS[j]} plane {plane} peak at "
                                    f"({r},{c}), joint at ({row:.2f},{col:.2f})")
    return problems, nan_events
