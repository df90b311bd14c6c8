"""Independent reference implementations the tests check against.

Everything here is deliberately written along a different path than the
library: per-pixel Python replay instead of vectorized grouping, direct
summation instead of algebraic shortcuts, per-pixel neighbourhood loops
instead of shifted-array morphology, breadth-first search instead of
run-based labeling, whole-clip arrays and one global sort instead of
streaming one frame interval at a time. Slow but obviously correct.
The reference file bytes are packed here from `struct` and `np.packbits`
alone, sharing no header or record helper with the library's writers.
"""

import math
import struct
from collections import defaultdict, deque

import numpy as np


def tore_brute_force(stream, k, tau_us, t_query):
    """Full-history replay: per pixel/polarity keep every timestamp, sort
    by arrival, take the newest k, apply the flipped log-age transform.

    Returns a (2k, H, W) float32 volume, channel layout positive-first,
    newest-first, matching the library's materialized volumes.
    """
    history = defaultdict(list)
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        history[(x, y, p)].append(t)

    chans, rows, cols, stamps = [], [], [], []
    for (x, y, p), ts in history.items():
        pol = 0 if p > 0 else 1
        newest_first = ts[-k:][::-1]
        for slot, t in enumerate(newest_first):
            chans.append(pol * k + slot)
            rows.append(y)
            cols.append(x)
            stamps.append(t)

    h, w = stream.geometry.height, stream.geometry.width
    vol = np.zeros((2 * k, h, w), dtype=np.float32)
    if stamps:
        # exact integer ages over the whole u64 range, each rounded once
        delta = np.array([float(t_query - t) for t in stamps], dtype=np.float64)
        np.maximum(delta, 1.0, out=delta)
        value = np.clip(1.0 - np.log(delta) / math.log(tau_us), 0.0, 0.7) / 0.7
        vol[chans, rows, cols] = value.astype(np.float32)
    return vol


def decay_fifo(fifo, base, tau_us, t_query):
    """The volume of a FIFO array in the library's layout, uint32 offsets
    from base with 0 for a slot that reads 0, in one pass over its filled
    slots: each one's flipped log-age at t_query, the rest 0."""
    filled = fifo != 0
    delta = np.array([float(t_query - (base + t)) for t in fifo[filled].tolist()],
                     dtype=np.float64)
    np.maximum(delta, 1.0, out=delta)
    vol = np.zeros(fifo.shape, dtype=np.float32)
    vol[filled] = np.clip(1.0 - np.log(delta) / math.log(tau_us), 0.0, 0.7) / 0.7
    return vol


def fifo_replay(stream, k):
    """Last <=k timestamps per (x, y, polarity), newest first."""
    fifos = defaultdict(lambda: deque(maxlen=k))
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        fifos[(x, y, p)].appendleft(t)
    return {key: list(q) for key, q in fifos.items()}


def jsd_direct(p, q):
    """JSD as half KL(P||M) plus half KL(Q||M), scalar loop."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    m = (p + q) / 2.0
    total = 0.0
    for pi, qi, mi in zip(p, q, m):
        if pi > 0:
            total += 0.5 * pi * math.log(pi / mi)
        if qi > 0:
            total += 0.5 * qi * math.log(qi / mi)
    return total


def bce_direct(target, prob, clip=1e-7):
    y = np.asarray(target, dtype=np.float64).ravel()
    p = np.clip(np.asarray(prob, dtype=np.float64).ravel(), clip, 1.0 - clip)
    total = 0.0
    for yi, pi in zip(y, p):
        total += -(yi * math.log(pi) + (1.0 - yi) * math.log(1.0 - pi))
    return total / len(y)


def mse_direct(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / len(a)


def _morph3x3_direct(mask, iterations, combine):
    """Per-pixel 3x3 neighbourhood reduction, repeated; outside pixels are 0."""
    out = np.asarray(mask).astype(bool)
    h, w = out.shape
    for _ in range(iterations):
        prev = out
        out = np.zeros_like(prev)
        for y in range(h):
            for x in range(w):
                out[y, x] = combine(
                    bool(prev[y + dy, x + dx]) if 0 <= y + dy < h and 0 <= x + dx < w else False
                    for dy in (-1, 0, 1) for dx in (-1, 0, 1))
    return out


def dilate3x3_direct(mask, iterations=1):
    """Binary dilation by the full 3x3 square, `iterations` times."""
    return _morph3x3_direct(mask, iterations, any)


def erode3x3_direct(mask, iterations=1):
    """Binary erosion by the full 3x3 square, `iterations` times; pixels
    beyond the image count as 0, so the border always erodes."""
    return _morph3x3_direct(mask, iterations, all)


def connected_components(mask):
    """8-connected components by BFS; list of pixel sets, largest first.

    Components are found in raster order of their first pixel and the
    sort is stable, so among equal sizes the one first in raster order
    comes first.
    """
    mask = np.asarray(mask).astype(bool)
    seen = np.zeros_like(mask)
    comps = []
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            comp = set()
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            while queue:
                y, x = queue.popleft()
                comp.add((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            comps.append(comp)
    comps.sort(key=len, reverse=True)
    return comps


def random_stream(rng, geometry, n, duration_us=1_000_000, t_start=0):
    """Uniform random valid event stream for property tests."""
    from evpose.events import EventStream

    t = np.sort(rng.integers(t_start, t_start + duration_us, n)).astype(np.uint64)
    x = rng.integers(0, geometry.width, n).astype(np.uint16)
    y = rng.integers(0, geometry.height, n).astype(np.uint16)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    return EventStream.from_arrays(geometry, t, x, y, p)


def random_camera(rng):
    """Plausible pinhole camera with a random pose."""
    from evpose.camera import CameraModel

    fx = rng.uniform(200.0, 800.0)
    fy = rng.uniform(200.0, 800.0)
    cx = rng.uniform(100.0, 400.0)
    cy = rng.uniform(80.0, 300.0)
    intrinsic = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    angle = rng.uniform(0, 2 * np.pi)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    kx, ky, kz = axis
    cross = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    rot = np.eye(3) + math.sin(angle) * cross + (1 - math.cos(angle)) * cross @ cross
    trans = rng.uniform(-500.0, 500.0, size=3)
    extrinsic = np.hstack([rot, trans[:, None]])
    return CameraModel(intrinsic=intrinsic, extrinsic=extrinsic)


def frames_to_events_direct(f, p):
    """Scalar replay of the simulator's pixel model, one pixel at a time.

    Log intensity comes from one np.log over the whole clip. Each interval
    emits its positive crossings (raster pixel order, then rank), then its
    negative crossings, then its noise through the same three RNG calls
    (poisson over the rate frame, uniform, integers); the events are then
    sorted stably by rounded timestamp.
    """
    from evpose.events import EventStream

    h, w = f.geometry.height, f.geometry.width
    log = np.log(f.frames + p.eps)
    rng = np.random.default_rng(p.seed)
    extra = [[0.0] * w for _ in range(h)]
    for hx, hy in p.hot_pixels:
        extra[hy][hx] += p.hot_pixel_rate_hz
    ref = log[0].tolist()
    events = []  # (t, x, y, polarity)
    for i in range(len(f) - 1):
        t0, t1 = round(i * 1e6 / f.fps), round((i + 1) * 1e6 / f.fps)
        prev, new = log[i].tolist(), log[i + 1].tolist()
        counts = {}
        for sign, theta in ((1, p.theta_pos), (-1, p.theta_neg)):
            for y in range(h):
                for x in range(w):
                    d = sign * (new[y][x] - ref[y][x])
                    n = math.floor(d / theta) if d > 0 else 0
                    counts[sign, y, x] = n
                    span = new[y][x] - prev[y][x]
                    for j in range(1, n + 1):
                        level = ref[y][x] + sign * j * theta
                        frac = 0.0 if span == 0 else min(max((level - prev[y][x]) / span, 0.0), 1.0)
                        events.append((t0 + frac * (t1 - t0), x, y, sign))
        for y in range(h):
            for x in range(w):
                ref[y][x] += counts[1, y, x] * p.theta_pos - counts[-1, y, x] * p.theta_neg

        dt_s = (t1 - t0) * 1e-6
        lam = np.array([[(p.leak_rate_hz + p.shot_noise_scale * (1.0 - f.frames[i, y, x])
                          + extra[y][x]) * dt_s for x in range(w)] for y in range(h)])
        if lam.max() > 0:
            n = rng.poisson(lam)
            pixels = [(x, y) for y in range(h) for x in range(w) for _ in range(n[y, x])]
            if pixels:
                ts = rng.uniform(t0, t1, len(pixels)).tolist()
                pol = (rng.integers(0, 2, len(pixels)) * 2 - 1).tolist()
                events += [(t, x, y, q) for t, (x, y), q in zip(ts, pixels, pol)]

    if not events:
        return EventStream.empty(f.geometry)
    events = sorted(((round(t), x, y, q) for t, x, y, q in events), key=lambda e: e[0])
    t, x, y, q = zip(*events)
    return EventStream(f.geometry, np.array(t, dtype=np.uint64), np.array(x, dtype=np.uint16),
                       np.array(y, dtype=np.uint16), np.array(q, dtype=np.int8))


def composite_whole_clip(fg, fg_masks, bg):
    """The whole-clip blend: one np.where over the (T, H, W) stacks."""
    from evpose.simulator import FrameSequence

    assert fg.geometry == fg_masks.geometry == bg.geometry
    assert fg.fps == fg_masks.fps == bg.fps and len(fg) == len(fg_masks) == len(bg)
    return FrameSequence(fg.geometry, fg.fps, np.where(fg_masks.masks, fg.frames, bg.frames))


def interpolate_whole_clip(f, factor):
    """Linear interpolation into one preallocated (T', H, W) array, blend j of
    every neighbouring pair written through one strided slice."""
    from evpose.simulator import FrameSequence

    if factor == 1 or len(f) < 2:
        return FrameSequence(f.geometry, f.fps * factor, f.frames)
    t = len(f)
    out = np.empty(((t - 1) * factor + 1,) + f.frames.shape[1:], dtype=np.float64)
    for j in range(factor):
        w = j / factor
        out[j::factor][: t - 1] = (1.0 - w) * f.frames[:-1] + w * f.frames[1:]
    out[-1] = f.frames[-1]
    return FrameSequence(f.geometry, f.fps * factor, out)


def _expand_counts_whole_clip(counts):
    flat = counts.reshape(-1)
    pix = np.flatnonzero(flat)
    reps = flat[pix]
    starts = np.cumsum(reps) - reps
    pix_rep = np.repeat(pix, reps)
    return pix_rep, np.arange(pix_rep.size) - np.repeat(starts, reps) + 1


def frames_to_events_whole_clip(f, p):
    """The vectorized pixel model with every interval's events kept until one
    global stable argsort by rounded timestamp at the end."""
    from evpose.events import EventStream

    h, w = f.geometry.height, f.geometry.width
    noise_rate = np.zeros((h, w))
    for hx, hy in p.hot_pixels:
        noise_rate[hy, hx] += p.hot_pixel_rate_hz
    rng = np.random.default_rng(p.seed)
    l_prev = np.log(f.frames[0] + p.eps).reshape(-1)
    ref = l_prev.copy()
    parts = []  # (t, flat pixel, polarity) per source and interval
    for i in range(len(f) - 1):
        t0, t1 = frame_time_us(i, f.fps), frame_time_us(i + 1, f.fps)
        l_new = np.log(f.frames[i + 1] + p.eps).reshape(-1)
        d = l_new - ref
        n_pos = np.where(d > 0, np.floor(d / p.theta_pos), 0.0).astype(np.int64)
        n_neg = np.where(d < 0, np.floor(-d / p.theta_neg), 0.0).astype(np.int64)
        for counts, sign, theta in ((n_pos, +1, p.theta_pos), (n_neg, -1, p.theta_neg)):
            pix, rank = _expand_counts_whole_clip(counts)
            if pix.size:
                level = ref[pix] + sign * rank * theta
                lp = l_prev[pix]
                span = l_new[pix] - lp
                frac = np.clip(np.divide(level - lp, span, out=np.zeros_like(span),
                                         where=span != 0), 0.0, 1.0)
                parts.append((t0 + frac * (t1 - t0), pix, np.full(pix.size, sign, np.int8)))
        ref += n_pos * p.theta_pos - n_neg * p.theta_neg
        lam = (p.leak_rate_hz + p.shot_noise_scale * (1.0 - f.frames[i]) + noise_rate)
        lam = lam * ((t1 - t0) * 1e-6)
        if np.any(lam > 0):
            pix, _ = _expand_counts_whole_clip(rng.poisson(lam))
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


def schedule_rule_problems(entries, beta, backend_calls):
    """The early-exit rules a schedule.csv breaks, one message each: rows
    number the frames 0, 1, 2, ..., frame 0 recomputes, a frame reuses only
    when its score is >= beta, and the recomputes equal the backend calls
    the run reported."""
    problems = []
    for i, (frame, recompute, score) in enumerate(entries):
        if frame != i:
            problems.append(f"row {i} numbers frame {frame}")
        if i == 0 and not recompute:
            problems.append("frame 0 reuses")
        if not recompute and not score >= beta:
            problems.append(f"frame {i} reuses at score {score} < beta {beta}")
    recomputes = sum(bool(e[1]) for e in entries)
    if recomputes != backend_calls:
        problems.append(f"{recomputes} recomputes but {backend_calls} backend calls")
    return problems


def replay_schedule(volumes, backend, entries, beta):
    """The list of masks a schedule used, one per row, replayed from its rows.

    A recompute row calls backend.predict on its own frame's volume; a reuse
    row takes the newest plan's mask at its offset from that plan's frame.
    Asserts that every row's score is its plan's, and that a row recomputes
    exactly when no plan covers it with a score >= beta.
    """
    masks = []
    plan, start = None, 0
    for i, (vol, (frame, recompute, score)) in enumerate(zip(volumes, entries)):
        covered = (plan is not None and i - start < plan.horizon
                   and plan.scores[i - start] >= beta)
        assert bool(recompute) != covered, f"frame {frame}: recompute {recompute}"
        if recompute:
            plan, start = backend.predict(vol), i
        assert score == float(plan.scores[i - start]), f"frame {frame}: score {score}"
        masks.append(plan.masks[i - start])
    return masks


def heatmaps_per_plane(joints_norm, resolution, sigma):
    """Each joint's xy, xz and zy Gaussian planes built one at a time, each
    divided by its own sum, stacked joint-major as (3J, R, R)."""
    from evpose.pose_math import cell_centers

    centers = cell_centers(resolution)
    sig = sigma * 2.0 / resolution

    def plane(a, b):
        # col axis carries a, row axis carries b
        g = np.exp(-((centers[None, :] - a) ** 2 + (centers[:, None] - b) ** 2)
                   / (2.0 * sig * sig))
        return g / g.sum()

    return np.stack([plane(x, y) for jx, jy, jz in np.asarray(joints_norm, dtype=np.float64)
                     for x, y in ((jx, jy), (jx, jz), (jz, jy))])


def fuse_triplet(xy, xz, zy):
    """One joint's (x, y, z) from its three planes: x and y from xy, z the
    mean of the xz row reading and the zy column reading."""
    from evpose.pose_math import soft_argmax

    x, y = soft_argmax(xy)
    _, z_from_xz = soft_argmax(xz)
    z_from_zy, _ = soft_argmax(zy)
    return np.array([x, y, (z_from_xz + z_from_zy) / 2.0])


def frame_time_us(index, fps):
    """The time in us of frame index of a clip at fps."""
    return round(index * 1e6 / fps)


def project_camera_points(cam, pts_cam):
    """Pinhole projection of camera-frame points to (N, 2) pixels, each
    through the intrinsic and divided by its depth, which must be positive."""
    pts = np.asarray(pts_cam, dtype=np.float64)
    assert np.all(pts[:, 2] > 0), "a point lies at or behind the camera"
    uvw = pts @ cam.intrinsic.T
    return uvw[:, :2] / uvw[:, 2:3]


def serialize_tensor(data):
    """A TORE tensor file's bytes: b"TORE", C, H, W as little-endian u32,
    then the values as little-endian float32, row-major."""
    a = np.asarray(data, dtype="<f4")
    c, h, w = a.shape
    return struct.pack("<4sIII", b"TORE", c, h, w) + a.tobytes(order="C")


def serialize_masks(geometry, masks):
    """An MSK1 file's bytes: b"MSK1", version 1, width and height as
    little-endian u16 and the mask count as u64, then each mask read as
    bool, bit-packed row-major, most significant bit first."""
    masks = np.asarray(masks)
    assert masks.shape[1:] == (geometry.height, geometry.width), masks.shape
    header = struct.pack("<4sHHHQ", b"MSK1", 1, geometry.width, geometry.height, len(masks))
    return header + b"".join(np.packbits(m.astype(bool).reshape(-1)).tobytes() for m in masks)


def write_pgm(path, image01):
    """A binary PGM of maxval 255: each intensity clipped to [0, 1] and
    rounded to the nearest of 256 levels."""
    b = np.rint(np.clip(np.asarray(image01, dtype=np.float64), 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{b.shape[1]} {b.shape[0]}\n255\n".encode())
        f.write(b.tobytes())
