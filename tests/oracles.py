"""Independent reference implementations the tests check against.

Everything here is deliberately written along a different path than the
library: per-pixel Python replay instead of vectorized grouping, direct
summation instead of algebraic shortcuts, per-pixel neighbourhood loops
instead of shifted-array morphology, breadth-first search instead of
run-based labeling. Slow but obviously correct.
"""

import math
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
