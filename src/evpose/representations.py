"""Dense representations built from event streams.

The primary representation keeps, per pixel and per polarity, a FIFO of
the K most recent event timestamps (TORE, time-ordered recent events,
Baldwin et al. 2021) and materializes them into a 2K-channel volume with
a flipped and rescaled log-age transform:

    delta = max(t_query - t, 1us)
    v     = ln(delta)
    v'    = clamp(1 - v / ln(tau), 0, 0.7) / 0.7

so a just-fired pixel reads 1, anything older than tau reads exactly 0,
and a pixel that never fired reads exactly 0 in all channels. Values are
computed in float64 and stored as float32.

The FIFO is stored in the layout of the materialized volume: channels
[0, K) hold positive polarity, [K, 2K) negative, ordered newest first
within each polarity. Each slot is a uint32 offset t - base from a base
that follows the newest timestamp, last_t: last_t - tau - 1 rounded down
to a multiple of 2^31, so -2^31 until last_t passes tau + 1. An empty
slot is an ordinary stamp, the base itself: EMPTY_SLOT is 0, the FIFO
starts at 0, and a stamp that falls to or below the base becomes 0. Its
age at any query the state allows exceeds tau, so it decays to exactly 0
like any other old stamp. A tau below 2^31 keeps every offset from the
base to last_t below 2^32, and an age, (t_query - base) - offset, is the
same integer as t_query - t.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import events
from .errors import (
    BadMagic,
    ConfigError,
    GeometryMismatch,
    InvalidTau,
    OutOfBounds,
    TimeRegression,
    TruncatedRecord,
    check_budget,
    from_file,
)
from .events import Event, EventStream, SensorGeometry, freeze

DEFAULT_K = 4
DEFAULT_TAU_US = 5_000_000  # retain history up to five seconds

# Content of a FIFO slot that reads 0: never filled, or at or below the base.
EMPTY_SLOT = 0

# The base is a multiple of BASE_STEP_US, and tau_us at most MAX_TAU_US:
# last_t - base <= MAX_TAU_US + BASE_STEP_US = 2^32 - 1.
BASE_STEP_US = 2**31
MAX_TAU_US = 2**31 - 1

# Most events `ToreState.ingest_stream` pushes at once: each of its int64
# temporaries takes 32 KiB, whatever the window's event count.
INGEST_PIECE_EVENTS = 2**12

# Slots of one channel decayed at once, in scratch arrays the state owns
# (21 bytes a slot): a mostly filled block allocates nothing, a mostly
# empty one at most 64 KiB a temporary, and the scratch stays small beside
# one channel.
DECAY_BLOCK_SLOTS = 2**14

_POL_INDEX = {1: 0, -1: 1}


def _decay(delta: np.ndarray, tau_us) -> np.ndarray:
    """Log-age transform of float64 ages, in place, at tau_us > 1us; returns `delta`."""
    np.maximum(delta, 1.0, out=delta)
    np.log(delta, out=delta)
    np.divide(delta, math.log(tau_us), out=delta)
    np.subtract(1.0, delta, out=delta)
    np.maximum(delta, 0.0, out=delta)  # the clip to [0, 0.7], without np.clip's wrapper
    np.minimum(delta, 0.7, out=delta)
    np.divide(delta, 0.7, out=delta)
    return delta


def decay_value(delta_us, tau_us):
    """Log-age transform of one event age. Accepts scalars or arrays.

    Ages older than tau_us map to exactly 0 (an age of exactly tau_us
    may read a few 1e-16, as np.log and math.log round apart); ages at or
    below the 1us floor map to exactly 1; the saturation edge sits at
    tau_us**0.3.
    """
    if tau_us <= 1:
        raise InvalidTau(f"tau_us must exceed 1us, got {tau_us}")
    vp = _decay(np.array(delta_us, dtype=np.float64), tau_us)
    return vp if vp.shape else float(vp)


def _decay_offsets(age0: int, slots: np.ndarray, tau_us) -> np.ndarray:
    """float64 decay of uint32 slots at ages age0 - slot, exact in uint64 and
    rounded once into float64."""
    return _decay(np.subtract(np.uint64(age0), slots, dtype=np.uint64).astype(np.float64),
                  tau_us)


def _decay_into(out: np.ndarray, slots: np.ndarray, age0: int, tau_us, scratch) -> None:
    """Write the decay of each slot of the uint32 block slots, at age
    age0 - slot, to the same position of the float32 block out, of the same
    length. age0, below 2^64, exceeds tau_us, so EMPTY_SLOT reads exactly 0
    as any stamp older than tau_us does. scratch is a uint64, a float64 and
    a bool array of at least that many slots, which this overwrites; the
    bool array only picks the branch."""
    n = len(slots)
    age, value, filled = (a[:n] for a in scratch)
    np.not_equal(slots, EMPTY_SLOT, out=filled)
    if 2 * np.count_nonzero(filled) < n:  # mostly empty: decay the filled slots alone
        live = filled.nonzero()[0]
        out.fill(0)
        out[live] = _decay_offsets(age0, slots[live], tau_us)
        return
    np.subtract(np.uint64(age0), slots, out=age, dtype=np.uint64)
    value[...] = age
    out[...] = _decay(value, tau_us)


def _type7(values: np.ndarray, q: float, image=np.asarray) -> np.float32:
    """np.percentile(image(values), q) bit for bit, for a flat array values,
    which this sorts in place, and a map image of an array of them to
    float32 that never falls as a value grows (by default, values are
    float32): numpy's linear interpolation between two order statistics
    (Hyndman and Fan's type 7), with numpy's float64 index and weight and
    its float32 arithmetic. Such a map keeps each value's rank, so only the
    two order statistics are mapped. A sort, not a partition: numpy's
    partition at one rank slows some 30-fold on an array mostly of one
    value (a frame of mostly empty pixels), and at two ranks it is slower
    than the sort."""
    n = values.size
    index = (n - 1) * (q / 100)
    if index >= n - 1:  # numpy takes the top value twice, its weight from index -1
        lo = hi = n - 1
        gamma = index + 1
    else:
        lo = math.floor(index)
        hi, gamma = lo + 1, index - lo
    values.sort()
    a, b = image(values[[lo, hi]])
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def _percentile(values: np.ndarray, q: float) -> np.float32:
    """np.percentile(values, q) of a float32 array, bit for bit, from a
    sorted copy. (np.percentile itself imports numpy.ma on its first
    call.)"""
    return _type7(values.flatten(), q)


@dataclass
class ToreState:
    """Per-pixel, per-polarity FIFO queues of recent event timestamps.

    Single-writer: ingest order is the event order. The fifo array is
    uint32 in the volume's own layout, shape (2K, H, W): channel p*K + slot
    holds polarity p (0 positive, 1 negative), slot 0 the newest timestamp,
    each as its offset t - base. base is last_t - tau_us - 1 rounded down
    to a multiple of BASE_STEP_US, so -BASE_STEP_US until last_t passes
    tau_us + 1; it depends on last_t alone. A slot that was never filled,
    or whose stamp lies at or below base, holds EMPTY_SLOT, 0: the offset
    of the base, which is older than tau_us at every allowed query.
    The state also owns the buffers its decays reuse: one channel of
    float32 values, which every decay writes and its reader streams to a
    file or copies out; the scratch of one block, a uint64, a float64 and
    a bool array; and one float32 block, which a masked decay scatters
    into the channel.
    """

    geometry: SensorGeometry
    k: int = DEFAULT_K
    tau_us: int = DEFAULT_TAU_US
    fifo: np.ndarray = field(init=False, repr=False)
    last_t: int = field(init=False, default=0)
    base: int = field(init=False, default=-BASE_STEP_US)
    _channel: np.ndarray = field(init=False, repr=False)
    _scratch: tuple = field(init=False, repr=False)
    _block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidTau(f"K must be positive, got {self.k}")
        if not 1 < self.tau_us <= MAX_TAU_US:
            raise InvalidTau(f"tau_us must exceed 1us and lie below 2^31us, got {self.tau_us}")
        check_budget("k", self.k, 8 * self.k * self.geometry.num_pixels)
        self.fifo = np.zeros((2 * self.k, self.geometry.height, self.geometry.width),
                             dtype=np.uint32)
        hw = self.geometry.num_pixels
        self._channel = np.empty(hw, dtype=np.float32)
        block = min(DECAY_BLOCK_SLOTS, hw)
        self._scratch = tuple(np.empty(block, dtype) for dtype in (np.uint64, np.float64, bool))
        self._block = np.empty(block, dtype=np.float32)

    def ingest(self, e: Event) -> "ToreState":
        """Push one event; the oldest timestamp falls off a full FIFO."""
        if not (0 <= e.x < self.geometry.width and 0 <= e.y < self.geometry.height):
            raise OutOfBounds(f"event at ({e.x},{e.y}) outside geometry")
        if e.polarity not in _POL_INDEX:
            raise OutOfBounds(f"polarity {e.polarity} not in (+1, -1)")
        if e.t >= 2**64:
            raise OutOfBounds(f"timestamp {e.t}us lies past the u64 range")
        if e.t < self.last_t:
            raise TimeRegression(f"event at {e.t}us precedes latest {self.last_t}us")
        self._advance(int(e.t))
        c0 = _POL_INDEX[e.polarity] * self.k
        column = self.fifo[c0:c0 + self.k, e.y, e.x]
        column[1:] = column[:-1].copy()
        column[0] = int(e.t) - self.base
        return self

    def ingest_stream(self, s: EventStream) -> "ToreState":
        """Bulk ingest of a whole stream; equivalent to per-event ingest.

        Runs in O(N log N) over consecutive pieces of at most
        INGEST_PIECE_EVENTS events. Within a piece of n events, one sort of
        the unique key `slot-0 index << bits(n) | arrival index` groups
        events by FIFO column in time order; then each FIFO slot takes
        either one of its group's newest <=K timestamps or the entry that
        these push down from an older slot.
        """
        if s.geometry != self.geometry:
            raise GeometryMismatch(f"stream is {s.geometry}, state is {self.geometry}")
        n = len(s)
        if n == 0:
            return self
        if int(s.t[0]) < self.last_t:
            raise TimeRegression(
                f"stream starts at {int(s.t[0])}us, before latest {self.last_t}us")
        for i0 in range(0, n, INGEST_PIECE_EVENTS):
            i1 = i0 + INGEST_PIECE_EVENTS
            self._advance(int(s.t[min(i1, n) - 1]))
            self._push_sorted(s.t[i0:i1], s.x[i0:i1], s.y[i0:i1], s.p[i0:i1])
        return self

    def _advance(self, last_t: int) -> None:
        """Set last_t, and move base to its value for last_t: every offset
        drops by the move, in place, and one at or below the move becomes
        EMPTY_SLOT."""
        base = (last_t - self.tau_us - 1) // BASE_STEP_US * BASE_STEP_US
        # a move of 2^32 or more empties every slot, as one of 2^32 - 1 does
        move = np.uint32(min(base - self.base, 2**32 - 1))
        self.last_t, self.base = last_t, base
        if move:
            np.maximum(self.fifo, move, out=self.fifo)
            self.fifo -= move

    def _push_sorted(self, t, x, y, p) -> None:
        """Push time-sorted, validated event columns into the FIFO, whose
        base is already that of their newest timestamp."""
        n = len(t)
        hw = self.geometry.num_pixels
        bits = (n - 1).bit_length()
        # each event's key is the flat FIFO index of its column's slot 0, below
        # 2K * hw <= 2^29 (the FIFO's budget), shifted above its arrival index,
        # below 2^bits: no int64 wrap, and a sort orders each column by time
        key = y.astype(np.int64)
        key *= self.geometry.width
        key += x
        np.add(key, self.k * hw, out=key, where=p < 0)
        key <<= bits
        key |= np.arange(n)
        key.sort()
        offsets = np.subtract(t, np.uint64(self.base % 2**64)).astype(np.uint32)
        # the stamps below a base of 0 or more; one at the base is already 0
        offsets[:np.searchsorted(t, np.uint64(max(self.base, 0)))] = EMPTY_SLOT
        st = offsets[key & ((1 << bits) - 1)]
        key >>= bits
        last = np.flatnonzero(np.append(key[1:] != key[:-1], True))  # each column's newest
        counts = np.diff(last, prepend=-1)
        col0 = key[last]

        fifo = self.fifo.reshape(-1)
        shift = counts * hw
        # oldest slot first, so every entry is read before it is overwritten:
        # slot s takes the entry `counts` slots newer, or, in a column with
        # more than s new events, its (s+1)-th newest
        for slot in range(self.k - 1, 0, -1):
            dst = col0 + slot * hw
            value = fifo[dst - np.minimum(shift, slot * hw)]
            pushed = counts > slot
            value[pushed] = st[last[pushed] - slot]
            fifo[dst] = value
        fifo[col0] = st[last]

    def _check_query(self, t_query: int) -> None:
        if not 0 <= t_query < 2**64:
            raise ConfigError(f"t_query must lie in the u64 range, got {t_query}")
        if t_query < self.last_t:
            raise TimeRegression(
                f"query at {t_query}us precedes latest ingested {self.last_t}us")

    def _age0(self, t_query: int) -> int:
        """The age at t_query of EMPTY_SLOT, the base: a slot's age is age0 -
        slot. Past 2^64, every age of a negative base exceeds 2^64 - 2^32, so
        the clamp changes no value."""
        return min(t_query - self.base, 2**64 - 1)

    def _decay_channels(self, t_query: int, rows=None, pixels: np.ndarray | None = None):
        """The decay at t_query of rows of H*W FIFO slots, by default the
        FIFO's channels (the volume): yields each row's float32 decay in the
        state's channel buffer, which the next row overwrites. A row maps a
        slice, or a block of sorted flat pixel indices, to its uint32 slots
        there. Each slice of DECAY_BLOCK_SLOTS slots decays straight into the
        channel; given sorted flat pixel indices `pixels`, each block of them
        decays into the state's float32 block, scattered into the zeroed channel."""
        if rows is None:  # lazy: a list would hold 2K bound methods
            rows = (channel.__getitem__ for channel in self.fifo.reshape(2 * self.k, -1))
        hw = self.geometry.num_pixels
        size = len(self._block)
        values = self._channel
        age0 = self._age0(t_query)
        for row in rows:
            if pixels is None:
                for p0 in range(0, hw, size):
                    at = slice(p0, p0 + size)
                    _decay_into(values[at], row(at), age0, self.tau_us, self._scratch)
            else:
                values.fill(0)
                for i0 in range(0, len(pixels), size):
                    at = pixels[i0:i0 + size]
                    block = self._block[:len(at)]
                    _decay_into(block, row(at), age0, self.tau_us, self._scratch)
                    values[at] = block
            yield values

    def materialize(self, t_query: int) -> "ToreVolume":
        """Dense 2K-channel volume of decay values at t_query.

        Empty slots read exactly 0. Reads the state without changing it;
        the volume is a fresh array that copies each of `_decay_channels`.
        """
        self._check_query(t_query)
        out = np.empty((2 * self.k, self.geometry.num_pixels), dtype=np.float32)
        for row, values in zip(out, self._decay_channels(t_query)):
            row[...] = values
        return ToreVolume(geometry=self.geometry, data=out.reshape(self.fifo.shape),
                          query_time_us=int(t_query))


class WindowFrame:
    """The state at the end of one window of `window_frames`, decayed only
    as far as a reader asks.

    A frame is valid until the next frame is drawn; a read after that
    raises RuntimeError, so a frame never returns another window's values.
    Its query time is checked as `ToreState.materialize` checks it, when
    the frame is made. `data` materializes the whole 2K-channel volume
    (what a trained mask backend needs). `activity` equals
    `data.max(axis=0)` bit for bit, yet decays only each pixel's newest
    stamp over both polarities (channels 0 and K): float32 decay never
    rises with age. `above_percentile(q)`, all the reference mask backend
    reads, is `ToreVolume.above_percentile` of that volume bit for bit, yet
    builds no activity image: it thresholds the newest stamps' uint32
    offsets, decaying only the few offsets it searches. `write(path, mask)`
    writes the tensor of `data`, or of `gating.apply_mask` of that volume,
    one channel at a time, without building the volume; given a mask, it
    decays only the mask's pixels, a block of them at a time, each
    scattered into the zeroed channel.
    """

    def __init__(self, state: ToreState, query_time_us: int):
        state._check_query(query_time_us)
        self._state: ToreState | None = state
        self.geometry = state.geometry
        self.query_time_us = query_time_us

    def _live_state(self) -> ToreState:
        if self._state is None:
            raise RuntimeError(f"frame at {self.query_time_us}us read after the next "
                               "frame was drawn")
        return self._state

    @property
    def data(self) -> np.ndarray:
        return self._live_state().materialize(self.query_time_us).data

    @property
    def activity(self) -> np.ndarray:
        """(H, W) float32: the decay of each pixel's newest stamp."""
        state = self._live_state()
        pos, neg = (state.fifo[c].reshape(-1) for c in (0, state.k))
        # the row of each pixel's larger offset: EMPTY_SLOT only if neither is filled
        (values,) = state._decay_channels(self.query_time_us,
                                          [lambda at: np.maximum(pos[at], neg[at])])
        return values.reshape(self.geometry.height, self.geometry.width).copy()

    def above_percentile(self, q: float) -> np.ndarray:
        """(H, W) bool: `activity > float(_percentile(activity, q))` bit for
        bit, without the activity image. A pixel's activity is the decay of
        its newest offset, max(fifo[0], fifo[K]), and never falls as that
        offset grows, so the percentile comes from the offsets' order
        statistics, sorted in a fresh array, and the pixels above it are
        those whose offset exceeds a cut that a search over the offsets
        finds."""
        state = self._live_state()
        pos, neg = state.fifo[0], state.fifo[state.k]
        newest = np.maximum(pos, neg)  # fresh: the sort leaves the FIFO alone
        age0 = state._age0(self.query_time_us)

        def activity(offsets):
            return _decay_offsets(age0, offsets, state.tau_us).astype(np.float32)

        threshold = float(_type7(newest.reshape(-1), q, activity))
        # the cut: activity(cut) <= threshold < activity(above). Offset 0, the
        # base, reads 0, and no percentile of activities lies below 0; above
        # starts past age0, the offset of age 0, as no stamp lies past the
        # query (a larger offset's age would wrap). Each round decays at most
        # 255 offsets spread over the bracket and keeps the step between two
        # of them: 4 rounds span 2^32.
        cut, above = 0, min(age0, 2**32 - 1) + 1
        while above - cut > 1:
            bounds = np.append(np.arange(cut, above, -(-(above - cut) // 256)), above)
            probes = activity(bounds[1:-1].astype(np.uint32))
            i = int(np.searchsorted(probes, threshold, side="right"))
            cut, above = int(bounds[i]), int(bounds[i + 1])
        return np.maximum(pos, neg, out=newest) > cut

    def write(self, path, mask: np.ndarray | None = None) -> None:
        """Write the bytes of `write_tensor(path, self.data)`, or, given a
        bool (H, W) mask, of `write_tensor(path, data * mask)`, one channel
        at a time from the state's channel buffer."""
        state = self._live_state()
        pixels = None
        if mask is not None:
            pixels = np.flatnonzero(self.geometry.check_shape("mask", np.asarray(mask)))
        channels = state._decay_channels(self.query_time_us, None, pixels)
        with open(path, "wb") as f:
            f.write(_tensor_header(state.fifo))
            for values in channels:
                f.write(values)


def window_frames(s: EventStream | events.EventFile, k: int, tau_us: int, window_us: int,
                  origin_us: int = 0):
    """An iterator of a `WindowFrame` at the end of each window of
    events.iter_window_pieces over s, a stream or an EVT1 file. One state
    ingests the windows in order, a piece of one chunk at a time, never
    copied: drawing a frame ingests its window and ends the frame before
    it. The settings and the window bounds are checked when this is
    called, before the first frame is drawn."""
    state = ToreState(geometry=s.geometry, k=k, tau_us=tau_us)
    return _frames(state, events.iter_window_pieces(s, window_us, origin_us))


def _frames(state: ToreState, pieces):
    frame = None
    for end_us, piece, last in pieces:
        if frame is not None:
            frame._state = None
            frame = None
        state.ingest_stream(piece)
        if last:
            frame = WindowFrame(state, end_us)
            yield frame


def window_volumes(s: EventStream | events.EventFile, k: int, tau_us: int, window_us: int,
                   origin_us: int = 0):
    """`window_frames` with each frame's whole volume materialized: an
    iterator of fresh `ToreVolume`s, checked as window_frames checks."""
    frames = window_frames(s, k, tau_us, window_us, origin_us)
    return (ToreVolume(f.geometry, f.data, f.query_time_us) for f in frames)


@dataclass(frozen=True)
class ToreVolume:
    """Materialized decay volume; values in [0, 1], float32, immutable."""

    geometry: SensorGeometry
    data: np.ndarray = field(repr=False)
    query_time_us: int = 0

    def __post_init__(self):
        self.geometry.check_shape("data", freeze(self, "data", np.float32), 3)

    @property
    def activity(self) -> np.ndarray:
        """(H, W) float32: each pixel's maximum over the channels."""
        return self.data.max(axis=0)

    def above_percentile(self, q: float) -> np.ndarray:
        """(H, W) bool: the pixels whose activity exceeds its percentile q."""
        activity = self.activity
        return activity > float(_percentile(activity, q))


# -- tensor container -----------------------------------------------------------

TENSOR_MAGIC = b"TORE"
_TENSOR_HEADER = struct.Struct("<4sIII")


def _tensor_header(a: np.ndarray) -> bytes:
    if a.ndim != 3:
        raise TruncatedRecord(f"tensor must be 3D, got shape {a.shape}")
    return _TENSOR_HEADER.pack(TENSOR_MAGIC, *a.shape)


def serialize_tensor(data: np.ndarray) -> bytes:
    """Flat binary tensor: magic, dims C,H,W as u32, float32 row-major."""
    a = np.ascontiguousarray(data, dtype=np.float32)
    return _tensor_header(a) + a.tobytes()


def write_tensor(path, data: np.ndarray) -> None:
    """Write the bytes of serialize_tensor straight from the array's buffer,
    without building a copy of the payload."""
    a = np.ascontiguousarray(data, dtype=np.float32)
    header = _tensor_header(a)
    with open(path, "wb") as f:
        f.write(header)
        f.write(a)


def read_tensor(path) -> np.ndarray:
    """write_tensor's array, its C*H*W*4 bytes checked against the file before allocation."""
    with open(path, "rb") as f, from_file(path):
        header = f.read(_TENSOR_HEADER.size)
        if len(header) < _TENSOR_HEADER.size or header[:4] != TENSOR_MAGIC:
            raise BadMagic("not a TORE tensor file")
        _, c, h, w = _TENSOR_HEADER.unpack(header)
        payload = f.seek(0, 2) - _TENSOR_HEADER.size  # the file's end
        if payload != c * h * w * 4:
            raise TruncatedRecord(f"tensor payload {payload} bytes, expected {c * h * w * 4}")
        f.seek(_TENSOR_HEADER.size)
        return np.fromfile(f, "<f4", c * h * w).reshape(c, h, w)

