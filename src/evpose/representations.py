"""Dense representations built from event streams.

The primary representation keeps, per pixel and per polarity, a FIFO of
the K most recent event timestamps (TORE, time-ordered recent events,
Baldwin et al. 2021) and materializes them into a 2K-channel volume with
a flipped and rescaled log-age transform:

    delta = max(t_query - t, 1us)
    v     = ln(delta)
    v'    = clamp(1 - v / ln(tau), 0, 0.7) / 0.7

so a just-fired pixel reads 1, anything older than tau reads 0, and a
pixel that never fired reads exactly 0 in all channels. Values are
computed in float64 and stored as float32.

The FIFO is stored in the layout of the materialized volume: channels
[0, K) hold positive polarity, [K, 2K) negative, ordered newest first
within each polarity. A slot that was never filled holds EMPTY_SLOT
(2^64 - 1), which reads as infinitely old and so decays to exactly 0.
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

# Content of a never-filled FIFO slot. The timestamp 2^64 - 1 is reserved
# for it: the FIFO refuses events that carry it.
EMPTY_SLOT = 2**64 - 1

# Most events `ToreState.ingest_stream` pushes at once: each of its int64
# temporaries takes 32 KiB, whatever the window's event count.
INGEST_PIECE_EVENTS = 2**12

# Slots of one channel decayed at once, in scratch arrays the state owns
# (17 bytes a slot): a mostly filled block allocates nothing, a mostly
# empty one at most 64 KiB a temporary, and the scratch stays small beside
# one channel.
DECAY_BLOCK_SLOTS = 2**14

_POL_INDEX = {1: 0, -1: 1}


def _decay(delta: np.ndarray, tau_us) -> np.ndarray:
    """Log-age transform of float64 ages, in place; returns `delta`."""
    if tau_us <= 1:
        raise InvalidTau(f"tau_us must exceed 1us, got {tau_us}")
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

    Ages at or beyond tau_us map to exactly 0; ages at or below the 1us
    floor map to exactly 1; the saturation edge sits at tau_us**0.3.
    """
    vp = _decay(np.array(delta_us, dtype=np.float64), tau_us)
    return vp if vp.shape else float(vp)


def _decay_into(out: np.ndarray, stamps: np.ndarray, t_query: int, tau_us, scratch,
                index: np.ndarray | None = None) -> None:
    """Write the decay at t_query of each slot of the flat array stamps, or
    of stamps[index], to the same position of the flat float32 array out;
    empty slots read exactly 0. Given index, out must already read 0 at the
    positions of index, as only its filled slots may be written, and is
    left as it is elsewhere. scratch is a uint64, a float64 and a bool
    array of at least that many slots, which this overwrites."""
    n = len(stamps) if index is None else len(index)
    age, value, filled = (a[:n] for a in scratch)
    if index is not None:
        stamps = np.take(stamps, index, out=age, mode="clip")  # unbuffered; index is valid
    np.not_equal(stamps, EMPTY_SLOT, out=filled)
    # ages are exact in the uint64 subtraction and rounded once into float64
    if 2 * np.count_nonzero(filled) < n:  # mostly empty: decay the filled slots alone
        live = filled.nonzero()[0]
        if index is None:
            out.fill(0)
        value = (np.uint64(t_query) - stamps[live]).astype(np.float64)
        out[live if index is None else index[live]] = _decay(value, tau_us)
        return
    # an empty slot's age wraps, and its decay, finite, times 0 is exactly 0
    np.subtract(np.uint64(t_query), stamps, out=age)
    value[...] = age
    np.multiply(_decay(value, tau_us), filled, out=value)
    if index is None:
        out[...] = value
    else:
        out[index] = value


@dataclass
class ToreState:
    """Per-pixel, per-polarity FIFO queues of absolute event timestamps.

    Single-writer: ingest order is the event order. The fifo array is
    uint64 in the volume's own layout, shape (2K, H, W): channel p*K + slot
    holds polarity p (0 positive, 1 negative), slot 0 the newest timestamp.
    Slots that were never filled hold EMPTY_SLOT. The state also owns the
    buffers its decays reuse: one channel of float32 values, which every
    decay writes and its reader streams to a file or copies out, and the
    scratch of one block.
    """

    geometry: SensorGeometry
    k: int = DEFAULT_K
    tau_us: int = DEFAULT_TAU_US
    fifo: np.ndarray = field(init=False, repr=False)
    last_t: int = field(init=False, default=0)
    _channel: np.ndarray = field(init=False, repr=False)
    _scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidTau(f"K must be positive, got {self.k}")
        if self.tau_us <= 1:
            raise InvalidTau(f"tau_us must exceed 1us, got {self.tau_us}")
        check_budget("k", self.k, 16 * self.k * self.geometry.num_pixels)
        self.fifo = np.full((2 * self.k, self.geometry.height, self.geometry.width),
                            EMPTY_SLOT, dtype=np.uint64)
        hw = self.geometry.num_pixels
        self._channel = np.empty(hw, dtype=np.float32)
        block = min(DECAY_BLOCK_SLOTS, hw)
        self._scratch = tuple(np.empty(block, dtype) for dtype in (np.uint64, np.float64, bool))

    def ingest(self, e: Event) -> "ToreState":
        """Push one event; the oldest timestamp falls off a full FIFO."""
        if not (0 <= e.x < self.geometry.width and 0 <= e.y < self.geometry.height):
            raise OutOfBounds(f"event at ({e.x},{e.y}) outside geometry")
        if e.polarity not in _POL_INDEX:
            raise OutOfBounds(f"polarity {e.polarity} not in (+1, -1)")
        if e.t >= EMPTY_SLOT:
            raise OutOfBounds(f"timestamp {e.t}us is reserved for empty FIFO slots")
        if e.t < self.last_t:
            raise TimeRegression(f"event at {e.t}us precedes latest {self.last_t}us")
        c0 = _POL_INDEX[e.polarity] * self.k
        column = self.fifo[c0:c0 + self.k, e.y, e.x]
        column[1:] = column[:-1].copy()
        column[0] = e.t
        self.last_t = int(e.t)
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
        if s.t[-1] == EMPTY_SLOT:
            raise OutOfBounds(f"timestamp {int(s.t[-1])}us is reserved for empty FIFO slots")
        for i0 in range(0, n, INGEST_PIECE_EVENTS):
            i1 = i0 + INGEST_PIECE_EVENTS
            self._push_sorted(s.t[i0:i1], s.x[i0:i1], s.y[i0:i1], s.p[i0:i1])
        self.last_t = int(s.t[-1])
        return self

    def _push_sorted(self, t, x, y, p) -> None:
        """Push time-sorted, validated event columns into the FIFO."""
        n = len(t)
        hw = self.geometry.num_pixels
        bits = (n - 1).bit_length()
        # each event's key is the flat FIFO index of its column's slot 0, below
        # 2K * hw <= 2^28 (the FIFO's budget), shifted above its arrival index,
        # below 2^bits: no int64 wrap, and a sort orders each column by time
        key = y.astype(np.int64)
        key *= self.geometry.width
        key += x
        np.add(key, self.k * hw, out=key, where=p < 0)
        key <<= bits
        key |= np.arange(n)
        key.sort()
        st = t[key & ((1 << bits) - 1)]
        key >>= bits
        last = np.flatnonzero(np.append(key[1:] != key[:-1], True))  # each column's newest
        counts = np.diff(last, prepend=-1)
        base = key[last]

        fifo = self.fifo.reshape(-1)
        shift = counts * hw
        # oldest slot first, so every entry is read before it is overwritten:
        # slot s takes the entry `counts` slots newer, or, in a column with
        # more than s new events, its (s+1)-th newest
        for slot in range(self.k - 1, 0, -1):
            dst = base + slot * hw
            value = fifo[dst - np.minimum(shift, slot * hw)]
            pushed = counts > slot
            value[pushed] = st[last[pushed] - slot]
            fifo[dst] = value
        fifo[base] = st[last]

    def _check_query(self, t_query: int) -> None:
        if not 0 <= t_query < 2**64:
            raise ConfigError(f"t_query must lie in the u64 range, got {t_query}")
        if t_query < self.last_t:
            raise TimeRegression(
                f"query at {t_query}us precedes latest ingested {self.last_t}us")

    def _decay_channels(self, t_query: int, rows=None, pixels: np.ndarray | None = None):
        """The decay at t_query of rows of H*W stamps, by default the FIFO's
        channels (the volume), one row at a time: yields each row's float32
        decay, computed in blocks of at most DECAY_BLOCK_SLOTS slots. Every
        slot is decayed, or, given the sorted flat pixel indices `pixels`,
        only those at these pixels, and the rest read 0. Each row is the
        state's channel buffer, which the next row overwrites."""
        if rows is None:
            rows = self.fifo.reshape(2 * self.k, -1)
        hw = self.geometry.num_pixels
        size = len(self._scratch[0])
        values = self._channel
        for stamps in rows:
            if pixels is None:
                for p0 in range(0, hw, size):
                    _decay_into(values[p0:p0 + size], stamps[p0:p0 + size], t_query,
                                self.tau_us, self._scratch)
            else:
                values.fill(0)
                for i0 in range(0, len(pixels), size):
                    _decay_into(values, stamps, t_query, self.tau_us, self._scratch,
                                pixels[i0:i0 + size])
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


class _Newest:
    """Each pixel's newest filled stamp over both polarities (channels 0
    and K) as a row of `ToreState._decay_channels`, or EMPTY_SLOT if neither
    is filled; each slice is computed when it is taken."""

    def __init__(self, state: ToreState):
        self.pos, self.neg = state.fifo[0].reshape(-1), state.fifo[state.k].reshape(-1)

    def __getitem__(self, pixels: slice) -> np.ndarray:
        # EMPTY_SLOT + 1 wraps to 0, below every filled stamp + 1
        one = np.uint64(1)
        return np.maximum(self.pos[pixels] + one, self.neg[pixels] + one) - one


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
    rises with age. `write(path, mask)` writes the tensor of `data`, or of
    `gating.apply_mask` of that volume, one channel at a time, without
    building the volume; given a mask, it decays only the mask's pixels.
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
        (values,) = state._decay_channels(self.query_time_us, [_Newest(state)])
        return values.reshape(self.geometry.height, self.geometry.width).copy()

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
            f.write(_TENSOR_HEADER.pack(TENSOR_MAGIC, *state.fifo.shape))
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


def parse_tensor(blob: bytes) -> np.ndarray:
    if len(blob) < _TENSOR_HEADER.size or blob[:4] != TENSOR_MAGIC:
        raise BadMagic("not a TORE tensor blob")
    _, c, h, w = _TENSOR_HEADER.unpack_from(blob, 0)
    expect = c * h * w * 4
    payload = len(blob) - _TENSOR_HEADER.size
    if payload != expect:
        raise TruncatedRecord(f"tensor payload {payload} bytes, expected {expect}")
    a = np.frombuffer(blob, dtype="<f4", count=c * h * w, offset=_TENSOR_HEADER.size)
    return a.reshape(c, h, w).copy()


def write_tensor(path, data: np.ndarray) -> None:
    """Write the bytes of serialize_tensor straight from the array's buffer,
    without building a copy of the payload."""
    a = np.ascontiguousarray(data, dtype=np.float32)
    header = _tensor_header(a)
    with open(path, "wb") as f:
        f.write(header)
        f.write(a)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f, from_file(path):
        return parse_tensor(f.read())

