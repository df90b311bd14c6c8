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

# Most events `ToreState.ingest_stream` sorts at once; it bounds the
# composite sort key (see `_push_sorted`).
INGEST_PIECE_EVENTS = 2**20

_POL_INDEX = {1: 0, -1: 1}


def _decay(delta: np.ndarray, tau_us) -> np.ndarray:
    """Log-age transform of float64 ages, in place; returns `delta`."""
    if tau_us <= 1:
        raise InvalidTau(f"tau_us must exceed 1us, got {tau_us}")
    np.maximum(delta, 1.0, out=delta)
    np.log(delta, out=delta)
    np.divide(delta, math.log(tau_us), out=delta)
    np.subtract(1.0, delta, out=delta)
    np.clip(delta, 0.0, 0.7, out=delta)
    np.divide(delta, 0.7, out=delta)
    return delta


def decay_value(delta_us, tau_us):
    """Log-age transform of one event age. Accepts scalars or arrays.

    Ages at or beyond tau_us map to exactly 0; ages at or below the 1us
    floor map to exactly 1; the saturation edge sits at tau_us**0.3.
    """
    vp = _decay(np.array(delta_us, dtype=np.float64), tau_us)
    return vp if vp.shape else float(vp)


@dataclass
class ToreState:
    """Per-pixel, per-polarity FIFO queues of absolute event timestamps.

    Single-writer: ingest order is the event order. The fifo array is
    uint64 in the volume's own layout, shape (2K, H, W): channel p*K + slot
    holds polarity p (0 positive, 1 negative), slot 0 the newest timestamp.
    Slots that were never filled hold EMPTY_SLOT.
    """

    geometry: SensorGeometry
    k: int = DEFAULT_K
    tau_us: int = DEFAULT_TAU_US
    fifo: np.ndarray = field(init=False, repr=False)
    last_t: int = field(init=False, default=0)

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidTau(f"K must be positive, got {self.k}")
        if self.tau_us <= 1:
            raise InvalidTau(f"tau_us must exceed 1us, got {self.tau_us}")
        check_budget("k", self.k, 16 * self.k * self.geometry.num_pixels)
        self.fifo = np.full((2 * self.k, self.geometry.height, self.geometry.width),
                            EMPTY_SLOT, dtype=np.uint64)

    @property
    def num_channels(self) -> int:
        return 2 * self.k

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
        the unique key `(polarity, pixel) * n + arrival index` groups events
        by pixel and polarity in time order; then each FIFO slot takes
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
        keys = (p < 0).astype(np.int64) * hw + y.astype(np.int64) * self.geometry.width + x
        # keys * n + index < 2 * hw * n <= 2 * 65535^2 * 2^20 < 2^53: no int64 wrap
        comp = np.sort(keys * n + np.arange(n))
        skeys, order = np.divmod(comp, n)
        st = t[order]
        group_end = np.nonzero(np.concatenate((skeys[1:] != skeys[:-1], [True])))[0]
        counts = np.diff(group_end, prepend=-1)

        fifo = self.fifo.reshape(-1)
        pol, pix = np.divmod(skeys[group_end], hw)
        base = pol * (self.k * hw) + pix  # flat index of each group's slot 0
        # oldest slot first, so every entry is read before it is overwritten
        for slot in range(self.k - 1, -1, -1):
            src = slot - counts
            old = fifo[base + np.maximum(src, 0) * hw]
            new = st[np.maximum(group_end - slot, 0)]
            fifo[base + slot * hw] = np.where(src >= 0, old, new)

    def materialize(self, t_query: int) -> "ToreVolume":
        """Dense 2K-channel volume of decay values at t_query.

        Only filled slots are computed; empty ones stay exactly 0. Reads
        the state without changing it; the volume is a fresh array.
        """
        if not 0 <= t_query < 2**64:
            raise ConfigError(f"t_query must lie in the u64 range, got {t_query}")
        if t_query < self.last_t:
            raise TimeRegression(
                f"query at {t_query}us precedes latest ingested {self.last_t}us")
        out = np.zeros(self.fifo.shape, dtype=np.float32)
        # one channel at a time keeps the float64 temporaries small
        for stamps, values in zip(self.fifo.reshape(self.num_channels, -1),
                                  out.reshape(self.num_channels, -1)):
            live = np.flatnonzero(stamps != EMPTY_SLOT)
            # ages are exact in the uint64 subtraction and rounded once into float64
            age = (np.uint64(t_query) - stamps[live]).astype(np.float64)
            values[live] = _decay(age, self.tau_us)
        return ToreVolume(geometry=self.geometry, data=out, query_time_us=int(t_query))


def window_volumes(s: EventStream | events.EventFile, k: int, tau_us: int, window_us: int,
                   origin_us: int = 0):
    """An iterator of the volume at the end of each window of
    events.iter_windows over s, a stream or an EVT1 file; one state ingests
    the windows in order. The settings and the window bounds are checked
    when this is called, before the first volume is drawn."""
    state = ToreState(geometry=s.geometry, k=k, tau_us=tau_us)
    return _volumes(state, events.iter_windows(s, window_us, origin_us))


def _volumes(state: ToreState, windows):
    for end_us, window in windows:
        state.ingest_stream(window)
        yield state.materialize(end_us)


@dataclass(frozen=True)
class ToreVolume:
    """Materialized decay volume; values in [0, 1], float32, immutable."""

    geometry: SensorGeometry
    data: np.ndarray = field(repr=False)
    query_time_us: int = 0

    def __post_init__(self):
        self.geometry.check_shape("data", freeze(self, "data", np.float32), 3)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]


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

