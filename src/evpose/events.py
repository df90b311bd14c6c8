"""Event streams, sensor geometry, the EVT1 binary format, and slicing.

An event is a (t, x, y, polarity) record produced by a dynamic vision
sensor pixel when its log intensity changes past a contrast threshold.
Timestamps are microseconds in an unsigned 64-bit range; equal timestamps
are allowed (many pixels can fire within the same microsecond).

EVT1 on-disk layout (little-endian):

    header  = magic b"EVT1" | version u16 (=1) | width u16 | height u16
              | event_count u64                               (18 bytes)
    record  = t u64 | x u16 | y u16 | polarity i8 | pad[3]    (16 bytes)

A CSV alternative (header line ``t_us,x,y,p``) is provided as a lossless
text path for interoperability.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
    WindowLimit,
    ZeroCount,
    ZeroWindow,
    from_file,
)

EVT1_MAGIC = b"EVT1"
EVT1_VERSION = 1
_HEADER = struct.Struct("<4sHHHQ")
RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("pad", "V3")]
)
HEADER_SIZE = _HEADER.size  # 18
RECORD_SIZE = RECORD_DTYPE.itemsize  # 16


@dataclass(frozen=True)
class Event:
    t: int
    x: int
    y: int
    polarity: int


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise OutOfBounds(f"geometry must be positive, got {self.width}x{self.height}")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height


DAVIS346 = SensorGeometry(width=346, height=260)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous view; the caller's own array keeps its flags."""
    a = np.ascontiguousarray(a).view()
    a.setflags(write=False)
    return a


_STORED = (("t", np.dtype(np.uint64)), ("x", np.dtype(np.uint16)),
           ("y", np.dtype(np.uint16)), ("p", np.dtype(np.int8)))


def _stored(name: str, a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Column a in its stored dtype. A column of another dtype must hold
    only values that dtype represents exactly: no wraparound, no truncation."""
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    fits = (a >= info.min) & (a < info.max + 1)
    if a.dtype.kind == "f":
        fits &= np.floor(a) == a
    if not np.all(fits):
        bad = int(np.argmin(fits))
        raise OutOfBounds(f"record {bad} has {name} = {a[bad]}, which {dtype} cannot hold")
    return a.astype(dtype)


@dataclass(frozen=True)
class EventStream:
    """Immutable, time-ordered sequence of events on one sensor.

    Columns are stored as separate arrays (t: u64, x: u16, y: u16,
    p: i8 with values +1/-1). Validation happens once at construction;
    the arrays are marked read-only so streams can be shared across
    threads. tolerance_us admits sources with slightly out-of-order
    timestamps: a regression of at most tolerance_us is accepted and the
    events are then stably sorted by time, so a stream is always sorted.
    """

    geometry: SensorGeometry
    t: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    tolerance_us: int = 0

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise TruncatedRecord("column lengths differ")
        cols = tuple(_stored(name, getattr(self, name), dtype) for name, dtype in _STORED)
        if not validate_columns(self.geometry, *cols, tolerance_us=self.tolerance_us):
            order = np.argsort(cols[0], kind="stable")
            cols = tuple(c[order] for c in cols)
        for name, col in zip("txyp", cols):
            object.__setattr__(self, name, _as_readonly(col))

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        z = np.zeros(0, dtype=np.uint64)
        return cls(geometry, z, z.astype(np.uint16), z.astype(np.uint16), z.astype(np.int8))

    @classmethod
    def from_arrays(cls, geometry, t, x, y, p, tolerance_us: int = 0) -> "EventStream":
        return cls(geometry, np.asarray(t), np.asarray(x), np.asarray(y),
                   np.asarray(p), tolerance_us)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        """Event i, or the sub-stream a step-1 slice selects: valid and sorted
        like this stream, so it shares its fields and buffers unchecked."""
        if not isinstance(i, slice):
            return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.p[i]))
        if i.step not in (None, 1):
            raise ValueError(f"stream slices take step 1, got {i.step}")
        sub = object.__new__(EventStream)
        sub.__dict__.update(vars(self), **{c: getattr(self, c)[i] for c in "txyp"})
        return sub

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def restrict(self, lo: int, hi: int) -> "EventStream":
        """Events with lo <= t < hi, order preserved."""
        i0, i1 = np.searchsorted(self.t, np.asarray([lo, hi], dtype=np.uint64), side="left")
        return self[i0:i1]


def validate_columns(geometry, t, x, y, p, tolerance_us: int = 0) -> bool:
    """Raise if the column arrays violate the stream contract; return
    whether t is sorted (False when it regresses within tolerance_us)."""
    if np.any(x >= geometry.width) or np.any(y >= geometry.height):
        bad = int(np.argmax((x >= geometry.width) | (y >= geometry.height)))
        raise OutOfBounds(
            f"record {bad} at ({int(x[bad])},{int(y[bad])}) outside "
            f"{geometry.width}x{geometry.height}"
        )
    if not np.all((p == 1) | (p == -1)):
        bad = int(np.argmax((p != 1) & (p != -1)))
        raise OutOfBounds(f"record {bad} has polarity {int(p[bad])}, expected +1/-1")
    regressed = t[1:] < t[:-1]
    if not np.any(regressed):
        return True
    drop = np.where(regressed, t[:-1] - t[1:], np.uint64(0))  # wrapped values unused
    beyond = drop > np.uint64(tolerance_us)
    if np.any(beyond):
        bad = int(np.argmax(beyond))
        raise NonMonotonic(f"timestamp regresses by {int(drop[bad])}us at record {bad + 1} "
                           f"(tolerance {tolerance_us}us)")
    return False


# -- EVT1 binary format --------------------------------------------------------


def parse_stream(blob: bytes, tolerance_us: int = 0) -> EventStream:
    """Parse an EVT1 blob into a validated EventStream.

    Raises BadMagic, TruncatedRecord, OutOfBounds or NonMonotonic. Event
    order is preserved from the file only when the file is sorted by time;
    records that regress within tolerance_us are stably sorted.
    """
    if len(blob) < HEADER_SIZE or blob[:4] != EVT1_MAGIC:
        raise BadMagic("not an EVT1 blob")
    magic, version, width, height, count = _HEADER.unpack_from(blob, 0)
    if version != EVT1_VERSION:
        raise BadMagic(f"unsupported EVT1 version {version}")
    payload = len(blob) - HEADER_SIZE
    if payload % RECORD_SIZE != 0:
        raise TruncatedRecord(f"payload of {payload} bytes is not a multiple of {RECORD_SIZE}")
    n = payload // RECORD_SIZE
    if n != count:
        raise TruncatedRecord(f"header declares {count} events, payload holds {n}")
    geometry = SensorGeometry(width=width, height=height)
    rec = np.frombuffer(blob, dtype=RECORD_DTYPE, count=n, offset=HEADER_SIZE)
    return EventStream(geometry, rec["t"].copy(), rec["x"].copy(),
                       rec["y"].copy(), rec["p"].copy(), tolerance_us)


def serialize_stream(s: EventStream) -> bytes:
    """Bit-exact inverse of parse_stream."""
    header = _HEADER.pack(EVT1_MAGIC, EVT1_VERSION, s.geometry.width,
                          s.geometry.height, len(s))
    rec = np.zeros(len(s), dtype=RECORD_DTYPE)
    rec["t"] = s.t
    rec["x"] = s.x
    rec["y"] = s.y
    rec["p"] = s.p
    return header + rec.tobytes()


def read_stream(path) -> EventStream:
    with open(path, "rb") as f:
        blob = f.read()
    with from_file(path):
        return parse_stream(blob)


def write_stream(path, s: EventStream) -> None:
    with open(path, "wb") as f:
        f.write(serialize_stream(s))


# -- CSV text path -------------------------------------------------------------

CSV_HEADER = "t_us,x,y,p"


def write_csv(fp, s: EventStream) -> None:
    own = isinstance(fp, (str, bytes)) or hasattr(fp, "__fspath__")
    out = open(fp, "w") if own else fp
    try:
        out.write(CSV_HEADER + "\n")
        out.write("".join(map("{},{},{},{}\n".format, s.t.tolist(), s.x.tolist(),
                              s.y.tolist(), s.p.tolist())))
    finally:
        if own:
            out.close()


def read_csv(fp, geometry: SensorGeometry) -> EventStream:
    own = isinstance(fp, (str, bytes)) or hasattr(fp, "__fspath__")
    inp = open(fp, "r") if own else fp
    try:
        header = inp.readline().strip()
        if header != CSV_HEADER:
            raise BadMagic(f"expected CSV header {CSV_HEADER!r}, got {header!r}")
        body = inp.read()
    finally:
        if own:
            inp.close()
    if not body.strip():
        return EventStream.empty(geometry)
    data = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    return EventStream.from_arrays(geometry, data[:, 0], data[:, 1], data[:, 2], data[:, 3])


# -- slicing -------------------------------------------------------------------


# Most windows one stream may be cut into: 93 h of 20 ms windows.
MAX_WINDOWS = 2**24


def iter_windows(s: EventStream, window_us: int, origin_us: int = 0):
    """Yield (end_us, window) for consecutive half-open windows of s.

    Window k covers [origin + k*w, origin + (k+1)*w) and ends at
    origin + (k+1)*w. Events before the origin are dropped. Every window
    from the origin through the one holding the last event is yielded,
    empty ones included, so the windows partition [origin, last event].
    The windows are bounded before the first is yielded; each is a view
    of s, cut by one searchsorted when the consumer asks for it.
    """
    if window_us <= 0 or origin_us < 0:
        raise ZeroWindow(f"window_us must be positive and origin_us non-negative, "
                         f"got {window_us} and {origin_us}")
    if len(s) == 0 or origin_us > int(s.t[-1]):
        return
    n_windows = (int(s.t[-1]) - origin_us) // window_us + 1
    last_end = origin_us + n_windows * window_us
    if n_windows > MAX_WINDOWS:
        raise WindowLimit(f"{n_windows} windows of {window_us}us, more than {MAX_WINDOWS}")
    if last_end >= 2**64:
        raise WindowLimit(f"last window ends at {last_end}us, past the u64 timestamp range")
    i0 = int(np.searchsorted(s.t, np.uint64(origin_us), side="left"))
    for end_us in range(origin_us + window_us, last_end + 1, window_us):
        i1 = int(np.searchsorted(s.t, np.uint64(end_us), side="left"))
        yield end_us, s[i0:i1]
        i0 = i1


def slice_constant_time(s: EventStream, window_us: int, origin_us: int = 0) -> list[EventStream]:
    """The windows of iter_windows as a list."""
    return [window for _, window in iter_windows(s, window_us, origin_us)]


@dataclass(frozen=True)
class CountChunk:
    stream: EventStream
    partial: bool


def slice_constant_count(s: EventStream, n: int) -> list[CountChunk]:
    """Consecutive chunks of exactly n events; a trailing remainder chunk
    is flagged partial. Concatenation of chunks equals the input."""
    if n <= 0:
        raise ZeroCount(f"chunk size must be positive, got {n}")
    return [CountChunk(stream=s[i0:i0 + n], partial=len(s) - i0 < n)
            for i0 in range(0, len(s), n)]


def concatenate(streams, geometry: SensorGeometry | None = None) -> EventStream:
    streams = list(streams)
    if not streams:
        if geometry is None:
            raise ValueError("geometry required to concatenate zero streams")
        return EventStream.empty(geometry)
    geo = streams[0].geometry
    return EventStream(
        geo,
        np.concatenate([s.t for s in streams]),
        np.concatenate([s.x for s in streams]),
        np.concatenate([s.y for s in streams]),
        np.concatenate([s.p for s in streams]),
        max(s.tolerance_us for s in streams),
    )
