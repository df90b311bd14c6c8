"""Event streams, sensor geometry, the EVT1 binary format, and slicing.

An event is a (t, x, y, polarity) record produced by a dynamic vision
sensor pixel when its log intensity changes past a contrast threshold.
Timestamps are microseconds in an unsigned 64-bit range; equal timestamps
are allowed (many pixels can fire within the same microsecond).

EVT1 event files and the MSK1 mask stacks of `gating` share one
counted-record layout (little-endian): an 18-byte header, then exactly
record_count fixed-size records. EVT1's record is one event:

    header  = magic | version u16 (=1) | width u16 | height u16
              | record_count u64                              (18 bytes)
    record  = t u64 | x u16 | y u16 | polarity i8 | pad[3]    (16 bytes)

Both formats open a file with one shared opener, `read_header`, which
checks the header against the file's size. `parse_stream` holds a whole
EVT1 blob in memory; files are read only by `EventFile`, in two passes
over fixed chunks of READ_CHUNK_EVENTS records, into one reused buffer:
the first checks every record, so a bad file fails before any event is
used; the second checks them again as it yields them as sorted
EventStream chunks, which `iter_window_pieces` cuts as it cuts one
stream. A consumer of its windows holds one chunk and one window of
input, whatever the file's length; `read_stream` collects the chunks
into one stream.

Every CSV of the toolkit is a text table, a header line and then one
comma-separated line per row, with one codec here: `table_writer` and
`read_table`. `gating`, `simulator`, `pose_math` and `metrics` declare the
schedule, skeleton, pose and evaluation-report tables.
"""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadMagic,
    DataError,
    GeometryMismatch,
    NonMonotonic,
    OutOfBounds,
    TruncatedRecord,
    WindowLimit,
    ZeroWindow,
    from_file,
)

EVT1_MAGIC = b"EVT1"
_HEADER = struct.Struct("<4sHHHQ")
RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("pad", "V3")]
)
HEADER_SIZE = _HEADER.size  # 18
RECORD_SIZE = RECORD_DTYPE.itemsize  # 16
_EVT1 = (EVT1_MAGIC, lambda geometry: RECORD_SIZE, "event")  # parse_header's format arguments


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
        # x, y and both file headers store each side as u16
        if not (0 < self.width <= 0xFFFF and 0 < self.height <= 0xFFFF):
            raise OutOfBounds(f"geometry sides must lie in 1..65535, "
                              f"got {self.width}x{self.height}")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def check_shape(self, name: str, a: np.ndarray, ndim: int = 2) -> np.ndarray:
        """a, once it has ndim axes, the last two (height, width)."""
        if a.ndim != ndim or a.shape[-2:] != (self.height, self.width):
            raise GeometryMismatch(f"{name} shape {a.shape} does not match geometry {self}")
        return a


DAVIS346 = SensorGeometry(width=346, height=260)


def freeze(obj, name: str, dtype=None) -> np.ndarray:
    """Store and return field `name` of frozen obj as a read-only C-contiguous view
    in dtype, copied only to change dtype or layout; the caller's array keeps its flags."""
    a = np.ascontiguousarray(getattr(obj, name), dtype=dtype).view()
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
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
            object.__setattr__(self, name, col)
            freeze(self, name)

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
        return self._with_columns(*(getattr(self, c)[i] for c in "txyp"))

    def _with_columns(self, t, x, y, p) -> "EventStream":
        """This stream's fields around other columns, unchecked: they must
        already be read-only, valid and sorted like this stream's."""
        sub = object.__new__(EventStream)
        sub.__dict__.update(vars(self), t=t, x=x, y=y, p=p)
        return sub

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def validate_columns(geometry, t, x, y, p, tolerance_us: int = 0, first: int = 0) -> bool:
    """Raise if the column arrays violate the stream contract; return
    whether t is sorted (False when it regresses within tolerance_us).
    Errors number the records from first."""
    if np.any(x >= geometry.width) or np.any(y >= geometry.height):
        bad = int(np.argmax((x >= geometry.width) | (y >= geometry.height)))
        raise OutOfBounds(
            f"record {first + bad} at ({int(x[bad])},{int(y[bad])}) outside "
            f"{geometry.width}x{geometry.height}"
        )
    if not np.all((p == 1) | (p == -1)):
        bad = int(np.argmax((p != 1) & (p != -1)))
        raise OutOfBounds(f"record {first + bad} has polarity {int(p[bad])}, expected +1/-1")
    regressed = t[1:] < t[:-1]
    if not np.any(regressed):
        return True
    drop = np.where(regressed, t[:-1] - t[1:], np.uint64(0))  # wrapped values unused
    beyond = drop > np.uint64(tolerance_us)
    if np.any(beyond):
        bad = int(np.argmax(beyond))
        raise NonMonotonic(f"timestamp regresses by {int(drop[bad])}us at record "
                           f"{first + bad + 1} (tolerance {tolerance_us}us)")
    return False


# -- counted-record files ------------------------------------------------------


def pack_header(magic: bytes, geometry: SensorGeometry, count: int) -> bytes:
    return _HEADER.pack(magic, 1, geometry.width, geometry.height, count)


def parse_header(blob: bytes, magic: bytes, record_size, noun: str,
                 total: int | None = None) -> tuple[SensorGeometry, int]:
    """Geometry and record count of a counted-record blob whose records
    take record_size(geometry) bytes each; total is the whole blob's length
    when blob holds only its start. Raises BadMagic for another magic or a
    version other than 1, and TruncatedRecord (its message naming each
    record a noun) unless the payload holds exactly count."""
    name = magic.decode()
    if len(blob) < HEADER_SIZE or blob[:4] != magic:
        raise BadMagic(f"not an {name} blob")
    _, version, width, height, count = _HEADER.unpack_from(blob, 0)
    if version != 1:
        raise BadMagic(f"unsupported {name} version {version}")
    geometry = SensorGeometry(width=width, height=height)
    size = record_size(geometry)
    payload = (len(blob) if total is None else total) - HEADER_SIZE
    if payload != count * size:
        raise TruncatedRecord(f"{noun} payload of {payload} bytes, header declares "
                              f"{count} {noun}s of {size} bytes")
    return geometry, count


def read_header(f, magic: bytes, record_size, noun: str, what: str) -> tuple[SensorGeometry, int]:
    """`parse_header` of the open counted-record file f, read from its start
    and checked against the file's size, which only a regular file has: a
    pipe or device is a DataError that calls the file `what`."""
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise DataError(f"{what} must be a regular file, not a pipe or device")
    return parse_header(f.read(HEADER_SIZE), magic, record_size, noun, st.st_size)


class RecordFileWriter:
    """Counted-record file written a batch of records at a time, as a
    context manager.

    The file is created on entry with zero bytes where the header goes;
    `write(records, n)` appends n records' bytes. The header goes in only
    when the `with` block exits without an exception, so a run that fails
    partway leaves a file whose zero magic `parse_header` rejects, and a
    run that writes no record leaves the 18-byte count-0 file.
    """

    def __init__(self, path, magic: bytes, geometry: SensorGeometry):
        self.path = path
        self.magic = magic
        self.geometry = geometry
        self.count = 0
        self._f = None

    def write(self, records, n: int) -> None:
        self._f.write(records)
        self.count += n

    def __enter__(self):
        self._f = open(self.path, "wb")
        self._f.write(bytes(HEADER_SIZE))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._f.seek(0)
                self._f.write(pack_header(self.magic, self.geometry, self.count))
        finally:
            self._f.close()


# -- EVT1 binary format --------------------------------------------------------


def parse_stream(blob: bytes, tolerance_us: int = 0) -> EventStream:
    """Parse an EVT1 blob into a validated EventStream.

    Raises BadMagic, TruncatedRecord, OutOfBounds or NonMonotonic. Event
    order is preserved from the file only when the file is sorted by time;
    records that regress within tolerance_us are stably sorted.
    """
    geometry, n = parse_header(blob, *_EVT1)
    rec = np.frombuffer(blob, dtype=RECORD_DTYPE, count=n, offset=HEADER_SIZE)
    return EventStream(geometry, rec["t"].copy(), rec["x"].copy(),
                       rec["y"].copy(), rec["p"].copy(), tolerance_us)


def _records(s: EventStream) -> np.ndarray:
    rec = np.zeros(len(s), dtype=RECORD_DTYPE)
    for c in "txyp":
        rec[c] = getattr(s, c)
    return rec


def serialize_stream(s: EventStream) -> bytes:
    """Bit-exact inverse of parse_stream."""
    return pack_header(EVT1_MAGIC, s.geometry, len(s)) + _records(s).tobytes()


def read_stream(path) -> EventStream:
    """The events of an EVT1 file, read through `EventFile`, as one stream."""
    f = EventFile(path)
    return concatenate(f, f.geometry)


# Records an `EventFile` pass reads at once (256 KiB): with one window, the
# input memory of `tore` and `filter`, whatever the recording's length.
READ_CHUNK_EVENTS = 2**14


class EventFile:
    """An EVT1 file read in two passes of READ_CHUNK_EVENTS records at a
    time, for `iter_window_pieces` to cut like one EventStream.

    Construction checks the header, the payload size against the file's,
    and then every record (bounds, polarity, time order within and across
    chunks, tolerance 0), so a bad file fails before any event is used.
    Errors name the file and the record's index in it. Iterating reads
    the file again, checking it the same way, and yields its events as
    sorted EventStream chunks: a file that changed in between ends as a
    DataError, never as a wrong event. Each pass reads with `readinto`
    into one reused buffer. The file is not memory-mapped, because mapped
    pages, once touched, count towards the process's resident memory.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f, from_file(path):
            self.geometry, self._count = read_header(f, *_EVT1, "input")
        self.last_t = 0  # of the last event, once checked
        for t, *_ in self._chunks():
            self.last_t = int(t[-1])

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        template = EventStream.empty(self.geometry)
        for columns in self._chunks():
            for col in columns:
                col.setflags(write=False)
            yield template._with_columns(*columns)

    def _chunks(self):
        """Each chunk's t, x, y and p columns, once checked."""
        with open(self.path, "rb") as f, from_file(self.path):
            if read_header(f, *_EVT1, "input") != (self.geometry, self._count):
                raise DataError("header changed since the file was checked")
            buf = np.empty(READ_CHUNK_EVENTS, dtype=RECORD_DTYPE)
            raw = buf.view(np.uint8)
            # the record before the chunk, at first a valid event at t = 0, heads
            # each column, so one check also orders the chunk after the one before
            before = np.zeros(1, dtype=RECORD_DTYPE)
            before["p"] = 1
            for first in range(0, self._count, READ_CHUNK_EVENTS):
                n = min(READ_CHUNK_EVENTS, self._count - first)
                if f.readinto(raw[:n * RECORD_SIZE]) != n * RECORD_SIZE:
                    raise TruncatedRecord(f"file ends within records {first}..{first + n - 1}")
                columns = [np.concatenate((before[c], buf[c][:n])) for c in "txyp"]
                validate_columns(self.geometry, *columns, first=first - 1)
                before = buf[n - 1:n].copy()
                yield [col[1:] for col in columns]


def write_stream(path, s: EventStream) -> None:
    with EventStreamWriter(path, s.geometry) as out:
        out.append(s.t, s.x, s.y, s.p)


class EventStreamWriter(RecordFileWriter):
    """EVT1 file written one chunk of events at a time, as a context manager.

    Each `append` checks its chunk as an `EventStream` (stored dtypes,
    bounds, polarity, sorted) that starts no earlier than the previous
    chunk's last event, then writes its records. A completed file is
    byte-identical to `serialize_stream` of the chunks' concatenation.
    """

    def __init__(self, path, geometry: SensorGeometry):
        super().__init__(path, EVT1_MAGIC, geometry)
        self._last_t = 0

    def append(self, t, x, y, p) -> None:
        chunk = EventStream.from_arrays(self.geometry, t, x, y, p)  # tolerance 0
        if len(chunk) == 0:
            return
        if int(chunk.t[0]) < self._last_t:
            raise NonMonotonic(f"chunk starts at {int(chunk.t[0])}us, before the previous "
                               f"chunk's last event at {self._last_t}us")
        self.write(_records(chunk), len(chunk))
        self._last_t = int(chunk.t[-1])


# -- text tables ----------------------------------------------------------------


@contextmanager
def table_writer(path, header: str, row_format: str):
    """Write a text table to path: the header line on entry, then, per call
    of the yielded function with an iterable of row tuples, one line per
    row, printf-style row_format % row."""
    line = (row_format + "\n").__mod__
    with open(path, "w") as out:
        out.write(header + "\n")
        yield lambda rows: out.write("".join(map(line, rows)))


def read_table(f, header: str, types: Sequence) -> tuple[list[int], list[list]]:
    """The non-blank rows of the open text table f, LF or CRLF: their line
    numbers (the header is line 1) and one list per column of their fields,
    each parsed by its entry of types. A first line other than header is
    BadMagic; a row with another field count or a field its type rejects is
    a DataError naming the first such line."""
    first = f.readline().rstrip("\r\n")
    if first != header:
        raise BadMagic(f"expected header {header!r}, got {first!r}")
    line_nos, columns = [], [[] for _ in types]
    for n, line in enumerate(f.read().splitlines(), start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            if len(fields) != len(types):
                raise ValueError(f"expected {len(types)} fields, got {len(fields)}")
            for column, parse, v in zip(columns, types, fields):
                column.append(parse(v))
        except ValueError as e:
            raise DataError(f"line {n}: {e}") from None
        line_nos.append(n)
    return line_nos, columns


# -- slicing -------------------------------------------------------------------


DEFAULT_WINDOW_US = 20_000  # 50 windows per second of recording
# Most windows one stream may be cut into: 93 h of 20 ms windows.
MAX_WINDOWS = 2**24


def check_window(window_us: int, origin_us: int, end_us: int = 0) -> None:
    """The windowing rules: a positive window from a non-negative origin
    (else ZeroWindow) ends within the u64 range (else WindowLimit)."""
    if window_us <= 0 or origin_us < 0:
        raise ZeroWindow(f"window_us must be positive and origin_us non-negative, "
                         f"got {window_us} and {origin_us}")
    if end_us >= 2**64:
        raise WindowLimit(f"last window ends at {end_us}us, past the u64 timestamp range")


def iter_window_pieces(s: EventStream | EventFile, window_us: int, origin_us: int = 0):
    """An iterator of (end_us, piece, last) for consecutive half-open windows
    of s, an EventStream or the sorted EventStream chunks of an EventFile.

    Window k covers [origin + k*w, origin + (k+1)*w) and ends at
    origin + (k+1)*w. Events before the origin are dropped. Every window
    from the origin through the one holding the last event is cut, empty
    ones included, so the windows partition [origin, last event]. The
    windows are bounded when this is called, before the first is drawn;
    each is cut by one searchsorted when the consumer asks for it. A piece
    is the never-copied view of one chunk that falls in the window ending
    at end_us, in order, and last marks a window's final piece, which may
    be empty: a window that spans chunks comes in several pieces.
    """
    check_window(window_us, origin_us)
    if len(s) == 0:
        return iter(())
    last_t = int(s.t[-1]) if isinstance(s, EventStream) else s.last_t
    if origin_us > last_t:
        return iter(())
    n_windows = (last_t - origin_us) // window_us + 1
    if n_windows > MAX_WINDOWS:
        raise WindowLimit(f"{n_windows} windows of {window_us}us, more than {MAX_WINDOWS}")
    check_window(window_us, origin_us, origin_us + n_windows * window_us)
    return _cut_windows(s, window_us, origin_us)


def _cut_windows(s: EventStream | EventFile, window_us: int, origin_us: int):
    end_us = origin_us + window_us
    for chunk in (s,) if isinstance(s, EventStream) else s:
        i0 = int(np.searchsorted(chunk.t, np.uint64(origin_us), side="left"))
        # a window closes once an event at or past its end is seen, so
        # end_us never passes the last window's end
        while (i1 := int(np.searchsorted(chunk.t, np.uint64(end_us), side="left"))) < len(chunk):
            yield end_us, chunk[i0:i1], True
            i0 = i1
            end_us += window_us
        if i0 < len(chunk):
            yield end_us, chunk[i0:], False
    # the window holding the last event closes after the last chunk
    yield end_us, chunk[len(chunk):], True


def slice_constant_time(s: EventStream | EventFile, window_us: int,
                        origin_us: int = 0) -> list[EventStream]:
    """The windows of iter_window_pieces, each as one stream, in a list: a
    window inside one chunk is that chunk's view, and one that spans
    chunks is a copy."""
    windows, held = [], []
    for _, piece, last in iter_window_pieces(s, window_us, origin_us):
        if len(piece) or not held:
            held.append(piece)
        if last:
            windows.append(held[0] if len(held) == 1 else concatenate(held))
            held = []
    return windows


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
