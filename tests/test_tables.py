"""The text-table contract, checked once per comma-separated format.

Schedules, skeleton labels and poses are each a header line and one
comma-separated line per row, read from and written to a path through one
codec in `evpose.events`. Each adapter below gives one format's reader,
writer, a sample value and the exact text the writer makes of it.
"""

import re

import numpy as np
import pytest

from evpose import gating
from evpose import pose_math as pm
from evpose import simulator as sim
from evpose.errors import BadMagic, DataError


class ScheduleCsv:
    """Schedule: frame, recompute flag and the score's repr."""

    value = [gating.ScheduleEntry(frame=0, recompute=True, score_used=1.0),
             gating.ScheduleEntry(frame=1, recompute=False, score_used=0.1)]
    text = "frame,recompute,score_used\n0,1,1.0\n1,0,0.1\n"
    write = staticmethod(gating.write_schedule_csv)
    read = staticmethod(gating.read_schedule_csv)
    plain = staticmethod(list)


def _skeleton_joints(t_us):
    return np.arange(39, dtype=np.float64).reshape(13, 3) / 10 - t_us


class SkeletonCsv:
    """Skeleton labels: 13 rows per timestamp, joint name, then millimeters."""

    value = [sim.SkeletonFrame(t_us=t, joints=_skeleton_joints(t)) for t in (0, 3333)]
    text = "t_us,joint_name,x_mm,y_mm,z_mm\n" + "".join(
        f"{t},{name},{x!r},{y!r},{z!r}\n"
        for t in (0, 3333)
        for name, (x, y, z) in zip(sim.JOINT_NAMES_13, _skeleton_joints(t).tolist()))
    write = staticmethod(sim.write_skeleton_csv)
    read = staticmethod(sim.read_skeleton_csv)
    plain = staticmethod(lambda frames: [(s.t_us, s.joints.tolist()) for s in frames])


class PoseCsv:
    """Pose: joint name, then x, y and z."""

    value = (["head", "neck"], pm.Pose3D(joints=[[0.1, -2.5, 1e-300], [3.0, 4.0, 5.0]]))
    text = "joint,x,y,z\nhead,0.1,-2.5,1e-300\nneck,3.0,4.0,5.0\n"
    write = staticmethod(lambda path, value: pm.write_pose_csv(path, value[1], value[0]))
    read = staticmethod(pm.read_pose_csv)
    plain = staticmethod(lambda value: (list(value[0]), value[1].joints.tolist()))


EACH_TABLE = pytest.mark.parametrize("fmt", [ScheduleCsv, SkeletonCsv, PoseCsv],
                                     ids=["schedule", "skeleton", "pose"])


def _header_and_rows(fmt):
    header, *rows = fmt.text.splitlines()
    return header, rows


def _keep(row):
    return row


def _short(row):
    return row.rsplit(",", 1)[0]


def _long(row):
    return row + ",0"


def _unparsable(row):
    return _short(row) + ",x"


def _raises_naming(fmt, path, error, message):
    """fmt.read(path) raises error, its message the path, then message."""
    with pytest.raises(error) as info:
        fmt.read(path)
    prefix = f"{path}: "
    assert str(info.value).startswith(prefix), info.value
    assert re.match(message, str(info.value)[len(prefix):]), info.value


@EACH_TABLE
class TestTableContract:
    def test_writer_bytes_and_round_trip(self, tmp_path, fmt):
        path = tmp_path / "table.csv"
        fmt.write(path, fmt.value)
        assert path.read_bytes() == fmt.text.encode()
        assert fmt.plain(fmt.read(path)) == fmt.plain(fmt.value)

    def test_blank_lines_skipped_and_crlf_read(self, tmp_path, fmt):
        header, rows = _header_and_rows(fmt)
        path = tmp_path / "table.csv"
        path.write_bytes("\r\n".join([header, "", *rows[:1], "  ", *rows[1:], "", ""])
                         .encode())
        assert fmt.plain(fmt.read(path)) == fmt.plain(fmt.value)

    def test_wrong_header_is_bad_magic(self, tmp_path, fmt):
        _, rows = _header_and_rows(fmt)
        path = tmp_path / "table.csv"
        path.write_text("\n".join(["a,b,c", *rows]) + "\n")
        _raises_naming(fmt, path, BadMagic, "expected header ")

    @pytest.mark.parametrize("edit_first, edit_second, message", [
        (_keep, _short, "line 3: expected {k} fields, got {short}$"),
        (_keep, _long, "line 3: expected {k} fields, got {long}$"),
        (_keep, _unparsable, "line 3: .*'x'"),
        (_unparsable, _long, "line 2: .*'x'"),
    ], ids=["short", "long", "unparsable", "first_of_two"])
    def test_bad_row_is_data_error_naming_file_and_line(self, tmp_path, fmt, edit_first,
                                                        edit_second, message):
        header, rows = _header_and_rows(fmt)
        k = header.count(",") + 1
        path = tmp_path / "table.csv"
        path.write_text("\n".join([header, edit_first(rows[0]), edit_second(rows[1])]) + "\n")
        _raises_naming(fmt, path, DataError, message.format(k=k, short=k - 1, long=k + 1))


def test_pose_names_that_would_split_a_row_are_rejected(tmp_path):
    pose = pm.Pose3D(joints=np.zeros((2, 3)))
    for bad in ("head,l", "ne\nck", "neck\r"):
        with pytest.raises(DataError, match="comma or a line break"):
            pm.write_pose_csv(tmp_path / "pose.csv", pose, ["head", bad])
