"""The array contract every frozen pipeline type keeps.

A frozen type stores each array field as a read-only, C-contiguous view in
the field's dtype. It copies only when the given array's dtype or layout
must change, and never touches the flags of the caller's own array.
"""

import numpy as np
import pytest

from evpose.camera import CameraModel
from evpose.events import EventStream, SensorGeometry
from evpose.gating import MaskPlan
from evpose.pose_math import Heatmaps, Pose3D
from evpose.representations import ToreVolume
from evpose.simulator import FrameSequence, MaskSequence, SkeletonFrame

GEO = SensorGeometry(width=6, height=4)


def _fields(name):
    """Writable arrays already in the type's stored dtypes and layout."""
    rng = np.random.default_rng(7)
    shape = (3, GEO.height, GEO.width)
    if name == "EventStream":
        return dict(t=np.arange(5, dtype=np.uint64), x=np.arange(5, dtype=np.uint16),
                    y=np.arange(5, dtype=np.uint16) % 4, p=np.ones(5, dtype=np.int8))
    if name == "ToreVolume":
        return dict(data=rng.random(shape, dtype=np.float32))
    if name == "MaskPlan":
        return dict(masks=rng.random(shape) > 0.5, scores=np.array([1.0, 0.9, 0.8]))
    if name == "FrameSequence":
        return dict(frames=rng.random(shape))
    if name == "MaskSequence":
        return dict(masks=rng.random(shape) > 0.5)
    if name in ("SkeletonFrame", "Pose3D"):
        return dict(joints=rng.normal(size=(13, 3)))
    if name == "Heatmaps":
        return dict(stack=np.full((6, 8, 8), 1 / 64))
    if name == "CameraModel":
        return dict(intrinsic=np.array([[200.0, 0, 3], [0, 200.0, 2], [0, 0, 1]]),
                    extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))]))
    raise KeyError(name)


BUILD = {
    "EventStream": lambda **f: EventStream(GEO, **f),
    "ToreVolume": lambda **f: ToreVolume(GEO, **f),
    "MaskPlan": MaskPlan,
    "FrameSequence": lambda **f: FrameSequence(GEO, 30.0, **f),
    "MaskSequence": lambda **f: MaskSequence(GEO, 30.0, **f),
    "SkeletonFrame": lambda **f: SkeletonFrame(0, **f),
    "Pose3D": Pose3D,
    "Heatmaps": Heatmaps,
    "CameraModel": CameraModel,
}


@pytest.mark.parametrize("name", BUILD)
def test_stores_read_only_view_of_callers_array(name):
    fields = _fields(name)
    obj = BUILD[name](**fields)
    for field, mine in fields.items():
        stored = getattr(obj, field)
        assert mine.flags.writeable, field
        assert not stored.flags.writeable, field
        assert np.shares_memory(stored, mine), field


@pytest.mark.parametrize("name", BUILD)
def test_copies_only_to_change_layout(name):
    # every other element of a doubled array: the stored dtype, strided
    strided = {field: np.stack([a, a], axis=-1)[..., 0]
               for field, a in _fields(name).items()}
    obj = BUILD[name](**strided)
    for field, mine in strided.items():
        stored = getattr(obj, field)
        assert stored.flags.c_contiguous and not stored.flags.writeable, field
        assert mine.flags.writeable and not np.shares_memory(stored, mine), field
        assert np.array_equal(stored, mine), field
