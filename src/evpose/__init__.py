"""Event-camera 3D human-pose toolkit.

Deterministic core of an event-based pose pipeline: EVT1 event streams,
decay-volume representations, video-to-event simulation with paired
labels, mask gating with early-exit scheduling, heatmap triangulation
with gradients checked by finite differences, and MPJPE/PCK/AUC
evaluation. Neural predictors plug in behind backend interfaces.
"""

from . import camera, errors, events, gating, metrics, pose_math, representations, simulator

__version__ = "0.1.0"

__all__ = [
    "camera",
    "errors",
    "events",
    "gating",
    "metrics",
    "pose_math",
    "representations",
    "simulator",
    "__version__",
]
