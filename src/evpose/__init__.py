"""Event-camera 3D human-pose toolkit.

Deterministic core of an event-based pose pipeline: EVT1 event streams,
decay-volume representations, video-to-event simulation with paired
labels, mask gating with early-exit scheduling, heatmap triangulation
with gradients checked by finite differences, and MPJPE/PCK/AUC
evaluation. Neural predictors plug in behind backend interfaces.

Submodules load on first use: `import evpose` loads none of them, and
`evpose.gating` or `from evpose import gating` imports that one (and what
it imports) when it is first reached, so a CLI subcommand pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("camera", "errors", "events", "gating", "metrics", "pose_math",
               "representations", "simulator")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
