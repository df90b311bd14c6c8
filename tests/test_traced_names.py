"""The names `benchmark/child.py` traces must exist in evpose, and those
the CLI never calls are pinned.

With tracing on, the benchmark child replaces each `owner.attr` it passes
to `wrap` with a timed wrapper before it runs the subcommand, so a deleted
or renamed name makes every traced benchmark run fail at start-up, and a
name the CLI stopped calling makes its per-layer metric read 0. The child
is read with `ast` here, never imported or run.
"""

import ast
import functools
import importlib
from pathlib import Path

import numpy as np

from evpose import camera
from evpose import cli
from evpose import events as ev
from evpose import simulator as sim

from oracles import random_stream
from test_cli import write_frame_dir

CHILD = Path(__file__).resolve().parents[1] / "benchmark" / "child.py"


def traced_targets():
    """(owner expression, attribute) per wrap call, and the evpose module
    each imported alias names."""
    tree = ast.parse(CHILD.read_text())
    modules = {}  # alias -> evpose module
    loops = {}    # loop variable -> the strings its for loop runs over
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "evpose":
            for a in node.names:
                modules[a.asname or a.name] = f"evpose.{a.name}"
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
              and isinstance(node.iter, (ast.Tuple, ast.List))):
            loops[node.target.id] = [ast.literal_eval(e) for e in node.iter.elts]
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            owner, attr = node.args[0], node.args[1]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            targets += [(ast.unparse(owner), name) for name in names]
    return modules, targets


def resolve(modules, dotted):
    """The object a dotted owner expression names, or None if it is gone."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(modules[head])
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves():
    modules, targets = traced_targets()
    assert len(targets) >= 20, targets  # the child still wraps its layers
    missing = [f"{owner}.{attr}" for owner, attr in targets
               if not hasattr(resolve(modules, owner), attr)]
    assert missing == []


# Wrapped names no subcommand calls: their traced metrics read 0. A name
# that joins or leaves this set changes what the benchmark's trace shows.
NEVER_CALLED = {
    "ev.read_stream", "ev.slice_constant_time", "ev.write_stream",
    "gating.schedule_masks", "gating.write_schedule_csv", "gating.write_masks",
    # filter writes each frame's `masked`, decaying only the mask's pixels;
    # apply_mask stays the library function and the tests' oracle
    "gating.apply_mask",
    # tore and filter write each frame with `WindowFrame.write`, channel by
    # channel; materialize stays the collector behind WindowFrame.data and
    # window_volumes, which tests and the CI readback call
    "rep.ToreState.materialize",
    "sim.load_frame_sequence", "sim.load_mask_sequence", "sim.composite",
    "sim.interpolate_linear", "sim.frames_to_events",
}


def subcommands(tmp_path, rng):
    """Arguments of tore, filter and simulate as the benchmark's workloads
    run them, on tiny inputs this writes."""
    geometry = ev.SensorGeometry(16, 12)
    events = tmp_path / "events.evt1"
    ev.write_stream(events, random_stream(rng, geometry, 500, duration_us=100_000))
    clip = rng.uniform(0.1, 0.9, (4, 12, 16))
    for name, frames in (("frames", clip), ("masks", clip > 0.5), ("background", clip[::-1])):
        write_frame_dir(tmp_path / name, frames.astype(np.float64), fps=100.0)
    joints = np.column_stack([rng.uniform(-10, 10, 13), rng.uniform(-10, 10, 13),
                              rng.uniform(990, 1010, 13)])
    sim.write_skeleton_csv(tmp_path / "skeleton.csv",
                           [sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")])
    camera.save_camera(tmp_path / "camera.txt", camera.CameraModel(
        intrinsic=np.array([[300.0, 0, 8.0], [0, 300.0, 6.0], [0, 0, 1.0]]),
        extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))])))
    return [argv + ["--out", str(tmp_path / argv[0])] for argv in (
        ["tore", "--events", str(events)],
        ["filter", "--events", str(events), "--beta", "0.85"],
        ["simulate", "--frames", str(tmp_path / "frames"), "--masks", str(tmp_path / "masks"),
         "--background", str(tmp_path / "background"),
         "--skeleton", str(tmp_path / "skeleton.csv"), "--cam", str(tmp_path / "camera.txt"),
         "--interpolate", "2"])]


def test_never_called_names_are_pinned(tmp_path, rng, monkeypatch):
    argvs = subcommands(tmp_path, rng)
    modules, targets = traced_targets()
    calls = {}
    for owner, attr in targets:
        name = f"{owner}.{attr}"
        calls[name] = 0
        fn = getattr(resolve(modules, owner), attr)

        @functools.wraps(fn)
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(resolve(modules, owner), attr, counted)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    assert {name for name, n in calls.items() if n == 0} == NEVER_CALLED
