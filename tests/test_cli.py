import contextlib
import io
import json
import math
import os
import subprocess
import sys
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evpose import camera as cam_mod
from evpose import cli
from evpose import events as ev
from evpose import gating
from evpose import pose_math as pm
from evpose import representations as rep
from evpose import simulator as sim
from evpose.errors import MAX_ARRAY_BYTES, ConfigError, DataError

from oracles import (
    composite_whole_clip,
    frames_to_events_whole_clip,
    interpolate_whole_clip,
    random_stream,
    replay_schedule,
    schedule_rule_problems,
    tore_brute_force,
)


def write_frame_dir(path, frames, fps, fmt="f32"):
    path.mkdir(parents=True, exist_ok=True)
    t, h, w = frames.shape
    for i, frame in enumerate(frames):
        if fmt == "f32":
            frame.astype("<f4").tofile(path / f"{i:04d}.f32")
        else:
            sim.write_pgm(path / f"{i:04d}.pgm", frame)
    (path / "manifest.json").write_text(json.dumps(
        {"fps": fps, "width": w, "height": h, "format": fmt}))


class TestStartup:
    def _run(self, code):
        """What code prints in a fresh interpreter, so modules the test
        session loaded do not count."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    def _loaded(self, code):
        """The evpose submodules loaded once code has run."""
        probe = code + ("\nimport sys\n"
                        "print(*(m[len('evpose.'):] for m in sys.modules "
                        "if m.startswith('evpose.')))")
        return set(self._run(probe).split())

    def test_cli_import_loads_no_scipy(self):
        probe = ("import sys, evpose.cli; from evpose import *; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        assert self._run(probe).strip() == "[]"

    # the library modules each subcommand runs, besides errors and events
    RUNS = {"tore": {"representations"}, "bench": {"representations"},
            "filter": {"gating", "representations"},
            "simulate": {"simulator", "pose_math", "camera", "representations"},
            "eval": {"metrics", "pose_math", "camera"}}

    @pytest.mark.parametrize("command", RUNS)
    def test_a_subcommand_loads_only_the_modules_it_runs(self, tmp_path, command):
        # parsing adds the options, whose defaults import modules; the command
        # imports the rest before it fails to read the missing config file
        missing = str(tmp_path / "missing.cfg")
        loaded = self._loaded(
            f"from evpose import cli; cli.main([{command!r}, '--config', {missing!r}])")
        assert loaded - {"cli", "errors", "events"} == self.RUNS[command]

    def test_package_import_loads_no_submodule(self):
        assert self._loaded("import evpose") == set()
        assert self._loaded("import evpose; evpose.gating.apply_mask") == {
            "gating", "errors", "events", "representations"}

    def test_star_import_binds_every_public_name(self):
        unbound = self._run("import evpose; ns = {}; exec('from evpose import *', ns); "
                            "print(*(n for n in evpose.__all__ if n not in ns))").split()
        assert unbound == []


# every value kind a config, manifest or bench report holds
CONFIG = {
    "on": True,
    "off": False,
    "zero": 0,
    "neg": -7,
    "big": 2**64 + 1,
    "rate": 1e-05,
    "beta": 0.95,
    "far": 1e16,
    "weird": 'quote " and = sign # é',
}


class TestConfigFormat:
    def test_render_golden(self):
        assert cli.render_config(CONFIG) == (
            "beta = 0.95\n"
            "big = 18446744073709551617\n"
            "far = 1e+16\n"
            "neg = -7\n"
            "off = false\n"
            "on = true\n"
            "rate = 1e-05\n"
            "weird = \"quote \\\" and = sign # \\u00e9\"\n"
            "zero = 0\n")

    def test_round_trip(self):
        config = {
            **CONFIG,
            "out": "/tmp/somewhere with spaces",
            "seed": 7,
            "tricky": "5",
            "also_tricky": "true",
            "null_string": "null",
        }
        text = cli.render_config(config)
        assert cli.parse_config(text) == config
        assert cli.render_config(cli.parse_config(text)) == text

    @pytest.mark.parametrize("value", [".5", "5.", "+5", "1_000", "007", "inf", "nan",
                                       "\u0661\u0662", "null", "[1]", "{}", "'x'", '"open'])
    def test_value_outside_json_scalars_names_its_line(self, value):
        with pytest.raises(ConfigError, match=r"config line 3: cannot parse value"):
            cli.parse_config(f"seed = 1\n# comment\nrate = {value}\n")

    def test_comments_and_blanks(self):
        text = "# a comment\n\nseed = 3\n  # another\nname = \"x\"\n"
        assert cli.parse_config(text) == {"seed": 3, "name": "x"}

    def test_unquoted_string_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config("path = /no/quotes\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            cli.parse_config("just a line\n")


class TestSimulateCommand:
    def _run(self, argv):
        return cli.main(["simulate"] + argv)

    def test_constant_frames_empty_stream(self, tmp_path):
        frames = np.full((10, 12, 16), 0.5)
        write_frame_dir(tmp_path / "frames", frames, fps=100.0)
        out = tmp_path / "out"
        rc = self._run(["--frames", str(tmp_path / "frames"), "--out", str(out)])
        assert rc == 0
        stream = ev.read_stream(out / "events.evt1")
        assert len(stream) == 0
        assert stream.geometry == ev.SensorGeometry(16, 12)

    def test_deterministic_outputs(self, tmp_path, rng):
        frames = rng.uniform(0.1, 0.9, (6, 12, 16))
        write_frame_dir(tmp_path / "frames", frames, fps=50.0)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = self._run(["--frames", str(tmp_path / "frames"), "--out", str(out),
                            "--shot-noise-scale", "5.0", "--seed", "9"])
            assert rc == 0
            blobs.append((out / "events.evt1").read_bytes())
        assert blobs[0] == blobs[1]

    def test_ramp_count_matches_oracle(self, tmp_path):
        eps = 0.02
        theta = 0.1
        l0 = math.log(0.1 + eps)
        levels = l0 + np.arange(11) * (10.0001 * theta / 10.0)
        pixel = np.exp(levels) - eps
        frames = np.tile(pixel[:, None, None], (1, 6, 8))
        write_frame_dir(tmp_path / "frames", frames, fps=10.0)
        out = tmp_path / "out"
        rc = self._run(["--frames", str(tmp_path / "frames"), "--out", str(out),
                        "--theta-pos", str(theta), "--theta-neg", str(theta),
                        "--eps", str(eps)])
        assert rc == 0
        stream = ev.read_stream(out / "events.evt1")
        assert len(stream) == 10 * 6 * 8

    def _labelled_clip(self, tmp_path, rng):
        """Arguments of a 3-frame clip with one skeleton label and a camera."""
        frames = np.full((3, 12, 16), 0.5)
        write_frame_dir(tmp_path / "frames", frames, fps=100.0)
        joints = np.column_stack([rng.uniform(-50, 50, 13),
                                  rng.uniform(-50, 50, 13),
                                  rng.uniform(900, 1100, 13)])
        skeletons = [sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")]
        sim.write_skeleton_csv(tmp_path / "skeleton.csv", skeletons)
        intrinsic = np.array([[300.0, 0, 8.0], [0, 300.0, 6.0], [0, 0, 1.0]])
        cam = cam_mod.CameraModel(intrinsic=intrinsic,
                                  extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))]))
        cam_mod.save_camera(tmp_path / "camera.txt", cam)
        return ["--frames", str(tmp_path / "frames"), "--out", str(tmp_path / "out"),
                "--skeleton", str(tmp_path / "skeleton.csv"),
                "--cam", str(tmp_path / "camera.txt")]

    def test_labels_and_heatmaps_written(self, tmp_path, rng):
        out = tmp_path / "out"
        rc = self._run(self._labelled_clip(tmp_path, rng) + ["--heatmap-resolution", "16"])
        assert rc == 0
        assert (out / "skeleton.csv").exists()
        assert (out / "camera.txt").exists()
        stack = rep.read_tensor(out / "heatmaps_000000000000.tore")
        assert stack.shape == (39, 16, 16)  # 13 joints x 3 planes
        sums = stack.reshape(39, -1).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-5)

    def test_written_heatmaps_fuse_to_the_written_labels(self, tmp_path, rng):
        """simulate's heatmap files, read back as pm.Heatmaps, triangulate to
        within half a grid cell of the labels normalized from its own
        skeleton.csv and camera.txt: one layout across the three modules."""
        resolution = 32
        frames = np.full((3, 12, 16), 0.5)
        write_frame_dir(tmp_path / "frames", frames, fps=100.0)
        cam = cam_mod.CameraModel(
            intrinsic=np.array([[300.0, 0, 8.0], [0, 300.0, 6.0], [0, 0, 1.0]]),
            extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))]))
        cam_mod.save_camera(tmp_path / "camera.txt", cam)
        skeletons = []
        for t_us in (0, 10_000):  # normalized joints within 0.7 of the cube's center
            norm = rng.uniform(-0.7, 0.7, (13, 3))
            norm[0, 2] = 0.0  # the head, whose depth anchors the cube
            joints = pm.denormalize(norm, cam, 1000.0).joints
            skeletons.append(sim.SkeletonFrame(t_us=t_us, joints=joints, frame="camera"))
        sim.write_skeleton_csv(tmp_path / "skeleton.csv", skeletons)
        out = tmp_path / "out"
        assert self._run(["--frames", str(tmp_path / "frames"), "--out", str(out),
                          "--skeleton", str(tmp_path / "skeleton.csv"),
                          "--cam", str(tmp_path / "camera.txt"),
                          "--heatmap-resolution", str(resolution)]) == 0
        written_cam = cam_mod.load_camera(out / "camera.txt")
        labels = sim.read_skeleton_csv(out / "skeleton.csv")
        assert [s.t_us for s in labels] == [0, 10_000]
        for s in labels:
            norm = sim.normalize_labels(s, written_cam)
            assert np.abs(norm).max() <= 0.7 + 1e-9
            heatmaps = pm.Heatmaps(rep.read_tensor(out / f"heatmaps_{s.t_us:012d}.tore"))
            assert heatmaps.stack.shape == (39, resolution, resolution)
            assert np.all(np.abs(pm.fuse_planes(heatmaps) - norm) <= 0.5 * 2.0 / resolution)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", [p.name for p in cli.simulate_params() if p.type is float])
    def test_non_finite_float_option_exits_2(self, tmp_path, rng, capsys, name, value):
        argv = self._labelled_clip(tmp_path, rng) + ["--" + name.replace("_", "-"), value]
        assert self._run(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        out = tmp_path / "out"
        # every option is checked before the output directory is made
        for written in ("events.evt1", "skeleton.csv", "camera.txt"):
            assert not (out / written).exists()
        assert not out.exists()

    def test_negative_seed_exits_2_before_output(self, tmp_path, rng, capsys):
        assert self._run(self._labelled_clip(tmp_path, rng) + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must lie in [0, inf]")
        assert not (tmp_path / "out").exists()

    def test_composite_path(self, tmp_path):
        h, w = 8, 10
        fg = np.full((4, h, w), 0.9)
        bg = np.full((4, h, w), 0.1)
        mask = np.zeros((4, h, w))
        mask[:, 2:5, 3:7] = 1.0
        write_frame_dir(tmp_path / "fg", fg, fps=60.0)
        write_frame_dir(tmp_path / "bg", bg, fps=60.0)
        write_frame_dir(tmp_path / "mask", mask, fps=60.0)
        out = tmp_path / "out"
        rc = self._run(["--frames", str(tmp_path / "fg"),
                        "--masks", str(tmp_path / "mask"),
                        "--background", str(tmp_path / "bg"),
                        "--out", str(out)])
        assert rc == 0  # constant composite: still no events
        assert len(ev.read_stream(out / "events.evt1")) == 0

    def test_manifest_round_trips(self, tmp_path):
        frames = np.full((2, 6, 8), 0.5)
        write_frame_dir(tmp_path / "frames", frames, fps=10.0)
        out = tmp_path / "out"
        manifest = tmp_path / "resolved.cfg"
        rc = self._run(["--frames", str(tmp_path / "frames"), "--out", str(out),
                        "--manifest", str(manifest)])
        assert rc == 0
        resolved = cli.parse_config(manifest.read_text())
        assert resolved["seed"] == 0
        assert resolved["frames"] == str(tmp_path / "frames")
        assert cli.parse_config(cli.render_config(resolved)) == resolved


class TestSimulateStreaming:
    """`simulate` reads, blends, interpolates, synthesizes and writes one frame
    interval at a time; its events match the whole-clip pipeline bit for bit."""

    GEO = ev.SensorGeometry(9, 7)

    def _clip(self, tmp_path, fg, fps, masks=None, bg=None):
        """Frame directories as f32 files, and the frames they read back as."""
        argv = ["simulate", "--out", str(tmp_path / "out")]
        layers = {"frames": fg, "masks": masks, "background": bg}
        read_back = {}
        for name, frames in layers.items():
            if frames is not None:
                frames = frames.astype(np.float32)
                write_frame_dir(tmp_path / name, frames, fps=fps)
                argv += [f"--{name}", str(tmp_path / name)]
                read_back[name] = frames.astype(np.float64)
        return argv, read_back

    def _oracle(self, read_back, fps, factor, params):
        _, h, w = read_back["frames"].shape
        geo = ev.SensorGeometry(w, h)
        f = sim.FrameSequence(geo, fps, read_back["frames"])
        if "masks" in read_back:
            f = composite_whole_clip(f, sim.MaskSequence(geo, fps, read_back["masks"] > 0.5),
                                     sim.FrameSequence(geo, fps, read_back["background"]))
        return frames_to_events_whole_clip(interpolate_whole_clip(f, factor), params)

    @pytest.mark.parametrize("seed, with_masks, factor, leak, shot", [
        (1, True, 1, 0.0, 0.0),
        (2, True, 2, 3.0, 0.0),
        (3, True, 3, 0.0, 25.0),
        (4, False, 2, 1.5, 10.0),
        (5, False, 1, 0.0, 40.0),
        (6, True, 3, 2.0, 5.0),
    ])
    def test_matches_whole_clip_oracle(self, tmp_path, seed, with_masks, factor, leak, shot):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(4, 9)), self.GEO.height, self.GEO.width)
        fg = rng.uniform(0.05, 0.95, shape)
        masks = bg = None
        if with_masks:
            masks = (rng.random(shape) > 0.5).astype(np.float64)
            bg = rng.uniform(0.0, 1.0, shape)
        argv, read_back = self._clip(tmp_path, fg, 40.0, masks, bg)
        params = sim.PixelModelParams(theta_pos=0.17, theta_neg=0.29, leak_rate_hz=leak,
                                      shot_noise_scale=shot, seed=seed)
        argv += ["--interpolate", str(factor), "--theta-pos", "0.17", "--theta-neg", "0.29",
                 "--leak-rate-hz", str(leak), "--shot-noise-scale", str(shot),
                 "--seed", str(seed)]
        assert cli.main(argv) == 0
        expected = ev.serialize_stream(self._oracle(read_back, 40.0, factor, params))
        assert len(expected) > ev.HEADER_SIZE + 10 * ev.RECORD_SIZE
        assert (tmp_path / "out" / "events.evt1").read_bytes() == expected

    def test_tie_at_interval_boundary_keeps_earlier_interval_first(self, tmp_path):
        # pixel (1,0) crosses at the very end of interval 0 and pixel (0,0) at
        # the very start of interval 1: both round to t = 1000 us, and the
        # earlier interval's event comes first although its pixel is later
        # in raster order
        eps, theta = 0.02, 0.2
        l0 = math.log(0.3 + eps)
        logs = np.array([[l0, l0],
                         [l0 + theta * (1 - 1e-4), l0 + theta * (1 + 1e-4)],
                         [l0 + theta + 0.5, l0 + theta * (1 + 1e-4)]])
        frames = (np.exp(logs) - eps)[:, None, :]
        argv, read_back = self._clip(tmp_path, frames, 1000.0)
        params = sim.PixelModelParams(theta_pos=theta, theta_neg=theta, eps=eps)
        oracle = self._oracle(read_back, 1000.0, 1, params)
        assert oracle.t[:2].tolist() == [1000, 1000]
        assert oracle.x[:2].tolist() == [1, 0]
        assert cli.main(argv + ["--theta-pos", str(theta), "--theta-neg", str(theta),
                                "--eps", str(eps)]) == 0
        assert (tmp_path / "out" / "events.evt1").read_bytes() == ev.serialize_stream(oracle)

    def test_failure_partway_leaves_no_valid_events(self, tmp_path, rng, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, rng.uniform(0.1, 0.9, (12, 7, 9)), fps=50.0, fmt="pgm")
        bad = frames / "0009.pgm"
        bad.write_bytes(b"P5\n9 7\n255\n" + bytes(10))  # 10 of 63 pixels
        out = tmp_path / "out"
        assert cli.main(["simulate", "--frames", str(frames), "--out", str(out)]) == 3
        assert str(bad) in capsys.readouterr().err
        # the intervals before frame 9 were written before the bad file was read
        assert (out / "events.evt1").stat().st_size > ev.HEADER_SIZE
        with pytest.raises(DataError):
            ev.read_stream(out / "events.evt1")

    @pytest.mark.parametrize("extra, message", [
        (["--skeleton", "labels.csv"], "skeleton and cam must be given together"),
        (["--interpolate", "0"], "factor must be >= 1, got 0"),
        (["--interpolate", "-2"], "factor must be >= 1, got -2"),
        (["--masks", "frames"], "masks and background must be given together"),
        (["--background", "frames"], "masks and background must be given together"),
        (["--theta-pos", "0"], "contrast thresholds must be positive"),
        (["--heatmap-resolution", "4"], "resolution must be >= 8, got 4"),
        # 3 planes of 13 joints of 10^10 float64 cells
        (["--heatmap-resolution", "100000"],
         "heatmap_resolution = 100000 asks for 3120000000000 bytes"),
    ])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, extra, message):
        write_frame_dir(tmp_path / "frames", np.linspace(0.1, 0.9, 4)[:, None, None]
                        * np.ones((4, 6, 8)), fps=50.0)
        extra = [str(tmp_path / a) if a in ("labels.csv", "frames") else a for a in extra]
        out = tmp_path / "out"
        assert cli.main(["simulate", "--frames", str(tmp_path / "frames"),
                         "--out", str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("short_row", "skeleton.csv"),
        ("short_camera", "camera file must hold 9 + 12 floats, got 3"),
        ("behind_camera", "non-positive depth"),
        ("zero_mass", "leaves no mass on the grid"),
        ("one_frame", "need at least 2 frames, got 1"),
    ])
    def test_bad_input_exits_3_before_any_output(self, tmp_path, capsys, case, message):
        n = 1 if case == "one_frame" else 3
        write_frame_dir(tmp_path / "frames", np.linspace(0.1, 0.9, n)[:, None, None]
                        * np.ones((n, 6, 8)), fps=50.0)
        joints = np.column_stack([np.zeros(13), np.zeros(13), np.full(13, 1000.0)])
        hand_r = sim.JOINT_NAMES_13.index("hand_r")
        if case == "behind_camera":
            joints[hand_r, 2] = -5.0
        if case == "zero_mass":  # so far past the heatmap grid that a plane underflows
            joints[hand_r, 2] = 9000.0
        skeleton, camera = tmp_path / "skeleton.csv", tmp_path / "camera.txt"
        sim.write_skeleton_csv(skeleton, [sim.SkeletonFrame(t_us=100, joints=joints)])
        cam_mod.save_camera(camera, cam_mod.CameraModel(
            intrinsic=np.array([[300.0, 0, 4.0], [0, 300.0, 3.0], [0, 0, 1.0]]),
            extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))])))
        if case == "short_row":
            with open(skeleton, "a") as f:
                f.write("0,head,1.0,2.0\n")
        if case == "short_camera":
            camera.write_text("1.0 2.0 3.0\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--frames", str(tmp_path / "frames"), "--out", str(out),
                         "--skeleton", str(skeleton), "--cam", str(camera)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        if case == "behind_camera":  # the file, the label's time and the joint
            assert f"{skeleton}: label t_us 100, joint 'hand_r': point 5 at " in captured.err
        if case == "zero_mass":  # ... and the plane
            assert f"{skeleton}: label t_us 100, joint 'hand_r': plane xz at " in captured.err
        assert captured.out == ""
        assert not out.exists()

    def _scene(self, n):
        """n frames of one 64x48 scene: a textured bar moving right over a
        background crossed by a band moving down. Both wrap around every 8
        frames, so a 20-frame clip already holds every frame pair."""
        h, w = 48, 64
        yy, xx = np.mgrid[0:h, 0:w]
        fg = np.broadcast_to(0.7 + 0.2 * np.sin(xx / 3.0 + yy / 5.0), (n, h, w))
        k = np.arange(n)[:, None, None]
        masks = ((xx - 8 * k) % w < 12).astype(np.float64)
        band = np.abs((yy - 6 * k) % h - h / 2) < 4
        bg = 0.2 + 0.1 * np.cos(xx / 7.0) * np.sin(yy / 4.0) + 0.3 * band
        return fg, masks, bg

    def _peak(self, tmp_path, n):
        fg, masks, bg = self._scene(n)
        argv, _ = self._clip(tmp_path / f"n{n}", fg, 100.0, masks, bg)
        tracemalloc.start()
        try:
            rc = cli.main(argv + ["--interpolate", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(ev.read_stream(tmp_path / f"n{n}" / "out" / "events.evt1")) > 0
        return peak

    def test_peak_memory_on_davis346_is_about_nine_frames(self, tmp_path, capsys):
        """With masks, background, shot noise and --interpolate 2, simulate
        holds the synthesis buffers (log intensities, reference, quotient),
        the two input frames a blend reads, the frame being synthesized and
        one interval's events: about nine frame-sized float64 arrays."""
        n, h, w = 6, 260, 346
        yy, xx = np.mgrid[0:h, 0:w]
        k = np.arange(n)[:, None, None]
        layers = {
            "frames": np.broadcast_to(0.7 + 0.2 * np.sin(xx / 3.0 + yy / 5.0), (n, h, w)),
            "masks": ((xx - 8 * k) % w < 60).astype(np.float64),
            "background": 0.2 + 0.1 * np.cos(xx / 7.0) * np.sin(yy / 4.0)
            + 0.3 * (np.abs((yy - 6 * k) % h - h / 2) < 20),
        }
        argv = ["simulate", "--out", str(tmp_path / "out"), "--shot-noise-scale", "2",
                "--interpolate", "2"]
        for name, frames in layers.items():
            write_frame_dir(tmp_path / name, frames, fps=50.0, fmt="pgm")
            argv += [f"--{name}", str(tmp_path / name)]
        assert cli.main(argv) == 0  # first run: one-time imports and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ev.read_stream(tmp_path / "out" / "events.evt1")) > 100_000
        assert peak < 11 * 8 * h * w, peak / (8 * h * w)

    @pytest.mark.parametrize("noise, loaded", [([], False), (["--leak-rate-hz", "5"], True)])
    def test_numpy_random_loads_only_for_a_noisy_clip(self, tmp_path, noise, loaded):
        # a fresh interpreter, so modules the test session loaded do not count
        write_frame_dir(tmp_path / "frames", np.linspace(0.1, 0.9, 3)[:, None, None]
                        * np.ones((3, 6, 8)), fps=50.0, fmt="pgm")
        argv = ["simulate", "--frames", str(tmp_path / "frames"), "--out", str(tmp_path / "out"),
                *noise]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (f"import sys; from evpose import cli; code = cli.main({argv!r}); "
                 "print(code, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == f"0 {loaded}"
        assert len(ev.read_stream(tmp_path / "out" / "events.evt1")) > 0

    def test_peak_memory_flat_in_clip_length(self, tmp_path, capsys):
        frame_bytes = 64 * 48 * 8  # one float64 frame
        self._peak(tmp_path, 20)  # first run: one-time imports and caches
        short = self._peak(tmp_path, 20)
        long = self._peak(tmp_path, 80)
        assert long - short < 2 * frame_bytes, (short, long)


class TestToreCommand:
    def _make_events(self, tmp_path, stream):
        path = tmp_path / "events.evt1"
        ev.write_stream(path, stream)
        return path

    def test_window_count(self, tmp_path, rng):
        geometry = ev.SensorGeometry(16, 12)
        stream = random_stream(rng, geometry, 5000, duration_us=999_999)
        path = self._make_events(tmp_path, stream)
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out),
                       "--window-us", "20000"])
        assert rc == 0
        assert len(list(out.glob("tore_*.tore"))) == 50

    def test_channels_match_oracle(self, tmp_path):
        geometry = ev.SensorGeometry(8, 8)
        k = 2
        ts = [100, 200, 300, 400, 500]  # K+1 and then some on one pixel
        stream = ev.EventStream.from_arrays(geometry, ts, [3] * 5, [4] * 5, [1] * 5)
        path = self._make_events(tmp_path, stream)
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out),
                       "--window-us", "1000", "--k", str(k), "--tau-us", "5000000"])
        assert rc == 0
        got = rep.read_tensor(out / "tore_00000.tore")
        expected = tore_brute_force(stream, k, 5_000_000, 1000)
        assert np.array_equal(got, expected)

    def test_empty_stream_default(self, tmp_path):
        path = self._make_events(tmp_path, ev.EventStream.empty(ev.SensorGeometry(8, 8)))
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out)])
        assert rc == 0
        assert list(out.glob("*.tore")) == []

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--tau-us", "1"),
                                             ("--window-us", "0")])
    def test_empty_stream_emit_flag_still_checks_config(self, tmp_path, flag, value):
        path = self._make_events(tmp_path, ev.EventStream.empty(ev.SensorGeometry(8, 8)))
        rc = cli.main(["tore", "--events", str(path), "--out", str(tmp_path / "tore"),
                       flag, value])
        assert rc == 2

    def test_emit_flag_when_every_event_precedes_the_origin(self, tmp_path, rng, capsys):
        # events, but no window: no tensor, as for an empty file
        geometry = ev.SensorGeometry(16, 12)
        path = self._make_events(tmp_path, random_stream(rng, geometry, 500, duration_us=100_000))
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out),
                       "--origin-us", "1000000"])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote 0 tensor(s) to {out}\n"
        assert list(out.glob("*.tore")) == []


class TestFilterCommand:
    def _events(self, tmp_path, rng, n=3000):
        geometry = ev.SensorGeometry(16, 12)
        stream = random_stream(rng, geometry, n, duration_us=99_999)
        path = tmp_path / "events.evt1"
        ev.write_stream(path, stream)
        return path

    def test_beta_extremes(self, tmp_path, rng):
        path = self._events(tmp_path, rng)
        for beta, expected_calls in (("0.0", math.ceil(10 / 4)), ("1.0", 10)):
            out = tmp_path / f"out_{beta}"
            rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                           "--window-us", "10000", "--beta", beta])
            assert rc == 0
            entries = gating.read_schedule_csv(out / "schedule.csv")
            assert len(entries) == 10
            assert sum(e.recompute for e in entries) == expected_calls

    def test_masked_support_subset_of_mask(self, tmp_path, rng):
        path = self._events(tmp_path, rng)
        out = tmp_path / "out"
        rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                       "--window-us", "10000", "--beta", "0.5"])
        assert rc == 0
        _, masks = gating.read_masks(out / "masks.msk1")
        for i in range(10):
            data = rep.read_tensor(out / f"masked_{i:05d}.tore")
            support = data.any(axis=0)
            assert not support[~masks[i]].any()

    def test_trace_replays_deterministically(self, tmp_path, rng):
        path = self._events(tmp_path, rng)
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                           "--window-us", "10000", "--beta", "0.9"])
            assert rc == 0
            traces.append((out / "schedule.csv").read_text())
        assert traces[0] == traces[1]

    def test_external_masks(self, tmp_path, rng):
        path = self._events(tmp_path, rng)
        geometry = ev.SensorGeometry(16, 12)
        masks = rng.random((10, 12, 16)) > 0.5
        mask_path = tmp_path / "external.msk1"
        gating.write_masks(mask_path, geometry, masks)
        out = tmp_path / "out"
        rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                       "--window-us", "10000", "--beta", "1.0",
                       "--external-masks", str(mask_path)])
        assert rc == 0
        _, used = gating.read_masks(out / "masks.msk1")
        # scores default to 1.0, so beta=1 still reuses: plan masks line up
        # with the externally supplied stack
        assert np.array_equal(used, masks)

        # fed the masks a reference run used, filter writes the same masks and
        # masked tensors
        runs = {}
        for name, extra in (("reference", []),
                            ("fed_back", ["--external-masks",
                                          str(tmp_path / "reference" / "masks.msk1")])):
            runs[name] = tmp_path / name
            assert cli.main(["filter", "--events", str(path), "--out", str(runs[name]),
                             "--window-us", "10000"] + extra) == 0
        names = sorted(p.name for p in runs["reference"].glob("masked_*.tore"))
        assert len(names) == 10
        assert sorted(p.name for p in runs["fed_back"].glob("masked_*.tore")) == names
        for name in ["masks.msk1"] + names:
            assert (runs["fed_back"] / name).read_bytes() == \
                (runs["reference"] / name).read_bytes(), name


def ci_recording(name):
    """A 32x24 recording of ten windows and the settings `tore` and `filter`
    read it at: (stream, origin_us, window_us, tau_us, window ends). In `ci`,
    at the default tau, the FIFO base stays put; in `ci_tau` and `ci_far` it
    moves while the recording is read."""
    geometry = ev.SensorGeometry(32, 24)
    if name in ("ci", "ci_tau"):
        # one set of events: at tau = 30000 the base moves from -2^31 to 0
        # partway through, at the default it stays at -2^31
        rng = np.random.default_rng(0)
        t = np.sort(rng.integers(0, 100_000, 5000))
        origin, window = 0, 10_000
        tau_us = rep.DEFAULT_TAU_US if name == "ci" else 30_000
    else:
        # from 2^62, gaps that outlast tau: the base moves while stamps that
        # still decay above 0 are kept, once
        rng = np.random.default_rng(1)
        t = 2**62 + np.concatenate([np.sort(rng.integers(0, 10**6, 200)) + at for at in
                                    (0, 4_000_000_000, 5_900_000_000, 9_000_000_000)])
        origin, window, tau_us = 2**62, 10**9, rep.MAX_TAU_US
    n = t.size
    s = ev.EventStream.from_arrays(geometry, t.astype(np.uint64), rng.integers(0, 32, n),
                                   rng.integers(0, 24, n), rng.choice([-1, 1], n))
    return s, origin, window, tau_us, [origin + (i + 1) * window for i in range(10)]


def run_ci_recording(tmp_path, command, name):
    """Run `command` on ci_recording(name) at its settings; returns each
    window's brute-force volume and the output directory."""
    s, origin, window, tau_us, ends = ci_recording(name)
    ev.write_stream(tmp_path / "in.evt1", s)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--events", str(tmp_path / "in.evt1"), "--out", str(out),
                         "--origin-us", str(origin), "--window-us", str(window),
                         "--tau-us", str(tau_us)]) == 0
    volumes = [rep.ToreVolume(s.geometry, tore_brute_force(s[:np.searchsorted(s.t, end)],
                                                           rep.DEFAULT_K, tau_us, end), end)
               for end in ends]
    return volumes, out


class TestToreDifferential:
    """`tore` end to end against the oracle on tiny random inputs: one tensor
    per window from the origin to the last event, each the full-history
    replay at its window's end, bit for bit."""

    GEO = ev.SensorGeometry(9, 7)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 200), k=st.integers(1, 5),
           tau_us=st.sampled_from([2, 40, 3_000, rep.DEFAULT_TAU_US]),
           window=st.integers(2_000, 40_000), origin=st.integers(0, 60_000),
           seed=st.integers(0, 2**16))
    def test_tensors_match_oracle(self, n, k, tau_us, window, origin, seed):
        s = random_stream(np.random.default_rng(seed), self.GEO, n, duration_us=100_000)
        ends = []
        if n and int(s.t[-1]) >= origin:
            count = (int(s.t[-1]) - origin) // window + 1
            ends = [origin + (i + 1) * window for i in range(count)]
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            ev.write_stream(tmp / "in.evt1", s)
            out = tmp / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["tore", "--events", str(tmp / "in.evt1"), "--out", str(out),
                                 "--k", str(k), "--tau-us", str(tau_us),
                                 "--window-us", str(window), "--origin-us", str(origin)]) == 0
            assert sorted(p.name for p in out.glob("tore_*.tore")) == \
                [f"tore_{i:05d}.tore" for i in range(len(ends))]
            for i, end in enumerate(ends):
                i0, i1 = np.searchsorted(s.t, [origin, end])
                assert (out / f"tore_{i:05d}.tore").read_bytes() == \
                    rep.serialize_tensor(tore_brute_force(s[i0:i1], k, tau_us, end))

    # ci, whose FIFO base stays, beside the two recordings whose base moves
    @pytest.mark.parametrize("name", ["ci", "ci_tau", "ci_far"])
    def test_moving_base_matches_oracle(self, tmp_path, name):
        volumes, out = run_ci_recording(tmp_path, "tore", name)
        paths = sorted(out.glob("tore_*.tore"))
        assert len(paths) == len(volumes)
        for path, vol in zip(paths, volumes):
            assert path.read_bytes() == rep.serialize_tensor(vol.data), path.name


class TestFilterDifferential:
    """`filter` end to end against the oracles on tiny random inputs: each
    masked tensor is `apply_mask` of the full-history replay at its window's
    end under that window's mask from masks.msk1, schedule.csv keeps the
    early-exit rules, and replaying it with the backend gives masks.msk1."""

    GEO = ev.SensorGeometry(9, 7)

    # beta is often a score the backends give (the reference's 1.0, 0.9, ...,
    # 0.2 and the external default 1.0), where reuse turns on >= beta
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 200), k=st.integers(1, 5),
           tau_us=st.sampled_from([2, 40, 3_000, rep.DEFAULT_TAU_US]),
           window=st.integers(2_000, 40_000), origin=st.integers(0, 60_000),
           beta=st.one_of(st.sampled_from([0.0, 0.2, 0.8, 0.85, 1.0]), st.floats(0, 1)),
           horizon=st.integers(1, 6), percentile=st.floats(0, 100),
           backend=st.sampled_from(["reference", "external", "external_scored"]),
           seed=st.integers(0, 2**16))
    def test_outputs_match_oracles(self, n, k, tau_us, window, origin, beta, horizon,
                                   percentile, backend, seed):
        rng = np.random.default_rng(seed)
        s = random_stream(rng, self.GEO, n, duration_us=100_000)
        ends = []
        if n and int(s.t[-1]) >= origin:
            count = (int(s.t[-1]) - origin) // window + 1
            ends = [origin + (i + 1) * window for i in range(count)]
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            ev.write_stream(tmp / "in.evt1", s)
            out = tmp / "out"
            argv = ["filter", "--events", str(tmp / "in.evt1"), "--out", str(out),
                    "--k", str(k), "--tau-us", str(tau_us), "--window-us", str(window),
                    "--origin-us", str(origin), "--beta", repr(beta),
                    "--horizon", str(horizon), "--activity-percentile", repr(percentile)]
            if backend == "reference":
                oracle_backend = gating.ReferenceMaskBackend(horizon, percentile)
            else:
                masks = rng.random((len(ends) + int(rng.integers(1, 4)), 7, 9)) > 0.6
                gating.write_masks(tmp / "ext.msk1", self.GEO, masks)
                argv += ["--external-masks", str(tmp / "ext.msk1")]
                scores = None
                if backend == "external_scored":
                    np.savetxt(tmp / "ext.csv", rng.random((len(masks), horizon)), delimiter=",")
                    argv += ["--external-scores", str(tmp / "ext.csv")]
                    scores = np.loadtxt(tmp / "ext.csv", delimiter=",", ndmin=2)
                oracle_backend = gating.ExternalMaskBackend(masks, window, origin, horizon,
                                                            scores)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert cli.main(argv) == 0
            calls = int(printed.getvalue().split(", ")[1].split()[0])

            _, used = gating.read_masks(out / "masks.msk1")
            entries = gating.read_schedule_csv(out / "schedule.csv")
            assert len(used) == len(entries) == len(ends)
            assert sorted(p.name for p in out.glob("masked_*.tore")) == \
                [f"masked_{i:05d}.tore" for i in range(len(ends))]
            volumes = []
            for i, end in enumerate(ends):
                i0, i1 = np.searchsorted(s.t, [origin, end])
                vol = rep.ToreVolume(self.GEO, tore_brute_force(s[i0:i1], k, tau_us, end), end)
                assert (out / f"masked_{i:05d}.tore").read_bytes() == \
                    rep.serialize_tensor(gating.apply_mask(vol, used[i]).data)
                volumes.append(vol)
        assert schedule_rule_problems(entries, beta, calls) == []
        replayed = replay_schedule(volumes, oracle_backend, entries, beta)
        assert len(replayed) == len(used)
        for mask, want in zip(replayed, used):
            assert np.array_equal(mask, want)

    # ci, whose FIFO base stays, beside the two recordings whose base moves
    @pytest.mark.parametrize("name", ["ci", "ci_tau", "ci_far"])
    def test_moving_base_matches_oracles(self, tmp_path, name):
        volumes, out = run_ci_recording(tmp_path, "filter", name)
        _, masks = gating.read_masks(out / "masks.msk1")
        paths = sorted(out.glob("masked_*.tore"))
        assert len(paths) == len(masks) == len(volumes)
        for path, vol, mask in zip(paths, volumes, masks):
            assert path.read_bytes() == \
                rep.serialize_tensor(gating.apply_mask(vol, mask).data), path.name


class TestFilterStreaming:
    GEO = ev.SensorGeometry(16, 12)

    def _events(self, tmp_path, rng):
        stream = random_stream(rng, self.GEO, 3000, duration_us=99_999)
        path = tmp_path / "events.evt1"
        ev.write_stream(path, stream)
        return stream, path

    def _sparse_davis_peak(self, tmp_path, rng, windows):
        n = 40 * windows
        t = np.sort(rng.integers(0, windows * 20_000, n)).astype(np.uint64)
        t[-1] = windows * 20_000 - 1
        stream = ev.EventStream.from_arrays(
            ev.DAVIS346, t, rng.integers(0, 346, n), rng.integers(0, 260, n),
            rng.choice(np.array([-1, 1]), n))
        path = tmp_path / f"events_{windows}.evt1"
        ev.write_stream(path, stream)
        out = tmp_path / f"out_{windows}"
        tracemalloc.start()
        try:
            rc = cli.main(["filter", "--events", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(list(out.glob("masked_*.tore"))) == windows
        return peak

    def test_peak_memory_flat_in_window_count(self, tmp_path, rng):
        volume_bytes = 2 * rep.DEFAULT_K * ev.DAVIS346.num_pixels * 4
        short = self._sparse_davis_peak(tmp_path, rng, 10)
        long = self._sparse_davis_peak(tmp_path, rng, 40)
        assert long - short < volume_bytes

    @pytest.mark.parametrize("backend", ["reference", "external"])
    def test_matches_collect_then_write(self, tmp_path, rng, backend):
        stream, path = self._events(tmp_path, rng)
        argv = ["filter", "--events", str(path), "--out", str(tmp_path / "out"),
                "--window-us", "10000", "--beta", "0.85"]
        if backend == "external":
            masks = rng.random((10, 12, 16)) > 0.5
            scores = rng.random((10, 4))
            gating.write_masks(tmp_path / "ext.msk1", self.GEO, masks)
            np.savetxt(tmp_path / "ext.csv", scores, delimiter=",")
            argv += ["--external-masks", str(tmp_path / "ext.msk1"),
                     "--external-scores", str(tmp_path / "ext.csv")]
            ref_backend = gating.ExternalMaskBackend(masks, 10_000, 0, 4, scores)
        else:
            ref_backend = gating.ReferenceMaskBackend()
        assert cli.main(argv) == 0

        volumes = list(rep.window_volumes(stream, rep.DEFAULT_K, rep.DEFAULT_TAU_US,
                                          10_000, 0))
        result = gating.schedule_masks(volumes, ref_backend, 0.85)
        out = tmp_path / "out"
        assert len(list(out.glob("masked_*.tore"))) == len(volumes) == 10
        for i, vol in enumerate(volumes):
            masked = gating.apply_mask(vol, result.masks[i])
            assert (out / f"masked_{i:05d}.tore").read_bytes() == \
                rep.serialize_tensor(masked.data)
        gating.write_schedule_csv(tmp_path / "ref.csv", result.entries)
        assert (out / "schedule.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (out / "masks.msk1").read_bytes() == \
            gating.serialize_masks(self.GEO, result.masks)

    def test_empty_stream_writes_no_masks(self, tmp_path):
        path = tmp_path / "events.evt1"
        ev.write_stream(path, ev.EventStream.empty(self.GEO))
        out = tmp_path / "out"
        assert cli.main(["filter", "--events", str(path), "--out", str(out)]) == 0
        assert (out / "schedule.csv").read_text() == gating.SCHEDULE_HEADER
        assert (out / "masks.msk1").read_bytes() == gating.serialize_masks(
            self.GEO, np.zeros((0, self.GEO.height, self.GEO.width), dtype=bool))
        assert list(out.glob("masked_*.tore")) == []

    def test_failure_partway_leaves_no_valid_masks(self, tmp_path, rng, capsys):
        _, path = self._events(tmp_path, rng)
        mask_path = tmp_path / "short.msk1"
        gating.write_masks(mask_path, self.GEO, rng.random((6, 12, 16)) > 0.5)
        out = tmp_path / "out"
        rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                       "--window-us", "10000", "--external-masks", str(mask_path)])
        assert rc == 3
        assert "no external mask for window 6: the stack holds 6 mask(s)" in \
            capsys.readouterr().err
        # frames 0-5 were written before the backend ran out at frame 6
        assert len(list(out.glob("masked_*.tore"))) == 6
        with pytest.raises(DataError):
            gating.read_masks(out / "masks.msk1")


class TestBoundedInput:
    """`tore` and `filter` read their EVT1 file a chunk at a time."""

    GEO = ev.SensorGeometry(96, 64)

    def _events(self, tmp_path, rng, windows, per_window, name="events.evt1"):
        """windows of exactly per_window events each, 20 ms apart."""
        n = windows * per_window
        t = np.sort(np.repeat(np.arange(windows), per_window) * 20_000
                    + rng.integers(0, 20_000, n))
        path = tmp_path / name
        ev.write_stream(path, ev.EventStream.from_arrays(
            self.GEO, t, rng.integers(0, self.GEO.width, n),
            rng.integers(0, self.GEO.height, n), rng.choice(np.array([-1, 1]), n)))
        return path

    def _peak(self, tmp_path, rng, command, windows, per_window=8_000):
        path = self._events(tmp_path, rng, windows, per_window,
                            f"events_{windows}_{per_window}.evt1")
        out = tmp_path / f"{command}_{windows}_{per_window}"
        tracemalloc.start()
        try:
            rc = cli.main([command, "--events", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(list(out.glob("*.tore"))) == windows
        return peak

    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_peak_memory_flat_in_recording_length(self, tmp_path, rng, command, capsys):
        volume_bytes = 2 * rep.DEFAULT_K * self.GEO.num_pixels * 4
        self._peak(tmp_path, rng, command, 2)  # one-time imports and caches
        short = self._peak(tmp_path, rng, command, 5)
        long = self._peak(tmp_path, rng, command, 50)  # ten times the events
        assert abs(long - short) < volume_bytes, (short, long)

    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_peak_memory_flat_in_window_density(self, tmp_path, rng, command, capsys):
        volume_bytes = 2 * rep.DEFAULT_K * self.GEO.num_pixels * 4
        self._peak(tmp_path, rng, command, 2)  # one-time imports and caches
        sparse = self._peak(tmp_path, rng, command, 5)  # past two whole read chunks
        dense = self._peak(tmp_path, rng, command, 5, 200_000)  # 25 times the events per window
        assert abs(dense - sparse) < volume_bytes, (sparse, dense)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_bad_record_in_last_chunk_exits_3_before_any_tensor(
            self, tmp_path, rng, capsys, monkeypatch, command, chunk):
        monkeypatch.setattr(ev, "READ_CHUNK_EVENTS", chunk)
        path = self._events(tmp_path, rng, 3, 10)
        bad = 29 - 29 % chunk  # first record of the last chunk
        blob = bytearray(path.read_bytes())
        np.frombuffer(blob, dtype=ev.RECORD_DTYPE, offset=ev.HEADER_SIZE)["p"][bad] = 2
        path.write_bytes(bytes(blob))
        out = tmp_path / "o"
        assert cli.main([command, "--events", str(path), "--out", str(out)]) == 3
        assert list(out.glob("*.tore")) == []
        assert f"{path}: record {bad} has polarity 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_file_shrunk_during_run_exits_3(self, tmp_path, rng, capsys, monkeypatch,
                                            command):
        monkeypatch.setattr(ev, "READ_CHUNK_EVENTS", 7)
        path = self._events(tmp_path, rng, 5, 400)  # past the reader's 8 KiB buffer
        write = rep.WindowFrame.write

        def write_then_cut(*args):
            write(*args)
            with open(path, "r+b") as f:
                f.truncate(ev.HEADER_SIZE + 100 * ev.RECORD_SIZE)

        monkeypatch.setattr(rep.WindowFrame, "write", write_then_cut)
        assert cli.main([command, "--events", str(path), "--out", str(tmp_path / "o")]) == 3
        assert f"data error: {path}: file ends within records" in capsys.readouterr().err


class TestEvalCommand:
    def _write_records(self, tmp_path, cases):
        names = list(sim.JOINT_NAMES_13)
        records = []
        for i, (pred, gt, tags) in enumerate(cases):
            pm.write_pose_csv(tmp_path / f"pred{i}.csv",
                              pm.Pose3D(joints=pred, frame="camera"), names)
            pm.write_pose_csv(tmp_path / f"gt{i}.csv",
                              pm.Pose3D(joints=gt, frame="camera"), names)
            entry = {"frame": i, "pred": f"pred{i}.csv", "gt": f"gt{i}.csv"}
            entry.update(tags)
            records.append(entry)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": records}))
        return manifest

    def _report_rows(self, path):
        rows = {}
        lines = path.read_text().strip().splitlines()
        for line in lines[1:]:
            scope, key, count, mpjpe_s, pck_s, auc_s = line.split(",")
            rows.setdefault(scope, {})[key] = (count, mpjpe_s, pck_s, auc_s)
        return rows

    def test_perfect_predictions(self, tmp_path, rng):
        gt = rng.normal(size=(13, 3)) * 100
        manifest = self._write_records(tmp_path, [(gt, gt, {"lighting": "high"})])
        out = tmp_path / "report.csv"
        rc = cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)])
        assert rc == 0
        count, mpjpe_s, pck_s, auc_s = self._report_rows(out)["overall"][""]
        assert float(mpjpe_s) == 0.0
        assert float(pck_s) == 1.0
        assert float(auc_s) == 29.0 / 30.0

    def test_three_four_five(self, tmp_path):
        gt = np.zeros((13, 3))
        pred = gt.copy()
        pred[0] = [3.0, 4.0, 0.0]
        manifest = self._write_records(tmp_path, [(pred, gt, {})])
        out = tmp_path / "report.csv"
        rc = cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)])
        assert rc == 0
        _, mpjpe_s, _, _ = self._report_rows(out)["overall"][""]
        assert float(mpjpe_s) == 5.0 / 13.0

    def test_grouped_consistency(self, tmp_path, rng):
        cases = []
        for i in range(6):
            gt = rng.normal(size=(13, 3)) * 100
            pred = gt + [float(10 * (i + 1)), 0.0, 0.0]
            cases.append((pred, gt, {"lighting": ("high", "low")[i % 2]}))
        manifest = self._write_records(tmp_path, cases)
        out = tmp_path / "report.csv"
        rc = cli.main(["eval", "--manifest-json", str(manifest),
                       "--out", str(out), "--group-by", "lighting"])
        assert rc == 0
        rows = self._report_rows(out)
        overall = float(rows["overall"][""][1])
        weighted = sum(int(v[0]) * float(v[1]) for v in rows["group"].values())
        assert math.isclose(weighted / 6.0, overall, rel_tol=1e-9)

    def _reordered_prediction(self, tmp_path, rng, pred_names):
        gt = rng.normal(size=(13, 3)) * 100
        manifest = self._write_records(tmp_path, [(gt, gt, {})])
        order = [sim.JOINT_NAMES_13.index(n) if n in sim.JOINT_NAMES_13 else 0
                 for n in pred_names]
        pm.write_pose_csv(tmp_path / "pred0.csv", pm.Pose3D(joints=gt[order]), pred_names)
        return manifest

    def test_prediction_aligned_by_joint_name(self, tmp_path, rng):
        manifest = self._reordered_prediction(tmp_path, rng, sim.JOINT_NAMES_13[::-1])
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)]) == 0
        rows = self._report_rows(out)
        assert float(rows["overall"][""][1]) == 0.0
        assert [float(v[1]) for v in rows["joint"].values()] == [0.0] * 13
        assert list(rows["joint"]) == list(sim.JOINT_NAMES_13)

    def test_mismatched_joint_names_exit_3(self, tmp_path, rng, capsys):
        names = sim.JOINT_NAMES_13[:-1] + ("tail",)
        manifest = self._reordered_prediction(tmp_path, rng, names)
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert err.count(str(tmp_path / "pred0.csv")) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("fields, field", [({"pred": 1, "gt": 2}, "'pred'"),
                                               ({"frame": [1]}, "'frame'")],
                             ids=["pred-int", "frame-list"])
    def test_wrongly_typed_field_exits_3(self, tmp_path, capsys, fields, field):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": [{"pred": "p.csv", "gt": "g.csv", **fields}]}))
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {manifest}: record 0 field {field} must be a JSON ")
        assert not out.exists()

    def test_unknown_tag_value_exits_3(self, tmp_path, rng, capsys):
        gt = rng.normal(size=(13, 3)) * 100
        manifest = self._write_records(tmp_path, [(gt, gt, {"lighting": "high"}),
                                                  (gt, gt, {"lighting": "dusk"})])
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {manifest}: record 1 field 'lighting' must be one of "
            "'high', 'medium', 'low', got \"dusk\"\n")
        assert not out.exists()

    def test_unknown_group_by_axis_is_config_error(self, tmp_path, rng, capsys):
        gt = rng.normal(size=(13, 3)) * 100
        manifest = self._write_records(tmp_path, [(gt, gt, {"lighting": "high"})])
        out = tmp_path / "report.csv"
        rc = cli.main(["eval", "--manifest-json", str(manifest), "--out", str(out),
                       "--group-by", "lighting,lightning"])
        assert rc == 2
        assert "'lightning'" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_report_self_consistent(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        rc = cli.main(["bench", "--n-events", "50000", "--duration-us", "100000",
                       "--out", str(out)])
        assert rc == 0
        report = cli.parse_config(out.read_text())
        assert report["events"] == 50000
        assert report["parse_events_per_s"] > 0
        assert math.isclose(report["parse_events_per_s"],
                            report["events"] / report["parse_s"], rel_tol=1e-9)
        assert math.isclose(report["ingest_events_per_s"],
                            report["events"] / report["ingest_s"], rel_tol=1e-9)
        assert math.isclose(report["combined_events_per_s"],
                            report["events"] / (report["parse_s"] + report["ingest_s"]),
                            rel_tol=1e-9)

    def test_fixture_deterministic(self):
        def fixture(seed):
            config = {"n_events": 2000, "duration_us": 100_000, "seed": seed,
                      "width": 32, "height": 24}
            return ev.serialize_stream(cli.bench_fixture(config))

        assert fixture(0) == fixture(0)
        assert fixture(0) != fixture(1)

    def test_geometry_beyond_u16_is_data_error(self, capsys):
        assert cli.main(["bench", "--n-events", "10", "--width", "70000"]) == 3
        assert "70000x260" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--n-events", "-5"], "n_events must lie in [0, inf], got -5"),
        (["--duration-us", "0"], "duration_us must lie in [1, "),
        (["--duration-us", "-1"], "duration_us must lie in [1, "),
        (["--duration-us", str(2**63)], "duration_us must lie in [1, "),
        (["--seed", "-1"], "seed must lie in [0, inf], got -1"),
        (["--n-events", "3000000000"], "n_events = 3000000000 asks for 48000000000 bytes"),
    ], ids=["negative-n-events", "zero-duration", "negative-duration", "duration-past-int64",
            "negative-seed", "n-events-over-budget"])
    def test_bad_setting_is_config_error_before_allocation(self, capsys, argv, message):
        tracemalloc.start()
        try:
            assert cli.main(["bench", *argv]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert peak < 1 << 20  # the default 2M-event fixture would take 32 MB

    def test_zero_events_runs(self, capsys):
        assert cli.main(["bench", "--n-events", "0"]) == 0
        assert "events = 0\n" in capsys.readouterr().out


class TestManifestRerun:
    """A run's manifest, read back with --config, reruns it exactly."""

    def _argv(self, tmp_path, rng, case):
        """The arguments, all but --out, of a tiny run of case's command."""
        if case == "bench":
            return ["bench", "--n-events", "20000"]
        if case.startswith("simulate"):
            write_frame_dir(tmp_path / "frames", rng.uniform(0.1, 0.9, (4, 12, 16)), fps=50.0)
            joints = np.column_stack([rng.uniform(-50, 50, 13), rng.uniform(-50, 50, 13),
                                      rng.uniform(900, 1100, 13)])
            sim.write_skeleton_csv(tmp_path / "skeleton.csv",
                                   [sim.SkeletonFrame(t_us=20_000, joints=joints)])
            cam_mod.save_camera(tmp_path / "camera.txt", cam_mod.CameraModel(
                intrinsic=np.array([[300.0, 0, 8.0], [0, 300.0, 6.0], [0, 0, 1.0]]),
                extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))])))
            argv = ["simulate", "--frames", str(tmp_path / "frames"),
                    "--skeleton", str(tmp_path / "skeleton.csv"),
                    "--cam", str(tmp_path / "camera.txt"), "--heatmap-resolution", "16"]
            if case == "simulate":
                return argv + ["--shot-noise-scale", "5.0", "--seed", "3"]
            # noise-free at --interpolate 2: the f32 foreground beside a PGM mask
            # and background
            mask = np.zeros((4, 12, 16))
            for i in range(4):
                mask[i, 3:9, 2 + 3 * i:8 + 3 * i] = 1.0
            write_frame_dir(tmp_path / "mask", mask, fps=50.0, fmt="pgm")
            write_frame_dir(tmp_path / "bg", np.full((4, 12, 16), 0.3), fps=50.0, fmt="pgm")
            return argv + ["--masks", str(tmp_path / "mask"),
                           "--background", str(tmp_path / "bg"), "--interpolate", "2"]
        path = tmp_path / "events.evt1"
        ev.write_stream(path, random_stream(rng, ev.SensorGeometry(16, 12), 3000,
                                            duration_us=99_999))
        extra = ["--beta", "0.85"] if case == "filter" else ["--window-us", "10000"]
        return [case, "--events", str(path)] + extra

    @pytest.mark.parametrize("case", ["tore", "filter", "simulate", "simulate_composite",
                                      "bench"])
    def test_manifest_reruns_its_run(self, tmp_path, rng, capsys, case):
        argv = self._argv(tmp_path, rng, case)
        first, second = tmp_path / "first", tmp_path / "second"
        m, m2 = tmp_path / "m.cfg", tmp_path / "m2.cfg"
        assert cli.main(argv + ["--out", str(first), "--manifest", str(m)]) == 0
        assert cli.main([argv[0], "--config", str(m), "--out", str(second),
                         "--manifest", str(m2)]) == 0
        # bench's --out is its report, whose timings differ run to run
        if case != "bench":
            names = sorted(p.name for p in first.iterdir())
            assert sorted(p.name for p in second.iterdir()) == names
            assert len(names) > 2  # outputs beside manifest.cfg
            for name in names:
                if name != "manifest.cfg":
                    assert (first / name).read_bytes() == (second / name).read_bytes(), name
            assert (first / "manifest.cfg").read_bytes() == m.read_bytes()
            assert (second / "manifest.cfg").read_bytes() == m2.read_bytes()
        out_line = f"out = {json.dumps(str(first))}\n"
        assert out_line in m.read_text()
        assert m2.read_text() == m.read_text().replace(
            out_line, f"out = {json.dumps(str(second))}\n")


class TestExitCodes:
    def test_missing_required_is_config_error(self, capsys):
        assert cli.main(["tore", "--out", "/tmp/x"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert cli.main(["bench", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text, message", [
        (b"k = 4\nwindow_us = oops\n", "config line 2: cannot parse value 'oops'"),
        (b"nope = 1\n", "unknown config key 'nope'"),
        (b"emit_empty = false\n", "unknown config key 'emit_empty'"),
        (b'window_us = "20000"\n', "config key 'window_us' should be int"),
        (b"k = 4\nwindow_us = 20_000\n", "config line 2: cannot parse value '20_000'"),
        (b"k = 4\n\xff = 1\n", "'utf-8' codec can't decode byte 0xff"),
        (b"window_us = 10000\n# later\nwindow_us = 20000\n",
         "config line 3: key 'window_us' repeats line 1"),
    ])
    def test_config_error_names_its_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        assert cli.main(["tore", "--config", str(cfg), "--events", str(tmp_path / "in.evt1"),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: {message}")
        assert not (tmp_path / "o").exists()

    # petabyte requests: were a check missing, the allocation would fail at
    # once rather than fill memory
    @pytest.mark.parametrize("args, setting", [
        (["tore", "--k", str(2**50)], "k"),
        (["filter", "--horizon", str(2**50)], "horizon"),
        (["filter", "--external-masks", "MASKS", "--horizon", str(2**50)], "horizon"),
    ])
    def test_setting_over_the_byte_budget_leaves_no_output(self, tmp_path, small_geometry, rng,
                                                           capsys, args, setting):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 500))
        masks = tmp_path / "m.msk1"
        masks.write_bytes(gating.serialize_masks(small_geometry, np.ones((3, 24, 32), bool)))
        out = tmp_path / "o"
        args = [str(masks) if a == "MASKS" else a for a in args]
        assert cli.main(args + ["--events", str(events_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {setting} = {2**50} asks for ")
        assert "-byte budget" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tore", "filter", "simulate"])
    def test_unwritable_manifest_fails_before_any_output(self, tmp_path, rng, capsys, command):
        # the manifests are written as soon as the output directory exists
        if command == "simulate":
            write_frame_dir(tmp_path / "in", np.linspace(0.2, 0.8, 3)[:, None, None]
                            * np.ones((3, 12, 16)), fps=30)
            argv = ["simulate", "--frames", str(tmp_path / "in")]
        else:
            ev.write_stream(tmp_path / "in", random_stream(rng, ev.SensorGeometry(16, 12), 500))
            argv = [command, "--events", str(tmp_path / "in")]
        out, manifest = tmp_path / "o", tmp_path / "nodir" / "m.cfg"
        assert cli.main(argv + ["--out", str(out), "--manifest", str(manifest)]) == 3
        assert str(manifest) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["bench", "eval"])
    def test_unwritable_manifest_fails_before_the_report(self, tmp_path, rng, capsys, command):
        # written once the settings, and eval's records, are checked
        if command == "bench":
            argv = ["bench", "--n-events", "2000"]
        else:
            gt = rng.normal(size=(13, 3)) * 100
            records = TestEvalCommand()._write_records(tmp_path, [(gt, gt, {})])
            argv = ["eval", "--manifest-json", str(records)]
        out, manifest = tmp_path / "report", tmp_path / "nodir" / "m.cfg"
        assert cli.main(argv + ["--out", str(out), "--manifest", str(manifest)]) == 3
        captured = capsys.readouterr()
        assert str(manifest) in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_mask_stack_over_the_byte_budget_leaves_no_output(self, tmp_path, small_geometry,
                                                               rng, capsys, monkeypatch):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 500))
        masks = tmp_path / "m.msk1"
        gating.write_masks(masks, small_geometry, np.ones((3, 24, 32), bool))
        # the stack unpacks to 3 * 24 * 32 bytes, one more than the budget
        monkeypatch.setattr("evpose.errors.MAX_ARRAY_BYTES", 3 * 24 * 32 - 1)
        out = tmp_path / "o"
        assert cli.main(["filter", "--events", str(events_path), "--out", str(out),
                         "--external-masks", str(masks)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: external_masks = {masks} asks for 2304 bytes, "
            f"more than the 2303-byte budget")
        assert not out.exists()

    # ints past what numpy holds, past Python's 4,300-digit limit on int
    # text or past every float, and a bool, which Python counts as an int
    @pytest.mark.parametrize("line, message", [
        ("k = " + "9" * 4299, "k must lie in [-9223372036854775808, 18446744073709551615], got 9"),
        ("horizon = " + str(2**64), "horizon must lie in"),
        ("origin_us = -" + "9" * 4299, "origin_us must lie in"),
        ("k = " + "9" * 4301, "config line 1: cannot parse value '999"),
        ("activity_percentile = " + "9" * 400, "config key 'activity_percentile' should be float"),
        ("beta = true", "config key 'beta' should be float"),
    ])
    def test_int_the_setting_cannot_take_is_a_config_error(self, tmp_path, small_geometry, rng,
                                                           capsys, line, message):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert cli.main(["filter", "--config", str(cfg), "--events", str(events_path),
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_fails_the_setting_check(self, tmp_path, small_geometry, rng,
                                                     capsys, value):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"beta = {value}\n")
        out = tmp_path / "o"
        assert cli.main(["filter", "--config", str(cfg), "--events", str(events_path),
                         "--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()

    def test_external_scores_need_external_masks(self, tmp_path, small_geometry, rng, capsys):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        scores = tmp_path / "scores.csv"
        scores.write_text("1.0\n")
        out = tmp_path / "o"
        assert cli.main(["filter", "--events", str(events_path), "--out", str(out),
                         "--external-scores", str(scores)]) == 2
        assert "external_masks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["filter", "--beta", "2"],
        ["filter", "--horizon", "0"],
        ["tore", "--k", "0"],
        ["tore", "--window-us", "0"],
    ])
    def test_bad_setting_exits_2_before_output(self, tmp_path, small_geometry, rng, capsys,
                                               argv):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 500))
        out = tmp_path / "o"
        assert cli.main(argv + ["--events", str(events_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_tau_the_fifo_cannot_offset_exits_2_before_output(self, tmp_path, small_geometry,
                                                              rng, capsys, command):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 500))
        for tau_us in (2**31, 2**64 - 1):
            out = tmp_path / f"o{tau_us}"
            assert cli.main([command, "--events", str(events_path), "--out", str(out),
                             "--tau-us", str(tau_us)]) == 2
            assert capsys.readouterr().err == (
                f"config error: tau_us must exceed 1us and lie below 2^31us, got {tau_us}\n")
            assert not out.exists()
        assert cli.main([command, "--events", str(events_path), "--out", str(tmp_path / "ok"),
                         "--tau-us", str(2**31 - 1)]) == 0

    @pytest.mark.parametrize("command", ["tore", "filter"])
    def test_event_at_top_of_u64_range_exits_3_before_output(self, tmp_path, small_geometry,
                                                             capsys, command):
        # the FIFO takes the stamp 2^64 - 1; a window that ends after it cannot
        top = 2**64 - 1
        events_path = tmp_path / "top.evt1"
        ev.write_stream(events_path, ev.EventStream.from_arrays(
            small_geometry, np.array([top - 15_000, top], dtype=np.uint64), [1, 2], [1, 2],
            [1, -1]))
        out = tmp_path / "o"
        assert cli.main([command, "--events", str(events_path), "--out", str(out),
                         "--window-us", "10000", "--origin-us", str(2**64 - 20_000)]) == 3
        assert capsys.readouterr().err == (
            f"data error: last window ends at {2**64}us, past the u64 timestamp range\n")
        assert not out.exists()

    def test_bad_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.evt1"
        bad.write_bytes(b"not an event file")
        assert cli.main(["tore", "--events", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        missing = tmp_path / "missing.evt1"
        assert cli.main(["tore", "--events", str(missing),
                         "--out", str(tmp_path / "o")]) == 3

    def test_truncated_file_names_path(self, tmp_path, small_geometry, rng, capsys):
        path = tmp_path / "cut.evt1"
        path.write_bytes(ev.serialize_stream(random_stream(rng, small_geometry, 10))[:-5])
        assert cli.main(["tore", "--events", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "payload" in err

    def test_out_of_bounds_event_names_path_and_record(self, tmp_path, small_geometry,
                                                       rng, capsys):
        blob = bytearray(ev.serialize_stream(random_stream(rng, small_geometry, 10)))
        records = np.frombuffer(blob, dtype=ev.RECORD_DTYPE, offset=ev.HEADER_SIZE)
        records["x"][7] = small_geometry.width
        path = tmp_path / "oob.evt1"
        path.write_bytes(bytes(blob))
        assert cli.main(["tore", "--events", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "record 7 " in err

    def test_truncated_masks_name_path(self, tmp_path, small_geometry, rng, capsys):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        mask_path = tmp_path / "cut.msk1"
        mask_path.write_bytes(gating.serialize_masks(
            small_geometry, np.ones((3, small_geometry.height, small_geometry.width),
                                    dtype=bool))[:-1])
        assert cli.main(["filter", "--events", str(events_path), "--out", str(tmp_path / "o"),
                         "--external-masks", str(mask_path)]) == 3
        err = capsys.readouterr().err
        assert str(mask_path) in err and "mask payload" in err

    @pytest.mark.parametrize("times, origin", [
        ([0, 10**12], 0),                       # 5 * 10^7 windows, past MAX_WINDOWS
        ([2**64 - 30_000, 2**64 - 2], 2**64 - 40_000),  # last window ends at 2^64
    ])
    def test_window_bounds_fail_before_any_tensor(self, tmp_path, small_geometry, capsys,
                                                  times, origin):
        path = tmp_path / "glitch.evt1"
        ev.write_stream(path, ev.EventStream.from_arrays(small_geometry, times, [0, 1],
                                                         [0, 1], [1, -1]))
        out = tmp_path / "o"
        assert cli.main(["tore", "--events", str(path), "--out", str(out),
                         "--origin-us", str(origin)]) == 3
        assert list(out.glob("*.tore")) == []
        assert "window" in capsys.readouterr().err


class TestMalformedFiles:
    """Each malformed input exits 3 and names its file exactly once."""

    def _run(self, argv, bad, capsys):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1, err

    def test_external_scores(self, tmp_path, small_geometry, rng, capsys):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        masks = tmp_path / "m.msk1"
        gating.write_masks(masks, small_geometry,
                           np.ones((2, small_geometry.height, small_geometry.width), bool))
        bad = tmp_path / "scores.csv"
        bad.write_text("1.0,abc\n")
        self._run(["filter", "--events", str(events_path), "--out", str(tmp_path / "o"),
                   "--external-masks", str(masks), "--external-scores", str(bad),
                   "--horizon", "2"], bad, capsys)

    @pytest.mark.parametrize("row", ["nan,1.0", "1.0,1.5"])
    def test_external_scores_outside_0_1(self, tmp_path, small_geometry, rng, capsys, row):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        masks = tmp_path / "m.msk1"
        gating.write_masks(masks, small_geometry,
                           np.ones((2, small_geometry.height, small_geometry.width), bool))
        bad = tmp_path / "scores.csv"
        bad.write_text(f"{row}\n1.0,1.0\n")
        out = tmp_path / "o"
        self._run(["filter", "--events", str(events_path), "--out", str(out),
                   "--external-masks", str(masks), "--external-scores", str(bad),
                   "--horizon", "2"], bad, capsys)
        assert list(out.glob("masked_*.tore")) == []

    def test_external_scores_wrong_shape(self, tmp_path, small_geometry, rng, capsys):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        masks = tmp_path / "m.msk1"
        gating.write_masks(masks, small_geometry,
                           np.ones((2, small_geometry.height, small_geometry.width), bool))
        bad = tmp_path / "scores.csv"
        bad.write_text("1.0,1.0\n")  # one row for two masks
        out = tmp_path / "o"
        self._run(["filter", "--events", str(events_path), "--out", str(out),
                   "--external-masks", str(masks), "--external-scores", str(bad),
                   "--horizon", "2"], bad, capsys)
        assert list(out.glob("masked_*.tore")) == []

    # np.loadtxt would warn of such a table (an internal error under warnings
    # as errors) and return a (0, 1) array
    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n\t\n", "# alone\n"],
                             ids=["empty", "newlines", "whitespace", "comment"])
    def test_external_scores_without_a_row(self, tmp_path, small_geometry, rng, capsys, text):
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, small_geometry, 100))
        masks = tmp_path / "m.msk1"
        gating.write_masks(masks, small_geometry,
                           np.ones((2, small_geometry.height, small_geometry.width), bool))
        bad = tmp_path / "scores.csv"
        bad.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["filter", "--events", str(events_path), "--out", str(out),
                         "--external-masks", str(masks), "--external-scores", str(bad),
                         "--horizon", "2"]) == 3
        assert capsys.readouterr() == ("", f"data error: {bad}: scores table holds no row\n")
        assert not out.exists()

    def test_frame_manifest(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30)
        bad = frames / "manifest.json"
        bad.write_text("{not json")
        self._run(["simulate", "--frames", str(frames), "--out", str(tmp_path / "o")],
                  bad, capsys)

    @pytest.mark.parametrize("key, value", [
        ("width", "346"), ("width", 346.5), ("height", -260), ("fps", "fast"),
        ("fps", 10**400),  # an int that no float holds
        ("fps", 1e-14),  # frame 1 at 10^20 us, past the u64 range
    ])
    def test_frame_manifest_value(self, tmp_path, capsys, key, value):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30)
        bad = frames / "manifest.json"
        bad.write_text(json.dumps({"fps": 30, "width": 5, "height": 4, "format": "f32",
                                   key: value}))
        self._run(["simulate", "--frames", str(frames), "--out", str(tmp_path / "o")],
                  bad, capsys)
        assert not (tmp_path / "o").exists()

    def test_frame_geometry_beyond_u16(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.full((2, 1, 70000), 0.5), fps=30)
        out = tmp_path / "o"
        self._run(["simulate", "--frames", str(frames), "--out", str(out)],
                  frames / "manifest.json", capsys)
        assert not out.exists()

    def test_external_masks_geometry(self, tmp_path, capsys, rng):
        geometry = ev.SensorGeometry(16, 12)
        events_path = tmp_path / "in.evt1"
        ev.write_stream(events_path, random_stream(rng, geometry, 100))
        bad = tmp_path / "transposed.msk1"
        gating.write_masks(bad, ev.SensorGeometry(12, 16), np.ones((2, 16, 12), bool))
        out = tmp_path / "o"
        self._run(["filter", "--events", str(events_path), "--out", str(out),
                   "--external-masks", str(bad)], bad, capsys)
        assert list(out.glob("*.tore")) == []

    def test_frame_file(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30, fmt="pgm")
        bad = frames / "0001.pgm"
        bad.write_bytes(b"P5\n5 4\n16\n" + bytes(20))
        self._run(["simulate", "--frames", str(frames), "--out", str(tmp_path / "o")],
                  bad, capsys)

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.25])
    def test_frame_intensity_out_of_range(self, tmp_path, capsys, value):
        frames = np.full((3, 4, 5), 0.5)
        frames[2, 1, 3] = value
        write_frame_dir(tmp_path / "frames", frames, fps=30)
        self._run(["simulate", "--frames", str(tmp_path / "frames"),
                   "--out", str(tmp_path / "o")], tmp_path / "frames" / "0002.f32", capsys)

    def test_eval_record_without_pred(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"records": [{"frame": 0, "gt": "gt0.csv"}]}))
        self._run(["eval", "--manifest-json", str(bad), "--out", str(tmp_path / "r.csv")],
                  bad, capsys)

    def _labelled_clip(self, tmp_path, cam_text, skeleton_rows):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30)
        cam = tmp_path / "cam.txt"
        cam.write_text(cam_text)
        skeleton = tmp_path / "skeleton.csv"
        skeleton.write_text("t_us,joint_name,x_mm,y_mm,z_mm\n" + skeleton_rows)
        return ["simulate", "--frames", str(frames), "--out", str(tmp_path / "o"),
                "--cam", str(cam), "--skeleton", str(skeleton)], cam, skeleton

    def test_camera_token(self, tmp_path, capsys):
        argv, cam, _ = self._labelled_clip(tmp_path, "1 0 0\n0 1 0\n0 0 x\n", "")
        self._run(argv, cam, capsys)

    def test_skeleton_row(self, tmp_path, capsys):
        cam_text = "1 0 0\n0 1 0\n0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 100\n"
        argv, _, skeleton = self._labelled_clip(tmp_path, cam_text, "0,head,1,2\n")
        self._run(argv, skeleton, capsys)

    @pytest.mark.parametrize("t", [-5, 2**70])
    def test_label_time_outside_u64(self, tmp_path, capsys, t):
        cam_text = "300 0 2.5\n0 300 2\n0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"  # labels it sees
        rows = "".join(f"{t},{name},{i},{-i},1000\n" for i, name in enumerate(sim.JOINT_NAMES_13))
        argv, _, skeleton = self._labelled_clip(tmp_path, cam_text, rows)
        self._run(argv, skeleton, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_camera_entry_not_finite(self, tmp_path, capsys, value):
        cam_text = f"300 0 2.5\n0 300 2\n0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 {value}\n"
        rows = "".join(f"0,{name},{i},{-i},1000\n" for i, name in enumerate(sim.JOINT_NAMES_13))
        argv, cam, _ = self._labelled_clip(tmp_path, cam_text, rows)
        self._run(argv, cam, capsys)
        assert list((tmp_path / "o").glob("heatmaps_*.tore")) == []



def _mutate(blob, ops):
    """blob with each (kind, position, chunk) applied in turn: overwrite,
    delete or insert chunk at position mod length."""
    b = bytearray(blob)
    for kind, pos, chunk in ops:
        pos %= len(b) + 1
        if kind == "set":
            b[pos:pos + len(chunk)] = chunk
        elif kind == "cut":
            del b[pos:pos + len(chunk)]
        else:
            b[pos:pos] = chunk
    return bytes(b)


def _mutations(chunks):
    return st.lists(st.tuples(st.sampled_from(["set", "cut", "insert"]), st.integers(0, 2**16),
                              chunks), min_size=1, max_size=3)


BINARY_MUTATIONS = _mutations(st.binary(min_size=1, max_size=4))
TEXT_MUTATIONS = _mutations(st.text("0123456789.-+e =,#\"\nNaIfity_k", min_size=1,
                                    max_size=4).map(str.encode))
# config values: ints within and past Python's 4,300-digit limit on int
# text, numbers JSON or numpy cannot hold, other JSON scalars and non-JSON
CONFIG_VALUES = st.one_of(
    st.sampled_from(["9" * 4299, "-" + "9" * 4300, "9" * 4301, "9" * 5000, "1e400", "-1e400",
                     "NaN", "Infinity", "-0", "0.0", "true", "null", '"2"', "", "2 2", "1_0"]),
    st.integers(-2**65, 2**65).map(str), st.floats().map(repr))


class TestBadInputFuzz:
    """`tore`, `filter` and `filter --external-masks`, each example breaking
    one input: mutated EVT1, MSK1, score CSV or config bytes, config values
    no setting takes, or one setting at or just past a bound. The exit is
    0, 2 or 3, never 4; after a failure no masks.msk1 is left that reads
    back; and tracemalloc's peak stays under PEAK_BYTES.

    The unmutated run is tiny: 9x7 pixels, 40 events within 32 us. A
    mutation that leaves a valid but larger run (a wider sensor, a last
    event at 64 us or later, or a k or horizon above 64 yet within the
    byte budget) is a good input that rightly asks for more memory or
    time, and is not drawn; so no run has more than 64 windows. Nor is
    the budget's own edge: there a setting rightly allocates 2 GiB. No
    setting here starts a thread or a process."""

    GEO = ev.SensorGeometry(9, 7)
    PEAK_BYTES = 4 * 2**20
    WINDOW_CONFIG = {"k": "2", "tau_us": "40", "window_us": "8", "origin_us": "0"}
    FILTER_CONFIG = {**WINDOW_CONFIG, "beta": "0.85", "horizon": "2",
                     "activity_percentile": "50.0"}
    # one value past each setting's byte budget: the FIFO's 8 K bytes a
    # pixel, and both the reference plan's horizon bytes a pixel and the
    # external score table's 8 * 6 bytes a horizon step, the lesser
    K_PAST = MAX_ARRAY_BYTES // (8 * 63) + 1
    HORIZON_PAST = MAX_ARRAY_BYTES // (8 * 6) + 1
    WINDOW_BOUNDS = {
        "k": [0, 1, K_PAST, 2**64 - 1, 2**64],
        "tau_us": [-1, 0, 1, 2**31 - 1, 2**31, 2**64 - 1, 2**64],
        "window_us": [-1, 0, 1, 2**64 - 1, 2**64],
        "origin_us": [-1, 0, 2**64 - 1, 2**64],
    }
    FILTER_BOUNDS = {
        **WINDOW_BOUNDS,
        "horizon": [0, 1, HORIZON_PAST, 2**64],
        "beta": [-5e-324, 0.0, 1.0, 1.0000000000000002, math.nan, math.inf],
        "activity_percentile": [-5e-324, 0.0, 100.0, 100.00000000000001, math.nan],
    }

    def _inputs(self):
        rng = np.random.default_rng(5)
        masks = rng.random((6, 7, 9)) > 0.5
        return {
            "events": ev.serialize_stream(random_stream(rng, self.GEO, 40, duration_us=32)),
            "masks": gating.serialize_masks(self.GEO, masks),
            "scores": "".join(f"{a:.3f},{b:.3f}\n" for a, b in rng.random((6, 2))).encode(),
        }

    def _small_if_valid(self, blobs):
        """False when the mutated inputs make a valid run that outgrows the
        tiny one (see the class docstring)."""
        with contextlib.suppress(DataError):
            s = ev.parse_stream(blobs["events"])
            if s.geometry.num_pixels > self.GEO.num_pixels or (len(s) and s.t[-1] >= 64):
                return False
        with contextlib.suppress(ConfigError, UnicodeDecodeError):
            config = cli.parse_config(blobs["config"].decode())
            for key, past in (("k", self.K_PAST), ("horizon", self.HORIZON_PAST)):
                v = config.get(key)
                if type(v) is int and 64 < v < past:
                    return False
        return True

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["tore", "filter", "external",
                                                    "external_scored"]))
    def test_exit_is_never_4(self, data, command):
        blobs = self._inputs()
        config = dict(self.WINDOW_CONFIG if command == "tore" else self.FILTER_CONFIG)
        used = {"tore": ["events", "config"], "filter": ["events", "config"],
                "external": ["events", "config", "masks"],
                "external_scored": ["events", "config", "masks", "scores"]}[command]
        # one input is broken per example, so each reaches the run
        target = data.draw(st.sampled_from([None, "values", "setting", *used]), label="target")
        if target == "values":
            for key in data.draw(st.lists(st.sampled_from(sorted(config)), min_size=1,
                                          max_size=2, unique=True), label="keys"):
                config[key] = data.draw(CONFIG_VALUES, label=key)
        blobs["config"] = "".join(f"{key} = {v}\n" for key, v in config.items()).encode()
        if target in used:
            blobs[target] = _mutate(blobs[target], data.draw(
                TEXT_MUTATIONS if target in ("config", "scores") else BINARY_MUTATIONS,
                label="mutations"))
        setting = None
        if target == "setting":
            bounds = self.WINDOW_BOUNDS if command == "tore" else self.FILTER_BOUNDS
            setting = data.draw(st.sampled_from(
                [(key, v) for key, values in bounds.items() for v in values]), label="setting")
        assume(self._small_if_valid(blobs))
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            for name, blob in blobs.items():
                (tmp / name).write_bytes(blob)
            out = tmp / "out"
            argv = ["tore" if command == "tore" else "filter", "--config", str(tmp / "config"),
                    "--events", str(tmp / "events"), "--out", str(out)]
            if command.startswith("external"):
                argv += ["--external-masks", str(tmp / "masks")]
            if command == "external_scored":
                argv += ["--external-scores", str(tmp / "scores")]
            if setting is not None:  # joined, so argparse reads "-5e-324" as a value
                argv.append(f"--{setting[0].replace('_', '-')}={setting[1]!r}")
            err = io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc in (0, 2, 3), err.getvalue()
            assert peak < self.PEAK_BYTES, (peak, argv)
            if rc and (out / "masks.msk1").exists():
                with pytest.raises(DataError):
                    gating.read_masks(out / "masks.msk1")



def _swap_number(blob, index, number):
    """blob with its index-th number, counted modulo how many it holds,
    replaced by the text number."""
    spans = [m.span() for m in re.finditer(rb"[-+]?[0-9.]+(?:e[-+]?[0-9]+)?", blob)]
    if not spans:
        return blob
    a, b = spans[index % len(spans)]
    return blob[:a] + number.encode() + blob[b:]


class TestSimulateBadInputFuzz:
    """`simulate` on a tiny labelled clip, each example breaking one input:
    a frame, mask or background image, a directory's manifest.json, the
    skeleton CSV, the camera text or the config bytes (their bytes mutated
    or one number swapped; a PGM's numbers are its header's), config
    values no setting takes, or one setting at or just past a bound. The
    exit is 0, 2 or 3, never 4; after a failure no events.evt1 is left
    that reads back; and tracemalloc's peak stays under PEAK_BYTES.

    The unmutated run is tiny: three 9x7 frames at 100 fps with masks and
    a background, intensities within [0.1, 0.9], shot noise on, two labels
    with 8x8 heatmaps. A mutation that leaves a valid but larger run is a
    good input that rightly asks for more memory or time, and is not
    drawn: an interpolate factor above 4 (each frame interval loops that
    many times), a heatmap_resolution above 16 yet within the byte budget,
    a contrast threshold below 0.05, a noise rate above 100 Hz or an fps
    below 1. Past the event budget, a threshold or a noise rate is drawn
    among the bounds. No setting here starts a thread or a process."""

    H, W = 7, 9
    PEAK_BYTES = 4 * 2**20
    CONFIG = {"interpolate": "2", "theta_pos": "0.2", "theta_neg": "0.2",
              "leak_rate_hz": "0.0", "shot_noise_scale": "2.0", "eps": "0.02", "seed": "0",
              "heatmap_resolution": "8", "heatmap_sigma": "2.0"}
    # the first resolution whose 13 joints' float64 planes pass the byte budget
    RES_PAST = math.isqrt(MAX_ARRAY_BYTES // (3 * 13 * 8)) + 1
    MAX_FLOAT = sys.float_info.max
    RATE_BOUNDS = [-5e-324, 0.0, MAX_FLOAT, math.inf, math.nan]
    THETA_BOUNDS = [0.0, 5e-324, MAX_FLOAT, math.inf, math.nan]
    BOUNDS = {
        "interpolate": [-1, 0, 1, 4, 2**64],
        "heatmap_resolution": [7, 8, RES_PAST, 2**64],
        "heatmap_sigma": [0.0, 5e-324, MAX_FLOAT, math.inf, math.nan],
        "theta_pos": THETA_BOUNDS,
        "theta_neg": THETA_BOUNDS,
        "leak_rate_hz": RATE_BOUNDS,
        "shot_noise_scale": RATE_BOUNDS,
        "eps": [0.0, 5e-324, 0.9999999999999999, 1.0, math.nan],
        "seed": [-1, 0, 2**64 - 1, 2**64],
    }
    # (minimum, maximum) of the values a drawn config may set and still run small
    SMALL = {"interpolate": (-math.inf, 4), "heatmap_resolution": (-math.inf, 16),
             "theta_pos": (0.05, math.inf), "theta_neg": (0.05, math.inf),
             "leak_rate_hz": (-math.inf, 100), "shot_noise_scale": (-math.inf, 100)}

    def _inputs(self, config=CONFIG):
        rng = np.random.default_rng(6)
        clip = rng.uniform(0.1, 0.9, (3, self.H, self.W))
        blobs = {"config": "".join(f"{key} = {v}\n" for key, v in config.items()).encode()}
        for name, frames, fmt in (("frames", clip, "pgm"), ("masks", clip > 0.5, "pgm"),
                                  ("background", clip[::-1], "f32")):
            for i, frame in enumerate(frames):
                if fmt == "pgm":
                    blobs[f"{name}/{i:04d}.pgm"] = (f"P5\n{self.W} {self.H}\n255\n".encode()
                                                    + np.rint(frame * 255).astype(np.uint8)
                                                    .tobytes())
                else:
                    blobs[f"{name}/{i:04d}.f32"] = frame.astype("<f4").tobytes()
            blobs[f"{name}/manifest.json"] = json.dumps(
                {"fps": 100, "width": self.W, "height": self.H, "format": fmt}).encode()
        joints = np.column_stack([rng.uniform(-5, 5, 13), rng.uniform(-5, 5, 13),
                                  rng.uniform(995, 1005, 13)])
        blobs["skeleton.csv"] = ("t_us,joint_name,x_mm,y_mm,z_mm\n" + "".join(
            f"{t},{name},{x + t / 1e3!r},{y!r},{z!r}\n" for t in (0, 10000)
            for name, (x, y, z) in zip(sim.JOINT_NAMES_13, joints.tolist()))).encode()
        blobs["camera.txt"] = b"300 0 4.5\n0 300 3.5\n0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
        return blobs

    def _small_if_valid(self, blobs):
        """False when the mutated inputs make a valid run that outgrows the
        tiny one (see the class docstring)."""
        with contextlib.suppress(ConfigError, UnicodeDecodeError):
            config = cli.parse_config(blobs["config"].decode())
            for key, (lo, hi) in self.SMALL.items():
                v = config.get(key)
                if type(v) in (int, float) and not lo <= v <= hi and 0 < v < math.inf:
                    return False
        for name in ("frames", "masks", "background"):
            with contextlib.suppress(ValueError, LookupError, TypeError):
                fps = json.loads(blobs[f"{name}/manifest.json"])["fps"]
                if type(fps) in (int, float) and 0 < fps < 1:
                    return False
        return True

    def _run(self, blobs, setting=None):
        """simulate's exit code, standard error and tracemalloc peak on the
        inputs, with one setting given as an option; after a failure, any
        events.evt1 left behind is checked not to read back."""
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            for name, blob in blobs.items():
                (tmp / name).parent.mkdir(exist_ok=True)
                (tmp / name).write_bytes(blob)
            out = tmp / "out"
            argv = ["simulate", "--config", str(tmp / "config"), "--frames", str(tmp / "frames"),
                    "--masks", str(tmp / "masks"), "--background", str(tmp / "background"),
                    "--skeleton", str(tmp / "skeleton.csv"), "--cam", str(tmp / "camera.txt"),
                    "--out", str(out)]
            if setting is not None:  # joined, so argparse reads "-5e-324" as a value
                argv.append(f"--{setting[0].replace('_', '-')}={setting[1]!r}")
            err = io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if rc and (out / "events.evt1").exists():
                with pytest.raises(DataError):
                    ev.EventFile(out / "events.evt1")
            return rc, err.getvalue(), peak

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_is_never_4(self, data):
        config = dict(self.CONFIG)
        files = sorted(self._inputs())
        target = data.draw(st.sampled_from([None, "values", "setting", *files]), label="target")
        if target == "values":
            for key in data.draw(st.lists(st.sampled_from(sorted(config)), min_size=1,
                                          max_size=2, unique=True), label="keys"):
                config[key] = data.draw(CONFIG_VALUES, label=key)
        blobs = self._inputs(config)
        if target in blobs:
            blob = blobs[target]
            header = blob.index(b"255\n") + 4 if target.endswith(".pgm") else len(blob)
            if not target.endswith(".f32") and data.draw(st.booleans(), label="swap a number"):
                blobs[target] = _swap_number(blob[:header], data.draw(st.integers(0, 200)),
                                             data.draw(CONFIG_VALUES)) + blob[header:]
            else:
                blobs[target] = _mutate(blob, data.draw(
                    TEXT_MUTATIONS if header == len(blob) and not target.endswith(".f32")
                    else BINARY_MUTATIONS, label="mutations"))
        setting = None
        if target == "setting":
            setting = data.draw(st.sampled_from(
                [(key, v) for key, values in self.BOUNDS.items() for v in values]),
                label="setting")
        assume(self._small_if_valid(blobs))
        rc, err, peak = self._run(blobs, setting)
        assert rc in (0, 2, 3), err
        assert rc == 0 or target is not None, err
        assert peak < self.PEAK_BYTES, (peak, target, setting)

    # inputs that once exited 4: a setting that asks for unbounded events or
    # whose heatmap variance underflows, a signalling NaN pixel, a PGM size its
    # bytes cannot hold, and cameras that send a joint past the float64 range
    @pytest.mark.parametrize("target, change, code, message", [
        ("setting", ("theta_pos", 5e-324), 2, "contrast threshold = 5e-324 asks for"),
        ("setting", ("shot_noise_scale", MAX_FLOAT), 2, "noise rate = 1.7976931348623157e+308"),
        ("setting", ("heatmap_sigma", 5e-324), 3,
         "joint 'head': plane xy at (0.092,-0.078) leaves no mass"),
        ("setting", ("heatmap_sigma", 1e-160), 3, "leaves no mass on the grid"),
        ("background/0001.f32", lambda b: b[:8] + b"\x01\x00\x80\x7f" + b[12:], 3,
         "frame intensities must lie in [0, 1]"),
        ("frames/0001.pgm", lambda b: b.replace(b"9 7", b"9" * 20 + b" 7", 1), 3,
         "PGM size 99999999999999999999x7 does not fit its 63 pixel bytes"),
        ("frames/0001.pgm", lambda b: b.replace(b"9 7", b"-1 7", 1), 3, "PGM size -1x7"),
        ("camera.txt", lambda b: b.replace(b"4.5", b"0"), 3,
         "joint 'head': plane xy at (inf,-0.078) leaves no mass"),
        ("camera.txt", lambda b: b.replace(b"\n1 0 0 0", b"\n1e308 0 0 0"), 3,
         "joint 'head': plane xy at (inf,-0.078) leaves no mass"),
    ])
    def test_found_inputs_are_typed_errors(self, target, change, code, message):
        blobs = self._inputs()
        if target != "setting":
            blobs[target] = change(blobs[target])
        rc, err, _ = self._run(blobs, change if target == "setting" else None)
        assert rc == code and message in err, err

    def test_camera_at_infinite_depth_exits_3_with_no_output(self, tmp_path, capsys):
        blobs = self._inputs()
        blobs["camera.txt"] = blobs["camera.txt"].replace(b"\n0 0 1 0\n", b"\n0 0 1e306 0\n")
        for name, blob in blobs.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(blob)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(tmp_path / "config"),
                         "--frames", str(tmp_path / "frames"), "--masks", str(tmp_path / "masks"),
                         "--background", str(tmp_path / "background"),
                         "--skeleton", str(tmp_path / "skeleton.csv"),
                         "--cam", str(tmp_path / "camera.txt"), "--out", str(out)]) == 3
        assert ("label t_us 0, joint 'head': reference depth must be positive and finite, "
                "got inf") in capsys.readouterr().err
        assert not out.exists()
