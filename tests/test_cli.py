import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evpose import cli
from evpose import events as ev
from evpose import gating
from evpose import pose_math as pm
from evpose import representations as rep
from evpose import simulator as sim
from evpose.errors import ConfigError, DataError

from oracles import random_stream, tore_brute_force


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
    def test_cli_import_loads_no_scipy(self):
        # a fresh interpreter, so modules the test session loaded do not count
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, evpose.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestConfigFormat:
    def test_round_trip(self):
        config = {
            "out": "/tmp/somewhere with spaces",
            "seed": 7,
            "beta": 0.95,
            "emit_empty": True,
            "tricky": "5",
            "also_tricky": "true",
            "weird": 'quote " and = sign',
            "rate": 1e-05,
        }
        assert cli.parse_config(cli.render_config(config)) == config

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

    def test_labels_and_heatmaps_written(self, tmp_path, rng):
        frames = np.full((3, 12, 16), 0.5)
        write_frame_dir(tmp_path / "frames", frames, fps=100.0)
        joints = np.column_stack([rng.uniform(-50, 50, 13),
                                  rng.uniform(-50, 50, 13),
                                  rng.uniform(900, 1100, 13)])
        skeletons = [sim.SkeletonFrame(t_us=0, joints=joints, frame="camera")]
        sim.write_skeleton_csv(tmp_path / "skeleton.csv", skeletons)
        intrinsic = np.array([[300.0, 0, 8.0], [0, 300.0, 6.0], [0, 0, 1.0]])
        cam = cli.cam_mod.CameraModel(intrinsic=intrinsic,
                                      extrinsic=np.hstack([np.eye(3), np.zeros((3, 1))]))
        cli.cam_mod.save_camera(tmp_path / "camera.txt", cam)
        out = tmp_path / "out"
        rc = self._run(["--frames", str(tmp_path / "frames"), "--out", str(out),
                        "--skeleton", str(tmp_path / "skeleton.csv"),
                        "--cam", str(tmp_path / "camera.txt"),
                        "--heatmap-resolution", "16"])
        assert rc == 0
        assert (out / "skeleton.csv").exists()
        assert (out / "camera.txt").exists()
        stack = rep.read_tensor(out / "heatmaps_000000000000.tore")
        assert stack.shape == (39, 16, 16)  # 13 joints x 3 planes
        sums = stack.reshape(39, -1).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-5)

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

    def test_empty_stream_emit_flag(self, tmp_path):
        path = self._make_events(tmp_path, ev.EventStream.empty(ev.SensorGeometry(8, 8)))
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out),
                       "--emit-empty"])
        assert rc == 0
        data = rep.read_tensor(out / "tore_00000.tore")
        assert data.shape == (2 * rep.DEFAULT_K, 8, 8)
        assert not data.any()

    def test_empty_stream_emit_flag_near_u64_end(self, tmp_path):
        path = self._make_events(tmp_path, ev.EventStream.empty(ev.SensorGeometry(8, 8)))
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out), "--emit-empty",
                       "--origin-us", str(2**64 - 10)])
        assert rc == 0
        assert [p.name for p in out.glob("*.tore")] == ["tore_00000.tore"]
        data = rep.read_tensor(out / "tore_00000.tore")
        assert data.shape == (2 * rep.DEFAULT_K, 8, 8)
        assert not data.any()

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--tau-us", "1"),
                                             ("--window-us", "0")])
    def test_empty_stream_emit_flag_still_checks_config(self, tmp_path, flag, value):
        path = self._make_events(tmp_path, ev.EventStream.empty(ev.SensorGeometry(8, 8)))
        rc = cli.main(["tore", "--events", str(path), "--out", str(tmp_path / "tore"),
                       "--emit-empty", flag, value])
        assert rc == 2

    def test_text_dump(self, tmp_path, rng):
        geometry = ev.SensorGeometry(6, 6)
        stream = random_stream(rng, geometry, 50, duration_us=5000)
        path = self._make_events(tmp_path, stream)
        out = tmp_path / "tore"
        rc = cli.main(["tore", "--events", str(path), "--out", str(out),
                       "--window-us", "10000", "--text-dump"])
        assert rc == 0
        binary = rep.read_tensor(out / "tore_00000.tore")
        text = rep.read_tensor_text(out / "tore_00000.txt")
        assert np.array_equal(binary, text)


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
        assert not (out / "masks.msk1").exists()
        assert list(out.glob("masked_*.tore")) == []

    def test_failure_partway_leaves_no_valid_masks(self, tmp_path, rng, capsys):
        _, path = self._events(tmp_path, rng)
        mask_path = tmp_path / "short.msk1"
        gating.write_masks(mask_path, self.GEO, rng.random((6, 12, 16)) > 0.5)
        out = tmp_path / "out"
        rc = cli.main(["filter", "--events", str(path), "--out", str(out),
                       "--window-us", "10000", "--external-masks", str(mask_path)])
        assert rc == 3
        assert "no external mask for window 8" in capsys.readouterr().err
        # frames 0-7 were written before the backend ran out at frame 8
        assert len(list(out.glob("masked_*.tore"))) == 8
        with pytest.raises(DataError):
            gating.read_masks(out / "masks.msk1")


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
        assert math.isclose(report["windows_per_s"],
                            report["windows"] / report["windows_s"], rel_tol=1e-9)

    def test_fixture_deterministic(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.txt"
            rc = cli.main(["bench", "--n-events", "20000", "--out", str(out)])
            assert rc == 0
            reports.append(cli.parse_config(out.read_text()))
        assert reports[0]["events"] == reports[1]["events"]
        assert reports[0]["windows"] == reports[1]["windows"]


class TestExitCodes:
    def test_missing_required_is_config_error(self, capsys):
        assert cli.main(["tore", "--out", "/tmp/x"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert cli.main(["bench", "--config", str(cfg)]) == 2

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

    def test_frame_manifest(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30)
        bad = frames / "manifest.json"
        bad.write_text("{not json")
        self._run(["simulate", "--frames", str(frames), "--out", str(tmp_path / "o")],
                  bad, capsys)

    def test_frame_file(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frame_dir(frames, np.zeros((2, 4, 5)), fps=30, fmt="pgm")
        bad = frames / "0001.pgm"
        bad.write_bytes(b"P5\n5 4\n16\n" + bytes(20))
        self._run(["simulate", "--frames", str(frames), "--out", str(tmp_path / "o")],
                  bad, capsys)

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
