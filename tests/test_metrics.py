import json
import math

import numpy as np
import pytest

from evpose import metrics as met
from evpose import pose_math as pm
from evpose.errors import ConfigError, DataError, EmptyInput, JointCountMismatch
from evpose.events import SensorGeometry
from evpose.gating import MaskPlan
from evpose.representations import ToreVolume
from evpose.simulator import JOINT_NAMES_13

GEO = SensorGeometry(width=346, height=260)


def pose(joints):
    return pm.Pose3D(joints=np.asarray(joints, dtype=np.float64), frame="camera")


def random_pose_pair(rng, spread=300.0):
    gt = rng.normal(size=(13, 3)) * 500.0
    pred = gt + rng.normal(size=(13, 3)) * spread / math.sqrt(3)
    return pose(pred), pose(gt)


def full_volume(value=0.5, channels=2, geometry=GEO):
    data = np.full((channels, geometry.height, geometry.width), value,
                   dtype=np.float32)
    return ToreVolume(geometry=geometry, data=data)


class TestMpjpe:
    def test_perfect(self, rng):
        p = rng.normal(size=(13, 3)) * 100
        assert met.mpjpe(pose(p), pose(p)) == 0.0

    def test_three_four_five(self):
        gt = np.zeros((13, 3))
        pred = gt.copy()
        pred[0] = [3.0, 4.0, 0.0]
        assert met.mpjpe(pose(pred), pose(gt)) == 5.0 / 13.0

    def test_matches_direct_summation(self, rng):
        pred, gt = random_pose_pair(rng)
        total = 0.0
        for j in range(13):
            dx, dy, dz = pred.joints[j] - gt.joints[j]
            total += math.sqrt(dx * dx + dy * dy + dz * dz)
        assert math.isclose(met.mpjpe(pred, gt), total / 13.0, rel_tol=1e-12)

    def test_translation_detection(self, rng):
        gt = rng.normal(size=(13, 3)) * 200
        shifted = gt + np.array([7.0, 0.0, 0.0])
        assert math.isclose(met.mpjpe(pose(shifted), pose(gt)), 7.0, rel_tol=1e-12)

    def test_joint_count_mismatch(self):
        with pytest.raises(JointCountMismatch):
            met.mpjpe(np.zeros((12, 3)), np.zeros((13, 3)))


class TestPck:
    def test_all_under_threshold(self):
        gt = np.zeros((13, 3))
        pred = gt + [100.0, 0.0, 0.0]
        assert met.pck(pose(pred), pose(gt), 150.0) == 1.0

    def test_all_over_threshold(self):
        gt = np.zeros((13, 3))
        pred = gt + [200.0, 0.0, 0.0]
        assert met.pck(pose(pred), pose(gt), 150.0) == 0.0

    def test_boundary_counts_as_incorrect(self):
        gt = np.zeros((13, 3))
        pred = gt + [150.0, 0.0, 0.0]
        assert met.pck(pose(pred), pose(gt), 150.0) == 0.0

    def test_zero_threshold_forces_zero(self, rng):
        p = rng.normal(size=(13, 3))
        assert met.pck(pose(p), pose(p), 0.0) == 0.0

    def test_mixed_errors_match_count(self, rng):
        gt = np.zeros((13, 3))
        errors = rng.uniform(0.0, 300.0, 13)
        pred = gt.copy()
        pred[:, 0] = errors
        expected = sum(1 for e in errors if e < 150.0) / 13.0
        assert met.pck(pose(pred), pose(gt)) == expected

    def test_monotone_in_alpha(self, rng):
        pred, gt = random_pose_pair(rng)
        values = [met.pck(pred, gt, a) for a in np.linspace(0, 500, 21)]
        assert values == sorted(values)

    def test_negative_alpha(self):
        with pytest.raises(ConfigError):
            met.pck(np.zeros((13, 3)), np.zeros((13, 3)), -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha_mm"):
            met.pck(np.zeros((13, 3)), np.zeros((13, 3)), alpha)


class TestAuc:
    def test_threshold_set(self):
        ts = met.auc_thresholds()
        assert len(ts) == 30
        assert ts[0] == 0.0
        assert ts[-1] == 500.0
        assert np.allclose(np.diff(ts), 500.0 / 29.0)

    def test_perfect_prediction_scores_29_30(self, rng):
        p = rng.normal(size=(13, 3)) * 100
        assert met.auc(pose(p), pose(p)) == 29.0 / 30.0

    def test_all_errors_beyond_max(self):
        gt = np.zeros((13, 3))
        pred = gt + [600.0, 0.0, 0.0]
        assert met.auc(pose(pred), pose(gt)) == 0.0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            pred, gt = random_pose_pair(rng)
            err = [float(np.linalg.norm(pred.joints[j] - gt.joints[j]))
                   for j in range(13)]
            total = 0.0
            for i in range(30):
                alpha = 500.0 * i / 29.0
                total += sum(1 for e in err if e < alpha) / 13.0
            assert math.isclose(met.auc(pred, gt), total / 30.0, rel_tol=1e-12)

    def test_bounded_by_pck_extremes(self, rng):
        pred, gt = random_pose_pair(rng)
        values = [met.pck(pred, gt, a) for a in met.auc_thresholds()]
        assert min(values) <= met.auc(pred, gt) <= max(values)


class TestOcclude:
    def test_prob_zero_is_identity(self, rng):
        vol = full_volume()
        out = met.occlude(vol, prob=0.0, rng=rng)
        assert np.array_equal(out.data, vol.data)

    def test_seeded_replay(self):
        vol = full_volume()
        out = met.occlude(vol, prob=1.0, rng=np.random.default_rng(123))
        replay = np.random.default_rng(123)
        assert replay.random() < 1.0
        h = int(replay.integers(1, 81))
        w = int(replay.integers(1, 81))
        top = int(replay.integers(0, GEO.height - h + 1))
        left = int(replay.integers(0, GEO.width - w + 1))
        expected = vol.data.copy()
        expected[:, top : top + h, left : left + w] = 0.0
        assert np.array_equal(out.data, expected)

    def test_difference_is_local(self, rng):
        vol = full_volume()
        out = met.occlude(vol, prob=1.0, rng=rng)
        changed = np.nonzero((out.data != vol.data).any(axis=0))
        ys, xs = changed
        height = ys.max() - ys.min() + 1
        width = xs.max() - xs.min() + 1
        assert len(ys) == height * width  # solid rectangle
        assert height <= 80 and width <= 80

    def test_never_exceeds_bounds(self):
        vol = full_volume()
        for seed in range(200):
            out = met.occlude(vol, prob=1.0, rng=np.random.default_rng(seed))
            changed = np.nonzero((out.data != vol.data).any(axis=0))
            ys, xs = changed
            assert ys.max() - ys.min() + 1 <= 80
            assert xs.max() - xs.min() + 1 <= 80

    def test_small_frame_clipped(self, rng):
        small = SensorGeometry(width=10, height=10)
        vol = full_volume(geometry=small)
        out = met.occlude(vol, prob=1.0, rng=rng, max_height=80, max_width=80)
        assert out.data.shape == vol.data.shape

    def test_frequency_band(self):
        vol = full_volume(channels=1, geometry=SensorGeometry(16, 16))
        prob = 0.7
        n = 2000
        hits = 0
        for seed in range(n):
            out = met.occlude(vol, prob=prob, rng=np.random.default_rng(seed))
            hits += not np.array_equal(out.data, vol.data)
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(hits / n - prob) <= 3 * sigma

    def test_bad_prob(self, rng):
        with pytest.raises(ConfigError):
            met.occlude(full_volume(), prob=1.5, rng=rng)


class TestEvaluate:
    def _record(self, rng, frame_id=0, offset=0.0, **tags):
        gt = rng.normal(size=(13, 3)) * 300
        pred = gt.copy()
        pred[:, 0] += offset
        return met.EvalRecord(frame_id=frame_id, pred=pose(pred), gt=pose(gt),
                              tags=tags)

    def test_single_record_single_group(self, rng):
        r = self._record(rng, offset=40.0, lighting="low")
        report = met.evaluate([r], group_by=("lighting",))
        assert math.isclose(report.overall.mpjpe, met.mpjpe(r.pred, r.gt))
        assert list(report.groups) == ["low"]
        assert report.groups["low"].count == 1
        assert report.groups["low"].mpjpe == report.overall.mpjpe

    def test_two_groups_hand_computed(self, rng):
        records = [self._record(rng, 0, 10.0, lighting="high"),
                   self._record(rng, 1, 30.0, lighting="high"),
                   self._record(rng, 2, 50.0, lighting="low")]
        report = met.evaluate(records, group_by=("lighting",))
        assert math.isclose(report.groups["high"].mpjpe, 20.0, rel_tol=1e-12)
        assert math.isclose(report.groups["low"].mpjpe, 50.0, rel_tol=1e-12)
        assert math.isclose(report.overall.mpjpe, 30.0, rel_tol=1e-12)

    def test_no_axes_yields_overall_only(self, rng):
        report = met.evaluate([self._record(rng)], group_by=())
        assert report.groups == {}

    def test_group_means_weighted_reproduce_overall(self, rng):
        records = []
        for i in range(30):
            lighting = ("high", "medium", "low")[i % 3]
            view = ("front", "back")[i % 2]
            records.append(self._record(rng, i, float(rng.uniform(0, 100)),
                                        lighting=lighting, view=view))
        report = met.evaluate(records, group_by=("lighting", "view"))
        weighted = sum(g.count * g.mpjpe for g in report.groups.values())
        assert math.isclose(weighted / len(records), report.overall.mpjpe,
                            rel_tol=1e-9)
        weighted_auc = sum(g.count * g.auc for g in report.groups.values())
        assert math.isclose(weighted_auc / len(records), report.overall.auc,
                            rel_tol=1e-9)

    def test_per_joint_table(self, rng):
        gt = np.zeros((13, 3))
        pred = gt.copy()
        pred[3, 1] = 12.0
        r = met.EvalRecord(frame_id=0, pred=pose(pred), gt=pose(gt))
        report = met.evaluate([r])
        assert report.per_joint_mpjpe[3] == 12.0
        assert report.per_joint_mpjpe.sum() == 12.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            met.evaluate([])

    def test_unknown_axis_is_config_error(self, rng):
        with pytest.raises(ConfigError, match="'lightning'.*lighting, background, view"):
            met.evaluate([self._record(rng, lighting="low")], group_by=("lightning",))

    def test_equals_per_record_means_bitwise(self, rng):
        axes = list(met.CONDITION_AXES)
        for _ in range(50):
            records = []
            for i in range(int(rng.integers(1, 25))):
                tags = {a: str(rng.choice(v)) for a, v in met.CONDITION_AXES.items()
                        if rng.random() < 0.8}
                records.append(self._record(rng, i, float(rng.uniform(0, 400)), **tags))
            group_by = tuple(rng.permutation(axes)[:int(rng.integers(0, 4))])
            report = met.evaluate(records, group_by=group_by)
            scopes = [(report.overall, records)]
            for key, g in report.groups.items():
                members = [r for r in records
                           if "/".join(r.tags.get(a, "?") for a in group_by) == key]
                scopes.append((g, members))
            for g, members in scopes:
                assert g.count == len(members)
                assert g.mpjpe == float(np.mean([met.mpjpe(r.pred, r.gt) for r in members]))
                assert g.pck == float(np.mean([met.pck(r.pred, r.gt) for r in members]))
                assert g.auc == float(np.mean([met.auc(r.pred, r.gt) for r in members]))
            assert sum(g.count for g, _ in scopes[1:]) == (len(records) if group_by else 0)
            per_joint = np.mean([met.joint_errors(r.pred, r.gt) for r in records], axis=0)
            assert report.per_joint_mpjpe.tobytes() == per_joint.tobytes()

    def test_bad_tag_value(self, rng):
        with pytest.raises(DataError):
            self._record(rng, lighting="neon")

    def test_csv_report(self, tmp_path, rng):
        records = [self._record(rng, i, 20.0, lighting="high") for i in range(3)]
        report = met.evaluate(records, group_by=("lighting",))
        path = tmp_path / "report.csv"
        met.report_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scope,key,count,mpjpe_mm,pck,auc"
        assert lines[1].startswith("overall,,3,")
        assert sum(1 for l in lines if l.startswith("joint,")) == 13

    def test_manifest_loading(self, tmp_path, rng):
        gt = rng.normal(size=(13, 3)) * 100
        names = list(JOINT_NAMES_13)
        pm.write_pose_csv(tmp_path / "gt.csv", pose(gt), names)
        pm.write_pose_csv(tmp_path / "pred.csv", pose(gt + [5.0, 0, 0]), names)
        manifest = {"records": [{"frame": 0, "pred": "pred.csv", "gt": "gt.csv",
                                 "lighting": "low", "view": "front"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        records = met.load_eval_manifest(tmp_path / "manifest.json")
        assert len(records) == 1
        assert records[0].tags == {"lighting": "low", "view": "front"}
        assert math.isclose(met.mpjpe(records[0].pred, records[0].gt), 5.0,
                            rel_tol=1e-9)

    def _manifest(self, tmp_path, pred, pred_names, gt, gt_names):
        pm.write_pose_csv(tmp_path / "gt.csv", pose(gt), gt_names)
        pm.write_pose_csv(tmp_path / "pred.csv", pose(pred), pred_names)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"records": [{"pred": "pred.csv", "gt": "gt.csv"}]}))
        return path

    @pytest.mark.parametrize("fields, message", [
        ({"pred": 1, "gt": 2}, "record 0 field 'pred' must be a JSON string, got 1"),
        ({"gt": ["gt.csv"]}, "record 0 field 'gt' must be a JSON string, got [\"gt.csv\"]"),
        ({"frame": [1]}, "record 0 field 'frame' must be a JSON integer, got [1]"),
        ({"frame": 1.5}, "record 0 field 'frame' must be a JSON integer, got 1.5"),
        ({"frame": True}, "record 0 field 'frame' must be a JSON integer, got true"),
        ({"lighting": None}, "record 0 field 'lighting' must be a JSON string, got null"),
        ({"view": 3}, "record 0 field 'view' must be a JSON string, got 3"),
    ], ids=["pred-int", "gt-list", "frame-list", "frame-float", "frame-bool", "tag-null",
            "tag-int"])
    def test_wrongly_typed_field_is_data_error(self, tmp_path, rng, fields, message):
        gt = rng.normal(size=(13, 3)) * 100
        path = self._manifest(tmp_path, gt, list(JOINT_NAMES_13), gt, list(JOINT_NAMES_13))
        path.write_text(json.dumps({"records": [{"pred": "pred.csv", "gt": "gt.csv", **fields}]}))
        with pytest.raises(DataError) as info:
            met.load_eval_manifest(path)
        assert str(info.value) == f"{path}: {message}"

    def test_frame_is_read_as_written(self, tmp_path, rng):
        gt = rng.normal(size=(13, 3)) * 100
        path = self._manifest(tmp_path, gt, list(JOINT_NAMES_13), gt, list(JOINT_NAMES_13))
        record = {"pred": "pred.csv", "gt": "gt.csv"}
        path.write_text(json.dumps({"records": [{**record, "frame": 7}, record]}))
        assert [r.frame_id for r in met.load_eval_manifest(path)] == [7, 1]

    def test_prediction_aligned_by_joint_name(self, tmp_path, rng):
        gt = rng.normal(size=(13, 3)) * 100
        names = list(JOINT_NAMES_13)
        path = self._manifest(tmp_path, gt[::-1], names[::-1], gt, names)
        (record,) = met.load_eval_manifest(path)
        assert np.array_equal(record.pred.joints, gt)
        assert met.mpjpe(record.pred, record.gt) == 0.0

    def test_files_in_any_joint_order_score_per_canonical_joint(self, tmp_path, rng):
        # two records with a 10 mm head error; the second lists its joints reversed
        records = []
        for i, order in enumerate((list(JOINT_NAMES_13), list(JOINT_NAMES_13)[::-1])):
            gt = rng.normal(size=(13, 3)) * 100
            pred = gt.copy()
            pred[JOINT_NAMES_13.index("head")] += [10.0, 0.0, 0.0]
            rows = [JOINT_NAMES_13.index(n) for n in order]
            pm.write_pose_csv(tmp_path / f"gt{i}.csv", pose(gt[rows]), order)
            pm.write_pose_csv(tmp_path / f"pred{i}.csv", pose(pred[rows]), order)
            records.append({"pred": f"pred{i}.csv", "gt": f"gt{i}.csv"})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"records": records}))
        report = met.evaluate(met.load_eval_manifest(path))
        per_joint = dict(zip(JOINT_NAMES_13, report.per_joint_mpjpe.tolist()))
        assert per_joint.pop("head") == pytest.approx(10.0, rel=1e-9)
        assert max(per_joint.values()) < 1e-9

    @pytest.mark.parametrize("gt_names", [
        list(JOINT_NAMES_13[:12]) + ["tail"],
        list(JOINT_NAMES_13[:12]) + ["head"],
    ])
    def test_ground_truth_joint_names_must_be_canonical(self, tmp_path, rng, gt_names):
        gt = rng.normal(size=(13, 3)) * 100
        path = self._manifest(tmp_path, gt, list(JOINT_NAMES_13), gt, gt_names)
        with pytest.raises(DataError, match=str(tmp_path / "gt.csv")):
            met.load_eval_manifest(path)

    @pytest.mark.parametrize("pred_names", [
        [f"nope{i}" for i in range(13)],                  # none shared
        list(JOINT_NAMES_13[:12]) + ["extra"],            # one missing, one extra
        list(JOINT_NAMES_13[:12]) + ["head"],             # one repeated
    ])
    def test_prediction_joint_names_must_match(self, tmp_path, rng, pred_names):
        gt = rng.normal(size=(13, 3)) * 100
        path = self._manifest(tmp_path, gt, pred_names, gt, list(JOINT_NAMES_13))
        with pytest.raises(DataError, match=str(tmp_path / "pred.csv")):
            met.load_eval_manifest(path)


class TestThresholdSweep:
    class _Backend:
        def __init__(self, horizon, future_score):
            self.horizon = horizon
            self.future_score = future_score

        def predict(self, vol):
            masks = np.ones((self.horizon, vol.geometry.height, vol.geometry.width),
                            dtype=bool)
            scores = np.full(self.horizon, self.future_score)
            scores[0] = 1.0
            return MaskPlan(masks=masks, scores=scores)

    def _frames(self, count, geometry=SensorGeometry(8, 8)):
        return [ToreVolume(geometry=geometry,
                           data=np.zeros((2, geometry.height, geometry.width),
                                         dtype=np.float32), query_time_us=i)
                for i in range(count)]

    def test_extreme_betas(self):
        frames = self._frames(10)
        backend = self._Backend(horizon=4, future_score=0.9)
        points = met.threshold_sweep(frames, backend, [0.0, 1.0])
        assert points[0].backend_calls == math.ceil(10 / 4)
        assert points[1].backend_calls == 10

    def test_call_count_non_decreasing(self, rng):
        frames = self._frames(20)
        for _ in range(20):
            backend = self._Backend(horizon=int(rng.integers(1, 6)),
                                    future_score=float(rng.uniform(0, 1)))
            points = met.threshold_sweep(frames, backend,
                                         np.linspace(0, 1, 7).tolist())
            calls = [p.backend_calls for p in points]
            assert calls == sorted(calls)

    def test_deterministic_calls(self):
        frames = self._frames(12)
        backend = self._Backend(horizon=3, future_score=0.5)
        a = met.threshold_sweep(frames, backend, [0.4])
        b = met.threshold_sweep(frames, backend, [0.4])
        assert a[0].backend_calls == b[0].backend_calls

    def test_mask_mae_reported(self):
        geometry = SensorGeometry(8, 8)
        frames = self._frames(5, geometry)
        gt = np.ones((5, 8, 8), dtype=bool)
        backend = self._Backend(horizon=2, future_score=0.9)
        points = met.threshold_sweep(frames, backend, [0.5], gt_masks=gt)
        assert points[0].mask_mae == 0.0  # backend masks are all ones too

    def test_empty_inputs(self):
        backend = self._Backend(horizon=1, future_score=1.0)
        with pytest.raises(EmptyInput):
            met.threshold_sweep([], backend, [0.5])
        with pytest.raises(EmptyInput):
            met.threshold_sweep(self._frames(1), backend, [])
