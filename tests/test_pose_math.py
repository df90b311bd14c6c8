import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import pose_math as pm
from evpose.errors import (
    DataError,
    InvalidDistribution,
    LengthMismatch,
    NonFinite,
    ZeroMass,
)

from oracles import bce_direct, fuse_triplet, jsd_direct, mse_direct


def one_hot(resolution, row, col):
    g = np.zeros((resolution, resolution))
    g[row, col] = 1.0
    return g


def random_distribution(rng, shape, floor=0.05):
    """Interior point of the simplex: bounded away from zero."""
    raw = rng.dirichlet(np.ones(int(np.prod(shape))))
    mixed = (1.0 - floor) * raw + floor / raw.size
    return mixed.reshape(shape)


def uniform_heatmaps(n_joints=1, resolution=8):
    return pm.Heatmaps(np.full((3 * n_joints, resolution, resolution), 1.0 / resolution**2))


def random_stack(rng, n_joints, resolution):
    """(3J, R, R) planes, each an interior point of the simplex."""
    planes = [random_distribution(rng, (resolution, resolution)) for _ in range(3 * n_joints)]
    return np.array(planes).reshape(3 * n_joints, resolution, resolution)


class TestHeatmaps:
    @pytest.mark.parametrize("shape", [(2, 4, 4), (3, 4, 5), (4, 4), (3, 2, 4, 4)])
    def test_rejects_a_shape_other_than_3j_r_r(self, shape):
        with pytest.raises(InvalidDistribution, match=r"^heatmaps must be \(3J, R, R\)"):
            pm.Heatmaps(np.full(shape, 1.0 / 16))

    @pytest.mark.parametrize("value, message", [
        (math.nan, "joint 1 zy plane sums to nan, expected 1"),
        (0.5, "joint 1 zy plane sums to 1.437500000, expected 1"),
        (-1 / 16, "joint 1 zy plane has negative mass"),
    ])
    def test_error_names_the_joint_and_plane(self, value, message):
        stack = np.full((6, 4, 4), 1.0 / 16)
        stack[5, 0, 0] = value
        if value < 0:  # negative, yet summing to 1
            stack[5, 0, 1] += 2 / 16
        with pytest.raises(InvalidDistribution, match=f"^{message}$"):
            pm.Heatmaps(stack)

    def test_bad_distribution_rejected(self):
        good = uniform_heatmaps().stack
        with pytest.raises(InvalidDistribution, match="^joint 0 xy plane sums to 32.0"):
            pm.Heatmaps(np.stack([np.full((8, 8), 0.5), good[1], good[2]]))
        neg = good.copy()
        neg[0, 0, 0] = -neg[0, 0, 0]
        neg[0, 0, 1] *= 3  # the plane still sums to 1
        with pytest.raises(InvalidDistribution, match="^joint 0 xy plane has negative mass"):
            pm.Heatmaps(neg)


class TestSoftArgmax:
    def test_uniform_grid_is_centered(self):
        g = np.ones((16, 16))
        assert np.allclose(pm.soft_argmax(g), [0.0, 0.0], atol=1e-15)

    def test_one_hot_center_odd_resolution(self):
        g = one_hot(9, 4, 4)
        assert np.allclose(pm.soft_argmax(g), [0.0, 0.0], atol=1e-15)

    def test_one_hot_corner(self):
        resolution = 10
        g = one_hot(resolution, 0, resolution - 1)
        a, b = pm.soft_argmax(g)
        edge = 1.0 - 1.0 / resolution
        assert math.isclose(a, edge, rel_tol=1e-12)
        assert math.isclose(b, -edge, rel_tol=1e-12)

    def test_flip_negates_first_coordinate(self, rng):
        g = rng.random((12, 12)) + 0.01
        a, b = pm.soft_argmax(g)
        fa, fb = pm.soft_argmax(g[:, ::-1])
        assert math.isclose(fa, -a, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(fb, b, rel_tol=0, abs_tol=1e-12)

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            pm.soft_argmax(np.zeros((8, 8)))

    def test_negative_entries(self):
        g = np.ones((4, 4))
        g[0, 0] = -0.5
        with pytest.raises(InvalidDistribution):
            pm.soft_argmax(g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        g = np.ones((4, 4))
        g[0, 0] = bad
        with pytest.raises(InvalidDistribution):
            pm.soft_argmax(g)


class TestFusePlanes:
    def test_all_centered(self):
        assert np.allclose(pm.fuse_planes(uniform_heatmaps()), [[0.0, 0.0, 0.0]],
                           atol=1e-15)

    def test_z_is_average_of_xz_and_zy(self):
        resolution = 5
        centers = pm.cell_centers(resolution)  # [-0.8 -0.4 0 0.4 0.8]
        uniform = np.full((resolution, resolution), 1.0 / resolution**2)
        xz = one_hot(resolution, 3, 2)   # row index 3 -> z = 0.4
        zy = one_hot(resolution, 2, 2)   # col index 2 -> z = 0.0
        fused = pm.fuse_planes(pm.Heatmaps(np.stack([uniform, xz, zy])))
        assert fused.shape == (1, 3)
        assert math.isclose(fused[0, 2], (centers[3] + centers[2]) / 2.0, rel_tol=1e-12)

    def test_xy_controls_x_and_y(self):
        resolution = 5
        xy = one_hot(resolution, 1, 3)  # y from row 1, x from col 3
        uniform = np.full((resolution, resolution), 1.0 / resolution**2)
        fused = pm.fuse_planes(pm.Heatmaps(np.stack([xy, uniform, uniform])))
        centers = pm.cell_centers(resolution)
        assert fused[0, 0] == centers[3]
        assert fused[0, 1] == centers[1]

    def test_round_trip_with_generated_heatmaps(self, rng):
        from evpose.simulator import make_heatmaps

        resolution = 64
        cell = 2.0 / resolution
        joints = rng.uniform(-0.7, 0.7, size=(6, 3))
        recovered = pm.fuse_planes(pm.Heatmaps(make_heatmaps(joints, resolution, sigma=2.0)))
        assert np.all(np.abs(recovered - joints) <= 0.5 * cell)

    @settings(max_examples=60, deadline=None)
    @given(n_joints=st.integers(0, 13), resolution=st.integers(1, 24),
           generated=st.booleans(), seed=st.integers(0, 2**16))
    def test_rows_are_the_per_triplet_fusion_bit_for_bit(self, n_joints, resolution,
                                                         generated, seed):
        from evpose.simulator import make_heatmaps

        rng = np.random.default_rng(seed)
        if generated and resolution >= 8 and n_joints:
            stack = make_heatmaps(rng.uniform(-1, 1, (n_joints, 3)), resolution,
                                  float(rng.uniform(0.5, 4.0)))
        else:
            stack = random_stack(rng, n_joints, resolution)
        fused = pm.fuse_planes(pm.Heatmaps(stack))
        assert fused.shape == (n_joints, 3)
        for j in range(n_joints):
            assert fused[j].tobytes() == fuse_triplet(*stack[3 * j:3 * j + 3]).tobytes()


class TestJsd:
    def test_symmetry(self, rng):
        p = random_distribution(rng, (6, 6))
        q = random_distribution(rng, (6, 6))
        assert math.isclose(pm.jsd(p, q), pm.jsd(q, p), rel_tol=1e-12)

    def test_bounds(self, rng):
        for _ in range(20):
            p = random_distribution(rng, (10,))
            q = random_distribution(rng, (10,))
            v = pm.jsd(p, q)
            assert 0.0 <= v <= math.log(2.0) + 1e-12

    def test_zero_iff_equal(self, rng):
        p = random_distribution(rng, (8,))
        assert pm.jsd(p, p) == 0.0
        q = p.copy()
        q[0] += 0.01
        q[1] -= 0.01
        assert pm.jsd(p, q) > 0.0

    def test_disjoint_supports_hit_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert math.isclose(pm.jsd(p, q), math.log(2.0), rel_tol=1e-12)

    def test_matches_direct_summation(self, rng):
        for _ in range(10):
            p = random_distribution(rng, (7, 7))
            q = random_distribution(rng, (7, 7))
            assert math.isclose(pm.jsd(p, q), jsd_direct(p, q), rel_tol=1e-10)


class TestElementwiseLosses:
    def test_bce_and_mse_match_their_direct_oracles(self, rng):
        y = (rng.random((3, 5, 5)) > 0.5).astype(np.float64)
        p = rng.uniform(0.05, 0.95, (3, 5, 5))
        assert math.isclose(pm.bce(y, p), bce_direct(y, p), rel_tol=1e-10)
        a, b = rng.normal(size=(2, 7))
        assert math.isclose(pm.mse(a, b), mse_direct(a, b), rel_tol=1e-12)


class TestGradientCheck:
    def test_linear_function_is_exact(self):
        w = np.array([1.5, -2.0, 0.25])

        def f(x):
            return float(w @ x)

        dev = pm.gradient_check(f, lambda x: w, np.array([0.3, 0.7, -0.2]), step=1e-4)
        assert dev <= 1e-9

    def test_soft_argmax_gradient(self, rng):
        w = rng.normal(size=2)

        def f(g):
            return float(w @ pm.soft_argmax(g))

        def grad(g):
            _, jac = pm.soft_argmax_grad(g)
            return w[0] * jac[0] + w[1] * jac[1]

        for _ in range(5):
            point = rng.uniform(0.1, 1.0, (6, 6))
            assert pm.gradient_check(f, grad, point, step=1e-5) <= 1e-4

    def test_jsd_gradient_both_sides(self, rng):
        q = random_distribution(rng, (9,))
        p0 = random_distribution(rng, (9,))
        assert pm.gradient_check(lambda p: pm.jsd(p, q),
                                 lambda p: pm.jsd_grad(p, q)[0], p0,
                                 step=1e-5) <= 1e-4
        assert pm.gradient_check(lambda q_: pm.jsd(p0, q_),
                                 lambda q_: pm.jsd_grad(p0, q_)[1], q,
                                 step=1e-5) <= 1e-4

    def test_bce_gradient(self, rng):
        y = (rng.random(12) > 0.5).astype(np.float64)
        p0 = rng.uniform(0.1, 0.9, 12)
        assert pm.gradient_check(lambda p: pm.bce(y, p),
                                 lambda p: pm.bce_grad(y, p), p0, step=1e-5) <= 1e-4

    def test_mse_gradient(self, rng):
        t = rng.normal(size=10)
        p0 = rng.normal(size=10)
        assert pm.gradient_check(lambda p: pm.mse(p, t),
                                 lambda p: pm.mse_grad(p, t), p0, step=1e-5) <= 1e-4

    def test_step_bounds(self):
        with pytest.raises(Exception):
            pm.gradient_check(lambda x: 0.0, lambda x: np.zeros(1),
                              np.zeros(1), step=1e-2)

    def test_non_finite_detected(self):
        def f(x):
            return float(1.0 / x[0])

        with pytest.raises(NonFinite):
            pm.gradient_check(f, lambda x: np.array([np.nan]),
                              np.array([0.5]), step=1e-5)


class TestPoseCsv:
    def test_round_trip(self, tmp_path, rng):
        pose = pm.Pose3D(joints=rng.normal(size=(13, 3)) * 100, frame="camera")
        names = [f"joint{i}" for i in range(13)]
        path = tmp_path / "pose.csv"
        pm.write_pose_csv(path, pose, names)
        got_names, got = pm.read_pose_csv(path)
        assert got_names == names
        assert np.array_equal(got.joints, pose.joints)

    @pytest.mark.parametrize("body, message", [
        ("head,1,2,3\nneck,1,2\n", "line 3: expected 4 fields, got 3"),
        ("head,1,2,3,4\n", "line 2: expected 4 fields, got 5"),
        ("head,1,2,3\nneck,1,two,3\n", "line 3: .*'two'"),
    ])
    def test_malformed_row_is_data_error_naming_its_line(self, tmp_path, body, message):
        path = tmp_path / "pose.csv"
        path.write_text("joint,x,y,z\n" + body)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            pm.read_pose_csv(path)

    def test_name_count_checked(self, tmp_path):
        pose = pm.Pose3D(joints=np.zeros((13, 3)))
        with pytest.raises(LengthMismatch):
            pm.write_pose_csv(tmp_path / "pose.csv", pose, ["a", "b"])
