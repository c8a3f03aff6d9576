import numpy as np
import pytest

from lowrank_bandits import (
    InstanceSpec,
    generate_instance,
    linalg,
    lll,
    run_e2tc,
    run_independent_etc,
    run_lll,
    run_mtrl,
)
from lowrank_bandits.errors import SingularDesignError
from lowrank_bandits.linalg import (
    argmax_unit_ball,
    empty_basis,
    is_orthonormal,
    kth_singular_value,
    least_squares_on_subspace,
    project_orthogonal_complement,
    sample_unit_sphere,
    sample_unit_sphere_many,
    subspace_distance,
    top_k_left_singular_vectors,
)


def random_rotation(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


class TestSampleUnitSphere:
    def test_dim_one_is_sign(self):
        rng = np.random.default_rng(0)
        values = {float(sample_unit_sphere(1, rng)[0]) for _ in range(50)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5, 30):
            vec = sample_unit_sphere(dim, rng)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            sample_unit_sphere(0, np.random.default_rng(0))

    def test_coordinate_means_vanish(self):
        # CLT bound: per-coordinate sd of the mean is 1/sqrt(n*d) ~ 0.001
        rng = np.random.default_rng(2)
        draws = sample_unit_sphere_many(10, 100_000, rng)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_isotropy_of_scaled_outer_products(self):
        # E[d * a a^T] = I; empirical mean within 0.05 per entry at n=1e5
        rng = np.random.default_rng(3)
        draws = sample_unit_sphere_many(10, 100_000, rng)
        second_moment = 10 * (draws.T @ draws) / draws.shape[0]
        assert np.max(np.abs(second_moment - np.eye(10))) < 0.05


def norm_formula_sampler(dim, count, rng):
    """``sample_unit_sphere_many`` as it was before it normalized in place."""
    mat = rng.standard_normal((count, dim))
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    for i in np.nonzero(norms[:, 0] < linalg.ZERO_NORM_ATOL)[0]:
        mat[i] = sample_unit_sphere(dim, rng)
        norms[i, 0] = 1.0
    return mat / norms


class ZeroedRows:
    """A generator whose 2-D draws come back with the given rows set to zero."""

    def __init__(self, seed, rows):
        self.rng = np.random.default_rng(seed)
        self.rows = rows

    def standard_normal(self, size=None):
        draw = self.rng.standard_normal(size)
        if np.ndim(draw) == 2:
            draw[self.rows] = 0.0
        return draw


class TestSampleUnitSphereManyBits:
    """Normalizing the draw in place keeps the old rows' bits."""

    # numpy's pairwise sum changes path at 8 and at 128 entries per row.
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 10, 50, 128, 129])
    def test_rows_equal_the_norm_formula(self, dim):
        rng, twin = np.random.default_rng(dim), np.random.default_rng(dim)
        rows = sample_unit_sphere_many(dim, 300, rng)
        mat = twin.standard_normal((300, dim))
        expected = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        assert rows.shape == (300, dim)
        assert rows.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 10])
    def test_zero_rows_are_redrawn_as_before(self, dim):
        zeroed = [0, 5, 6]
        rows = sample_unit_sphere_many(dim, 8, ZeroedRows(4, zeroed))
        expected = norm_formula_sampler(dim, 8, ZeroedRows(4, zeroed))
        assert rows.tobytes() == expected.tobytes()
        assert np.allclose(np.linalg.norm(rows[zeroed], axis=1), 1.0, atol=1e-12)


class TestTopKLeftSingularVectors:
    def test_orthonormal_input_spans_itself(self):
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        a[1, 1] = 1.0
        basis = top_k_left_singular_vectors(a, 2)
        assert subspace_distance(basis, a) <= 1e-8
        assert is_orthonormal(basis)

    def test_rank_one_duplicated_column(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(5)
        basis = top_k_left_singular_vectors(np.column_stack([v, v]), 1)
        unit = v / np.linalg.norm(v)
        assert min(
            np.linalg.norm(basis[:, 0] - unit), np.linalg.norm(basis[:, 0] + unit)
        ) <= 1e-10

    def test_matches_dense_eigendecomposition_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 8))
        basis = top_k_left_singular_vectors(a, 3)
        # oracle: top-3 eigenvectors of A A^T from a full dense eigendecomposition
        eigvals, eigvecs = np.linalg.eigh(a @ a.T)
        oracle = eigvecs[:, np.argsort(eigvals)[::-1][:3]]
        assert subspace_distance(basis, oracle) <= 1e-8

    def test_descending_singular_order(self):
        a = np.diag([1.0, 5.0, 3.0])
        basis = top_k_left_singular_vectors(a, 2)
        # columns must correspond to singular values 5 then 3
        assert abs(abs(basis[1, 0]) - 1.0) <= 1e-12
        assert abs(abs(basis[2, 1]) - 1.0) <= 1e-12


class TestSubspaceDistance:
    def test_identical_subspace(self):
        rng = np.random.default_rng(6)
        basis = top_k_left_singular_vectors(rng.standard_normal((5, 3)), 2)
        assert subspace_distance(basis, basis) <= 1e-10

    def test_orthogonal_subspaces(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert abs(subspace_distance(e1, e2) - 1.0) <= 1e-10

    def test_planar_angle(self):
        alpha = 0.3
        target = np.array([[1.0], [0.0], [0.0]])
        tilted = np.array([[np.cos(alpha)], [np.sin(alpha)], [0.0]])
        # one-dimensional subspaces: distance is exactly sin(alpha)
        assert abs(subspace_distance(tilted, target) - np.sin(alpha)) <= 1e-8

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        b_hat = top_k_left_singular_vectors(rng.standard_normal((8, 5)), 3)
        b = top_k_left_singular_vectors(rng.standard_normal((8, 5)), 2)
        base = subspace_distance(b_hat, b)
        for _ in range(5):
            rotated_hat = b_hat @ random_rotation(3, rng)
            rotated = b @ random_rotation(2, rng)
            assert abs(subspace_distance(rotated_hat, rotated) - base) <= 1e-9

    def test_empty_bases(self):
        basis = np.array([[1.0], [0.0]])
        assert subspace_distance(basis, empty_basis(2)) == 0.0
        assert abs(subspace_distance(empty_basis(2), basis) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestProjectOrthogonalComplement:
    def test_empty_basis_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(project_orthogonal_complement(empty_basis(3), v), v)

    def test_in_span_vanishes(self):
        rng = np.random.default_rng(8)
        basis = top_k_left_singular_vectors(rng.standard_normal((6, 4)), 2)
        v = basis @ rng.standard_normal(2)
        assert np.linalg.norm(project_orthogonal_complement(basis, v)) <= 1e-10

    def test_coordinate_projection(self):
        basis = np.array([[1.0], [0.0]])
        out = project_orthogonal_complement(basis, np.array([3.0, 4.0]))
        assert np.allclose(out, [0.0, 4.0], atol=1e-12)

    def test_result_orthogonal_to_basis(self):
        rng = np.random.default_rng(9)
        basis = top_k_left_singular_vectors(rng.standard_normal((7, 5)), 3)
        out = project_orthogonal_complement(basis, rng.standard_normal(7))
        assert np.max(np.abs(basis.T @ out)) <= 1e-10


class TestLeastSquaresOnSubspace:
    def test_orthonormal_design_noiseless(self):
        rng = np.random.default_rng(10)
        basis = top_k_left_singular_vectors(rng.standard_normal((6, 4)), 3)
        theta = rng.standard_normal(6)
        rewards = basis.T @ theta  # one pull per column
        w = least_squares_on_subspace(basis.T.copy(), basis)(rewards)
        assert np.max(np.abs(w - basis.T @ theta)) <= 1e-10

    def test_duplicated_columns_average(self):
        # each column twice with rewards {r, r'}: normal equations give the mean
        basis = np.eye(4)[:, :2]
        actions = np.array([basis[:, 0], basis[:, 0], basis[:, 1], basis[:, 1]])
        rewards = np.array([1.0, 3.0, -2.0, 6.0])
        w = least_squares_on_subspace(actions, basis)(rewards)
        assert np.allclose(w, [2.0, 2.0], atol=1e-12)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(11)
        basis = top_k_left_singular_vectors(rng.standard_normal((5, 4)), 3)
        actions = rng.standard_normal((12, 5)) / np.sqrt(5)
        rewards = rng.standard_normal(12)
        w = least_squares_on_subspace(actions, basis)(rewards)
        oracle = np.linalg.pinv(actions @ basis) @ rewards
        assert np.max(np.abs(w - oracle)) <= 1e-8

    def test_rank_deficient_design_raises(self):
        basis = np.eye(3)[:, :2]
        actions = np.array([[1.0, 0.0, 0.0]] * 4)  # never touches the second column
        with pytest.raises(SingularDesignError):  # at factor time, before any rewards
            least_squares_on_subspace(actions, basis)

    def test_too_few_observations(self):
        basis = np.eye(3)[:, :2]
        with pytest.raises(SingularDesignError):
            least_squares_on_subspace(np.eye(3)[:1], basis)

    def test_one_factorization_solves_each_row_bit_for_bit(self):
        rng = np.random.default_rng(14)
        basis = top_k_left_singular_vectors(rng.standard_normal((10, 4)), 2)
        actions = np.repeat(basis.T, 50, axis=0)
        rewards = rng.standard_normal((7, 100))
        solve = least_squares_on_subspace(actions, basis)
        u, s, vt = np.linalg.svd(actions @ basis, full_matrices=False)
        for row in rewards:
            shared = solve(row)
            assert shared.shape == (2,)
            assert shared.tobytes() == (vt.T @ ((u.T @ row) / s)).tobytes()
            fresh = least_squares_on_subspace(actions, basis)(row.copy())
            assert shared.tobytes() == fresh.tobytes()

    def test_empty_basis_gives_an_empty_solution(self):
        solve = least_squares_on_subspace(np.eye(3), np.zeros((3, 0)))
        assert solve(np.ones(3)).shape == (0,)


class TestArgmaxUnitBall:
    def test_basis_vector(self):
        assert np.array_equal(argmax_unit_ball(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_zero_returns_first_axis(self):
        out = argmax_unit_ball(np.zeros(4))
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_three_four_five(self):
        out = argmax_unit_ball(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_unit_norm_and_achieved_value(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            theta = rng.standard_normal(6) * rng.uniform(0.1, 5)
            out = argmax_unit_ball(theta)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
            assert abs(out @ theta - np.linalg.norm(theta)) <= 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        theta = rng.standard_normal(5)
        base = argmax_unit_ball(theta)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            assert np.allclose(argmax_unit_ball(scale * theta), base, atol=1e-12)


class TestKthSingularValue:
    def test_identity(self):
        assert kth_singular_value(np.eye(3), 3) == pytest.approx(1.0)

    def test_diagonal(self):
        assert kth_singular_value(np.diag([5.0, 2.0, 0.0]), 2) == pytest.approx(2.0)


class TestValidationRunsOnce:
    """Orthonormality is checked where a basis enters from outside, not per kernel call."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        original = linalg.require_orthonormal

        def counting(basis):
            calls.append(basis.shape)
            return original(basis)

        monkeypatch.setattr(linalg, "require_orthonormal", counting)
        monkeypatch.setattr(lll, "require_orthonormal", counting)
        return calls

    @staticmethod
    def instance():
        return generate_instance(InstanceSpec(dim=10, rep_dim=2, num_tasks=20, horizon=2000, seed=0))

    @pytest.mark.parametrize("runner", [run_mtrl, run_e2tc, run_independent_etc])
    def test_explore_then_commit_runners_check_nothing(self, checks, runner):
        runner(self.instance(), np.random.default_rng(1))
        assert checks == []

    @pytest.mark.parametrize("options", [
        {"mode": "regret"},
        {"mode": "pure_exploration", "epsilon": 0.3},
    ])
    def test_lll_checks_once_per_basis_extension_attempt(self, checks, options):
        _, state = run_lll(self.instance(), np.random.default_rng(1), **options)
        assert state.entered_stage2.sum() > 1
        assert len(checks) == state.entered_stage2.sum()
