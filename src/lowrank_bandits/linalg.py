"""Numerical kernels shared by all bandit algorithms.

Everything here works on plain ``numpy`` arrays: vectors are 1-D arrays,
matrices are 2-D arrays, and an orthonormal basis is a ``(d, width)``
matrix with orthonormal columns.  A basis with zero columns, shape
``(d, 0)``, is legal and denotes the trivial subspace.

All functions are pure: randomness enters only through an explicitly
passed ``numpy.random.Generator``, so concurrent use on distinct
generators is safe.  ``sample_unit_sphere_many`` normalizes its fresh draw
in place, and ``least_squares_on_subspace`` factors a design once and
returns the solve for one reward vector.

The kernels do not check their arguments; each guarantee comes from one
place upstream.  ``InstanceSpec.validate`` bounds the counts and the SVD rank
``1 <= rep_dim <= min(dim, num_tasks)``; ``resolve_budgets`` gives Stage 2 a
block of at least one pull and Stage 3 a remainder of at least zero;
``check_invariants`` checks the true basis, the SVD or ``eigh`` that built an
estimated one makes it orthonormal, and ``extend_basis`` checks its basis
before projecting.  Two checks stay, as nothing upstream stands in for them:
``sample_unit_sphere``'s ``dim >= 1`` (its retry loop would never end) and
``least_squares_on_subspace``'s ``SingularDesignError`` (the SVD of a short
design would return a minimum-norm answer instead of raising).

``vector_norm`` is ``np.linalg.norm``'s arithmetic for one real vector,
``sqrt(v.dot(v))`` on the vector raveled in memory order, bit for bit.  At
the lifelong learner's small ``d`` the argument dispatch of
``np.linalg.norm`` costs more than the arithmetic, and its 1-D norms (the
sphere draw, the norm test, the greedy action, the basis extension) run once
or more per task.

Tolerances are fixed for 64-bit floats: 1e-8 for orthonormality checks,
1e-10 for exact-case assertions, 1e-12 for normalization.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SingularDesignError

ORTHONORMAL_ATOL = 1e-8
ZERO_NORM_ATOL = 1e-12
DESIGN_RCOND = 1e-10


def empty_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the trivial subspace: a (dim, 0) matrix."""
    return np.zeros((int(dim), 0))


def is_orthonormal(basis: np.ndarray) -> bool:
    """True when ``basis.T @ basis`` is the identity within ``ORTHONORMAL_ATOL`` per entry."""
    width = basis.shape[1]
    gram = basis.T @ basis
    return bool(np.max(np.abs(gram - np.eye(width)), initial=0.0) < ORTHONORMAL_ATOL)


def require_orthonormal(basis: np.ndarray) -> np.ndarray:
    """Validate orthonormal columns (and finite entries); return as float array."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError(f"basis must be a 2-D array, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise ValueError("basis contains non-finite entries")
    if not is_orthonormal(basis):
        raise ValueError("basis does not have orthonormal columns")
    return basis


def vector_norm(vec: np.ndarray) -> float:
    """The Euclidean norm of a real 1-D vector: ``float(np.linalg.norm(vec))``, bit for bit."""
    vec = vec.ravel(order="K")
    return math.sqrt(vec.dot(vec))


def sample_unit_sphere(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A point drawn uniformly from the unit sphere in ``dim`` dimensions.

    Implemented as a normalized standard-Gaussian draw, which is exactly
    uniform on the sphere in any dimension.
    """
    if dim < 1:  # the retry loop below would never end
        raise ValueError(f"dim must be >= 1, got {dim}")
    vec = rng.standard_normal(dim)
    norm = vector_norm(vec)
    while norm < ZERO_NORM_ATOL:  # probability ~0; keeps the unit-norm contract exact
        vec = rng.standard_normal(dim)
        norm = vector_norm(vec)
    return vec / norm


def sample_unit_sphere_many(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent sphere-uniform rows, shape (count, dim).

    The draw is normalized in place.  The row norms are
    ``np.linalg.norm(mat, axis=1)``'s arithmetic, so the rows have the bits
    of ``mat / np.linalg.norm(mat, axis=1, keepdims=True)``.
    """
    mat = rng.standard_normal((count, dim))
    norms = np.add.reduce(mat * mat, axis=1)
    np.sqrt(norms, out=norms)
    bad = np.nonzero(norms < ZERO_NORM_ATOL)[0]
    for i in bad:  # same retry guard as the scalar path
        mat[i] = sample_unit_sphere(dim, rng)
        norms[i] = 1.0
    mat /= norms[:, None]
    return mat


def top_k_left_singular_vectors(matrix: np.ndarray, k: int) -> np.ndarray:
    """Left singular vectors of ``matrix`` for its ``k`` largest singular values.

    Columns are ordered by descending singular value.  Sign and, for
    repeated singular values, rotation of the returned basis are
    unspecified; downstream consumers must be rotation-invariant.
    """
    u, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return np.ascontiguousarray(u[:, :k])


def subspace_distance(basis_hat: np.ndarray, basis: np.ndarray) -> float:
    """Spectral norm of ``(I - B_hat @ B_hat.T) @ B``, the sin-theta gap.

    Zero iff span(basis) is contained in span(basis_hat); at most 1 for
    orthonormal inputs.  Invariant to orthogonal rotation of either
    basis's columns.
    """
    if basis.shape[1] == 0:
        return 0.0
    resid = basis - basis_hat @ (basis_hat.T @ basis)
    top = float(np.linalg.svd(resid, compute_uv=False)[0])
    return min(max(top, 0.0), 1.0)


def project_orthogonal_complement(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Component of ``vec`` orthogonal to the span of ``basis``.

    Returns ``vec`` unchanged for the empty basis.
    """
    return vec - basis @ (basis.T @ vec)


def least_squares_on_subspace(
    actions: np.ndarray, basis_hat: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """``solve`` mapping ``(n,)`` rewards to the w minimizing sum_t (<a_t, B_hat w> - r_t)^2.

    Factors the SVD of the reduced design ``[B_hat.T a_t]_t`` once, rather
    than the normal equations; each ``solve`` is two matrix-vector products.
    A rank-deficient design is a hard error, raised before any rewards exist:
    the callers construct orthonormal designs, so deficiency signals a bug
    rather than something to regularize away.
    """
    width = basis_hat.shape[1]
    if width == 0:
        return lambda rewards: np.zeros(0)
    if actions.shape[0] < width:
        raise SingularDesignError(
            f"need at least {width} observations, got {actions.shape[0]}"
        )
    design = actions @ basis_hat
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= DESIGN_RCOND * max(s[0], 1.0):
        raise SingularDesignError("design matrix is rank deficient")
    return lambda rewards: vt.T @ ((u.T @ rewards) / s)


def argmax_unit_ball(theta: np.ndarray) -> np.ndarray:
    """The unit-ball action maximizing <a, theta>, i.e. theta normalized.

    The maximizer of a linear function over the unit ball is
    ``theta / ||theta||`` with value ``||theta||``.  For ``theta``
    numerically zero every unit vector ties; the first standard basis
    vector is returned as a fixed, reproducible convention.
    """
    norm = vector_norm(theta)
    if norm <= ZERO_NORM_ATOL:
        out = np.zeros(theta.shape[0])
        out[0] = 1.0
        return out
    return theta / norm


def kth_singular_value(matrix: np.ndarray, k: int) -> float:
    """The k-th largest singular value of ``matrix`` (k is 1-based)."""
    return float(np.linalg.svd(matrix, compute_uv=False)[k - 1])
