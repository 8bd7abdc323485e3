"""Small dense kernels shared by every certification path.

One tolerance policy for the whole toolkit, numerical rank with an
orthonormal null-space basis, least-squares multiplier solves, and the
inertia of a symmetric matrix restricted to a subspace.  Rank goes through
the SVD with a relative cutoff so that "linearly independent" verdicts are
reproducible across platforms; matrices are desk scale, so the explicitly
projected eigensolve wins over anything cleverer.  Each kernel also takes a
stack of same-shape matrices and runs it through one call of the gufunc
that numpy.linalg runs on one matrix, which gives every matrix the result
of its own call, bit for bit; certification makes these calls once per
layout group of its candidates (ccop._solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "Tolerances",
    "rank_and_nullbasis",
    "solve_multipliers",
    "restricted_inertia",
]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance policy.

    tol_feas   absolute feasibility tolerance
    tol_act    activity-detection tolerance
    tol_rank   relative singular-value cutoff for rank decisions
    tol_strict strict-inequality margin for multipliers and eigenvalues
    """

    tol_feas: float = 1e-9
    tol_act: float = 1e-8
    tol_rank: float = 1e-10
    tol_strict: float = 1e-8

    def __post_init__(self):
        for name in ("tol_feas", "tol_act", "tol_rank", "tol_strict"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tol_rank >= self.tol_strict:
            raise ValueError("tol_rank must be smaller than tol_strict")


def _lapack(failure: str) -> np.errstate:
    """The floating-point state numpy.linalg calls its gufuncs in: LAPACK's
    failure to converge raises LinAlgError(failure), with numpy's message."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(failure)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def rank_and_nullbasis(A, tol: Tolerances):
    """Numerical rank of A (m x k) and an orthonormal basis of its null space.

    Rank counts singular values above tol_rank * sigma_max (zero or empty
    matrices have rank 0).  The returned N is k x (k - rank) with exactly
    orthonormal columns from the SVD.

    A stack of matrices (K x m x k) goes through one stacked SVD and gives a
    list of K (rank, N) pairs by the same rule; numpy runs a single matrix
    and a stack through one LAPACK routine, so each pair equals the pair of
    its matrix alone, bit for bit.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        A = np.atleast_2d(A)
    m, k = A.shape[-2:]
    if m == 0 or k == 0:
        return (0, np.eye(k)) if A.ndim == 2 else [(0, np.eye(k)) for _ in A]
    with _lapack("SVD did not converge"):
        _, sing, vt = _umath_linalg.svd_f(A, signature="d->ddd")  # np.linalg.svd's gufunc
    # an all-zero matrix has no singular value above 0 = tol_rank * sigma_max
    ranks = np.add.reduce(sing > tol.tol_rank * sing[..., :1], axis=-1)
    if A.ndim == 2:
        rank = int(ranks)
        return rank, vt[rank:].T.copy()
    return [(rank, v[rank:].T.copy()) for rank, v in zip(ranks.tolist(), vt)]


def solve_multipliers(G, target, tol: Tolerances):
    """Least-squares solve of G coeffs = target for multiplier columns G.

    Returns (coeffs, residual_norm).  The caller reads residual_norm against
    tol_feas * (1 + ||target||) as "stationarity equation holds"; coeffs are
    unique only when G has full column rank, otherwise this is the
    minimum-norm solution, singular values up to tol_rank * sigma_max
    counting as zero.

    A stack of systems (K x d x k and K x d) gives a list of K pairs; a
    single system is a stack of one.  Either way one call of the gufunc that
    np.linalg.lstsq runs on one system solves them all (numpy's lstsq
    refuses stacks), so coeffs equal lstsq's, bit for bit, and LAPACK's
    failure to converge raises LinAlgError as lstsq does.  Each residual is
    the norm of G[k] @ coeffs - target[k], whose bits follow the memory
    layout of G[k].
    """
    G, target = np.asarray(G, dtype=float), np.asarray(target, dtype=float)
    one = G.ndim == 2
    if one:
        G, target = G[None], target[None]
    with _lapack("SVD did not converge in Linear Least Squares"):
        coeffs = _umath_linalg.lstsq(G, target[..., None], tol.tol_rank, signature="ddd->ddid")[0]
    residuals = [g @ c - t for g, c, t in zip(G, coeffs[..., 0], target)]
    # each norm as np.linalg.norm takes it, sqrt(r.dot(r)), without its dispatch
    pairs = [(c, math.sqrt(r.dot(r))) for c, r in zip(coeffs[..., 0], residuals)]
    return pairs[0] if one else pairs


def restricted_inertia(H, N, tol: Tolerances):
    """Eigenvalue signs of N' H N for symmetric H and orthonormal columns N.

    Returns (neg, zero, pos) with the zero band [-tol_strict, tol_strict];
    eigenvalues inside the band count as zero, never as pos or neg, so
    near-singular restrictions surface as degeneracy instead of being
    silently classified.

    Stacks of matrices (K x d x d and K x d x r) give a list of K triples
    from stacked products and one stacked eigensolve, each equal to the
    triple of its pair alone.
    """
    H, N = np.asarray(H, dtype=float), np.asarray(N, dtype=float)
    if N.ndim < 2:
        N = np.atleast_2d(N)
    r = N.shape[-1]
    if r == 0:
        return (0, 0, 0) if N.ndim == 2 else [(0, 0, 0)] * len(N)
    M = N.swapaxes(-1, -2) @ H @ N
    M = 0.5 * (M + M.swapaxes(-1, -2))
    with _lapack("Eigenvalues did not converge"):
        eig = _umath_linalg.eigvalsh_lo(M, signature="d->d")  # np.linalg.eigvalsh's gufunc
    neg = np.add.reduce(eig < -tol.tol_strict, axis=-1)
    pos = np.add.reduce(eig > tol.tol_strict, axis=-1)
    if N.ndim == 2:
        return int(neg), r - int(neg) - int(pos), int(pos)
    return [(a, r - a - b, b) for a, b in zip(neg.tolist(), pos.tolist())]
