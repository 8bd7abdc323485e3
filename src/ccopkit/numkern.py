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
layout group of its candidates (ccop._solve: an SVD per point's x-block,
one per layout's y-block) and reads their Stacks whole.  Calling them so
needs numpy 2.0 or later: numpy 1.x split the lstsq and SVD gufuncs in two.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _astuple(self) -> tuple:
        """The tolerances as memo keys hold them, hashed and compared in C."""
        return self.tol_feas, self.tol_act, self.tol_rank, self.tol_strict


def _lapack(gufunc, failure: str):
    """gufunc in numpy.linalg's floating-point state, set per call (np.errstate as
    a decorator): LAPACK's failure to converge raises LinAlgError(failure)."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(failure)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")(gufunc)


# the gufuncs behind np.linalg.svd, np.linalg.lstsq and np.linalg.eigvalsh
_svd = _lapack(_umath_linalg.svd_f, "SVD did not converge")
_lstsq = _lapack(_umath_linalg.lstsq, "SVD did not converge in Linear Least Squares")
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "Eigenvalues did not converge")


class Stack(Sequence):
    """A kernel's results on a stack of K matrices: its arrays, as attributes,
    and as a sequence item(j), its result on matrix j alone, built when read."""

    def __init__(self, K: int, item, **arrays):
        vars(self).update(arrays, _K=K, _item=item)

    def __len__(self) -> int:
        return self._K

    def __getitem__(self, j):
        return self._item(range(self._K)[j])


def rank_and_nullbasis(A, tol: Tolerances):
    """Numerical rank of A (m x k) and an orthonormal basis of its null space.

    Rank counts singular values above tol_rank * sigma_max (zero or empty
    matrices have rank 0).  The returned N is k x (k - rank) with exactly
    orthonormal columns from the SVD, the rows rank.. of V^T transposed.

    A stack of matrices (K x m x k) goes through one stacked SVD and gives a
    Stack of K (rank, N) pairs, ranked when read, with the arrays sing
    (K x min(m, k), descending) and vt (K x k x k); a single matrix is a
    stack of one.  numpy runs a single matrix and a stack through one
    LAPACK routine, so each pair equals the pair of its matrix alone, bit
    for bit.
    """
    A = np.asarray(A, dtype=float)
    one = A.ndim <= 2  # a single matrix is a stack of one
    A = np.atleast_2d(A)[None] if one else A
    # an empty matrix has no singular value and V^T = I, an all-zero one none
    # above 0 = tol_rank * sigma_max: both have rank 0
    _, sing, vt = _svd(A, signature="d->ddd")
    rank = lambda j: int(np.add.reduce(sing[j] > tol.tol_rank * sing[j, :1]))  # noqa: E731
    ranked = Stack(len(A), lambda j: (r := rank(j), vt[j, r:].T.copy()), sing=sing, vt=vt)
    return ranked[0] if one else ranked


def solve_multipliers(G, target, tol: Tolerances):
    """Least-squares solve of G coeffs = target for multiplier columns G.

    Returns (coeffs, residual_norm).  The caller reads residual_norm against
    tol_feas * (1 + ||target||) as "stationarity equation holds"; coeffs are
    unique only when G has full column rank, otherwise this is the
    minimum-norm solution, singular values up to tol_rank * sigma_max
    counting as zero.

    A stack of systems (K x d x k and K x d) gives a Stack of K pairs, with
    the arrays coeffs (K x k) and residuals; a single system is a stack of
    one.  Either way one call of the gufunc that
    np.linalg.lstsq runs on one system solves them all (numpy's lstsq
    refuses stacks), so coeffs equal lstsq's, bit for bit, and LAPACK's
    failure to converge raises LinAlgError as lstsq does.  Each residual is
    the norm of G[k] @ coeffs - target[k], whose bits follow the memory
    layout of G[k] (stacked products keep each system's bits).
    """
    G, target = np.asarray(G, dtype=float), np.asarray(target, dtype=float)[..., None]
    one = G.ndim == 2  # a single system is a stack of one
    G, target = (G[None], target[None]) if one else (G, target)
    coeffs = _lstsq(G, target, tol.tol_rank, signature="ddd->ddid")[0]
    r = G @ coeffs - target
    # each norm as np.linalg.norm takes it, sqrt(r.dot(r)), without its dispatch
    residuals = np.sqrt(r.swapaxes(1, 2) @ r).ravel()
    coeffs = coeffs[..., 0]
    solved = Stack(len(G), lambda j: (coeffs[j], float(residuals[j])), coeffs=coeffs, residuals=residuals)
    return solved[0] if one else solved


def restricted_inertia(H, N, tol: Tolerances):
    """Eigenvalue signs of N' H N for symmetric H and orthonormal columns N.

    Returns (neg, zero, pos) with the zero band [-tol_strict, tol_strict];
    eigenvalues inside the band count as zero, never as pos or neg, so
    near-singular restrictions surface as degeneracy instead of being
    silently classified.

    Stacks of matrices (K x d x d and K x d x r) give a list of K triples
    from stacked products and one stacked eigensolve, each equal to the
    triple of its pair alone; a single pair is a stack of one.
    """
    H, N = np.asarray(H, dtype=float), np.asarray(N, dtype=float)
    one = N.ndim <= 2  # a single pair is a stack of one
    H, N = (H[None], np.atleast_2d(N)[None]) if one else (H, N)
    r = N.shape[-1]
    triples = [(0, 0, 0)] * len(N)
    if r:
        M = N.swapaxes(-1, -2) @ H @ N
        M = 0.5 * (M + M.swapaxes(-1, -2))
        eig = _eigvalsh(M, signature="d->d")
        neg = np.add.reduce(eig < -tol.tol_strict, axis=-1).tolist()
        pos = np.add.reduce(eig > tol.tol_strict, axis=-1).tolist()
        triples = [(a, r - a - b, b) for a, b in zip(neg, pos)]
    return triples[0] if one else triples
