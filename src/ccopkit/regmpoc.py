"""Regularized continuous reformulation with orthogonality-type constraints.

The lifted problem in (x, y) is

    min f(x) + c'y   s.t.  h(x) = 0, g(x) >= 0,
                           sum_i y_i >= n - s,  x_i y_i = 0,
                           0 <= y_i <= 1 + eps,

with regularization vector c and bound relaxation eps > 0.  The parameter
assumption requires positive pairwise-distinct c and eps <= 1/(n-s); the
degenerate choice c = 0, eps = 0 recovers the plain continuous reformulation
and is reachable only through an explicit override.

Certification solves the T-stationarity multiplier system over the 2n-dim
constraint directions, checks the sign and disjunction conditions, the five
nondegeneracy conditions NDT1..NDT5, and reports the T-index as quadratic
index + biactive index; rank, null space and inertia come by the x-block of
the directions per distinct x and the y-block per layout (_y_sing; see
ccop._solve).  certify_t_pairs certifies many (x, y) in one call: the work
that depends on x alone is done once per distinct x, and the pairs are
certified as arrays per layout group, a layout being the number of
multipliers of each kind (see ccop._solve), kept as the columns of a _TBlock
whose rows build whole certificates.  certify_t is its one-pair case.
MPOC-LICQ is NDT1, so check_mpoc_licq and check_feasible_r read fields of
the certificate (_certify_pairs); unlike certification they answer on
parameters that violate the assumption, override or not.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .ccop import (
    FrozenDict,
    Problem,
    _Bank,
    _bank,
    _Block,
    _certified,
    _columns,
    _first_failed,
    _frozen,
    _instance,
    _key,
    _layouts,
    _point,
    _solve,
    _without_certs,
)
from .numkern import Tolerances, rank_and_nullbasis

__all__ = [
    "RegularizedProblem",
    "MpocActivity",
    "TCertificate",
    "AssumptionError",
    "make_regularized",
    "check_feasible_r",
    "check_mpoc_licq",
    "certify_t",
    "certify_t_pairs",
    "check_y_structure",
    "companion_y",
]


class AssumptionError(ValueError):
    """Certification requested on parameters violating the (c, eps) assumption."""


@dataclass(frozen=True, eq=False)
class RegularizedProblem:
    base: Problem
    c: np.ndarray
    eps: float
    assumption1_ok: bool
    override: bool = False

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def s(self) -> int:
        return self.base.s

    @cached_property
    def _certs(self) -> weakref.WeakValueDictionary:
        """T-certificates per (x bits, y bits, tol), filled by ccop._certified."""
        return weakref.WeakValueDictionary()

    @cached_property
    def _y_profile(self) -> np.ndarray:
        """The sorted components of a companion_y, which check_y_structure
        compares every y with; they depend on n, s and eps alone, so they are
        built on first use and kept in the instance, like _certs."""
        profile = np.sort(_companion_ys(self, self.n - self.s - 1, np.arange(self.n - self.s - 1)[None])[0])
        profile.flags.writeable = False
        return profile

    __getstate__ = _without_certs


def make_regularized(
    pr: Problem, c, eps: float, override: bool = False, tol: Tolerances = Tolerances()
) -> RegularizedProblem:
    """Attach regularization parameters to a problem.

    Construction never fails on bad parameters; it records whether the
    assumption (c positive and pairwise distinct, 0 < eps <= 1/(n-s)) holds.
    Downstream certification refuses assumption1_ok=False unless `override`
    is set, which is how the unregularized reformulation is reproduced.
    """
    c = np.asarray(c, dtype=float).copy()
    if c.shape != (pr.n,):
        raise ValueError(f"c has shape {c.shape}, expected ({pr.n},)")
    gaps = [abs(a - b) for i, a in enumerate(c) for b in c[i + 1 :]]
    ok = (
        bool(np.all(c > 0.0))
        and all(gap > tol.tol_strict for gap in gaps)
        and 0.0 < eps <= 1.0 / (pr.n - pr.s)
    )
    c.flags.writeable = False
    return RegularizedProblem(pr, c, float(eps), ok, override)


@dataclass(frozen=True)
class MpocActivity:
    """Orthogonality activity pattern at (x, y), all index sets 1-based.

    a00: x_i = 0 and y_i = 0 (biactive), a01: x_i = 0 and y_i > 0,
    a10: x_i != 0 and y_i = 0; Ecal holds the y-components at the upper
    bound 1 + eps; sum_active marks sum(y) = n - s; Q0 is inherited from
    the base inequalities.
    """

    a00: tuple[int, ...]
    a01: tuple[int, ...]
    a10: tuple[int, ...]
    Ecal: tuple[int, ...]
    sum_active: bool
    Q0: tuple[int, ...]


@dataclass(frozen=True)
class TCertificate:
    """Verdict of T-stationarity certification at one lifted point.

    Multiplier groups are FrozenDicts keyed by 1-based indices (mu1 over
    Q0, mu2 over Ecal, sigma1 over a01, sigma2 over a10, rho1/rho2 over
    a00); mu3 is the multiplier of the summation constraint, structurally 0
    when inactive.  eq8_branches records, per biactive index, which branch
    of the disjunction (rho1 = 0 | rho2 <= 0) holds.  t_index is set only
    when the point is stationary and NDT1..NDT4 all hold; NDT5 is reported
    separately.  Fields are declared in report order, as in MCertificate.

    Certificates are results and read-only: a repeated request for the same
    point and tolerances returns the held certificate itself.  As in
    MCertificate, a certifier builds each one whole from its row of a _Block.
    """

    feasible: bool
    stationary: bool
    activity: MpocActivity
    lam: dict[int, float] = field(default_factory=FrozenDict)
    mu1: dict[int, float] = field(default_factory=FrozenDict)
    mu2: dict[int, float] = field(default_factory=FrozenDict)
    mu3: float = 0.0
    sigma1: dict[int, float] = field(default_factory=FrozenDict)
    sigma2: dict[int, float] = field(default_factory=FrozenDict)
    rho1: dict[int, float] = field(default_factory=FrozenDict)
    rho2: dict[int, float] = field(default_factory=FrozenDict)
    residual: float = float("nan")
    ndt: tuple[bool, bool, bool, bool, bool] = (False,) * 5
    eq8_branches: dict[int, tuple[bool, bool]] = field(default_factory=FrozenDict)
    quadratic_index: int | None = None
    biactive_index: int | None = None
    t_index: int | None = None
    degenerate_reason: str | None = None
    non_unique: bool = False

    @property
    def nondegenerate(self) -> bool:
        """NDT1..NDT4; the additional condition NDT5 is tracked on its own."""
        return self.stationary and all(self.ndt[:4])


def _y(rp: RegularizedProblem, y, ndims=(1,)) -> np.ndarray:
    y = np.asarray(y, dtype=float, order="C")
    if y.ndim not in ndims or y.shape[-1] != rp.n:
        raise ValueError(f"y has shape {y.shape}, expected ({rp.n},)" + f" or (K, {rp.n})" * (2 in ndims))
    return y


@lru_cache(maxsize=64)
def _t_units(n: int) -> tuple[np.ndarray, tuple]:
    """The rows after (grad h_p, 0) and (grad g_q, 0) of the T-side bank in
    R^(2n), x-part first, whose target is (grad f, c): -e_(n+i) (mu2),
    (0, 1) (mu3), e_i (sigma1), e_(n+i) (sigma2), e_i (rho1) and e_(n+i)
    (rho2); and the kinds' shifts (see ccop._solve), rho1 onto sigma1."""
    eye = np.eye(2 * n)
    units = np.concatenate([-eye[n:], [np.repeat([0.0, 1.0], n)], eye, eye])
    units.flags.writeable = False
    return units, (0, 0, None, None, 0, None, -2 * n, None)


@lru_cache(maxsize=64)
def _y_sing(n: int, layout: tuple, overlap: int) -> np.ndarray:
    """The singular values (a read-only row) of the y-block, padded as _solve
    pads it, of each pair of a layout whose Ecal and a00 share `overlap`
    indices; as no row permutation or sign flip changes them, these rows of
    _t_units stand for all: -e_(n+i) over Ecal, (0, 1) if the sum is active,
    e_(n+i) over a00 (from Ecal's last `overlap` on) and a10, e_1 to pad."""
    nh, nq, ne, sa, n01, n10, n00, _ = layout
    start = 2 * n + 1 + ne - overlap  # the bank row of e_(n+i) for the first index of a00
    picked = [*range(ne), *[n] * sa, *range(start, start + n00 + n10)]
    picked += [n + 1] * (nh + nq + n01 + n00 - len(picked))
    sing = rank_and_nullbasis(_t_units(n)[0][None, picked, n:], Tolerances()).sing
    sing.flags.writeable = False
    return sing


@lru_cache(maxsize=64)
def _plan(n: int, s: int, nh: int, ng: int, eps: float, feas: float, act: float) -> tuple:
    """_feasible_r's fixed arrays: a pair's v = w[:, take] - shift (w is [h,
    g, sum(y), x*y, x, y]) is feasible where lo <= v <= hi on [h, g, sum(y),
    x*y, y] and active there on [x, y, y - (1 + eps), sum(y) - (n - s), g]
    (-t <= v <= t is |v| <= t); of the active columns near, near[:, left] &
    (near[:, right] ^ flip) selects the bank rows but h's: Q0, Ecal (x_i =
    0 and y_i = 1 + eps), the sum, a01 (x_i = 0, y_i != 0), a10 and a00."""
    m, i, a = nh + ng, np.arange(n), 3 * n + 1 + ng  # a: the number of active columns
    xy, x, y = m + 1 + i, m + 1 + n + i, m + 1 + 2 * n + i  # columns of w
    take = np.concatenate([np.arange(m + 1), xy, y, x, y, y, [m], np.arange(nh, m)])  # v's, from w's
    shift = np.concatenate([np.zeros(m + 1 + 4 * n), np.full(n, 1.0 + eps), [n - s], np.zeros(ng)])
    lo = np.array([-feas] * m + [(n - s) - feas] + [-feas] * (2 * n) + [-act] * a)
    hi = np.array([feas] * nh + [np.inf] * (ng + 1) + [feas] * n + [1.0 + eps + feas] * n + [act] * a)
    q0, x0, y0, h = 3 * n + 1 + np.arange(ng), i, n + i, np.zeros(nh, dtype=int)  # columns of near
    left = np.concatenate([h, q0, x0, [3 * n], x0, y0, x0, x0])
    right = np.concatenate([h, q0, 2 * n + i, [3 * n], y0, x0, y0, y0])
    flip = np.concatenate([np.zeros(m + n + 1, dtype=bool), np.ones(2 * n, dtype=bool), np.zeros(2 * n, dtype=bool)])
    for array in (take, shift, lo, hi, left, right, flip):
        array.flags.writeable = False
    return take, shift, lo, hi, left, right, flip


def _feasible_r(rp: RegularizedProblem, bank: _Bank, at: np.ndarray, Y: np.ndarray, tol: Tolerances):
    """The feasibility of the pairs (point at[k] of bank, Y[k]), decided by
    one pair of comparisons (see _plan): whether each is feasible, |Ecal &
    a00| per pair (a list; None if no pair shares an index, as under the
    assumption), and its T-stationarity directions by layout (see
    ccop._layouts): the bank rows grad h_p (lam), grad g_q for q in Q0
    (mu1), -e_(n+i) for i in Ecal (mu2), (0, 1) if the sum is active (mu3),
    e_i for i in a01 (sigma1), e_(n+i) for i in a10 (sigma2), and e_i
    (rho1) and e_(n+i) (rho2) for i in a00.

    The same vectors (up to the sign of the mu2 block, which is irrelevant
    for rank and null space) constitute the MPOC-LICQ family and cut out the
    tangent space, so one assembly serves the solve, the rank (NDT1, which
    check_mpoc_licq reads) and the restricted Hessian.
    """
    n, nh, ng = rp.n, len(rp.base.h), len(rp.base.g)
    take, shift, lo, hi, left, right, flip = _plan(n, rp.s, nh, ng, rp.eps, tol.tol_feas, tol.tol_act)
    x = bank.x.take(at, 0)
    w = np.concatenate([bank.values.take(at, 0), np.add.reduce(Y, axis=1, keepdims=True), x * Y, x, Y], axis=1)
    v = w.take(take, 1) - shift
    held = (v >= lo) & (v <= hi)
    f = nh + ng + 1 + 2 * n  # the feasibility columns, then the active ones
    near = held[:, f:]
    sel = near.take(left, 1) & (near.take(right, 1) ^ flip)
    sel[:, :nh] = True
    both = sel[:, nh + ng : nh + ng + n] & sel[:, nh + ng + 1 + 3 * n : nh + ng + 1 + 4 * n]  # Ecal & a00
    overlap = np.add.reduce(both, axis=1).tolist() if np.count_nonzero(both) else None
    ok = np.logical_and.reduce(held[:, :f], axis=1)
    return ok, overlap, _layouts(sel, *_columns(nh, ng, n, 1, n, n, n, n))


def check_feasible_r(
    rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()
) -> tuple[bool, MpocActivity]:
    """Feasibility of (x, y) for the lifted problem, plus its activity
    pattern: the fields of the T-certificate at (x, y), also where the (c,
    eps) assumption fails; x is an array or a PointEval of the base problem."""
    cert = _certify_pairs(rp, [(x, y)], tol)[0]
    return cert.feasible, cert.activity


def check_mpoc_licq(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> bool:
    """Linear independence of the MPOC constraint directions at (x, y): NDT1
    of the T-certificate there, also where the (c, eps) assumption fails."""
    return _certify_pairs(rp, [(x, y)], tol)[0].ndt[0]


def certify_t(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> TCertificate:
    """Certify T-stationarity, NDT1..NDT5 and the T-index at the lifted point;
    x is an array or a PointEval of the base problem.

    Raises AssumptionError when the (c, eps) assumption fails and the
    problem was not constructed with override.  When the constraint
    directions are dependent (NDT1 false) the reported multipliers are the
    minimum-norm solution, flagged non_unique.
    """
    return certify_t_pairs(rp, [(x, y)], tol)[0]


def certify_t_pairs(
    rp: RegularizedProblem, pairs, tol: Tolerances = Tolerances()
) -> list[TCertificate]:
    """certify_t at every (x, y) of `pairs`, x an array or a PointEval of
    the base problem, in one call; equal to
    [certify_t(rp, x, y, tol) for x, y in pairs].

    Each distinct x (by its bits) is evaluated once if a pair over it is
    not held, and never otherwise: only the xs of missed pairs are banked.
    The work that depends on x alone (the h/g feasibility, the row bank,
    the Hessians and the target) is done once; the y-conditions of all
    pairs are evaluated together.  The pairs are certified per layout (nh,
    |Q0|, |Ecal|, sum_active, |a01|, |a10|, |a00|), whatever their x: each
    layout group makes one stacked call of each kernel and reads every flag
    off column slices (see ccop._solve), and a pair repeated in `pairs` is
    certified once.  Raises
    AssumptionError as certify_t does, and ValueError when an x or a y has
    the wrong shape; either raise happens before any certificate is looked
    up or stored.
    """
    if not rp.assumption1_ok and not rp.override:
        raise AssumptionError(
            "regularization parameters violate the positivity/distinctness/eps bound "
            "assumption; construct with override=True to certify anyway"
        )
    return _certify_pairs(rp, pairs, tol)


def _certify_pairs(rp: RegularizedProblem, pairs, tol: Tolerances) -> list[TCertificate]:
    """certify_t_pairs without its refusal of parameters that violate the
    assumption, for the checks, which answer on any parameters.  The missed
    pairs are certified over their distinct xs, in order of first use."""
    xs, ys = [], []
    for x, y in pairs:
        xs.append(_point(rp.base, x))
        ys.append(_y(rp, y))
    keys = [_key(x.x.tobytes(), y, tol) for x, y in zip(xs, ys)]

    def certify(misses: list) -> list:
        first: dict = {}  # bits of a missed x -> (its place among them, its PointEval)
        at = np.array([first.setdefault(keys[k][0], (len(first), xs[k]))[0] for k in misses])
        return _certify_t_pairs(rp, [pe for _, pe in first.values()], at, np.array([ys[k] for k in misses]), tol)

    return _certified(rp._certs, keys, certify)


class _TBlock(_Block):
    """A _Block of T-certificates, whose layout is (nh, |Q0|, |Ecal|,
    sum_active, |a01|, |a10|, |a00|, |a00|): its kinds' column slices end at
    ends; every row has biactive index n00; eq8 holds the columns |rho1| <=
    tol_strict and rho2 <= tol_strict (K x n00) that decided stationarity."""

    prefix = "NDT"

    def build(self, row: int) -> TCertificate:
        feasible, stationary, residual, ndt, quadratic, total, lab, values, *eq8 = self.listed(row)
        nh, e1, e2, e3, e4, e5, e6, _ = self.ends
        pairs, a00 = tuple(zip(lab, values)), lab[e5:e6]
        activity = _instance(MpocActivity, {"a00": a00, "a01": lab[e3:e4], "a10": lab[e4:e5], "Ecal": lab[e1:e2],
                                            "sum_active": e3 > e2, "Q0": lab[nh:e1]})
        return _instance(TCertificate, {
            "feasible": feasible, "stationary": stationary, "activity": activity, "lam": _frozen(pairs[:nh]),
            "mu1": _frozen(pairs[nh:e1]), "mu2": _frozen(pairs[e1:e2]), "mu3": values[e2] if e3 > e2 else 0.0,
            "sigma1": _frozen(pairs[e3:e4]), "sigma2": _frozen(pairs[e4:e5]), "rho1": _frozen(pairs[e5:e6]),
            "rho2": _frozen(pairs[e6:]), "residual": residual, "ndt": ndt,
            "eq8_branches": _frozen(a00 and tuple(zip(a00, zip(*eq8)))), "quadratic_index": quadratic,
            "biactive_index": self.n00, "t_index": total,
            "degenerate_reason": _first_failed(feasible, stationary, residual, ndt, self.prefix),
            "non_unique": not ndt[0],
        })


def _certify_t_pairs(rp: RegularizedProblem, pes: list, at, Y: np.ndarray, tol: Tolerances) -> list[_TBlock]:
    """The pairs (pes[at[k]], Y[k]) certified, pes PointEvals of the base
    problem: one _solve and one _TBlock per layout (nh, |Q0|, |Ecal|,
    sum_active, |a01|, |a10|, |a00|, |a00|), whose members are positions
    among the pairs and whose multipliers are the column slices lam, mu1,
    mu2, mu3, sigma1, sigma2, rho1 and rho2."""
    units, shifts = _t_units(rp.n)
    bank = _bank(pes, units, rp.c, tol)
    ok, overlap, groups = _feasible_r(rp, bank, at, Y, tol)
    ts, blocks = tol.tol_strict, []
    for layout, group, index, labels in groups:
        nh, nq, _, _, _, _, n00, _ = layout
        ys = _y_sing(rp.n, layout, 0) if overlap is None else \
            np.concatenate([_y_sing(rp.n, layout, overlap[k]) for k in group.tolist()])  # one row for all, or one each
        coeffs, residual, residual_ok, ranks, neg, zero = _solve(bank, at.take(group), index, layout, shifts, tol, ys)
        _, e1, e2, e3, e4, e5, e6, _ = ends = tuple(accumulate(layout))  # where each kind's slice ends
        least = np.minimum.reduce(coeffs[:, nh:e3], axis=1, initial=np.inf)  # of mu1, mu2 and an active mu3
        signs, strict = least >= -ts, least > ts
        biactive = a01_ok = [True] * len(group)  # with no biactive index, eq8, NDT3 and NDT5 hold
        eq8 = ()
        if n00:
            big, rho1, rho2 = (size := np.abs(coeffs)) > ts, size[:, e5:e6], coeffs[:, e6:]  # big: |.| > ts
            eq8 = rho1 <= ts, rho2 <= ts  # its two branches per index of a00
            signs &= np.logical_and.reduce(eq8[0] | eq8[1], axis=1)  # eq7 and eq8
            biactive = np.logical_and.reduce(big[:, e5:e6] & (rho2 < -ts), axis=1).tolist()
            a01_ok = np.logical_and.reduce(big[:, e3:e4], axis=1).tolist()
        feasible = ok.take(group)
        stationary = feasible & residual_ok & signs
        flags = list(zip([r == ends[-1] for r in ranks], strict.tolist(), biactive, [z == 0 for z in zero], a01_ok))
        total = [q + n00 if st and all(ndt[:4]) else None for q, st, ndt in zip(neg, stationary.tolist(), flags)]
        blocks.append(_TBlock(group, feasible, stationary, flags, residual, neg, total, coeffs, labels,
                              ends=ends, n00=n00, eq8=eq8))
    return blocks


def _companion_ys(rp: RegularizedProblem, ibar, subsets: np.ndarray) -> np.ndarray:
    """The ys of T-companions, one row per row of subsets (K x k, 0-based):
    1+eps at the row's indices, then 1-(n-s-1)*eps at ibar (0-based, one for
    all rows or one each), zeros elsewhere."""
    rows, Y = np.arange(len(subsets)), np.zeros((len(subsets), rp.n))
    Y[rows[:, None], subsets] = 1.0 + rp.eps
    Y[rows, ibar] = 1.0 - (rp.n - rp.s - 1) * rp.eps
    return Y


def companion_y(rp: RegularizedProblem, ibar: int, ebar) -> np.ndarray:
    """y of a T-companion: 1+eps on Ebar, 1-(n-s-1)*eps at ibar (1-based),
    zeros elsewhere; the one-row case of _companion_ys."""
    return _companion_ys(rp, ibar - 1, np.array([list(ebar)], dtype=int) - 1)[0]


def check_y_structure(rp: RegularizedProblem, y, tol: Tolerances = Tolerances()):
    """Structure every T-stationary y must have under the parameter assumption:

    the components of a companion_y (n-s-1 at 1+eps, one at 1-(n-s-1)*eps, s
    at zero) in some order, and the component sum exactly n-s: a bool for one
    y (n,), K bools for a stack (K, n), by one sort and one sum along rows.  The
    sorted components of a companion_y are kept per problem (_y_profile).
    """
    Y = _y(rp, y, (1, 2))  # C-ordered: each row sums pairwise, with the bits of np.sum(row)
    ok = np.logical_and.reduce(np.abs(np.sort(Y, axis=-1) - rp._y_profile) <= tol.tol_act, axis=-1)
    ok = ok & (np.abs(np.add.reduce(Y, axis=-1) - (rp.n - rp.s)) <= tol.tol_feas)
    return ok if Y.ndim == 2 else bool(ok)
