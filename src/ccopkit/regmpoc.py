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
index + biactive index.  certify_t_pairs certifies many (x, y) in one call:
the work that depends on x alone is done once per distinct x, and the
kernel calls are shared across all pairs.  certify_t_many is its one-x case
and certify_t its one-pair case.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ccop import (
    PointEval,
    Problem,
    _certified,
    _first_failed,
    _independent,
    _key,
    _point,
    _solve,
    _without_certs,
    evaluate,
)
from .numkern import Tolerances

__all__ = [
    "RegularizedProblem",
    "MpocActivity",
    "TCertificate",
    "AssumptionError",
    "make_regularized",
    "check_feasible_r",
    "check_mpoc_licq",
    "certify_t",
    "certify_t_many",
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
        """T-certificates per (point bits, tol), filled by ccop._certified."""
        return weakref.WeakValueDictionary()

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


@dataclass
class TCertificate:
    """Verdict of T-stationarity certification at one lifted point.

    Multiplier dicts are keyed by 1-based indices (mu1 over Q0, mu2 over
    Ecal, sigma1 over a01, sigma2 over a10, rho1/rho2 over a00); mu3 is the
    multiplier of the summation constraint, structurally 0 when inactive.
    eq8_branches records, per biactive index, which branch of the
    disjunction (rho1 = 0 | rho2 <= 0) holds.  t_index is set only when the
    point is stationary and NDT1..NDT4 all hold; NDT5 is reported separately.
    Fields are declared in report order, as in MCertificate.

    Certificates are results: the library never mutates one, and a repeated
    request for the same point and tolerances returns an equal copy.
    """

    feasible: bool
    stationary: bool
    activity: MpocActivity
    lam: dict[int, float] = field(default_factory=dict)
    mu1: dict[int, float] = field(default_factory=dict)
    mu2: dict[int, float] = field(default_factory=dict)
    mu3: float = 0.0
    sigma1: dict[int, float] = field(default_factory=dict)
    sigma2: dict[int, float] = field(default_factory=dict)
    rho1: dict[int, float] = field(default_factory=dict)
    rho2: dict[int, float] = field(default_factory=dict)
    residual: float = float("nan")
    ndt: tuple[bool, bool, bool, bool, bool] = (False,) * 5
    eq8_branches: dict[int, tuple[bool, bool]] = field(default_factory=dict)
    quadratic_index: int | None = None
    biactive_index: int | None = None
    t_index: int | None = None
    degenerate_reason: str | None = None
    non_unique: bool = False

    @property
    def nondegenerate(self) -> bool:
        """NDT1..NDT4; the additional condition NDT5 is tracked on its own."""
        return self.stationary and all(self.ndt[:4])


def _y(rp: RegularizedProblem, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (rp.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({rp.n},)")
    return y


def _feasible_r(
    rp: RegularizedProblem, pe: PointEval, ys: list[np.ndarray], tol: Tolerances
) -> list[tuple[bool, MpocActivity]]:
    """check_feasible_r at every y of ys (checked by _y) over the point of pe.

    What depends on x alone (its zeros, Q0 and the h/g feasibility) is
    found once; the y-conditions are evaluated for all ys together.
    """
    n, eps = rp.n, rp.eps
    Y = np.array(ys, dtype=float).reshape(len(ys), n)
    x0 = (np.abs(pe.x) <= tol.tol_act).tolist()
    y0 = (np.abs(Y) <= tol.tol_act).tolist()
    yup = (np.abs(Y - (1.0 + eps)) <= tol.tol_act).tolist()
    sums = Y.sum(axis=1)
    sum_active = (np.abs(sums - (n - rp.s)) <= tol.tol_act).tolist()
    q0 = tuple(q + 1 for q, j in enumerate(pe.g) if abs(j.value) <= tol.tol_act)
    hg_ok = all(abs(j.value) <= tol.tol_feas for j in pe.h) and all(
        j.value >= -tol.tol_feas for j in pe.g
    )
    in_bounds = (
        (np.abs(pe.x * Y) <= tol.tol_feas) & (Y >= -tol.tol_feas) & (Y <= 1.0 + eps + tol.tol_feas)
    )
    ok = ((sums >= (n - rp.s) - tol.tol_feas) & in_bounds.all(axis=1)).tolist()

    out = []
    for y_ok, active, zeros, uppers in zip(ok, sum_active, y0, yup):
        a00, a01, a10, ecal = [], [], [], []
        for i, x_zero, y_zero, y_up in zip(range(1, n + 1), x0, zeros, uppers):
            if x_zero:
                (a00 if y_zero else a01).append(i)
                if y_up:
                    ecal.append(i)
            elif y_zero:
                a10.append(i)
        act = MpocActivity(tuple(a00), tuple(a01), tuple(a10), tuple(ecal), active, q0)
        out.append((hg_ok and y_ok, act))
    return out


def check_feasible_r(
    rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()
) -> tuple[bool, MpocActivity]:
    """Feasibility of (x, y) for the lifted problem, plus its activity pattern;
    x is an array or a PointEval of the base problem."""
    pe = evaluate(rp.base, x)
    return _feasible_r(rp, pe, [_y(rp, y)], tol)[0]


def _stationarity_families(rp: RegularizedProblem, pe: PointEval, acts) -> list:
    """Directions of the T-stationarity system in R^(2n), x-part first, with
    their multipliers, as one (labels, rows) per activity pattern over the
    point of pe (see ccop._solve).

    The same vectors (up to the sign of the mu2 block, which is irrelevant
    for rank and null space) constitute the MPOC-LICQ family and cut out the
    tangent space, so one assembly serves the solve, the CQ test and the
    restricted Hessian.  Every row is taken from one bank per point:
    (grad h_p, 0), (grad g_q, 0), -e_(n+i), (0, 1), e_i and e_(n+i).
    """
    n, nh = rp.n, len(pe.h)
    m = nh + len(pe.g)  # gradient rows, then unit rows
    eye = np.eye(2 * n)
    bank = np.zeros((m + 3 * n + 1, 2 * n))
    for r, j in enumerate((*pe.h, *pe.g)):
        bank[r, :n] = j.gradient
    bank[m : m + n] = -eye[n:]
    bank[m + n, n:] = 1.0
    bank[m + n + 1 :] = eye
    # the bank row of label (kind, i) is first[kind] + i
    first = dict(lam=-1, mu1=nh - 1, mu2=m - 1, mu3=m + n, sigma1=m + n, rho1=m + n)
    first.update(sigma2=m + 2 * n, rho2=m + 2 * n)
    families = []
    for act in acts:
        labels = [("lam", p) for p in range(1, nh + 1)] + [("mu1", q) for q in act.Q0]
        labels += [("mu2", i) for i in act.Ecal] + ([("mu3", 0)] if act.sum_active else [])
        labels += [("sigma1", i) for i in act.a01] + [("sigma2", i) for i in act.a10]
        labels += [("rho1", i) for i in act.a00] + [("rho2", i) for i in act.a00]
        families.append((labels, bank[[first[kind] + i for kind, i in labels]]))
    return families


def check_mpoc_licq(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> bool:
    """Linear independence of the MPOC constraint directions at (x, y)."""
    pe = evaluate(rp.base, x)
    _, act = _feasible_r(rp, pe, [_y(rp, y)], tol)[0]
    return _independent(_stationarity_families(rp, pe, [act])[0][1], tol)[0]


def certify_t(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> TCertificate:
    """Certify T-stationarity, NDT1..NDT5 and the T-index at the lifted point;
    x is an array or a PointEval of the base problem.

    Raises AssumptionError when the (c, eps) assumption fails and the
    problem was not constructed with override.  When the constraint
    directions are dependent (NDT1 false) the reported multipliers are the
    minimum-norm solution, flagged non_unique.
    """
    return certify_t_pairs(rp, [(x, y)], tol)[0]


def certify_t_many(
    rp: RegularizedProblem, x, ys, tol: Tolerances = Tolerances()
) -> list[TCertificate]:
    """certify_t at every y of `ys` over one x (an array or a PointEval of
    the base problem), in one call: the one-x case of certify_t_pairs."""
    return certify_t_pairs(rp, [(x, y) for y in ys], tol)


def certify_t_pairs(
    rp: RegularizedProblem, pairs, tol: Tolerances = Tolerances()
) -> list[TCertificate]:
    """certify_t at every (x, y) of `pairs`, x an array or a PointEval of
    the base problem, in one call; equal to
    [certify_t(rp, x, y, tol) for x, y in pairs].

    Each distinct x (by its bits) is evaluated once if a pair over it is
    not held, and never otherwise.  The work that depends on x alone (its
    zeros, the h/g feasibility, the row bank and the target) is done once;
    the y-conditions over one x are evaluated together.  Candidates whose constraint directions have one shape share
    one stacked SVD and one stacked eigensolve, whatever their x (see
    ccop._solve), and a pair repeated in `pairs` is certified once.  Raises
    AssumptionError as certify_t does, and ValueError when an x or a y has
    the wrong shape; either raise happens before any certificate is looked
    up or stored.
    """
    if not rp.assumption1_ok and not rp.override:
        raise AssumptionError(
            "regularization parameters violate the positivity/distinctness/eps bound "
            "assumption; construct with override=True to certify anyway"
        )
    # an x shared by several pairs is checked, and so copied, once; a copy per
    # pair left the n=10, s=6 T census with about 1 MB more peak RSS
    seen: dict[int, tuple] = {}  # id(x) -> (x, key of x); x is held, so its id stays its own
    points: dict[tuple, PointEval] = {}  # key of x -> the first checked x with it
    owners, ys, keys = [], [], []
    for x, y in pairs:
        if id(x) not in seen:
            checked = _point(rp.base, x)
            seen[id(x)] = x, _key(checked)
            points.setdefault(seen[id(x)][1], checked)
        xkey, y = seen[id(x)][1], _y(rp, y)
        owners.append(xkey)
        ys.append(y)
        keys.append((*xkey, y.shape, y.tobytes(), tol))  # _key(x, y.shape, y.tobytes(), tol)
    return _certified(rp._certs, keys, _certify_t_pairs, rp, points, owners, ys, tol)


_KINDS = ("lam", "mu1", "mu2", "mu3", "sigma1", "sigma2", "rho1", "rho2")


def _certify_t_pairs(
    misses, rp: RegularizedProblem, points: dict, owners: list, ys: list, tol: Tolerances
) -> list[TCertificate]:
    """The certificates at the pairs listed in misses (see ccop._certified):
    the pair at position k is (points[owners[k]], ys[k])."""
    over: dict[tuple, list[int]] = {}  # key of x -> places in misses, in order
    for place, k in enumerate(misses):
        over.setdefault(owners[k], []).append(place)
    places, checked, families = [], [], []
    for xkey, members in over.items():
        pe = evaluate(rp.base, points[xkey])
        target = np.concatenate([pe.f.gradient, rp.c])
        here = _feasible_r(rp, pe, [ys[misses[place]] for place in members], tol)
        for labels, rows in _stationarity_families(rp, pe, [act for _, act in here]):
            families.append((pe, labels, rows, target))
        places += members
        checked += here
    solved = _solve(families, _KINDS, "mu1", tol)
    out: list = [None] * len(misses)
    for place, pair, result in zip(places, checked, solved):
        out[place] = _t_certificate(*pair, *result, tol)
    return out


def _t_certificate(
    feasible, act: MpocActivity, groups, residual, residual_ok, licq, neg, zero, tol: Tolerances
) -> TCertificate:
    mu3 = groups.pop("mu3").get(0, 0.0)

    ts = tol.tol_strict
    eq7 = (
        all(v >= -ts for v in groups["mu1"].values())
        and all(v >= -ts for v in groups["mu2"].values())
        and (mu3 >= -ts if act.sum_active else True)
    )
    eq8_branches = {
        i: (abs(groups["rho1"][i]) <= ts, groups["rho2"][i] <= ts) for i in act.a00
    }
    eq8 = all(b1 or b2 for b1, b2 in eq8_branches.values())
    stationary = feasible and residual_ok and eq7 and eq8

    ndt = (
        licq,
        all(v > ts for v in groups["mu1"].values())
        and all(v > ts for v in groups["mu2"].values())
        and (mu3 > ts if act.sum_active else True),
        all(abs(groups["rho1"][i]) > ts and groups["rho2"][i] < -ts for i in act.a00),
        zero == 0,
        len(act.a00) == 0 or all(abs(v) > ts for v in groups["sigma1"].values()),
    )
    bi = len(act.a00)

    return TCertificate(
        feasible=feasible,
        stationary=stationary,
        activity=act,
        mu3=mu3,
        **groups,
        residual=residual,
        ndt=ndt,
        eq8_branches=eq8_branches,
        quadratic_index=neg,
        biactive_index=bi,
        t_index=neg + bi if (stationary and all(ndt[:4])) else None,
        degenerate_reason=_first_failed(feasible, stationary, residual, ndt, "NDT"),
        non_unique=not licq,
    )


def companion_y(rp: RegularizedProblem, ibar: int, ebar) -> np.ndarray:
    """y of a T-companion: 1+eps on Ebar, 1-(n-s-1)*eps at ibar, zeros elsewhere."""
    y = np.zeros(rp.n)
    for i in ebar:
        y[i - 1] = 1.0 + rp.eps
    y[ibar - 1] = 1.0 - (rp.n - rp.s - 1) * rp.eps
    return y


def check_y_structure(rp: RegularizedProblem, y, tol: Tolerances = Tolerances()) -> bool:
    """Structure every T-stationary y must have under the parameter assumption:

    the components of a companion_y (n-s-1 at 1+eps, one at 1-(n-s-1)*eps, s
    at zero) in some order, and the component sum exactly n-s.
    """
    y = np.asarray(y, dtype=float)
    n, s = rp.n, rp.s
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    expected = np.sort(companion_y(rp, n - s, range(1, n - s)))
    got = np.sort(y)
    return bool(np.all(np.abs(got - expected) <= tol.tol_act)) and abs(
        float(np.sum(y)) - (n - s)
    ) <= tol.tol_feas
