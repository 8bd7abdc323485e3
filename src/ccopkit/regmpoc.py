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
index + biactive index.
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
    _stack,
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


def _activity_r(rp: RegularizedProblem, pe: PointEval, y, tol: Tolerances) -> MpocActivity:
    n = rp.n
    x0 = np.abs(pe.x) <= tol.tol_act
    y0 = np.abs(y) <= tol.tol_act
    yup = np.abs(y - (1.0 + rp.eps)) <= tol.tol_act
    a00 = tuple(i + 1 for i in range(n) if x0[i] and y0[i])
    a01 = tuple(i + 1 for i in range(n) if x0[i] and not y0[i])
    a10 = tuple(i + 1 for i in range(n) if not x0[i] and y0[i])
    ecal = tuple(i + 1 for i in range(n) if x0[i] and yup[i])
    sum_active = abs(float(np.sum(y)) - (n - rp.s)) <= tol.tol_act
    q0 = tuple(q + 1 for q, j in enumerate(pe.g) if abs(j.value) <= tol.tol_act)
    return MpocActivity(a00, a01, a10, ecal, sum_active, q0)


def _y(rp: RegularizedProblem, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (rp.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({rp.n},)")
    return y


def check_feasible_r(
    rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()
) -> tuple[bool, MpocActivity]:
    """Feasibility of (x, y) for the lifted problem, plus its activity pattern;
    x is an array or a PointEval of the base problem."""
    pe = evaluate(rp.base, x)
    y = _y(rp, y)
    act = _activity_r(rp, pe, y, tol)
    ok = (
        all(abs(j.value) <= tol.tol_feas for j in pe.h)
        and all(j.value >= -tol.tol_feas for j in pe.g)
        and float(np.sum(y)) >= (rp.n - rp.s) - tol.tol_feas
        and bool(np.all(np.abs(pe.x * y) <= tol.tol_feas))
        and bool(np.all(y >= -tol.tol_feas))
        and bool(np.all(y <= 1.0 + rp.eps + tol.tol_feas))
    )
    return ok, act


def _stationarity_family(rp: RegularizedProblem, act: MpocActivity, pe: PointEval):
    """Directions of the T-stationarity system in R^(2n), x-part first, with
    their multipliers.

    The same vectors (up to the sign of the mu2 block, which is irrelevant
    for rank and null space) constitute the MPOC-LICQ family and cut out the
    tangent space, so one assembly serves the solve, the CQ test and the
    restricted Hessian.
    """
    n = rp.n
    eye, zero = np.eye(2 * n), np.zeros(n)
    family = [("lam", p, np.concatenate([j.gradient, zero])) for p, j in enumerate(pe.h, start=1)]
    family += [("mu1", q, np.concatenate([pe.g[q - 1].gradient, zero])) for q in act.Q0]
    family += [("mu2", i, -eye[n + i - 1]) for i in act.Ecal]
    family += [("mu3", 0, np.concatenate([zero, np.ones(n)]))] if act.sum_active else []
    family += [("sigma1", i, eye[i - 1]) for i in act.a01]
    family += [("sigma2", i, eye[n + i - 1]) for i in act.a10]
    family += [("rho1", i, eye[i - 1]) for i in act.a00]
    return family + [("rho2", i, eye[n + i - 1]) for i in act.a00]


def check_mpoc_licq(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> bool:
    """Linear independence of the MPOC constraint directions at (x, y)."""
    pe = evaluate(rp.base, x)
    act = _activity_r(rp, pe, np.asarray(y, dtype=float), tol)
    return _independent(_stack(_stationarity_family(rp, act, pe), 2 * rp.n), tol)[0]


def certify_t(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> TCertificate:
    """Certify T-stationarity, NDT1..NDT5 and the T-index at the lifted point;
    x is an array or a PointEval of the base problem.

    Raises AssumptionError when the (c, eps) assumption fails and the
    problem was not constructed with override.  When the constraint
    directions are dependent (NDT1 false) the reported multipliers are the
    minimum-norm solution, flagged non_unique.
    """
    if not rp.assumption1_ok and not rp.override:
        raise AssumptionError(
            "regularization parameters violate the positivity/distinctness/eps bound "
            "assumption; construct with override=True to certify anyway"
        )
    x, y = _point(rp.base, x), _y(rp, y)
    key = _key(x, y.shape, y.tobytes(), tol)
    return _certified(rp._certs, key, _certify_t, rp, x, y, tol)


def _certify_t(rp: RegularizedProblem, x, y: np.ndarray, tol: Tolerances) -> TCertificate:
    pe = evaluate(rp.base, x)
    feasible, act = check_feasible_r(rp, pe, y, tol)
    target = np.concatenate([pe.f.gradient, rp.c])
    kinds = ("lam", "mu1", "mu2", "mu3", "sigma1", "sigma2", "rho1", "rho2")
    groups, residual, residual_ok, licq, neg, zero = _solve(
        pe, _stationarity_family(rp, act, pe), kinds, "mu1", target, tol
    )
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
        raise ValueError(f"point has shape {y.shape}, expected ({n},)")
    expected = np.sort(companion_y(rp, n - s, range(1, n - s)))
    got = np.sort(y)
    return bool(np.all(np.abs(got - expected) <= tol.tol_act)) and abs(
        float(np.sum(y)) - (n - s)
    ) <= tol.tol_feas
