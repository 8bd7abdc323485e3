"""Correspondence between M-stationary points and their lifted T-companions.

An M-stationary x with vanishing set I0 lifts to one T-stationary (x, y) per
index subset Ebar of I0 \\ {ibar} with n-s-1 elements, where ibar maximizes
c over I0: y carries 1+eps on Ebar, 1-(n-s-1)*eps at ibar, zeros elsewhere,
and the companion multipliers are available in closed form from c and the
M-multipliers.  Projection maps a T-stationary (x, y) back by reading gamma
off sigma1 (a01) and rho1 (a00).  Nondegenerate inputs preserve the index in
both directions, which verify_counts checks against a census together with
the binomial companion count and the minimizer/mountain-pass inequalities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ccop import MCertificate, _point, certify_m
from .numkern import Tolerances
from .oracle import _MERGE_TOLS, _Points
from .regmpoc import (
    AssumptionError,
    RegularizedProblem,
    TCertificate,
    _companion_ys,
    certify_t,
    certify_t_pairs,
)

__all__ = [
    "LiftSet",
    "CountCheck",
    "CountReport",
    "NotStationaryError",
    "BridgeError",
    "lift",
    "project",
    "verify_counts",
]

_CROSS_TOL = 1e-8


class NotStationaryError(ValueError):
    """Operation requires a stationary input point."""


class BridgeError(RuntimeError):
    """A correspondence guarantee failed numerically; indicates a bug or a
    tolerance breakdown, never a routine negative verdict."""


@dataclass
class LiftSet:
    """All T-stationary companions of one M-stationary base point."""

    base_point: np.ndarray
    base_certificate: MCertificate
    ibar: int
    subsets: tuple[tuple[int, ...], ...]
    companions: list[tuple[np.ndarray, TCertificate]]
    expected_count: int
    count_applicable: bool  # exact count asserted only for nondegenerate bases


def _mismatch(*checks) -> str | None:
    """The text naming the first entry, in the order of `checks`, that the
    solved values lack or that differs from the closed form by more than
    _CROSS_TOL, or None if there is none.  A check is (label, expected,
    got): a float compared with the float got, or (index, value) pairs
    compared with the dict got by index.  A NaN difference passes, since
    abs(nan) > tol is false."""
    for label, expected, got in checks:
        if isinstance(expected, float):
            if abs(expected - got) > _CROSS_TOL:
                return f"closed-form {label}={expected!r} vs solved {got!r}"
            continue
        for i, v in expected:
            gv = got.get(i)
            if gv is None or abs(gv - v) > _CROSS_TOL:
                return f"closed-form {label}[{i}]={v!r} vs solved {gv!r}"
    return None


def lift(rp: RegularizedProblem, x, tol: Tolerances = Tolerances()) -> LiftSet:
    """Enumerate every T-stationary companion of an M-stationary x (an array
    or a PointEval of the base problem).

    Requires the (c, eps) assumption: the maximizing index ibar is then
    unique, the construction is deterministic (subsets in lexicographic
    order) and every companion certifies T-stationary with the closed-form
    multipliers matching the independently solved ones.
    """
    if not rp.assumption1_ok:
        raise AssumptionError(
            "lift requires positive pairwise-distinct c and 0 < eps <= 1/(n-s); "
            "the maximizing index would otherwise be ill-defined"
        )
    pe = _point(rp.base, x)  # evaluated only if a certificate is missing
    n, s = rp.n, rp.s
    mcert = certify_m(rp.base, pe, tol)
    if not mcert.stationary:
        raise NotStationaryError(f"point is not M-stationary ({mcert.degenerate_reason})")
    i0, norm0 = mcert.activity.I0, mcert.activity.x_norm0  # norm0 <= s: a stationary point is feasible
    expected = math.comb(n - norm0 - 1, n - s - 1)
    if expected > 2**63 - 1:
        raise OverflowError(f"companion count binom({n - norm0 - 1}, {n - s - 1}) exceeds 64-bit range")

    c = rp.c.tolist()
    ibar = max(i0, key=lambda i: c[i - 1])
    rest = sorted(set(i0) - {ibar})
    subsets = tuple(itertools.combinations(rest, n - s - 1))
    ys = _companion_ys(rp, ibar - 1, np.array(subsets, dtype=int) - 1)  # one row per Ebar, of n - s - 1 indices
    # the closed forms (see _mismatch): lam, mu1, mu3, sigma2 each companion's; mu2 over Ebar, sigma1 a01, rho a00
    lam, mu1, gamma, cbar, vanish = mcert.lam.items(), mcert.mu.items(), mcert.gamma, c[ibar - 1], set(i0)
    sigma2 = [(i, c[i - 1] - cbar) for i in range(1, n + 1) if i not in vanish]
    companions: list[tuple[np.ndarray, TCertificate]] = []
    for ebar, y, tcert in zip(subsets, ys, certify_t_pairs(rp, [(pe, y) for y in ys], tol)):
        if not tcert.stationary or tcert.residual > _CROSS_TOL:
            raise BridgeError(
                f"constructed companion failed to certify (Ebar={ebar}, "
                f"reason={tcert.degenerate_reason}, residual={tcert.residual:.3e})"
            )
        if mcert.ndm[0] and tcert.ndt[0]:
            a01 = sorted((*ebar, ibar))
            a00 = sorted(vanish.difference(a01))
            bad = _mismatch(("lam", lam, tcert.lam), ("mu1", mu1, tcert.mu1),
                            ("mu2", [(i, cbar - c[i - 1]) for i in ebar], tcert.mu2), ("mu3", cbar, tcert.mu3),
                            ("sigma1", [(i, gamma[i]) for i in a01], tcert.sigma1), ("sigma2", sigma2, tcert.sigma2),
                            ("rho1", [(i, gamma[i]) for i in a00], tcert.rho1),
                            ("rho2", [(i, c[i - 1] - cbar) for i in a00], tcert.rho2))
            if bad:
                raise BridgeError(f"lift Ebar={ebar}: {bad}")
        companions.append((y, tcert))

    return LiftSet(base_point=pe.x, base_certificate=mcert, ibar=ibar, subsets=subsets, companions=companions,
                   expected_count=expected, count_applicable=mcert.nondegenerate)


def project(rp: RegularizedProblem, x, y, tol: Tolerances = Tolerances()) -> MCertificate:
    """Project a T-stationary (x, y) down to an M-certificate for x (an
    array or a PointEval of the base problem).

    Under qualification on both sides the mapped multipliers (gamma read off
    sigma1 on a01 and rho1 on a00) must equal the independently solved ones;
    when the input is nondegenerate and satisfies NDT5, the projected point
    must be nondegenerate with matching index.  Violations raise BridgeError.
    """
    pe = _point(rp.base, x)  # evaluated only if a certificate is missing
    if not rp.assumption1_ok and not rp.override:
        pe.f  # an undefined point is reported before the parameters
    tcert = certify_t(rp, pe, y, tol)
    if not tcert.stationary:
        raise NotStationaryError(
            f"point is not T-stationary ({tcert.degenerate_reason})"
        )
    mcert = certify_m(rp.base, pe, tol)
    if not mcert.stationary:
        raise BridgeError("projection of a T-stationary point failed to be M-stationary")

    if mcert.ndm[0] and tcert.ndt[0]:
        # gamma is read off sigma1 on a01 and rho1 on a00, which are disjoint
        bad = _mismatch(("lam", tcert.lam.items(), mcert.lam), ("mu", tcert.mu1.items(), mcert.mu),
                        ("gamma", tcert.sigma1.items(), mcert.gamma), ("gamma", tcert.rho1.items(), mcert.gamma))
        if bad:
            raise BridgeError(f"project: {bad}")

    if tcert.nondegenerate and tcert.ndt[4]:
        if not mcert.nondegenerate:
            raise BridgeError(
                f"nondegenerate input with nonvanishing a01 multipliers projected to a "
                f"degenerate point ({mcert.degenerate_reason})"
            )
        if mcert.m_index != tcert.t_index:
            raise BridgeError(
                f"index not preserved under projection: {mcert.m_index} != {tcert.t_index}"
            )
    return mcert


@dataclass
class CountCheck:
    name: str
    status: str  # pass | fail | n/a
    detail: str


@dataclass
class CountReport:
    checks: list[CountCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _rounded(vectors, n: int) -> list[list[float]]:
    """np.round(v, 6).tolist() of each length-n vector v, from one call over
    them stacked; rounding is elementwise, so each row has the same bits."""
    return np.round(np.reshape(vectors, (len(vectors), n)), 6).tolist()


def verify_counts(rp: RegularizedProblem, census, tol: Tolerances = Tolerances()) -> CountReport:
    """Check the counting identities of a two-sided census.

    (a) every nondegenerate M-point has exactly binom(n-k-1, n-s-1)
        T-points above it (k its nonzero count): those whose x has its
        bits, and those within the merge radius whose x matches no
        M-point, (b) that binomial equals
        binom(n-k-1, s-k), (c) minimizer counts agree on both sides,
        (d) index-1 points are at least minimizers minus one.
    Exact-count checks are n/a on incomplete censuses.
    """
    n, s = rp.n, rp.s
    report = CountReport()

    if not census.m_points or not census.t_points:
        report.checks.append(
            CountCheck("census-sides", "n/a", "census does not cover both sides")
        )
        return report

    m, t = _Points.of(census.m_points), _Points.of(census.t_points)  # columns; index None unless nondegenerate
    if census.complete:
        # a T-point belongs to the M-point whose x has its bits (both come
        # from one root); one whose x matches no M-point counts for every
        # M-point within the merge radius
        m_bits = {xm.tobytes() for xm in m.x}
        owned: dict[bytes, int] = {}
        strays = []
        for xt in t.x:
            bits = xt.tobytes()
            if bits in m_bits:
                owned[bits] = owned.get(bits, 0) + 1
            else:
                strays.append(xt)
        strays = np.array(strays).reshape(len(strays), n)
        for xm, index, k, label in zip(m.x, m.index, m.norm0, _rounded(m.x, n)):
            if index is None:  # a census point is stationary: nondegenerate is an index
                continue
            want = math.comb(n - k - 1, n - s - 1)
            near = np.max(np.abs(strays - xm), axis=1) <= _MERGE_TOLS * tol.tol_act
            got = owned.get(xm.tobytes(), 0) + int(np.count_nonzero(near))
            status = "pass" if got == want else "fail"
            report.checks.append(
                CountCheck(
                    "companion-count",
                    status,
                    f"x={label} expected {want} companions, found {got}",
                )
            )
    else:
        report.checks.append(
            CountCheck("companion-count", "n/a", "census incomplete; exact counts not asserted")
        )

    for k in sorted(set(m.norm0)):
        lhs = math.comb(n - k - 1, n - s - 1)
        rhs = math.comb(n - k - 1, s - k) if s >= k else None
        status = "pass" if lhs == rhs else "fail"
        report.checks.append(
            CountCheck(
                "binomial-identity",
                status,
                f"nonzero count {k}: binom({n - k - 1},{n - s - 1})={lhs}, "
                f"binom({n - k - 1},{s - k})={rhs}",
            )
        )

    if census.complete:
        m0, t0, t1 = m.index.count(0), t.index.count(0), t.index.count(1)
        report.checks.append(
            CountCheck(
                "minimizer-count",
                "pass" if m0 == t0 else "fail",
                f"M-index 0 count {m0}, T-index 0 count {t0}",
            )
        )
        report.checks.append(
            CountCheck(
                "mountain-pass",
                "pass" if t1 >= t0 - 1 else "fail",
                f"T-index 1 count {t1} >= {t0} - 1",
            )
        )
    else:
        report.checks.append(
            CountCheck("minimizer-count", "n/a", "census incomplete"),
        )
        report.checks.append(
            CountCheck("mountain-pass", "n/a", "census incomplete"),
        )
    return report
