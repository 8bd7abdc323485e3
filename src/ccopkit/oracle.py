"""Brute-force enumeration of stationary points on desk-scale instances.

Every census runs roots -> certify -> report.  A root finder yields
(support, x) per support/active-set pattern: one linear solve per pattern on
quadratic-affine instances, which makes the census exhaustive and the trust
anchor for certification and lift/project, or a multistart damped Newton on
any smooth instance (never exhaustive).  Roots are certified with
certify_m_many, or expanded, in root order, into candidate y: the y of every
(n-s)-subset of the zero pattern, or seeded samples of the y-polytope for
the unregularized reformulation, whose stationary points can form continua.
The (x, y) pairs are certified with certify_t_pairs.  Either side certifies
in batches across roots, each closing once it holds at least _BATCH
candidates, so the per-call set-up is shared while a batch's memory stays
bounded.  Stationary points are then deduplicated and counted by index.

Every T-point lies over an M-point with the same x, so both sides use the
same roots.  They are found once per Problem and (method, grid, tol) and kept
on the Problem (see _shared_roots): an M and a T census of one instance, as
`verify` and `census --side both` run, share one root search.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .ccop import MCertificate, Problem, certify_m_many
from .exprcore import ExprDomainError, eval2, polynomial_degree, to_source
from .numkern import Tolerances
from .regmpoc import AssumptionError, RegularizedProblem, TCertificate, certify_t_pairs, companion_y

__all__ = [
    "CensusReport",
    "GridSpec",
    "census_quadratic",
    "census_t_quadratic",
    "census_newton",
    "merge_censuses",
    "is_quadratic_affine",
    "instance_id",
]


@dataclass
class CensusReport:
    """Census of stationary points: the sparse side, the lifted side, or both.

    by_index_* map an index value (or the string "degenerate") to a point
    count; complete is True only for exhaustive pattern enumerations on
    quadratic-affine instances.
    """

    instance_id: str
    m_points: list[tuple[np.ndarray, MCertificate]] = field(default_factory=list)
    t_points: list[tuple[np.ndarray, np.ndarray, TCertificate]] = field(default_factory=list)
    by_index_m: dict = field(default_factory=dict)
    by_index_t: dict = field(default_factory=dict)
    complete: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class GridSpec:
    """Multistart grid: points per free axis over the box [lo, hi]."""

    points_per_axis: int
    lo: float = -2.0
    hi: float = 2.0


def instance_id(pr: Problem, rp: RegularizedProblem | None = None) -> str:
    parts = [str(pr.n), str(pr.s), to_source(pr.f)]
    parts += [to_source(e) for e in pr.h]
    parts += [to_source(e) for e in pr.g]
    if rp is not None:
        parts += [repr(float(v)) for v in rp.c] + [repr(float(rp.eps))]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


def is_quadratic_affine(pr: Problem) -> bool:
    """True when f is (at most) quadratic and all constraints are affine."""
    df = polynomial_degree(pr.f)
    if df is None or df > 2:
        return False
    for e in (*pr.h, *pr.g):
        d = polynomial_degree(e)
        if d is None or d > 1:
            return False
    return True


def _require_quadratic(pr: Problem, what: str) -> None:
    if not is_quadratic_affine(pr):
        raise ValueError(f"{what} requires a quadratic objective and affine constraints")


# ---------------------------------------------------------------------------
# Pattern systems


def _supports(n: int, s: int):
    for k in range(s + 1):
        yield from itertools.combinations(range(1, n + 1), k)


def _active_sets(m: int):
    for k in range(m + 1):
        yield from itertools.combinations(range(1, m + 1), k)


def _kkt_matrix(H, hgrads, ggrads, jc0) -> np.ndarray:
    """KKT matrix of one pattern: the linear system of a quadratic-affine
    instance and the Newton Jacobian of a general one.  Unknowns are x and one
    multiplier per equality, active inequality and off-support coordinate
    (0-based jc0); H is the Hessian of the Lagrangian."""
    n = H.shape[0]
    grads = [*hgrads, *ggrads]
    size = n + len(grads) + len(jc0)
    M = np.zeros((size, size))
    M[:n, :n] = H
    for k, a in enumerate(grads, start=n):
        M[:n, k] = -a
        M[k, :n] = a
    for k, i0 in enumerate(jc0, start=n + len(grads)):
        M[i0, k] = -1.0
        M[k, i0] = 1.0
    return M


def _quadratic_data(pr: Problem):
    """Jets of f and of every constraint at the origin."""
    x0 = np.zeros(pr.n)
    return eval2(pr.f, x0), [eval2(e, x0) for e in pr.h], [eval2(e, x0) for e in pr.g]


def _linear_system(data, J, act):
    """Matrix and right-hand side of the linear system of one pattern."""
    jf, hj, gj = data
    gj = [gj[q - 1] for q in act]
    jc0 = [i - 1 for i in range(1, jf.gradient.size + 1) if i not in J]
    M = _kkt_matrix(jf.hessian, [j.gradient for j in hj], [j.gradient for j in gj], jc0)
    rhs = np.concatenate([-jf.gradient, [-j.value for j in hj + gj], np.zeros(len(jc0))])
    return M, rhs


def _m_pattern_system(pr: Problem, J, act):
    """Residual and Jacobian of the KKT system of one pattern, as a function."""
    n = pr.n
    mh, ma = len(pr.h), len(act)
    jc0 = [i - 1 for i in range(1, n + 1) if i not in J]
    size = n + mh + ma + len(jc0)

    def eval_f(z):
        x = z[:n]
        lam = z[n : n + mh]
        mu = z[n + mh : n + mh + ma]
        gam = z[n + mh + ma :]
        jf = eval2(pr.f, x)
        hj = [eval2(e, x) for e in pr.h]
        gj = [eval2(pr.g[q - 1], x) for q in act]
        r1 = jf.gradient.copy()
        hess = jf.hessian.copy()
        for k, j in enumerate(hj):
            r1 -= lam[k] * j.gradient
            hess -= lam[k] * j.hessian
        for k, j in enumerate(gj):
            r1 -= mu[k] * j.gradient
            hess -= mu[k] * j.hessian
        r1[jc0] -= gam
        F = np.concatenate([r1, [j.value for j in hj], [j.value for j in gj], x[jc0]])
        JF = _kkt_matrix(hess, [j.gradient for j in hj], [j.gradient for j in gj], jc0)
        return F, JF

    return eval_f, size


# ---------------------------------------------------------------------------
# Root finders: (support, x) per pattern


def _linear_roots(pr: Problem, tol: Tolerances, notes: list[str]):
    """One solve per pattern of a quadratic-affine instance.

    A numerically singular pattern system is skipped with a note: no
    stationary point carries that exact pattern under a constraint
    qualification.  Systems of one size share one stacked SVD and one
    stacked solve, which give each system the bits of its own call; roots
    and notes come in pattern order.
    """
    data = _quadratic_data(pr)
    patterns = [(J, act) for J in _supports(pr.n, pr.s) for act in _active_sets(len(pr.g))]
    systems = [_linear_system(data, J, act) for J, act in patterns]
    sizes: dict[int, list[int]] = {}
    for k, (M, _) in enumerate(systems):
        sizes.setdefault(M.shape[0], []).append(k)
    xs: list = [None] * len(systems)  # None marks a skipped pattern
    for members in sizes.values():
        sing = np.linalg.svd(np.array([systems[k][0] for k in members]), compute_uv=False)
        skip = (sing[:, 0] == 0.0) | (sing[:, -1] <= tol.tol_rank * sing[:, 0])
        kept = [k for k, skipped in zip(members, skip.tolist()) if not skipped]
        if kept:
            M = np.array([systems[k][0] for k in kept])
            rhs = np.array([systems[k][1] for k in kept])
            for k, z in zip(kept, np.linalg.solve(M, rhs[..., None])[..., 0]):
                xs[k] = z[: pr.n]
    for (J, act), x in zip(patterns, xs):
        if x is None:
            notes.append(f"skipped singular pattern support={list(J)} active={list(act)}")
        elif np.all(np.isfinite(x)):
            yield J, x


def _damped_newton(eval_f, z0, tol: Tolerances, max_iter=100, max_halvings=30):
    z = z0.copy()
    try:
        F, JF = eval_f(z)
    except ExprDomainError:
        return z, False
    merit = float(np.linalg.norm(F))
    for _ in range(max_iter):
        if np.max(np.abs(F)) <= tol.tol_feas:
            return z, True
        try:
            dz = np.linalg.solve(JF, -F)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(JF, -F, rcond=None)[0]
        if not np.all(np.isfinite(dz)):
            return z, False
        step = 1.0
        for _ in range(max_halvings):
            try:
                Ft, JFt = eval_f(z + step * dz)
            except ExprDomainError:
                step *= 0.5
                continue
            mt = float(np.linalg.norm(Ft))
            if mt < merit:
                z = z + step * dz
                F, JF, merit = Ft, JFt, mt
                break
            step *= 0.5
        else:
            return z, bool(np.max(np.abs(F)) <= tol.tol_feas)
    return z, bool(np.max(np.abs(F)) <= tol.tol_feas)


def _newton_roots(pr: Problem, grid: GridSpec, tol: Tolerances, notes: list[str]):
    """One damped-Newton run per pattern and grid start over its free axes;
    roots of one pattern closer than 10*tol_act are yielded once."""
    axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
    failures = 0
    for J in _supports(pr.n, pr.s):
        for act in _active_sets(len(pr.g)):
            eval_f, size = _m_pattern_system(pr, J, act)
            roots = []
            for start in itertools.product(axis, repeat=len(J)):
                z0 = np.zeros(size)
                for slot, i in enumerate(J):
                    z0[i - 1] = start[slot]
                z, ok = _damped_newton(eval_f, z0, tol)
                if not ok:
                    failures += 1
                    continue
                x = z[: pr.n]
                if any(np.max(np.abs(x - r)) <= 10.0 * tol.tol_act for r in roots):
                    continue
                roots.append(x)
                yield J, x
    if failures:
        notes.append(f"{failures} Newton starts did not converge")


def _shared_roots(pr: Problem, tol: Tolerances, notes: list[str], grid: GridSpec | None = None):
    """The roots of _linear_roots, or of _newton_roots when a grid is given,
    found once per Problem and (method, grid, tol) and kept on the Problem.

    Both sides of a census share them.  Each call yields copies of the kept
    read-only arrays, then appends the kept notes, as the finder did.
    """
    key = ("linear" if grid is None else "newton", grid, tol)
    if key not in pr._roots:
        found: list[str] = []
        roots = tuple(
            _linear_roots(pr, tol, found) if grid is None else _newton_roots(pr, grid, tol, found)
        )
        for _, x in roots:
            x.flags.writeable = False
        pr._roots[key] = roots, tuple(found)
    roots, kept = pr._roots[key]
    for J, x in roots:
        yield J, x.copy()
    notes.extend(kept)


# ---------------------------------------------------------------------------
# Certification of roots


# A batch of candidates closes once it holds at least this many.  Batching
# shares each certification call's set-up across roots; the bound keeps one
# batch's stacked rows, null bases and Hessians from growing with the census.
# Measured: n=8 censuses run alike at 64, 256 and unbounded batches, while an
# unbounded n=10, s=6 T census peaks at 227 MB against 88 MB at 256.
_BATCH = 256


def _batches(groups):
    """The items of consecutive groups, in order, joined into lists that
    close once they hold at least _BATCH items; a group is never split."""
    batch: list = []
    for group in groups:
        batch += group
        if len(batch) >= _BATCH:
            yield batch
            batch = []
    if batch:
        yield batch


def _m_points(pr: Problem, roots, tol: Tolerances):
    for xs in _batches([x] for _, x in roots):
        for x, cert in zip(xs, certify_m_many(pr, xs, tol)):
            if cert.feasible and cert.stationary:
                yield x, (x, cert)


def _t_points(rp: RegularizedProblem, roots, candidates, tol: Tolerances):
    """The candidates of each root, drawn in root order, certified in batches."""
    groups = ([(x, y) for y in candidates(J, x)] for J, x in roots)
    for pairs in _batches(groups):
        for (x, y), tcert in zip(pairs, certify_t_pairs(rp, pairs, tol)):
            if tcert.feasible and tcert.stationary:
                yield np.concatenate([x, y]), (x, y, tcert)


def _subset_ys(rp: RegularizedProblem):
    """One y per (n-s)-subset of the zero pattern of support J.

    The mid component must carry the largest c of the subset or the sign
    conditions on the upper-bound multipliers are violated.
    """
    n, s = rp.n, rp.s

    def candidates(J, x):
        jc = [i for i in range(1, n + 1) if i not in J]
        for a01set in itertools.combinations(jc, n - s):
            ibar = max(a01set, key=lambda i: rp.c[i - 1])
            yield companion_y(rp, ibar, tuple(i for i in a01set if i != ibar))

    return candidates


def _sampled_ys(rp: RegularizedProblem, tol: Tolerances):
    """Vertices of the y-polytope over the zeros of x, plus three seeded draws."""
    n, s = rp.n, rp.s
    rng = np.random.default_rng(int(instance_id(rp.base, rp), 16) % 2**32)
    upper = 1.0 + rp.eps

    def candidates(J, x):
        zeros = [i for i in range(1, n + 1) if abs(x[i - 1]) <= tol.tol_act]
        if len(zeros) > 14 or len(zeros) * upper < (n - s) - tol.tol_feas:
            return
        for k in range(len(zeros) + 1):
            if k * upper < (n - s) - tol.tol_feas:
                continue
            for sub in itertools.combinations(zeros, k):
                y = np.zeros(n)
                y[[i - 1 for i in sub]] = upper
                yield y
        for _ in range(3):
            draw = rng.uniform(0.0, upper, size=len(zeros))
            deficit = (n - s) - draw.sum()
            if deficit > 0:
                draw = np.clip(draw + deficit / len(zeros), 0.0, upper)
            if draw.sum() < (n - s) - tol.tol_feas:
                continue
            y = np.zeros(n)
            y[[i - 1 for i in zeros]] = draw
            yield y

    return candidates


# ---------------------------------------------------------------------------
# Report


def _index_label(cert) -> object:
    idx = cert.m_index if isinstance(cert, MCertificate) else cert.t_index
    return idx if idx is not None else "degenerate"


# Width of a _dedupe grid cell, in merge radii: a query box of half-width
# 2 * radius crosses a cell boundary in a given coordinate with probability
# about 1/256, so a query visits one cell in most cases.
_CELL_RADII = 1024.0


def _dedupe(entries, radius: float, snap: float, notes: list[str], what: str):
    """Merge points closer than `radius` (inf-norm) with equal index; keep and
    flag close points whose indices differ.

    Entries are visited in lexicographic order of their coordinates, with
    each coordinate within `snap` of 0 read as 0, so rounding noise in a zero
    coordinate does not decide where a point is listed.  Each point meets the
    kept points within radius of it in the order they were kept.  Those are
    found by hashing the kept points on a grid of cells _CELL_RADII * radius
    wide, centred on 0 so that a coordinate within snap of 0 lies well inside
    one: a point within radius of p lies in a cell that p's box of half-width
    2 * radius (radius doubled as a margin for rounding) meets, which is one
    cell per coordinate except where the box crosses a cell boundary.
    """
    if not entries:
        return []
    keys = np.array([key for key, _ in entries])
    snapped = np.where(np.abs(keys) <= snap, 0.0, keys)
    order = np.lexsort(snapped.T[::-1]).tolist()  # stable, first coordinate first
    width = _CELL_RADII * radius
    cells = np.floor(keys / width + 0.5).tolist()
    # the cells a key's box meets run from lows to highs, at most two per coordinate
    lows = np.floor((keys - 2.0 * radius) / width + 0.5)
    highs = np.floor((keys + 2.0 * radius) / width + 0.5)
    crossed = np.count_nonzero(lows != highs, axis=1).tolist()
    grid: dict[tuple, list[int]] = {}  # cell -> positions in out
    kept = np.empty_like(keys)  # keys of out, in order
    out = []
    for i in order:
        key, payload = entries[i]
        label = _index_label(payload[-1])
        keep = True
        if 2 ** crossed[i] > len(out):  # no fewer cells to visit than kept points
            near = list(range(len(out)))
        elif not crossed[i]:
            near = grid.get(tuple(cells[i]), [])
        else:
            ends = zip(lows[i].tolist(), highs[i].tolist())
            box = itertools.product(*[(lo,) if lo == hi else (lo, hi) for lo, hi in ends])
            near = sorted(j for cell in box for j in grid.get(cell, ()))
        if near:
            near = np.array(near)
            near = near[np.max(np.abs(kept[near] - key), axis=1) <= radius].tolist()
        for j in near:
            if _index_label(out[j][-1]) == label:
                keep = False
                break
            notes.append(
                f"manual review: nearby {what} points with differing index at "
                f"{np.round(key, 6).tolist()}"
            )
        if keep:
            grid.setdefault(tuple(cells[i]), []).append(len(out))
            kept[len(out)] = key
            out.append(payload)
    return out


def _count_by_index(certs) -> dict:
    counts: dict = {}
    for cert in certs:
        counts[_index_label(cert)] = counts.get(_index_label(cert), 0) + 1
    ints = sorted(k for k in counts if isinstance(k, int))
    ordered = {k: counts[k] for k in ints}
    if "degenerate" in counts:
        ordered["degenerate"] = counts["degenerate"]
    return ordered


def _report(iid: str, side: str, found, complete: bool, notes: list[str], tol: Tolerances):
    """Deduplicate the (key, point) pairs found on one side and count them."""
    found = list(found)  # runs the root finder, which may still add notes
    # merge within ten activity tolerances; snap the sort key at one
    points = _dedupe(found, 10.0 * tol.tol_act, tol.tol_act, notes, side.upper())
    counts = _count_by_index([p[-1] for p in points])
    if side == "m":
        return CensusReport(iid, m_points=points, by_index_m=counts, complete=complete, notes=notes)
    return CensusReport(iid, t_points=points, by_index_t=counts, complete=complete, notes=notes)


# ---------------------------------------------------------------------------
# Censuses


def census_quadratic(pr: Problem, tol: Tolerances = Tolerances()) -> CensusReport:
    """Exhaustive census of M-stationary points of a quadratic-affine instance."""
    _require_quadratic(pr, "census_quadratic")
    notes: list[str] = []
    found = _m_points(pr, _shared_roots(pr, tol, notes), tol)
    return _report(instance_id(pr), "m", found, True, notes, tol)


def census_t_quadratic(rp: RegularizedProblem, tol: Tolerances = Tolerances()) -> CensusReport:
    """Census of T-stationary points of a quadratic-affine regularization.

    Under the parameter assumption the y-structure of stationary points makes
    the pattern space finite and the census exhaustive.  Under override (the
    unregularized reformulation) stationary points may form continua; the
    census then samples the y-polytope per support pattern and reports
    complete=False.
    """
    _require_quadratic(rp.base, "census_t_quadratic")
    iid = instance_id(rp.base, rp)
    if rp.assumption1_ok:
        notes: list[str] = []
        roots = _shared_roots(rp.base, tol, notes)
        found = _t_points(rp, roots, _subset_ys(rp), tol)
        return _report(iid, "t", found, True, notes, tol)
    if not rp.override:
        raise AssumptionError(
            "regularization parameters violate the assumption; construct with "
            "override=True for the sampling census"
        )
    notes = ["override sampler: y-space sampled per support pattern, census not exhaustive"]
    found = _t_points(rp, _shared_roots(rp.base, tol, []), _sampled_ys(rp, tol), tol)
    return _report(iid, "t", found, False, notes, tol)


def census_newton(target, grid: GridSpec, tol: Tolerances = Tolerances()) -> CensusReport:
    """Multistart damped-Newton census; works on any smooth instance.

    Each support/active-set pattern gets one Newton run per grid start over
    its free axes; converged roots are clustered and certified.  Never
    exhaustive: complete is always False.
    """
    if isinstance(target, RegularizedProblem):
        if not target.assumption1_ok:
            raise AssumptionError(
                "the Newton census on the lifted side requires the (c, eps) assumption; "
                "use census_t_quadratic with override for the unregularized reformulation"
            )
        rp, pr, side = target, target.base, "t"
    else:
        rp, pr, side = None, target, "m"
    iid = instance_id(pr, rp)
    if grid.points_per_axis <= 0:
        return CensusReport(iid, notes=["empty grid"], complete=False)
    notes: list[str] = []
    roots = _shared_roots(pr, tol, notes, grid)
    found = _m_points(pr, roots, tol) if rp is None else _t_points(rp, roots, _subset_ys(rp), tol)
    return _report(iid, side, found, False, notes, tol)


def merge_censuses(m_census: CensusReport, t_census: CensusReport) -> CensusReport:
    """Combine a sparse-side and a lifted-side census over the same instance."""
    return CensusReport(
        instance_id=t_census.instance_id,
        m_points=list(m_census.m_points),
        t_points=list(t_census.t_points),
        by_index_m=dict(m_census.by_index_m),
        by_index_t=dict(t_census.by_index_t),
        complete=m_census.complete and t_census.complete,
        notes=list(m_census.notes) + list(t_census.notes),
    )
