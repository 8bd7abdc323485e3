"""Brute-force enumeration of stationary points on desk-scale instances.

Every census runs roots -> certify -> report.  A root finder yields
(support, x) per support/active-set pattern of _patterns: one linear solve
per pattern on quadratic-affine instances, which makes the census
exhaustive and the trust anchor for certification and lift/project, or a
multistart damped Newton on any smooth instance (never exhaustive).  Both
assemble the KKT systems of one support size and active set in one
_kkt_matrix call and solve them stacked; the Newton runs of a batch advance
in lockstep, evaluating f and h once per round (eval2_many) and each g_q
only where q is active, and end with the bits of a run alone.

Roots are certified as certify_m_many certifies them, or expanded, in root
order, into candidate y, one array of rows per root: the y of every
(n-s)-subset of the zero pattern, assembled as lift's (_companion_ys), or
seeded samples of the y-polytope for the unregularized reformulation, whose
stationary points can form continua.  The (x, y) pairs are certified as
certify_t_pairs certifies them.  Either side certifies in batches across
roots, each closing once it holds at least _BATCH candidates, so the
per-call set-up is shared while a batch's memory stays bounded.  A census
keeps what certification returns, columns per layout group (ccop._Block),
and builds no certificate: the stationary points are merged within
_MERGE_TOLS activity tolerances and counted by index off the columns, kept
as _Points, and entered in the problem's memo, and a point's certificate is
built when the point is first read.

Every T-point lies over an M-point with the same x, so both sides use the
same roots.  They are found once per Problem and (method, grid, tol) and kept
on the Problem with their jets (see _shared_roots): an M and a T census of
one instance, as `verify` and `census --side both` run, share one root
search and one evaluation of each root.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import ccop, regmpoc
from .ccop import Problem, _carrying, _entered, _jets_at, _jets_many, _key, _Row
from .exprcore import eval2, polynomial_degree, to_source
from .numkern import Tolerances
from .regmpoc import AssumptionError, RegularizedProblem

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


class _Points(Sequence):
    """The points a census keeps, in order: a read-only sequence of (x,
    cert) on the M side and of (x, y, cert) on the T side, x the root's kept
    read-only x.  They are kept as columns: x, y (a read-only N x n array;
    None on the M side), index (each m_index or t_index, None where the
    certificate has none) and norm0 (each x_norm0; None on the T side).  A
    row is a ccop._Row, whose certificate, built whole on the first read of
    its point, is the one every later read and memo hit returns, or a
    certificate.  reasons reads the degenerate_reason of every point off
    its row, building no certificate.  A slice is a list of points."""

    def __init__(self, rows: list, x: list, y, index: list, norm0):
        self._rows, self.x, self.y, self.index, self.norm0 = rows, x, y, index, norm0

    @classmethod
    def of(cls, points) -> _Points:
        """points itself if it is _Points, else its (x, cert) or (x, y, cert)
        tuples read into columns."""
        if isinstance(points, _Points):
            return points
        points = list(points)
        x, certs = [p[0] for p in points], [p[-1] for p in points]
        if points and len(points[0]) == 3:
            return cls(certs, x, np.array([p[1] for p in points]), [c.t_index for c in certs], None)
        return cls(certs, x, None, [c.m_index for c in certs], [c.activity.x_norm0 for c in certs])

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        cert = row.cert() if type(row := self._rows[k]) is _Row else row
        return (self.x[k], cert) if self.y is None else (self.x[k], self.y[k], cert)

    def __iter__(self):  # __getitem__'s points, without a call per point
        certs = (row.cert() if type(row) is _Row else row for row in self._rows)
        return zip(self.x, certs) if self.y is None else zip(self.x, self.y, certs)

    def __eq__(self, other):  # arrays by their bits: == on two equal arrays has no truth value
        if not isinstance(other, (_Points, list)):
            return NotImplemented
        return _bits(self) == _bits(other)

    def __reduce__(self):  # the rows refer to the memo, which does not pickle
        return _Points.of, (list(self),)

    def reasons(self) -> list:
        return [row.reason() if type(row) is _Row else row.degenerate_reason for row in self._rows]


def _bits(points) -> list:
    """Each point of points as a tuple, its arrays replaced by their bytes."""
    return [tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in point) for point in points]


def _no_points() -> _Points:
    return _Points([], [], None, [], [])


@dataclass
class CensusReport:
    """Census of stationary points: the sparse side, the lifted side, or both.

    m_points and t_points are read-only sequences of (x, cert) and (x, y,
    cert) tuples, kept as columns (_Points): a certificate is built when its
    point is first read.  by_index_* map an index value (or the string
    "degenerate") to a point count; complete is True only for exhaustive
    pattern enumerations on quadratic-affine instances.
    """

    instance_id: str
    m_points: Sequence = field(default_factory=_no_points)
    t_points: Sequence = field(default_factory=_no_points)
    by_index_m: dict = field(default_factory=dict)
    by_index_t: dict = field(default_factory=dict)
    complete: bool = False
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class GridSpec:
    """Multistart grid: points per free axis over the box [lo, hi].

    Refuses a negative number of points, and bounds or a width hi - lo that
    are not finite numbers; GridSpec(0) is the empty grid."""

    points_per_axis: int
    lo: float = -2.0
    hi: float = 2.0

    def __post_init__(self):
        if self.points_per_axis < 0:
            raise ValueError(f"points_per_axis must be nonnegative, got {self.points_per_axis!r}")
        for name, value in (("lo", self.lo), ("hi", self.hi), ("hi - lo", self.hi - self.lo)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


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


def _patterns(pr: Problem) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (support J, active set act) of pr, 1-based, supports outermost:
    J runs over the sets of at most s coordinates and act over all sets of
    inequalities, each by size, then in combination order."""
    supports = [J for k in range(pr.s + 1) for J in itertools.combinations(range(1, pr.n + 1), k)]
    acts = [a for k in range(len(pr.g) + 1) for a in itertools.combinations(range(1, len(pr.g) + 1), k)]
    return list(itertools.product(supports, acts))


def _off_support(n: int, supports) -> np.ndarray:
    """The off-support coordinates, 0-based, of supports of one size; one row each."""
    rows = [[i for i in range(n) if i + 1 not in J] for J in supports]
    return np.array(rows, dtype=int).reshape(len(rows), n - len(supports[0]))


def _kkt_matrix(H, grads, jc0) -> np.ndarray:
    """KKT matrices of a batch of patterns with one support size and one set
    of constraints: the linear systems of a quadratic-affine instance and the
    Newton Jacobians of a general one.  Unknowns are x and one multiplier per
    constraint gradient in grads (equalities, then active inequalities) and
    per off-support coordinate in row r of jc0 (K, m), 0-based, for pattern
    r.  H, the Hessian of the Lagrangian, and each gradient are shared, (n, n)
    and (n,), or given per pattern, (K, n, n) and (K, n)."""
    k, m = jc0.shape
    n = H.shape[-1]
    c = n + len(grads)
    M = np.zeros((k, c + m, c + m))
    M[:, :n, :n] = H
    for col, a in enumerate(grads, start=n):
        M[:, :n, col] = -a
        M[:, col, :n] = a
    rows, cols = np.arange(k)[:, None], np.arange(c, c + m)
    M[rows, jc0, cols] = -1.0
    M[rows, cols, jc0] = 1.0
    return M


def _quadratic_data(pr: Problem):
    """Jets of f and of every constraint at the origin."""
    x0 = np.zeros(pr.n)
    return eval2(pr.f, x0), [eval2(e, x0) for e in pr.h], [eval2(e, x0) for e in pr.g]


# ---------------------------------------------------------------------------
# Root finders: (support, x) per pattern


def _linear_roots(pr: Problem, tol: Tolerances, notes: list[str]):
    """One solve per pattern of a quadratic-affine instance.

    A numerically singular pattern system is skipped with a note: no
    stationary point carries that exact pattern under a constraint
    qualification.  The patterns of one support size and active set share
    one assembly from the jets at the origin, one stacked SVD and one
    stacked solve, which give each system the bits of its own call; roots
    and notes come in pattern order.
    """
    jf, hj, gj = _quadratic_data(pr)
    patterns = _patterns(pr)
    groups: dict[tuple, list[int]] = {}
    for k, (J, act) in enumerate(patterns):
        groups.setdefault((len(J), act), []).append(k)
    xs: list = [None] * len(patterns)  # None marks a skipped pattern
    for members in groups.values():
        cons = hj + [gj[q - 1] for q in patterns[members[0]][1]]
        jc0 = _off_support(pr.n, [patterns[k][0] for k in members])
        M = _kkt_matrix(jf.hessian, [j.gradient for j in cons], jc0)
        rhs = np.concatenate([-jf.gradient, [-j.value for j in cons], np.zeros(jc0.shape[1])])
        sing = np.linalg.svd(M, compute_uv=False)
        skip = sing[:, -1] <= tol.tol_rank * sing[:, 0]
        kept = np.flatnonzero(~skip)
        for k, z in zip(kept.tolist(), np.linalg.solve(M[kept], rhs[:, None])[..., 0]):
            xs[members[k]] = z[: pr.n]
    for (J, act), x in zip(patterns, xs):
        if x is None:
            notes.append(f"skipped singular pattern support={list(J)} active={list(act)}")
        elif np.all(np.isfinite(x)):
            yield J, x


# The merge radius, in activity tolerances: Newton roots of a pattern, census
# points and (bridge.verify_counts) companions this close (inf-norm) are one.
_MERGE_TOLS = 10.0


def _newton_roots(pr: Problem, grid: GridSpec, tol: Tolerances, notes: list[str]):
    """One damped-Newton run per pattern and grid start over its free axes;
    roots of one pattern within the merge radius are yielded once.

    The starts run in lockstep (_lockstep_newton), in batches that close at
    _BATCH starts; a pattern's starts never straddle two batches.  Roots come
    in pattern and start order, with the bits of one start run alone.
    """
    axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
    groups = (
        [(J, act, start) for start in itertools.product(axis, repeat=len(J))] for J, act in _patterns(pr)
    )
    failures = 0
    for batch in _batches(groups):
        roots, pattern = [], None
        for (J, act, _), x in zip(batch, _lockstep_newton(pr, batch, tol)):
            if (J, act) != pattern:
                roots, pattern = [], (J, act)
            if x is None:
                failures += 1
            elif not any(np.max(np.abs(x - r)) <= _MERGE_TOLS * tol.tol_act for r in roots):
                roots.append(x)
                yield J, x
    if failures:
        notes.append(f"{failures} Newton starts did not converge")


def _lockstep_newton(pr: Problem, starts, tol: Tolerances, max_iter=100, max_halvings=30):
    """Damped Newton on the KKT system of each (J, act, start) in `starts`:
    x of each converged run, None for the others.

    Each run takes the steps it would take alone.  From z, it solves
    JF dz = -F (least squares if JF is singular) and tries z + step dz with
    step 1, 1/2, ... for at most max_halvings trials, accepting the first
    trial at which every expression is defined and the merit |F| falls.  It
    converges once |F| <= tol_feas, and fails at an undefined start, a
    non-finite step, a failed line search or after max_iter steps.  The runs
    advance together: each round evaluates one trial of every live run, the
    runs of one (|J|, act) group (_Runs) sharing each stacked solve.
    """
    n = pr.n
    sized: dict[tuple, list[int]] = {}
    for k, (J, act, _) in enumerate(starts):
        sized.setdefault((len(J), act), []).append(k)
    runs = [_Runs(pr, [starts[k] for k in ks]) for ks in sized.values()]
    with np.errstate(all="ignore"):  # a diverging run is a failure, not a warning
        first = _kkt_systems(pr, [(r.act, r.jc0, r.z) for r in runs])
        for r, (F, JF, failed) in zip(runs, first):
            r.start(F, JF, failed)
        while True:
            trials = []
            for r in runs:
                r.direct(tol, max_iter)
                live = r.live.nonzero()[0]
                if live.size:
                    trials.append((r, live, r.z[live] + r.step[live, None] * r.dz[live]))
            if not trials:
                break
            systems = _kkt_systems(pr, [(r.act, r.jc0[live], z) for r, live, z in trials])
            for (r, live, z), system in zip(trials, systems):
                r.search(live, z, *system, max_halvings)
    found: list = [None] * len(starts)
    for r, ks in zip(runs, sized.values()):
        for k, z, ok in zip(ks, r.z, r.converged.tolist()):
            if ok:
                found[k] = z[:n].copy()
    return found


class _Runs:
    """The lockstep Newton runs of starts with one support size and active
    set, whose KKT systems have one size: their unknowns z (x, then one
    multiplier per equality, active inequality and off-support coordinate)
    and the state of each run's iteration, one row per run."""

    def __init__(self, pr: Problem, starts):
        n, k = pr.n, len(starts)
        self.act = starts[0][1]
        self.jc0 = _off_support(n, [J for J, _, _ in starts])
        self.z = np.zeros((k, n + len(pr.h) + len(self.act) + self.jc0.shape[1]))
        for row, (J, _, start) in enumerate(starts):
            self.z[row, [i - 1 for i in J]] = start
        self.dz = np.zeros_like(self.z)
        self.step = np.ones(k)
        self.halvings = np.zeros(k, dtype=int)
        self.steps = np.zeros(k, dtype=int)
        self.converged = np.zeros(k, dtype=bool)

    def start(self, F, JF, failed):
        """The systems at the starts; a run whose start is undefined fails."""
        self.F, self.JF, self.merit = F, JF, _norms(F)
        self.live = ~failed
        self.due = ~failed  # a Newton step is due at z

    def direct(self, tol: Tolerances, max_iter: int):
        """A new direction for each live run whose last trial was accepted."""
        due = (self.due & self.live).nonzero()[0]
        if not due.size:
            return
        done = self.merit[due] <= tol.tol_feas  # the norm certify_m reads, not max|F|
        self.converged[due[done]] = True
        self.live[due[done | (self.steps[due] == max_iter)]] = False
        due = due[~done & (self.steps[due] < max_iter)]
        if not due.size:
            return
        dz = _newton_steps(self.JF[due], self.F[due])
        finite = np.isfinite(dz).all(axis=1)
        self.live[due[~finite]] = False
        due = due[finite]
        self.dz[due] = dz[finite]
        self.step[due] = 1.0
        self.halvings[due] = 0
        self.due[due] = False

    def search(self, live, z, F, JF, failed, max_halvings: int):
        """One line-search trial z of each live run: accept it if defined and
        its merit is lower, else halve the step."""
        merit = _norms(F)
        better = ~failed & (merit < self.merit[live])
        took = live[better]
        self.z[took], self.F[took], self.JF[took] = z[better], F[better], JF[better]
        self.merit[took] = merit[better]
        self.steps[took] += 1
        self.due[took] = True
        halved = live[~better]
        self.step[halved] *= 0.5
        self.halvings[halved] += 1
        self.live[halved[self.halvings[halved] == max_halvings]] = False


def _norms(F):
    """np.linalg.norm of each row, as the stacked dot product it takes."""
    return np.sqrt(np.matmul(F[:, None, :], F[:, :, None])[:, 0, 0])


def _newton_steps(JF, F):
    """solve(JF[k], -F[k]) of each row, in one stacked solve unless a
    matrix is singular; then row by row, by least squares where singular."""
    try:
        return np.linalg.solve(JF, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    steps = []
    for J, f in zip(JF, F):
        try:
            steps.append(np.linalg.solve(J, -f))
        except np.linalg.LinAlgError:
            steps.append(np.linalg.lstsq(J, -f, rcond=None)[0])
    return np.array(steps)


def _kkt_systems(pr: Problem, parts):
    """Residuals and Jacobians of pattern KKT systems at many points.

    parts holds (act, jc0, z) per group of patterns with one active set and
    support size: row k of z holds the unknowns of one point (x, then one
    multiplier per equality, active inequality and off-support coordinate)
    and row k of jc0 its off-support coordinates, 0-based.  f and each h are
    evaluated once over the rows of all parts, and each g_q over the rows of
    the parts whose active set holds q.  Returns (F, JF, failed) per part;
    failed marks the rows at which an expression they need is undefined.
    """
    n = pr.n
    X = np.concatenate([z[:, :n] for _, _, z in parts])
    ends = [0, *itertools.accumulate(len(z) for _, _, z in parts)]
    f = _jets_at(pr.f, X)
    h = [_jets_at(e, X) for e in pr.h]
    g = {}
    spans = list(zip(ends, ends[1:]))
    for q in sorted(set().union(*(act for act, _, _ in parts))):
        rows = [np.arange(a, b) for (act, _, _), (a, b) in zip(parts, spans) if q in act]
        rows = np.concatenate(rows)
        g[q] = []
        for t in _jets_at(pr.g[q - 1], X[rows]):  # scattered back; other rows stay unread
            g[q].append(np.zeros((len(X), *t.shape[1:]), dtype=t.dtype))
            g[q][-1][rows] = t
    out = []
    for (act, jc0, z), (a, b) in zip(parts, spans):
        cons = [[t[a:b] for t in jets] for jets in (*h, *(g[q] for q in act))]
        r1, hess, failed = (t[a:b].copy() for t in f[1:])
        for k, (_, grad, H, bad) in enumerate(cons, start=n):
            r1 -= z[:, k, None] * grad
            hess -= z[:, k, None, None] * H
            failed |= bad
        rows = np.arange(len(z))[:, None]  # with jc0: each row's off-support entries
        r1[rows, jc0] -= z[:, n + len(cons) :]
        values = [v[:, None] for v, _, _, _ in cons]
        F = np.concatenate([r1, *values, z[rows, jc0]], axis=1)
        out.append((F, _kkt_matrix(hess, [grad for _, grad, _, _ in cons], jc0), failed))
    return out


def _shared_roots(pr: Problem, tol: Tolerances, grid: GridSpec | None = None) -> tuple[list, list[str]]:
    """The roots of _linear_roots, or of _newton_roots when a grid is given,
    found once per Problem and (method, grid, tol) and kept on the Problem,
    with their jets (see ccop._jets_many); ccop._point serves those jets to
    any later array with the bits of a root's x.

    Both sides of a census share them.  Each call returns the roots, a list
    of (support, pe), pe a fresh PointEval of pr at the kept read-only x
    that carries the kept jets, and a new list of the finder's notes.  The
    Problem keeps arrays and Jet2s only, never a PointEval, which would
    refer back to it.  A census reports its points at the kept read-only
    xs themselves.
    """
    key = ("linear" if grid is None else "newton", grid, tol)
    if key not in pr._roots:
        found: list[str] = []
        roots = tuple(
            _linear_roots(pr, tol, found) if grid is None else _newton_roots(pr, grid, tol, found)
        )
        for _, x in roots:
            x.flags.writeable = False
        jets = _jets_many(pr, [x for _, x in roots])
        pr._roots[key] = roots, jets, tuple(found)
        pr._root_jets.update((x.tobytes(), jet) for (_, x), jet in zip(roots, jets) if jet is not None)
    roots, jets, kept = pr._roots[key]
    return [(J, _carrying(pr, x, jet)) for (J, x), jet in zip(roots, jets)], list(kept)


# ---------------------------------------------------------------------------
# Certification of roots


# A batch of candidates closes once it holds at least this many.  Batching
# shares each certification call's set-up across roots; the bound keeps one
# batch's stacked rows, null bases and Hessians from growing with the census.
# Measured: n=8 censuses run alike at 64, 256 and unbounded batches, while an
# unbounded n=10, s=6 T census peaks at 227 MB against 88 MB at 256.
_BATCH = 256


def _batches(groups, size=len):
    """The items of consecutive groups, in order, joined into lists that
    close once they hold at least _BATCH candidates, size(group) those of a
    group; a group is never split."""
    batch: list = []
    held = 0
    for group in groups:
        batch += group
        held += size(group)
        if held >= _BATCH:
            yield batch
            batch, held = [], 0
    if batch:
        yield batch


def _m_points(pr: Problem, roots, tol: Tolerances):
    """The roots (of _shared_roots), certified in batches: per batch, the
    roots' PointEvals, the root of each candidate (each root is one), None
    in place of the ys, and the blocks of ccop._certify_m."""
    for pes in _batches([pe] for _, pe in roots):
        yield pes, np.arange(len(pes)), None, ccop._certify_m(pr, pes, tol)


def _t_points(rp: RegularizedProblem, roots, candidates, tol: Tolerances):
    """The candidates of each root (of _shared_roots), drawn in root order,
    certified in batches: per batch, the PointEvals of the roots that have
    candidates, the root of each candidate, the candidates' ys (one row
    each) and the blocks of regmpoc._certify_t_pairs."""
    groups = ([(pe, Y)] for J, pe in roots for Y in [candidates(J, pe.x)] if len(Y))
    for batch in _batches(groups, lambda group: len(group[0][1])):
        pes, ys = [pe for pe, _ in batch], [Y for _, Y in batch]
        root, Y = np.repeat(np.arange(len(pes)), [len(Y) for Y in ys]), np.concatenate(ys)
        yield pes, root, Y, regmpoc._certify_t_pairs(rp, pes, root, Y, tol)


@functools.lru_cache(maxsize=64)
def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m), one row each, in combination order."""
    subsets = np.array(list(itertools.combinations(range(m), k)), dtype=int).reshape(-1, k)
    subsets.flags.writeable = False
    return subsets


def _subset_ys(rp: RegularizedProblem):
    """One y per (n-s)-subset of the zero pattern of support J, as the rows
    of one array, with the floats of companion_y (regmpoc._companion_ys).

    The mid component must carry the largest c of the subset or the sign
    conditions on the upper-bound multipliers are violated.
    """
    n, s = rp.n, rp.s

    def candidates(J, x):
        sub = np.array([i for i in range(n) if i + 1 not in J]).take(_subsets(n - len(J), n - s))
        ibar = sub[np.arange(len(sub)), np.argmax(rp.c.take(sub), axis=1)]  # the first largest c
        return regmpoc._companion_ys(rp, ibar, sub)

    return candidates


def _sampled_ys(rp: RegularizedProblem, tol: Tolerances):
    """Vertices of the y-polytope over the zeros of x, plus three seeded
    draws, as the rows of one array."""
    n, s = rp.n, rp.s
    rng = np.random.default_rng(int(instance_id(rp.base, rp), 16) % 2**32)
    upper = 1.0 + rp.eps

    def draws(J, x):
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

    return lambda J, x: np.array(list(draws(J, x)), dtype=float).reshape(-1, n)


# ---------------------------------------------------------------------------
# Report


# Width of a _dedupe grid cell, in merge radii: a query box of half-width
# 2 * radius crosses a cell boundary in a given coordinate with probability
# about 1/256, so a query visits one cell in most cases.
_CELL_RADII = 1024.0


def _dedupe(keys: np.ndarray, index: list, radius: float, snap: float, notes: list[str], what: str) -> list[int]:
    """Merge points closer than `radius` (inf-norm) with equal index; keep and
    flag close points whose indices differ.  The points are the rows of keys,
    with the indices in `index`; returns the positions of the points kept.

    Points are visited in lexicographic order of their coordinates, with
    each coordinate within `snap` of 0 read as 0, so rounding noise in a zero
    coordinate does not decide where a point is listed.  Each point meets the
    kept points within radius of it in the order they were kept.  Those are
    found by hashing the kept points on a grid of cells _CELL_RADII * radius
    wide, centred on 0 so that a coordinate within snap of 0 lies well inside
    one: a point within radius of p lies in a cell that p's box of half-width
    2 * radius (radius doubled as a margin for rounding) meets, which is one
    cell per coordinate except where the box crosses a cell boundary.
    """
    if not len(keys):
        return []
    order = np.lexsort(np.where(np.abs(keys) <= snap, 0.0, keys).T[::-1]).tolist()  # stable, first coordinate first
    width = _CELL_RADII * radius
    cells = np.floor(keys / width + 0.5).astype(np.int64)  # whole numbers: a cell is the bytes of its row
    # the cells a key's box meets run from lows to highs, at most two per coordinate
    lows = np.floor((keys - 2.0 * radius) / width + 0.5)
    highs = np.floor((keys + 2.0 * radius) / width + 0.5)
    crossed = np.count_nonzero(lows != highs, axis=1).tolist()
    crossing = [i for i, c in enumerate(crossed) if c]  # only the keys whose box crosses a boundary keep theirs
    lows, highs = dict(zip(crossing, lows[crossing].tolist())), dict(zip(crossing, highs[crossing].tolist()))
    grid: dict[bytes, list[int]] = {}  # cell -> positions in out
    kept = np.empty_like(keys)  # keys of out, in order
    out = []
    for i in order:
        key, label = keys[i], index[i]
        keep = True
        if 2 ** crossed[i] > len(out):  # no fewer cells to visit than kept points
            near = list(range(len(out)))
        elif not crossed[i]:
            near = grid.get(cells[i].tobytes(), [])
        else:
            ends = zip(lows[i], highs[i])
            box = np.array(list(itertools.product(*[(lo,) if lo == hi else (lo, hi) for lo, hi in ends])))
            near = sorted(j for cell in box.astype(np.int64) for j in grid.get(cell.tobytes(), ()))
        if near:
            near = np.array(near)
            near = near[np.max(np.abs(kept[near] - key), axis=1) <= radius].tolist()
        for j in near:
            if index[out[j]] == label:
                keep = False
                break
            notes.append(
                f"manual review: nearby {what} points with differing index at "
                f"{np.round(key, 6).tolist()}"
            )
        if keep:
            grid.setdefault(cells[i].tobytes(), []).append(len(out))
            kept[len(out)] = key
            out.append(i)
    return out


def _count_by_index(index: list) -> dict:
    """Points per index value, in increasing order, then "degenerate" for
    the points whose index is None."""
    counts: dict = {}
    for label in index:
        counts[label] = counts.get(label, 0) + 1
    ordered = {k: counts[k] for k in sorted(k for k in counts if k is not None)}
    if None in counts:
        ordered["degenerate"] = counts[None]
    return ordered


def _report(iid: str, target, batches, complete: bool, notes: list[str], tol: Tolerances) -> CensusReport:
    """Deduplicate the feasible and stationary candidates that `batches` (of
    _m_points on a Problem, or of _t_points on a RegularizedProblem) certified,
    count them, and enter the points kept in the target's memo (see
    ccop._entered).

    The candidates are read off the blocks' columns, in the order they were
    drawn; a point is reported at its root's kept read-only x and, on the T
    side, its own y.  Each root's x bits are taken once, and memo keys
    (ccop._key) are built for the kept points alone."""
    side, n = ("m" if isinstance(target, Problem) else "t"), target.n
    pes, bits, rows, index, keys = [], [], [], [], [np.empty((0, n if side == "m" else 2 * n))]
    for roots, root, Y, blocks in batches:
        found = [(block, np.flatnonzero(block.feasible & block.stationary)) for block in blocks]
        at = np.concatenate([block.members.take(r) for block, r in found])
        order = np.argsort(at)  # each candidate's position in the batch
        flat = [(block, j) for block, r in found for j in r.tolist()]
        flat = [flat[k] for k in order.tolist()]
        rows += flat
        index += [block.total[j] for block, j in flat]
        at = at.take(order)
        owner = root.take(at).tolist()
        pes += [roots[r] for r in owner]
        xbits = [pe.x.tobytes() for pe in roots]
        bits += [xbits[r] for r in owner]
        X = np.array([pe.x for pe in roots]).take(owner, 0)
        keys.append(X if Y is None else np.concatenate([X, Y.take(at, 0)], axis=1))
    keys = np.concatenate(keys)  # x, then y on the T side
    kept = _dedupe(keys, index, _MERGE_TOLS * tol.tol_act, tol.tol_act, notes, side.upper())
    if side == "m":
        Y, norm0, keys = None, [rows[k][0].norm0 for k in kept], [_key(bits[k], None, tol) for k in kept]
    else:
        Y, norm0 = keys[kept, n:], None
        Y.flags.writeable = False
        keys = [_key(bits[k], y, tol) for k, y in zip(kept, Y)]
    points = _Points(_entered(target._certs, keys, [rows[k] for k in kept]), [pes[k].x for k in kept], Y,
                     [index[k] for k in kept], norm0)
    counts = _count_by_index(points.index)
    if side == "m":
        return CensusReport(iid, m_points=points, by_index_m=counts, complete=complete, notes=notes)
    return CensusReport(iid, t_points=points, by_index_t=counts, complete=complete, notes=notes)


# ---------------------------------------------------------------------------
# Censuses


def census_quadratic(pr: Problem, tol: Tolerances = Tolerances()) -> CensusReport:
    """Exhaustive census of M-stationary points of a quadratic-affine instance."""
    _require_quadratic(pr, "census_quadratic")
    roots, notes = _shared_roots(pr, tol)
    return _report(instance_id(pr), pr, _m_points(pr, roots, tol), True, notes, tol)


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
        roots, notes = _shared_roots(rp.base, tol)
        return _report(iid, rp, _t_points(rp, roots, _subset_ys(rp), tol), True, notes, tol)
    if not rp.override:
        raise AssumptionError(
            "regularization parameters violate the assumption; construct with "
            "override=True for the sampling census"
        )
    roots, _ = _shared_roots(rp.base, tol)  # the sampled census reports the sampler's note alone
    notes = ["override sampler: y-space sampled per support pattern, census not exhaustive"]
    return _report(iid, rp, _t_points(rp, roots, _sampled_ys(rp, tol), tol), False, notes, tol)


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
        rp, pr = target, target.base
    else:
        rp, pr = None, target
    iid = instance_id(pr, rp)
    if grid.points_per_axis <= 0:
        return _report(iid, target, (), False, ["empty grid"], tol)
    roots, notes = _shared_roots(pr, tol, grid)
    found = _m_points(pr, roots, tol) if rp is None else _t_points(rp, roots, _subset_ys(rp), tol)
    return _report(iid, target, found, False, notes, tol)


def merge_censuses(m_census: CensusReport, t_census: CensusReport) -> CensusReport:
    """Combine a sparse-side and a lifted-side census over the same instance."""
    return CensusReport(
        instance_id=t_census.instance_id,
        m_points=m_census.m_points,
        t_points=t_census.t_points,
        by_index_m=dict(m_census.by_index_m),
        by_index_t=dict(t_census.by_index_t),
        complete=m_census.complete and t_census.complete,
        notes=list(m_census.notes) + list(t_census.notes),
    )
