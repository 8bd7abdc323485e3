"""Cardinality-constrained side: activity sets, CC-LICQ, M-stationarity.

A problem is  min f(x)  s.t.  h(x) = 0, g(x) >= 0, ||x||_0 <= s  where the
zero "norm" counts nonzero entries.  Certification at a point solves the
multiplier system over the active gradients plus the coordinate directions
of vanishing entries, then checks the four nondegeneracy conditions
NDM1..NDM4 and reports the M-index as quadratic index + sparsity index.
Certificates are kept per point and tolerances for as long as a caller holds
them (see _certified), so a repeated request costs no evaluation or solve.
certify_m_many certifies many points in one call, sharing the stacked
kernel calls between them; certify_m is its one-point case.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprcore import Expr, ExprDomainError, Jet2, eval2, eval2_many, to_source
from .numkern import Tolerances, rank_and_nullbasis, restricted_inertia, solve_multipliers

__all__ = [
    "Problem",
    "PointEval",
    "evaluate",
    "CcopActivity",
    "MCertificate",
    "check_feasible",
    "check_cc_licq",
    "certify_m",
    "certify_m_many",
]


def _without_certs(problem) -> dict:
    """Pickled state of a Problem or RegularizedProblem: its instance dict
    without the certificate memo, whose weak references do not pickle."""
    state = dict(vars(problem))
    state.pop("_certs", None)
    return state


@dataclass(frozen=True)
class Problem:
    """Objective, equality/inequality constraints, dimension and sparsity budget."""

    n: int
    s: int
    f: Expr
    h: tuple[Expr, ...] = ()
    g: tuple[Expr, ...] = ()

    def __post_init__(self):
        if not 0 <= self.s <= self.n - 1:
            raise ValueError(f"sparsity budget s={self.s} outside 0..{self.n - 1}")
        for e in (self.f, *self.h, *self.g):
            if e.n != self.n:
                raise ValueError("expression dimension does not match problem dimension")

    @cached_property
    def _roots(self) -> dict:
        """Pattern roots and their notes per (method, grid, tol), filled by
        oracle._shared_roots; kept in the instance, not in a field, like
        Expr._tape, so equality, hash and repr do not see it."""
        return {}

    @cached_property
    def _certs(self) -> weakref.WeakValueDictionary:
        """M-certificates per (point bits, tol), filled by _certified."""
        return weakref.WeakValueDictionary()

    __getstate__ = _without_certs


@dataclass(frozen=True)
class CcopActivity:
    """Active inequalities Q0, vanishing coordinates I0 (both 1-based), ||x||_0."""

    Q0: tuple[int, ...]
    I0: tuple[int, ...]
    x_norm0: int


@dataclass
class MCertificate:
    """Verdict of M-stationarity certification at one point.

    Multiplier dicts are keyed by 1-based constraint/coordinate indices.
    m_index is set only when the point is stationary and NDM1..NDM4 all hold.
    Reports follow the declaration order: multiplier groups between activity
    and residual, the nondegeneracy flags right after residual, and index
    fields named *_index.

    Certificates are results: the library never mutates one, and a repeated
    request for the same point and tolerances returns an equal copy.
    """

    feasible: bool
    stationary: bool
    activity: CcopActivity
    lam: dict[int, float] = field(default_factory=dict)
    mu: dict[int, float] = field(default_factory=dict)
    gamma: dict[int, float] = field(default_factory=dict)
    residual: float = float("nan")
    ndm: tuple[bool, bool, bool, bool] = (False, False, False, False)
    quadratic_index: int | None = None
    sparsity_index: int | None = None
    m_index: int | None = None
    degenerate_reason: str | None = None
    non_unique: bool = False

    @property
    def nondegenerate(self) -> bool:
        return self.stationary and all(self.ndm)


@dataclass(frozen=True, eq=False)
class PointEval:
    """Jets of f, of every h and of every g of one problem at one point x.

    `evaluate` builds one and evaluates it at once.  The certifiers, `lift`
    and `project` build one from an array and evaluate it on the first use
    of f, h or g, which comes only when a certificate they need is missing;
    that first use raises as `evaluate` does.  A census gives both of its
    sides PointEvals that carry jets evaluated for all roots together
    (_jets_many, _carrying).  Either way the jets are evaluated once and
    kept, so no consumer walks the expression trees again.  x is read-only.
    """

    problem: Problem
    x: np.ndarray

    @cached_property
    def _jets(self) -> tuple[Jet2, tuple[Jet2, ...], tuple[Jet2, ...]]:
        pr = self.problem
        exprs = (pr.f, *pr.h, *pr.g)
        with np.errstate(over="ignore", invalid="ignore"):
            jets = [eval2(e, self.x) for e in exprs]
        for e, j in zip(exprs, jets):
            if not (np.isfinite(j.value) and np.isfinite(j.gradient).all() and np.isfinite(j.hessian).all()):
                raise ExprDomainError("value or derivative not finite at the point", to_source(e))
        nh = len(pr.h)
        return jets[0], tuple(jets[1 : 1 + nh]), tuple(jets[1 + nh :])

    f = property(lambda self: self._jets[0])
    h = property(lambda self: self._jets[1])
    g = property(lambda self: self._jets[2])


def _jets_many(pr: Problem, xs: list) -> list:
    """PointEval's jets at each x of xs, from one eval2_many per expression;
    each row has the bits of eval2.  None stands for every x if an
    expression raises ExprDomainError at some x, and for each x at which a
    jet is not finite: such a point is evaluated on its first use, which
    raises as it would without this."""
    if not xs:
        return []
    X = np.array(xs)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            batches = [eval2_many(e, X) for e in (pr.f, *pr.h, *pr.g)]
    except ExprDomainError:
        return [None] * len(xs)
    finite = np.ones(len(xs), dtype=bool)
    for values, grads, hessians in batches:
        finite &= np.isfinite(values) & np.isfinite(grads).all(axis=1)
        finite &= np.isfinite(hessians).all(axis=(1, 2))
        grads.flags.writeable = hessians.flags.writeable = False
    nh = len(pr.h)
    out: list = [None] * len(xs)
    for k in finite.nonzero()[0].tolist():
        jets = [Jet2(float(v[k]), g[k], h[k]) for v, g, h in batches]
        out[k] = jets[0], tuple(jets[1 : 1 + nh]), tuple(jets[1 + nh :])
    return out


def _carrying(pr: Problem, x: np.ndarray, jets) -> PointEval:
    """A PointEval of pr at the read-only x that carries `jets` (an item of
    _jets_many), or that evaluates on first use where jets is None."""
    pe = PointEval(pr, x)
    if jets is not None:
        vars(pe)["_jets"] = jets  # what its first use would have evaluated
    return pe


def _point(pr: Problem, x) -> PointEval:
    """x itself if it is a PointEval of `pr`, else a PointEval of `pr` at a
    read-only float copy of x, of shape (n,), that evaluates on first use;
    raises ValueError for another problem or another shape."""
    if isinstance(x, PointEval):
        if x.problem is not pr:
            raise ValueError("PointEval was built for another problem")
        return x
    x = np.array(x, dtype=float)
    if x.shape != (pr.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({pr.n},)")
    x.flags.writeable = False
    return PointEval(pr, x)


def evaluate(pr: Problem, x) -> PointEval:
    """Evaluate f, h and g of `pr` at x, or pass through a PointEval of `pr`.

    Raises ValueError for a point of the wrong shape or a PointEval built for
    another problem, and ExprDomainError, naming the expression, when a value,
    gradient or Hessian is undefined or not finite: such a point is an input
    error, never a verdict.
    """
    pe = _point(pr, x)
    pe.f  # the first use evaluates every jet, and raises here for an undefined point
    return pe


def _activity(pr: Problem, pe: PointEval, tol: Tolerances) -> CcopActivity:
    Q0 = tuple(q + 1 for q, j in enumerate(pe.g) if abs(j.value) <= tol.tol_act)
    I0 = tuple(i + 1 for i in range(pr.n) if abs(pe.x[i]) <= tol.tol_act)
    return CcopActivity(Q0, I0, pr.n - len(I0))


def check_feasible(pr: Problem, x, tol: Tolerances = Tolerances()) -> tuple[bool, CcopActivity]:
    """Feasibility of x (an array or a PointEval) for the sparse problem,
    plus its activity sets."""
    pe = evaluate(pr, x)
    act = _activity(pr, pe, tol)
    ok = (
        all(abs(j.value) <= tol.tol_feas for j in pe.h)
        and all(j.value >= -tol.tol_feas for j in pe.g)
        and act.x_norm0 <= pr.s
    )
    return ok, act


# ---------------------------------------------------------------------------
# Certification skeleton, shared with the T-side in regmpoc


def _independent(rows: np.ndarray, tol: Tolerances) -> tuple[bool, np.ndarray]:
    """Whether the rows are linearly independent, and a basis of their null space."""
    rank, nullbasis = rank_and_nullbasis(rows, tol)
    return rank == rows.shape[0], nullbasis


def _stacked(kernel, tol: Tolerances, *columns) -> list:
    """kernel's result per item of the equally long lists `columns`, in item
    order.  Items whose arrays have the same shapes share one call of kernel
    on their stacks, which returns a list; a single item's arrays are passed
    as they are, and kernel returns its result (see numkern)."""
    if len(columns[0]) == 1:  # nothing to share: the kernel's call on one item
        return [kernel(*[column[0] for column in columns], tol)]
    groups: dict[tuple, list[int]] = {}
    for k, item in enumerate(zip(*columns)):
        groups.setdefault(tuple(a.shape for a in item), []).append(k)
    out: list = [None] * len(columns[0])
    for members in groups.values():
        stacks = [np.array([column[k] for k in members]) for column in columns]
        for k, result in zip(members, kernel(*stacks, tol)):
            out[k] = result
    return out


def _lstsq(rows, target, tol: Tolerances):
    """solve_multipliers with the transpose of `rows` (k x d, or a stack) as
    its columns: a view with the layout of rows.T, so that every residual
    has the bits of rows.T @ coeffs - target."""
    return solve_multipliers(np.swapaxes(rows, -1, -2), target, tol)


def _solve(families, kinds, ineq: str, tol: Tolerances) -> list:
    """Solve the multiplier systems of certificates and read off their inertia.

    Each family is (pe, labels, rows, target) at the point of the PointEval
    pe: the constraint directions as the rows of a k x d array (d >= n),
    their multipliers as (kind, index) labels, and the d-vector the
    directions must combine to; kinds names every multiplier group in
    report order.  The Lagrangian Hessian subtracts the "lam" group over h
    and the `ineq` group over the active g from the Hessian of f, in that
    order; every other term of the Lagrangian is linear, so it is the
    leading n x n block of a d x d matrix, restricted to the null space of
    the directions.

    Families of one shape share one stacked SVD for rank and null space, one
    stacked least-squares solve for the multipliers and one stacked
    eigensolve for the inertia, whatever their points; a family solved alone
    gives the same bits.

    Returns one (groups, residual, residual_ok, licq, neg, zero) per family.
    """
    directions = [rows for _, _, rows, _ in families]
    ranked = _stacked(rank_and_nullbasis, tol, directions)
    solutions = _stacked(_lstsq, tol, directions, [target for *_, target in families])
    bases: dict = {}  # (id(pe), id(target)) -> padded Hessian of f, residual bound
    solved, hessians = [], []
    for (pe, labels, rows, target), (rank, _), (coeffs, residual) in zip(families, ranked, solutions):
        n = pe.x.size
        base = bases.get((id(pe), id(target)))
        if base is None:
            hess_f = np.zeros((target.size, target.size))
            hess_f[:n, :n] = pe.f.hessian
            bound = tol.tol_feas * (1.0 + float(np.linalg.norm(target)))
            base = bases[id(pe), id(target)] = hess_f, bound
        hess_f, bound = base
        groups: dict[str, dict[int, float]] = {kind: {} for kind in kinds}
        for (kind, idx), val in zip(labels, coeffs.tolist()):
            groups[kind][idx] = val
        hess = hess_f.copy()
        for p, j in enumerate(pe.h, start=1):
            hess[:n, :n] -= groups["lam"][p] * j.hessian
        for q, v in groups[ineq].items():
            hess[:n, :n] -= v * pe.g[q - 1].hessian
        solved.append((groups, residual, residual <= bound, rank == rows.shape[0]))
        hessians.append(hess)
    inertias = _stacked(restricted_inertia, tol, hessians, [nullbasis for _, nullbasis in ranked])
    return [(*head, neg, zero) for head, (neg, zero, _) in zip(solved, inertias)]


def _key(pe: PointEval, *rest) -> tuple:
    """Memo key of a checked point (see _point): the shape and exact bits of
    its x, then `rest` (the bits of y, the tolerances)."""
    return (pe.x.shape, pe.x.tobytes(), *rest)


def _certified(memo: weakref.WeakValueDictionary, keys: list, certify, *args) -> list:
    """The certificates under `keys`, in order; the misses are certified by
    one call certify(misses, *args), misses listing their positions in keys,
    which returns one certificate per miss, and stored.  A key repeated in
    `keys` is certified at its first position and served as a hit at the
    others.

    Callers check their inputs before they look up, so whatever raises
    raises on every call, and a raise stores nothing.  An entry is the
    certificate returned to its first caller and lives as long as some caller
    holds it; a hit returns a copy with its own multiplier dicts.  Two threads
    that miss on one key both certify, and either entry is correct.
    """
    certs = [memo.get(key) for key in keys]
    first: dict = {}  # key of a miss -> its first position
    for k, cert in enumerate(certs):
        if cert is None:
            first.setdefault(keys[k], k)
        else:
            certs[k] = _copy(cert)
    misses = list(first.values())
    if misses:
        for k, cert in zip(misses, certify(misses, *args)):
            certs[k] = memo[keys[k]] = cert
    return [_copy(certs[first[key]]) if cert is None else cert for key, cert in zip(keys, certs)]


def _copy(cert):
    """A copy of a certificate with its own multiplier dicts, built without
    __init__, which dataclasses.replace would run."""
    copy = object.__new__(type(cert))
    copy.__dict__ = fields = cert.__dict__.copy()
    for name, value in cert.__dict__.items():
        if type(value) is dict:
            fields[name] = value.copy()
    return copy


def _first_failed(feasible: bool, stationary: bool, residual: float, flags, prefix: str):
    """degenerate_reason: the first failed of feasibility, stationarity and
    the nondegeneracy flags, named prefix1, prefix2, ..."""
    if not feasible:
        return "infeasible"
    if not stationary:
        return f"not stationary (residual={residual:.3e})"
    return next((f"{prefix}{k}" for k, flag in enumerate(flags, start=1) if not flag), None)


# ---------------------------------------------------------------------------
# M-side


def _active_family(pr: Problem, act: CcopActivity, pe: PointEval):
    """The CC-LICQ directions with their multipliers, as (labels, rows):
    grad h_p (lam), grad g_q for q in Q0 (mu), e_i for i in I0 (gamma)."""
    eye = np.eye(pr.n)
    labels = [("lam", p) for p in range(1, len(pe.h) + 1)]
    labels += [("mu", q) for q in act.Q0] + [("gamma", i) for i in act.I0]
    rows = [j.gradient for j in pe.h] + [pe.g[q - 1].gradient for q in act.Q0]
    rows += [eye[i - 1] for i in act.I0]
    return labels, np.array(rows, dtype=float).reshape(len(labels), pr.n)


def check_cc_licq(pr: Problem, x, tol: Tolerances = Tolerances()) -> bool:
    """Linear independence of active gradients and vanishing-coordinate directions."""
    pe = evaluate(pr, x)
    return _independent(_active_family(pr, _activity(pr, pe, tol), pe)[1], tol)[0]


def certify_m(pr: Problem, x, tol: Tolerances = Tolerances()) -> MCertificate:
    """Certify M-stationarity, nondegeneracy NDM1..NDM4 and the M-index at x
    (an array or a PointEval).

    Infeasible or non-stationary points yield a full diagnostic certificate
    rather than an error; degenerate_reason names the first failed condition.
    """
    return certify_m_many(pr, [x], tol)[0]


def certify_m_many(pr: Problem, xs, tol: Tolerances = Tolerances()) -> list[MCertificate]:
    """certify_m at every x of `xs` (arrays or PointEvals), in one call;
    equal to [certify_m(pr, x, tol) for x in xs].

    Candidates whose constraint directions have one shape share one stacked
    SVD and one stacked eigensolve (see _solve), and a point repeated in xs
    is certified once.  Raises ValueError as certify_m does, before any
    certificate is looked up or stored.
    """
    xs = [_point(pr, x) for x in xs]
    return _certified(pr._certs, [_key(x, tol) for x in xs], _certify_m, pr, xs, tol)


def _certify_m(misses, pr: Problem, xs, tol: Tolerances) -> list[MCertificate]:
    """The certificates at the xs listed in misses (see _certified)."""
    pes = [evaluate(pr, xs[k]) for k in misses]
    checked = [check_feasible(pr, pe, tol) for pe in pes]
    families = [
        (pe, *_active_family(pr, act, pe), pe.f.gradient) for pe, (_, act) in zip(pes, checked)
    ]
    solved = _solve(families, ("lam", "mu", "gamma"), "mu", tol)
    certs = []
    for (feasible, act), (groups, residual, residual_ok, licq, neg, zero) in zip(checked, solved):
        mu, gamma = groups["mu"], groups["gamma"]

        stationary = feasible and residual_ok and all(v >= -tol.tol_strict for v in mu.values())
        ndm = (
            licq,
            all(v > tol.tol_strict for v in mu.values()),
            act.x_norm0 == pr.s or all(abs(v) > tol.tol_strict for v in gamma.values()),
            zero == 0,
        )
        si = pr.s - act.x_norm0

        certs.append(MCertificate(
            feasible=feasible,
            stationary=stationary,
            activity=act,
            **groups,
            residual=residual,
            ndm=ndm,
            quadratic_index=neg,
            sparsity_index=si,
            m_index=neg + si if (stationary and all(ndm)) else None,
            degenerate_reason=_first_failed(feasible, stationary, residual, ndm, "NDM"),
            non_unique=not licq,
        ))
    return certs
