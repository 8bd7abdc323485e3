"""Cardinality-constrained side: activity sets, CC-LICQ, M-stationarity.

A problem is  min f(x)  s.t.  h(x) = 0, g(x) >= 0, ||x||_0 <= s  where the
zero "norm" counts nonzero entries.  Certification at a point solves the
multiplier system over the active gradients plus the coordinate directions
of vanishing entries, then checks the four nondegeneracy conditions
NDM1..NDM4 and reports the M-index as quadratic index + sparsity index.
Certificates are kept per point and tolerances for as long as a caller holds
them (see _certified), so a repeated request costs no evaluation or solve.
certify_m_many certifies many points in one call, as arrays per layout
group (see _solve) kept as the columns of a _Block, from whose rows it
builds whole certificates; certify_m is its one-point case.  The certifiers
take PointEvals and know nothing of the memo, one key (_key) for both
sides.  A census calls them, keeps the blocks and enters the rows it keeps
in the memo (_entered), so that a certificate is built only when its point
is read.  CC-LICQ is NDM1, so check_cc_licq and check_feasible read fields
of certify_m's certificate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

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
    def _root_jets(self) -> dict:
        """The jets of the roots in _roots that have them, by the bits of
        their x, filled with _roots; _point serves them."""
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


class _Filled(type):
    def __call__(cls, *args, **kwargs):  # FrozenDict(...) fills it without __init__, which refuses
        return _frozen(dict(*args, **kwargs))


class FrozenDict(dict, metaclass=_Filled):
    """A multiplier group of a certificate: a dict whose mutating methods,
    __init__ included, raise.  It pickles and deep-copies as a plain dict of
    its items."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("certificate multipliers are read-only")

    __init__ = __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return FrozenDict, (dict(self),)


def _frozen(items, _new=dict.__new__, _fill=dict.__init__) -> FrozenDict:
    """A FrozenDict of the (key, value) items, as FrozenDict(items) makes it;
    with no items, the one empty FrozenDict, which nothing can fill."""
    if not items:
        return _EMPTY
    frozen = _new(FrozenDict)
    _fill(frozen, items)
    return frozen


_EMPTY = dict.__new__(FrozenDict)


@dataclass(frozen=True)
class MCertificate:
    """Verdict of M-stationarity certification at one point.

    Multiplier groups are FrozenDicts keyed by 1-based constraint/coordinate
    indices.  m_index is set only when the point is stationary and NDM1..NDM4
    all hold.  Reports follow the declaration order: multiplier groups
    between activity and residual, the nondegeneracy flags right after
    residual, and index fields named *_index.

    Certificates are results and read-only: a repeated request for the same
    point and tolerances returns the held certificate itself (see _certified).
    A certifier builds each one whole from its row of a _Block.
    """

    feasible: bool
    stationary: bool
    activity: CcopActivity
    lam: dict[int, float] = field(default_factory=FrozenDict)
    mu: dict[int, float] = field(default_factory=FrozenDict)
    gamma: dict[int, float] = field(default_factory=FrozenDict)
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


def _jets_at(expr: Expr, X: np.ndarray) -> tuple:
    """eval2_many of expr at the rows of X, and the mask of rows at which it
    raises ExprDomainError; a batch that raises is split in halves until the
    failing rows are found, and those hold NaN."""
    try:
        return (*eval2_many(expr, X), np.zeros(len(X), dtype=bool))
    except ExprDomainError:
        if len(X) == 1:
            n = X.shape[1]
            nan = np.full(1, np.nan), np.full((1, n), np.nan), np.full((1, n, n), np.nan)
            return (*nan, np.ones(1, dtype=bool))
    half = len(X) // 2
    return tuple(np.concatenate(t) for t in zip(_jets_at(expr, X[:half]), _jets_at(expr, X[half:])))


def _jets_many(pr: Problem, xs: list) -> list:
    """PointEval's jets at each x of xs, from _jets_at per expression; each
    row has the bits of eval2.  None stands for each x at which an
    expression raises ExprDomainError or a jet is not finite: such a point
    is evaluated on its first use, which raises as it would without this."""
    if not xs:
        return []
    X = np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        batches = [_jets_at(e, X)[:3] for e in (pr.f, *pr.h, *pr.g)]  # a failed row holds NaN
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
    pe = _instance(PointEval, {"problem": pr, "x": x})
    if jets is not None:
        vars(pe)["_jets"] = jets  # what its first use would have evaluated
    return pe


def _point(pr: Problem, x) -> PointEval:
    """x itself if it is a PointEval of `pr`, else a PointEval of `pr` at a
    read-only float copy of x, of shape (n,): one that carries the jets of
    the root kept in pr._roots whose x has the bits of x, if there is one,
    and one that evaluates on first use otherwise; raises ValueError for
    another problem or another shape."""
    if isinstance(x, PointEval):
        if x.problem is not pr:
            raise ValueError("PointEval was built for another problem")
        return x
    x = np.array(x, dtype=float)
    if x.shape != (pr.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({pr.n},)")
    x.setflags(write=False)
    kept = vars(pr).get("_root_jets")
    return _carrying(pr, x, kept.get(x.tobytes()) if kept else None)


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


# ---------------------------------------------------------------------------
# Certification skeleton, shared with the T-side in regmpoc


class _Bank(NamedTuple):
    """What the candidates over X evaluated points share, stacked over the
    points.  Each candidate picks the rows of its constraint directions
    from the bank rows of its point, which fall into blocks, one per
    multiplier kind (see _layouts)."""

    x: np.ndarray  # X x n
    values: np.ndarray  # X x m: h, then g (m = nh + ng)
    rows: np.ndarray  # X x B x d: grad h_p, grad g_q (zero-padded to d), then the unit rows
    target: np.ndarray  # X x d: grad f, then the tail
    bound: np.ndarray  # X: tol_feas * (1 + ||target||), the residual a solve may leave
    hessians: np.ndarray  # X x (1 + m) x n x n: f, h, then g


def _bank(pes: list, units: np.ndarray, tail, tol: Tolerances) -> _Bank:
    """The _Bank of pes, PointEvals of one problem evaluated here if not yet
    (raising as `evaluate` does): the rows `units` (u x d, d >= n) follow the
    gradients, and the target is grad f followed by `tail` (d - n values)."""
    pr = pes[0].problem
    X, n, m, d = len(pes), pr.n, len(pr.h) + len(pr.g), units.shape[1]
    jets = [j for pe in pes for f, h, g in [pe._jets] for j in (f, *h, *g)]
    gradients = np.array([j.gradient for j in jets]).reshape(X, 1 + m, n)  # f, h, then g
    rows = np.zeros((X, m + len(units), d))
    rows[:, :m, :n] = gradients[:, 1:]
    rows[:, m:] = units
    target = np.empty((X, d))
    target[:, :n] = gradients[:, 0]
    target[:, n:] = tail
    return _Bank(
        x=np.array([pe.x for pe in pes]),
        values=np.array([j.value for j in jets]).reshape(X, 1 + m)[:, 1:],
        rows=rows,
        target=target,
        # np.linalg.norm of each target, sqrt(t.dot(t)), whose bits the stacked product keeps
        bound=tol.tol_feas * (1.0 + np.sqrt(target[:, None, :] @ target[:, :, None]).ravel()),
        hessians=np.array([j.hessian for j in jets]).reshape(X, 1 + m, n, n),
    )


@lru_cache(maxsize=64)
def _columns(*sizes: int) -> tuple[np.ndarray, np.ndarray]:
    """(kinds, label) of bank rows in consecutive blocks of the given sizes,
    one per multiplier kind (see _layouts), each block labelled 1, 2, ...
    in the smallest integer type that holds them, as a _Block keeps them."""
    kinds = np.repeat(np.eye(len(sizes), dtype=int), sizes, axis=0)
    label = np.concatenate([np.arange(1, size + 1) for size in sizes]).astype(np.min_scalar_type(max(sizes)))
    kinds.flags.writeable = label.flags.writeable = False
    return kinds, label


def _layouts(sel: np.ndarray, kinds: np.ndarray, label: np.ndarray) -> list:
    """The candidates of sel, by layout.

    Row k of sel (K x B) marks the bank rows of candidate k's constraint
    directions.  Bank row v holds a direction of the kind c with kinds[v, c]
    = 1 (the kinds follow each other in v) and the index label[v].  A layout
    is the number of rows a candidate takes of each kind; it fixes the shape
    of its rows and gives each kind one column slice, in the order of the
    kinds.  Returns one (layout, members, index, labels) per layout, in
    order of first appearance: the positions of its candidates, their bank
    rows and their labels (an array), one row label[index[j]] each.
    """
    col = sel.nonzero()[1]
    groups: dict[tuple, list] = {}
    for k, layout in enumerate(map(tuple, (sel @ kinds).tolist())):
        groups.setdefault(layout, []).append(k)
    out = []
    for layout, members in groups.items():
        index = (col if len(groups) == 1 else sel[members].nonzero()[1]).reshape(len(members), sum(layout))
        out.append((layout, np.array(members), index, label.take(index)))
    return out


@lru_cache(maxsize=64)
def _split(layout: tuple, shifts: tuple) -> tuple:
    """(x, shift) of a layout: its columns in the x-block, and each one's
    shift, None if all are 0 (see _solve)."""
    col = np.repeat(np.array(shifts, dtype=float), layout)  # each column's shift, nan in the y-block
    x, shift = np.flatnonzero(col == col), col[col == col].astype(int)
    x.flags.writeable = shift.flags.writeable = False
    return x, shift if shift.any() else None


def _solve(bank: _Bank, at: np.ndarray, index: np.ndarray, layout: tuple, shifts: tuple, tol: Tolerances, ys=None):
    """Solve the multiplier systems of one layout group and read off their rank and inertia.

    Candidate k lies at the point at[k] of bank, and its k x d directions
    are the bank rows index[k] of that point: nh of h, then nq of the
    active g, then the other kinds, each in the x-block (the first n
    coordinates) if shifts[c] is an int, else in the y-block.  Bank rows
    shifted by shifts[c] hold the same x-block vectors (rho1's e_i are
    sigma1's), so a point's x-block is the sorted shifted bank rows (h, Q0,
    I0 ascending) of any candidate over it.  One call each:
    rank_and_nullbasis on one x-block per point, zero-padded to max(kx, k -
    kx) rows; solve_multipliers on the rows; and restricted_inertia per
    x-block null-space size on the rows rank.. of V^T, with the Lagrangian
    Hessians (f, minus lam_p * h_p for each p, then minus mu_q * g_q in Q0
    order).  Singular values above tol_rank times the larger sigma_max (each
    block's first) count, the y-block's being ys, the caller's, padded alike
    (one row for all candidates or one each); its null space adds to the
    zero count.  Each candidate gets the bits of its rows alone.  Returns
    (coeffs, residual, residual_ok, rank, neg, zero): the K x k multipliers,
    then one entry per candidate.
    """
    x, shift = _split(layout, shifts)
    (nh, nq), n, kx = layout[:2], bank.x.shape[1], len(x)
    rows = bank.rows[at[:, None], index]
    K, k, d = rows.shape
    places: dict = {}  # point -> (place of its x-block, its first candidate)
    owner = [places.setdefault(a, (len(places), j))[0] for j, a in enumerate(at.tolist())]
    first = [j for _, j in places.values()]
    xrows = index.take(first, 0).take(x, 1)  # the bank rows of each point's x-block
    if shift is not None:  # kinds whose rows interleave: their shifted bank rows, in order
        xrows = np.sort(xrows + shift, axis=1)
    blocks = np.zeros((len(first), max(kx, k - kx), n))
    blocks[:, :kx] = bank.rows[at.take(first)[:, None], xrows, :n]
    ranked = rank_and_nullbasis(blocks, tol)
    sing = ranked.sing if len(first) == K else ranked.sing.take(owner, 0)
    cut = tol.tol_rank * (sing[:, :1] if ys is None else np.maximum(sing[:, :1], ys[:, :1]))  # K x 1, or K x 0
    rx = np.add.reduce(sing > cut, axis=1).tolist()
    ry = [0] * K if ys is None else np.add.reduce(ys > cut, axis=1).tolist()
    # the transpose of each row block is a view with the layout of rows.T, so
    # every residual has the bits of rows.T @ coeffs - target
    solved = solve_multipliers(rows.swapaxes(-1, -2), bank.target.take(at, 0), tol)
    coeffs = solved.coeffs
    hess = bank.hessians[:, 0].take(at, 0)
    for c in range(nh + nq):  # grad h_p, then grad g_q: bank row index[:, c]
        hess -= coeffs[:, c, None, None] * bank.hessians[at, 1 + index[:, c]]
    neg, zero = [0] * K, [d - n - r for r in ry]  # zero: the y null space, then the restricted one
    for rank in dict.fromkeys(rx):
        members = [j for j, r in enumerate(rx) if r == rank]
        some = slice(None) if len(members) == K else members
        bases = np.ascontiguousarray(ranked.vt.take([owner[j] for j in members], 0)[:, rank:].swapaxes(1, 2))
        for j, (a, b, _) in zip(members, restricted_inertia(hess[some], bases, tol)):
            neg[j], zero[j] = a, zero[j] + b
    return coeffs, solved.residuals, solved.residuals <= bank.bound.take(at), [a + b for a, b in zip(rx, ry)], neg, zero


def _key(xbits: bytes, y, tol: Tolerances) -> tuple:
    """Memo key of a point: the bits of its x (xbits), of y on the T side and
    the tolerances; _point and regmpoc._y fix both shapes before any lookup."""
    return (xbits, tol._astuple) if y is None else (xbits, y.tobytes(), tol._astuple)


def _certified(memo: weakref.WeakValueDictionary, keys: list, certify) -> list:
    """The certificates under `keys`, in order; the misses are certified by
    one call certify(misses), misses listing their positions in keys, which
    returns _Blocks whose members are positions in misses, and each miss's
    certificate is built from its row and stored.  A key repeated in `keys`
    is certified at its first position and served as a hit at the others; a
    hit on a census row (a _Row) is its certificate.

    Callers check their inputs before they look up, so whatever raises
    raises on every call, and a raise stores nothing.  An entry is the
    certificate returned to its first caller; a hit returns it too, since it
    is read-only, and it lives as long as some caller holds it.  Two threads
    that miss on one key both certify, and either entry is correct.
    """
    certs = [ref and ref() for ref in map(memo.data.get, keys)]  # the weak references themselves, read in C
    if _Row in map(type, certs):
        certs = [cert.cert() if type(cert) is _Row else cert for cert in certs]
    if all(certs):  # every key held: a certificate is never false
        return certs
    first: dict = {}  # key of a miss -> its first position
    for k, cert in enumerate(certs):
        if cert is None:
            first.setdefault(keys[k], k)
    misses = list(first.values())
    for block in certify(misses):  # a fresh block, which no one else reads: each row is built once
        for row, k in enumerate(block.members.tolist()):
            certs[misses[k]] = memo[keys[misses[k]]] = block.build(row)
    return [certs[first[key]] if cert is None else cert for key, cert in zip(keys, certs)]


def _entered(memo: weakref.WeakValueDictionary, keys: list, rows: list) -> list:
    """A _Row of each (block, row) of `rows`, entered in memo under its key
    of `keys` (see _certified), so that a later request certifies nothing.
    Where a key is held, the held entry stays: a held _Row (of another
    census) stands for the row, and a held certificate is the row's."""
    out, fresh = [], not memo  # on a fresh memo nothing is held, and nothing is looked up
    for key, (block, row) in zip(keys, rows):
        held = None if fresh else memo.get(key)
        if held is None:
            held = memo[key] = _Row(block, row, memo, key)
        elif type(held) is not _Row:  # the row's certificate, with its bits, held by a caller
            block.certs[row] = held
            held = _Row(block, row, memo, key)
        out.append(held)
    return out


class _Row:
    """A certified point that a census keeps: row `row` of `block`, entered
    in `memo` under `key` until its certificate is built, on its first read
    (cert), which then takes its place there."""

    __slots__ = ("block", "row", "memo", "key", "__weakref__")

    def __init__(self, block, row: int, memo, key: tuple):
        self.block, self.row, self.memo, self.key = block, row, memo, key

    def cert(self):
        cert = self.block.certs.get(self.row)
        if cert is None:  # the first read; threads that race on it all get the certificate stored first
            cert = self.memo[self.key] = self.block.certs.setdefault(self.row, self.block.build(self.row))
        return cert

    def reason(self):
        """The certificate's degenerate_reason, read off the row."""
        return _first_failed(*self.block.listed(self.row)[:4], self.block.prefix)


class _Block:
    """The certified candidates of one layout group, as columns, one row per
    candidate (see _certify_m and regmpoc._certify_t_pairs): members, their
    positions among the candidates certified together; feasible and
    stationary; residual; flags, a tuple (NDM1..NDM4 or NDT1..NDT5) per
    row; quadratic and total, lists of the quadratic index and of the
    certificate's index (m_index or t_index, None where it has none); coeffs
    and labels, the multipliers and their 1-based indices, in the column
    slices of the layout's kinds; and a T block's eq8 (see _TBlock).  The
    side's build makes a row's certificate whole from the row as listed.
    """

    eq8: tuple = ()

    def __init__(self, members, feasible, stationary, flags, residual, quadratic, total, coeffs, labels, **layout):
        vars(self).update(members=members, feasible=feasible, stationary=stationary, flags=flags, residual=residual,
                          quadratic=quadratic, total=total, coeffs=coeffs, labels=labels, certs={}, **layout)

    def listed(self, row: int) -> tuple:
        """feasible, stationary, residual, flags (a tuple), quadratic, total,
        labels (a tuple), multipliers (a list) and eq8 entries of a row, as
        certificates hold them; the rows are listed on first use, by one
        tolist per column, and kept (a cached_property would take a lock)."""
        rows = vars(self).get("_rows")
        if rows is None:
            columns = (self.feasible.tolist(), self.stationary.tolist(), self.residual.tolist(), self.flags,
                       self.quadratic, self.total, map(tuple, self.labels.tolist()), self.coeffs.tolist(),
                       *(column.tolist() for column in self.eq8))
            rows = vars(self).setdefault("_rows", list(zip(*columns)))
        return rows[row]


def _instance(cls, fields: dict):
    """A certificate or an activity (a frozen dataclass) whose instance dict
    is `fields`, its fields in declaration order, which its pickles keep.  A
    frozen dataclass's __init__ sets each field by object.__setattr__, which
    made n=8 censuses 7% slower, and a call by keywords costs about twice the
    time of a dict."""
    cert = object.__new__(cls)
    object.__setattr__(cert, "__dict__", fields)
    return cert


def _first_failed(feasible: bool, stationary: bool, residual: float, flags, prefix: str):
    """degenerate_reason: the first failed of feasibility, stationarity and
    the nondegeneracy flags, named prefix1, prefix2, ..."""
    if not feasible:
        return "infeasible"
    if not stationary:
        return f"not stationary (residual={residual:.3e})"
    return None if all(flags) else next(f"{prefix}{k}" for k, flag in enumerate(flags, start=1) if not flag)


# ---------------------------------------------------------------------------
# M-side


def _m_select(pr: Problem, bank: _Bank, tol: Tolerances):
    """Whether each point of bank is feasible (an array), and the bank rows
    of its CC-LICQ directions, by layout (see _layouts): grad h_p, grad g_q
    for q in Q0 and e_i for i in I0, of the kinds lam, mu and gamma."""
    nh, act, feas = len(pr.h), tol.tol_act, tol.tol_feas
    h, g = bank.values[:, :nh], bank.values[:, nh:]
    zeros = np.abs(bank.x) <= act
    sel = np.concatenate([~np.zeros((len(zeros), nh), dtype=bool), np.abs(g) <= act, zeros], axis=1)
    ok = np.logical_and.reduce(np.concatenate([
        np.abs(h) <= feas, g >= -feas, (pr.n - np.add.reduce(zeros, axis=1) <= pr.s)[:, None]
    ], axis=1), axis=1)
    return ok, _layouts(sel, *_columns(nh, g.shape[1], pr.n))


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

    The points are certified per layout (nh, |Q0|, |I0|), each layout group
    with one stacked call of each kernel (see _solve), and a point repeated
    in xs is certified once.  Raises ValueError as certify_m does, before any
    certificate is looked up or stored.
    """
    xs = [_point(pr, x) for x in xs]
    keys = [_key(x.x.tobytes(), None, tol) for x in xs]
    return _certified(pr._certs, keys, lambda misses: _certify_m(pr, [xs[k] for k in misses], tol))


def check_feasible(pr: Problem, x, tol: Tolerances = Tolerances()) -> tuple[bool, CcopActivity]:
    """Feasibility of x (an array or a PointEval) for the sparse problem,
    plus its activity sets: the fields of certify_m(pr, x, tol)."""
    cert = certify_m(pr, x, tol)
    return cert.feasible, cert.activity


def check_cc_licq(pr: Problem, x, tol: Tolerances = Tolerances()) -> bool:
    """Linear independence of active gradients and vanishing-coordinate
    directions: NDM1 of certify_m(pr, x, tol)."""
    return certify_m(pr, x, tol).ndm[0]


class _MBlock(_Block):
    """A _Block of M-certificates, whose layout is (nh, |Q0|, |I0|): lam,
    mu and gamma end at nh, e1 and the width, and every row has x_norm0
    norm0 and sparsity index si."""

    prefix = "NDM"

    def build(self, row: int) -> MCertificate:
        feasible, stationary, residual, ndm, quadratic, total, lab, values = self.listed(row)
        nh, e1 = self.ends
        pairs = tuple(zip(lab, values))
        activity = _instance(CcopActivity, {"Q0": lab[nh:e1], "I0": lab[e1:], "x_norm0": self.norm0})
        return _instance(MCertificate, {
            "feasible": feasible, "stationary": stationary, "activity": activity, "lam": _frozen(pairs[:nh]),
            "mu": _frozen(pairs[nh:e1]), "gamma": _frozen(pairs[e1:]), "residual": residual, "ndm": ndm,
            "quadratic_index": quadratic, "sparsity_index": self.si, "m_index": total,
            "degenerate_reason": _first_failed(feasible, stationary, residual, ndm, self.prefix),
            "non_unique": not ndm[0],
        })


def _certify_m(pr: Problem, pes: list, tol: Tolerances) -> list[_MBlock]:
    """The PointEvals pes of pr certified, one _solve and one _MBlock per
    layout (nh, |Q0|, |I0|), whose members are positions in pes and whose
    multipliers are the column slices lam, mu and gamma."""
    bank = _bank(pes, np.eye(pr.n), (), tol)
    ok, groups = _m_select(pr, bank, tol)
    ts, blocks = tol.tol_strict, []
    for (nh, nq, ni), at, index, labels in groups:
        coeffs, residual, residual_ok, ranks, neg, zero = _solve(bank, at, index, (nh, nq, ni), (0, 0, 0), tol)
        e1, norm0 = nh + nq, pr.n - ni
        least, si = np.minimum.reduce(coeffs[:, nh:e1], axis=1, initial=np.inf), pr.s - norm0  # of mu
        feasible = ok.take(at)
        stationary = feasible & residual_ok & (least >= -ts)
        gaps = np.logical_and.reduce(np.abs(coeffs[:, e1:]) > ts, axis=1) | (norm0 == pr.s)
        flags = list(zip([r == e1 + ni for r in ranks], (least > ts).tolist(), gaps.tolist(), [z == 0 for z in zero]))
        total = [q + si if st and all(ndm) else None for q, st, ndm in zip(neg, stationary.tolist(), flags)]
        blocks.append(_MBlock(at, feasible, stationary, flags, residual, neg, total, coeffs, labels,
                              ends=(nh, e1), norm0=norm0, si=si))
    return blocks
