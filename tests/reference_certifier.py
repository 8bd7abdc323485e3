"""The per-candidate certifiers that the layout-group pass replaced, kept as
the reference it must equal field by field and bit for bit.

certify_m_reference and certify_t_reference certify like certify_m_many and
certify_t_pairs, without the memo: each candidate gets its own activity
tuples, its own (labels, rows) family and its own Lagrangian Hessian; the
kernel calls are shared between families of one shape (_stacked); and the
certificates are read off one multiplier dict per kind.  They call the
numkern kernels through this module's names, so a test can watch them apart
from the library's calls.
"""

from __future__ import annotations

import numpy as np

from ccopkit.ccop import CcopActivity, FrozenDict, MCertificate, _first_failed, evaluate
from ccopkit.numkern import Tolerances, rank_and_nullbasis, restricted_inertia, solve_multipliers
from ccopkit.regmpoc import MpocActivity, TCertificate

__all__ = ["certify_m_reference", "certify_t_reference"]


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
    its columns: a view with the layout of rows.T."""
    return solve_multipliers(np.swapaxes(rows, -1, -2), target, tol)


def _solve(families, kinds, ineq: str, tol: Tolerances) -> list:
    """One (groups, residual, residual_ok, licq, neg, zero) per family
    (pe, labels, rows, target); the Lagrangian Hessian subtracts the "lam"
    group over h and the `ineq` group over the active g from the padded
    Hessian of f, in that order."""
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


def _frozen(groups: dict) -> dict:
    """The multiplier groups as the read-only mappings a certificate holds."""
    return {kind: FrozenDict(group) for kind, group in groups.items()}


# ---------------------------------------------------------------------------
# M-side


def _check_feasible(pr, pe, tol: Tolerances):
    Q0 = tuple(q + 1 for q, j in enumerate(pe.g) if abs(j.value) <= tol.tol_act)
    I0 = tuple(i + 1 for i in range(pr.n) if abs(pe.x[i]) <= tol.tol_act)
    act = CcopActivity(Q0, I0, pr.n - len(I0))
    ok = (
        all(abs(j.value) <= tol.tol_feas for j in pe.h)
        and all(j.value >= -tol.tol_feas for j in pe.g)
        and act.x_norm0 <= pr.s
    )
    return ok, act


def _active_family(pr, act: CcopActivity, pe):
    eye = np.eye(pr.n)
    labels = [("lam", p) for p in range(1, len(pe.h) + 1)]
    labels += [("mu", q) for q in act.Q0] + [("gamma", i) for i in act.I0]
    rows = [j.gradient for j in pe.h] + [pe.g[q - 1].gradient for q in act.Q0]
    rows += [eye[i - 1] for i in act.I0]
    return labels, np.array(rows, dtype=float).reshape(len(labels), pr.n)


def certify_m_reference(pr, xs, tol: Tolerances = Tolerances()) -> list[MCertificate]:
    """certify_m at every x of xs (arrays or PointEvals of pr), without the memo."""
    pes = [evaluate(pr, x) for x in xs]
    checked = [_check_feasible(pr, pe, tol) for pe in pes]
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
            **_frozen(groups),
            residual=residual,
            ndm=ndm,
            quadratic_index=neg,
            sparsity_index=si,
            m_index=neg + si if (stationary and all(ndm)) else None,
            degenerate_reason=_first_failed(feasible, stationary, residual, ndm, "NDM"),
            non_unique=not licq,
        ))
    return certs


# ---------------------------------------------------------------------------
# T-side


def _feasible_r(rp, pe, ys: list, tol: Tolerances) -> list:
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


def _stationarity_families(rp, pe, acts) -> list:
    n, nh = rp.n, len(pe.h)
    m = nh + len(pe.g)
    eye = np.eye(2 * n)
    bank = np.zeros((m + 3 * n + 1, 2 * n))
    for r, j in enumerate((*pe.h, *pe.g)):
        bank[r, :n] = j.gradient
    bank[m : m + n] = -eye[n:]
    bank[m + n, n:] = 1.0
    bank[m + n + 1 :] = eye
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


_KINDS = ("lam", "mu1", "mu2", "mu3", "sigma1", "sigma2", "rho1", "rho2")


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
        **_frozen(groups),
        residual=residual,
        ndt=ndt,
        eq8_branches=FrozenDict(eq8_branches),
        quadratic_index=neg,
        biactive_index=bi,
        t_index=neg + bi if (stationary and all(ndt[:4])) else None,
        degenerate_reason=_first_failed(feasible, stationary, residual, ndt, "NDT"),
        non_unique=not licq,
    )


def certify_t_reference(rp, pairs, tol: Tolerances = Tolerances()) -> list[TCertificate]:
    """certify_t at every (x, y) of pairs, without the memo; the pairs over
    one x (by identity) share its evaluation, bank and target, in the order
    of their first appearance."""
    over: dict[int, list[int]] = {}
    for k, (x, _) in enumerate(pairs):
        over.setdefault(id(x), []).append(k)
    places, checked, families = [], [], []
    for members in over.values():
        pe = evaluate(rp.base, pairs[members[0]][0])
        target = np.concatenate([pe.f.gradient, rp.c])
        ys = [np.asarray(pairs[k][1], dtype=float) for k in members]
        here = _feasible_r(rp, pe, ys, tol)
        for labels, rows in _stationarity_families(rp, pe, [act for _, act in here]):
            families.append((pe, labels, rows, target))
        places += members
        checked += here
    solved = _solve(families, _KINDS, "mu1", tol)
    out: list = [None] * len(pairs)
    for place, pair, result in zip(places, checked, solved):
        out[place] = _t_certificate(*pair, *result, tol)
    return out
