from itertools import accumulate

import numpy as np
import pytest

from ccopkit import (
    Problem,
    Tolerances,
    ccop,
    certify_m,
    check_cc_licq,
    check_feasible,
    parse,
    rank_and_nullbasis,
    restricted_inertia,
)

from helpers import make_problem, well_e1, well_ones

TOL = Tolerances()


def test_feasibility_and_activity_on_sparse_points():
    pr = well_ones()
    ok, act = check_feasible(pr, [1.0, 0.0])
    assert ok and act.I0 == (2,) and act.Q0 == () and act.x_norm0 == 1

    ok, act = check_feasible(pr, [1.0, 1.0])
    assert not ok and act.x_norm0 == 2

    ok, act = check_feasible(pr, [0.0, 0.0])
    assert ok and act.I0 == (1, 2)


def test_feasibility_with_constraints():
    pr = make_problem(2, 1, "x1^2 + x2^2", h=["x1 + x2"], g=["x1 - 1"])
    ok, act = check_feasible(pr, [1.0, -1.0])
    assert not ok  # two nonzeros exceed the budget
    pr2 = make_problem(2, 1, "x1^2 + x2^2", g=["x1"])
    ok, act = check_feasible(pr2, [0.0, 0.5])
    assert ok and act.Q0 == (1,)


def test_cc_licq_coordinate_rows_hold():
    assert check_cc_licq(well_ones(), [0.0, 0.0])
    assert check_cc_licq(well_e1(), [0.0, 0.0])


def test_cc_licq_fails_on_duplicated_direction():
    pr = make_problem(2, 1, "x1^2 + x2^2", h=["x1"])
    assert not check_cc_licq(pr, [0.0, 0.0])


def test_certify_origin_of_two_well_problem():
    cert = certify_m(well_ones(), [0.0, 0.0])
    assert cert.feasible and cert.stationary
    assert cert.gamma == {1: pytest.approx(-2.0), 2: pytest.approx(-2.0)}
    assert all(cert.ndm)
    assert cert.quadratic_index == 0
    assert cert.sparsity_index == 1
    assert cert.m_index == 1


def test_certify_axis_minimizer():
    cert = certify_m(well_ones(), [1.0, 0.0])
    assert cert.stationary and cert.nondegenerate
    assert cert.gamma == {2: pytest.approx(-2.0)}
    assert cert.m_index == 0 and cert.quadratic_index == 0 and cert.sparsity_index == 0


def test_certify_degenerate_zero_multiplier():
    cert = certify_m(well_e1(), [0.0, 0.0])
    assert cert.stationary
    assert cert.gamma == {1: pytest.approx(-2.0), 2: pytest.approx(0.0)}
    assert cert.ndm[0] and cert.ndm[1] and cert.ndm[3]
    assert not cert.ndm[2]
    assert cert.degenerate_reason == "NDM3"
    assert cert.m_index is None


def test_certify_infeasible_gives_diagnostic_certificate():
    cert = certify_m(well_ones(), [1.0, 1.0])
    assert not cert.feasible and not cert.stationary
    assert cert.degenerate_reason == "infeasible"
    assert cert.m_index is None


def test_certify_non_stationary_point():
    cert = certify_m(well_ones(), [0.5, 0.0])
    assert cert.feasible and not cert.stationary
    assert "not stationary" in cert.degenerate_reason


def test_nondegenerate_minimizer_has_active_budget():
    # vanishing M-index forces both index parts to vanish
    for pr in (well_ones(), well_e1()):
        for x in ([1.0, 0.0], [0.0, 1.0]):
            cert = certify_m(pr, x)
            if cert.nondegenerate and cert.m_index == 0:
                assert cert.quadratic_index == 0
                assert cert.sparsity_index == 0
                assert cert.activity.x_norm0 == pr.s


def test_multipliers_stable_under_column_shuffle():
    rng = np.random.default_rng(17)
    pr = make_problem(3, 2, "(x1-1)^2 + 2*(x2-1)^2 + (x3+1)^2 + 0.3*x1*x2", g=["x1 + x2 + x3"])
    cert = certify_m(pr, [1.0, 0.0, 0.0])
    # assemble the certificate's multiplier system independently and permute
    from ccopkit import eval2

    cols, order = [], []
    for q in cert.activity.Q0:
        cols.append(eval2(pr.g[q - 1], np.array([1.0, 0, 0])).gradient)
        order.append(("mu", q))
    for i in cert.activity.I0:
        e = np.zeros(3)
        e[i - 1] = 1.0
        cols.append(e)
        order.append(("gamma", i))
    G = np.array(cols).T
    grad = eval2(pr.f, np.array([1.0, 0, 0])).gradient
    for _ in range(5):
        perm = rng.permutation(len(order))
        sol = np.linalg.lstsq(G[:, perm], grad, rcond=None)[0]
        for slot, p in enumerate(perm):
            kind, idx = order[p]
            reference = cert.mu[idx] if kind == "mu" else cert.gamma[idx]
            assert abs(sol[slot] - reference) <= 1e-9


def test_scaling_objective_scales_multipliers_only():
    base = certify_m(well_ones(), [0.0, 0.0])
    for alpha in (0.5, 1.3, 2.0):
        scaled_problem = make_problem(2, 1, f"({alpha!r})*((x1-1)^2 + (x2-1)^2)")
        scaled = certify_m(scaled_problem, [0.0, 0.0])
        assert scaled.ndm == base.ndm
        assert scaled.m_index == base.m_index
        for i in base.gamma:
            assert scaled.gamma[i] == pytest.approx(alpha * base.gamma[i], rel=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(2, 2, parse("x1", 2))  # s must stay below n
    with pytest.raises(ValueError):
        Problem(2, 1, parse("x1", 1))  # dimension mismatch


def test_stacked_kernel_calls_keep_each_item_with_its_result(monkeypatch):
    # _solve's kernel calls: one call per layout group, on the stack of its
    # items, and each result returned at its item's place
    rng = np.random.default_rng(31)
    X, n = 3, 3
    hessians = rng.standard_normal((X, 3, n, n))  # f, h1, g1 at each point
    hessians += hessians.swapaxes(-1, -2)
    bank = ccop._Bank(x=np.zeros((X, n)), values=np.zeros((X, 2)),
                      rows=rng.standard_normal((X, 2 + n, n)), target=rng.standard_normal((X, n)),
                      bound=np.ones(X), hessians=hessians)
    at = np.array([0, 1, 2, 0, 1, 2, 0])
    # bank rows: grad h1 (lam), grad g1 (mu), e_1..e_3 (gamma)
    sel = np.array([[1, 1, 1, 0, 0], [1, 0, 1, 1, 0], [1, 1, 0, 0, 1], [1, 0, 0, 0, 0],
                    [1, 1, 0, 1, 0], [1, 1, 0, 0, 0], [1, 0, 1, 0, 1]], dtype=bool)
    calls = []

    def recorded(name):
        kernel = getattr(ccop, name)

        def call(*args):
            calls.append((name, args[0].shape))
            return kernel(*args)

        monkeypatch.setattr(ccop, name, call)

    for name in ("rank_and_nullbasis", "solve_multipliers", "restricted_inertia"):
        recorded(name)
    by_layout = ccop._layouts(sel, *ccop._columns(1, 1, n))
    got, labels = {}, {}
    for layout, members, index, group_labels in by_layout:
        solved = ccop._solve(bank, at[members], index, layout, (0, 0, 0), TOL)
        for j, k in enumerate(members.tolist()):
            got[k] = [part[j] for part in solved]
            ends = accumulate(layout)  # each kind's labels: the slice of its count ending here
            labels[k] = tuple(tuple(group_labels[j][end - c : end]) for end, c in zip(ends, layout))
    for k in range(len(sel)):
        rows, target, (f, h, g) = bank.rows[at[k]][sel[k]], bank.target[at[k]], hessians[at[k]]
        coeffs = np.linalg.lstsq(rows.T, target, rcond=TOL.tol_rank)[0]
        rank_, basis = rank_and_nullbasis(rows, TOL)
        hess = f.copy()
        hess -= coeffs[0] * h
        if sel[k, 1]:
            hess -= coeffs[1] * g
        neg, zero, _ = restricted_inertia(hess, basis, TOL)
        residual = float(np.linalg.norm(rows.T @ coeffs - target))
        assert got[k][0].tobytes() == coeffs.tobytes() and got[k][1:] == [
            residual, residual <= 1.0, rank_, neg, zero]
    assert labels[1] == ((1,), (), (1, 2)) and labels[2] == ((1,), (1,), (3,))
    # layouts (1, 1, 1) and (1, 0, 2) have one shape and are separate groups
    assert [(layout, members.tolist()) for layout, members, *_ in by_layout] == [
        ((1, 1, 1), [0, 2, 4]), ((1, 0, 2), [1, 6]), ((1, 0, 0), [3]), ((1, 1, 0), [5])]
    assert [c for c in calls if c[0] != "restricted_inertia"] == [
        ("rank_and_nullbasis", (3, 3, 3)), ("solve_multipliers", (3, 3, 3)),
        ("rank_and_nullbasis", (2, 3, 3)), ("solve_multipliers", (2, 3, 3)),
        ("rank_and_nullbasis", (1, 1, 3)), ("solve_multipliers", (1, 3, 1)),
        ("rank_and_nullbasis", (1, 2, 3)), ("solve_multipliers", (1, 3, 2)),
    ]
    # one eigensolve per group and null-space size: the rows are independent
    assert [c[1] for c in calls if c[0] == "restricted_inertia"] == [
        (3, 3, 3), (2, 3, 3), (1, 3, 3), (1, 3, 3)]
    alone = ccop._solve(bank, at[[3]], np.array([[0]]), (1, 0, 0), (0, 0, 0), TOL)  # a group of one is a stack of one
    assert [part[0] for part in alone][1:] == got[3][1:] and alone[0][0].tobytes() == got[3][0].tobytes()
