import itertools
import weakref

import numpy as np
import pytest

from ccopkit import (
    CcopActivity,
    GridSpec,
    MCertificate,
    Tolerances,
    census_newton,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    evaluate,
    lift,
    make_regularized,
    merge_censuses,
    project,
    verify_counts,
)
from ccopkit import oracle
from ccopkit.exprcore import ExprDomainError, eval2
from ccopkit.oracle import _dedupe, _kkt_matrix, _kkt_systems, _patterns, _quadratic_data

from helpers import (
    make_problem,
    random_quadratic_instance,
    random_quadratic_source,
    well_e1,
    well_ones,
    well_ones_reg,
)


def _points(census):
    return sorted(tuple(np.round(x, 8)) for x, _ in census.m_points)


def test_census_finds_the_three_stationary_points():
    census = census_quadratic(well_ones())
    assert _points(census) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert census.by_index_m == {0: 2, 1: 1}
    assert census.complete
    assert all(cert.nondegenerate for _, cert in census.m_points)


def test_census_flags_degenerate_origin():
    census = census_quadratic(well_e1())
    assert _points(census) == [(0.0, 0.0), (1.0, 0.0)]
    labels = {tuple(np.round(x, 8)): cert.degenerate_reason for x, cert in census.m_points}
    assert labels[(0.0, 0.0)] == "NDM3"
    assert labels[(1.0, 0.0)] is None
    assert census.by_index_m == {0: 1, "degenerate": 1}


def test_census_pure_sphere_has_single_degenerate_point():
    # the origin is the only stationary point; its coordinate multipliers all
    # vanish while the budget is slack, so it cannot be nondegenerate
    census = census_quadratic(make_problem(2, 1, "x1^2 + x2^2"))
    assert _points(census) == [(0.0, 0.0)]
    cert = census.m_points[0][1]
    assert cert.stationary and not cert.nondegenerate
    assert cert.quadratic_index == 0 and cert.sparsity_index == 1
    assert cert.m_index is None


def test_census_rejects_non_quadratic():
    with pytest.raises(ValueError):
        census_quadratic(make_problem(2, 1, "(x1-1)^2 + cos(x2)"))


def test_t_census_matches_lifted_points():
    rp = well_ones_reg()
    census = census_t_quadratic(rp)
    got = sorted((tuple(np.round(x, 8)), tuple(np.round(y, 8))) for x, y, _ in census.t_points)
    assert got == [
        ((0.0, 0.0), (0.0, 1.0)),
        ((0.0, 1.0), (1.0, 0.0)),
        ((1.0, 0.0), (0.0, 1.0)),
    ]
    assert census.by_index_t == {0: 2, 1: 1}
    assert census.complete


def test_t_census_includes_degenerate_companions():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    census = census_t_quadratic(rp)
    reasons = {
        (tuple(np.round(x, 8)), tuple(np.round(y, 8))): cert.degenerate_reason
        for x, y, cert in census.t_points
    }
    # the low-c companion of the degenerate origin survives through the
    # vanishing-rho branch of the disjunction, but fails strictness
    assert reasons[((0.0, 0.0), (1.0, 0.0))] == "NDT3"
    assert reasons[((0.0, 0.0), (0.0, 1.0))] == "NDT5"
    assert reasons[((1.0, 0.0), (0.0, 1.0))] is None


def test_t_census_override_samples_only_degenerate_points():
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    census = census_t_quadratic(rp)
    assert not census.complete
    assert len(census.t_points) >= 3
    for _, _, cert in census.t_points:
        assert cert.stationary
        assert not (cert.nondegenerate and cert.ndt[4])


def test_cross_oracle_census_against_lifts_with_inequality():
    pr = make_problem(2, 1, "(x1-1)^2 + (x2-1)^2", g=["x1"])
    rp = make_regularized(pr, [0.3, 0.7], 0.5)
    m_census = census_quadratic(pr)
    t_census = census_t_quadratic(rp)
    lifted = []
    for x, mcert in m_census.m_points:
        for y, tcert in lift(rp, x).companions:
            lifted.append((tuple(np.round(x, 8)), tuple(np.round(y, 8)), tcert.t_index))
    independent = [
        (tuple(np.round(x, 8)), tuple(np.round(y, 8)), cert.t_index)
        for x, y, cert in t_census.t_points
    ]
    assert sorted(lifted) == sorted(independent)


def test_newton_census_agrees_with_linear_enumeration():
    for pr in (well_ones(), well_e1()):
        quad = census_quadratic(pr)
        newt = census_newton(pr, GridSpec(3, -2.0, 2.0))
        assert not newt.complete
        qpts = _points(quad)
        npts = _points(newt)
        assert len(qpts) == len(npts)
        for a, b in zip(qpts, npts):
            assert np.max(np.abs(np.array(a) - np.array(b))) <= 1e-6


def test_newton_census_on_cosine_fixture_is_grid_stable():
    pr = make_problem(2, 1, "(x1-1)^2 + cos(x2) + x2^2")
    c3 = census_newton(pr, GridSpec(3, -2.0, 2.0))
    c5 = census_newton(pr, GridSpec(5, -2.0, 2.0))
    assert _points(c3) == _points(c5)
    assert (0.0, 0.0) in _points(c3)  # empty-support pattern root
    assert (1.0, 0.0) in _points(c3)


def test_newton_census_empty_grid():
    census = census_newton(well_ones(), GridSpec(0))
    assert census.m_points == [] and not census.complete
    assert census.notes == ["empty grid"]


def test_grid_spec_refuses_what_spans_no_finite_box():
    for args, message in (
        ((-1,), "points_per_axis must be nonnegative, got -1"),
        ((3, float("nan")), "lo must be a finite number, got nan"),
        ((3, -2.0, float("inf")), "hi must be a finite number, got inf"),
        ((3, -float("inf"), 2.0), "lo must be a finite number, got -inf"),
        ((3, 1e308, -1e308), "hi - lo must be a finite number, got -inf"),
    ):
        with pytest.raises(ValueError) as exc:
            GridSpec(*args)
        assert str(exc.value) == message
    assert GridSpec(0).points_per_axis == 0 and GridSpec(2, 1e308, 1e308).hi == 1e308


def test_newton_census_lifted_side():
    rp = well_ones_reg()
    newt = census_newton(rp, GridSpec(3, -2.0, 2.0))
    quad = census_t_quadratic(rp)
    got = sorted(tuple(np.round(np.concatenate([x, y]), 6)) for x, y, _ in newt.t_points)
    want = sorted(tuple(np.round(np.concatenate([x, y]), 6)) for x, y, _ in quad.t_points)
    assert got == want


def test_census_closure_under_lift_and_project():
    rng = np.random.default_rng(37)
    instances = 0
    while instances < 8:
        rp = random_quadratic_instance(rng, n_max=5)
        m_census = census_quadratic(rp.base)
        t_census = census_t_quadratic(rp)
        merged = merge_censuses(m_census, t_census)
        report = verify_counts(rp, merged)
        for check in report.checks:
            if check.name == "mountain-pass" and (rp.base.h or rp.base.g):
                continue  # constraints can disconnect the feasible set
            assert check.status != "fail", (check.name, check.detail)
        t_keys = {
            (tuple(np.round(x, 6)), tuple(np.round(y, 6))): cert.t_index
            for x, y, cert in t_census.t_points
        }
        for x, mcert in m_census.m_points:
            if not mcert.nondegenerate:
                continue
            for y, tcert in lift(rp, x).companions:
                key = (tuple(np.round(x, 6)), tuple(np.round(y, 6)))
                assert key in t_keys and t_keys[key] == mcert.m_index
                back = project(rp, x, y)
                assert back.m_index == mcert.m_index
        # reverse direction: every nondegenerate census T-point projects onto
        # a census M-point of the same index
        m_keys = {
            tuple(np.round(x, 6)): cert.m_index
            for x, cert in m_census.m_points
            if cert.nondegenerate
        }
        for x, y, tcert in t_census.t_points:
            if not (tcert.nondegenerate and tcert.ndt[4]):
                continue
            back = project(rp, x, y)
            key = tuple(np.round(x, 6))
            assert key in m_keys and m_keys[key] == back.m_index == tcert.t_index
        instances += 1


def test_minimizer_counts_agree_on_complete_censuses():
    rng = np.random.default_rng(41)
    for _ in range(6):
        rp = random_quadratic_instance(rng, n_max=5)
        m_census = census_quadratic(rp.base)
        t_census = census_t_quadratic(rp)
        m0 = sum(1 for _, c in m_census.m_points if c.m_index == 0)
        t0 = sum(1 for *_, c in t_census.t_points if c.t_index == 0)
        assert m0 == t0


def test_census_reports_are_deterministic():
    # two instances built from the same sources, so the roots are found twice
    a = census_t_quadratic(well_ones_reg())
    b = census_t_quadratic(well_ones_reg())
    assert a.instance_id == b.instance_id
    assert [tuple(y) for _, y, _ in a.t_points] == [tuple(y) for _, y, _ in b.t_points]
    assert a.notes == b.notes


def _exp_well_reg():
    """exp(x1) + x1 has no stationary point, so every Newton start on the
    support {1} fails and the Newton census notes that."""
    return make_regularized(make_problem(2, 1, "exp(x1) + x1 + (x2-1)^2"), (0.3, 0.7), 0.5)


def _rows(census):
    """Everything a census reports, in its order."""
    return (
        [(x.tolist(), c.m_index, c.degenerate_reason) for x, c in census.m_points],
        [(x.tolist(), y.tolist(), c.t_index, c.degenerate_reason) for x, y, c in census.t_points],
        census.by_index_m,
        census.by_index_t,
        census.notes,
    )


def test_census_on_kept_roots_equals_one_that_finds_them():
    # warm: roots kept on the instance by a first census; cold: an equal
    # instance built afresh, which runs the root search itself
    grid = GridSpec(3)
    warm = _exp_well_reg()
    census_newton(warm.base, grid)
    for side in (lambda rp: rp.base, lambda rp: rp):
        got = census_newton(side(warm), grid)
        assert _rows(got) == _rows(census_newton(side(_exp_well_reg()), grid))
        assert got.notes == ["3 Newton starts did not converge"]
    warm = well_ones_reg()
    census_quadratic(warm.base)
    assert _rows(census_t_quadratic(warm)) == _rows(census_t_quadratic(well_ones_reg()))


def test_roots_live_and_die_with_their_problem():
    pr = well_ones()
    assert "_roots" not in vars(pr)
    census_quadratic(pr)
    assert "_roots" in vars(pr)
    fresh = well_ones()
    assert "_roots" not in vars(fresh)
    assert pr == fresh and hash(pr) == hash(fresh) and repr(pr) == repr(fresh)
    alive = weakref.ref(pr)
    del pr
    assert alive() is None  # no cache outside the problem holds it


def test_root_jets_equal_eval2_bit_for_bit():
    rng = np.random.default_rng(103)
    tol = Tolerances()
    cases = [(random_quadratic_instance(rng, n_max=6).base, None) for _ in range(6)]
    f = random_quadratic_source(rng, 5) + " + 0.2*sin(x1) + 0.1*x2*x3 + 0.1*log(1 + x4^2)"
    h, g = ["x1^2 + x2^2 + x3 + 0.5*x4 - 1"], ["2 - x1^2 - x2^2 - x3^2 - x4*x5"]
    cases.append((make_problem(5, 2, f, h, g), GridSpec(2)))
    compared = 0
    for pr, grid in cases:
        first = list(oracle._shared_roots(pr, tol, [], grid))
        again = list(oracle._shared_roots(pr, tol, [], grid))
        assert first
        for (J, pe), (_, twin) in zip(first, again):
            assert pe is not twin and pe.x is twin.x and not pe.x.flags.writeable
            assert vars(pe)["_jets"] is vars(twin)["_jets"]  # kept once, on the problem
            exprs, jets = (pr.f, *pr.h, *pr.g), (pe.f, *pe.h, *pe.g)
            assert len(jets) == len(exprs)
            for e, jet in zip(exprs, jets):
                want = eval2(e, pe.x)
                assert np.float64(jet.value).tobytes() == np.float64(want.value).tobytes()
                assert jet.gradient.tobytes() == want.gradient.tobytes()
                assert jet.hessian.tobytes() == want.hessian.tobytes()
                assert not jet.gradient.flags.writeable and not jet.hessian.flags.writeable
                compared += 1
    assert compared >= 200


def test_roots_whose_jets_fail_are_evaluated_on_first_use():
    # g is inactive, and undefined (log) or not finite (exp), at some roots:
    # either leaves only those roots without jets; the censuses then raise
    # as each root's own evaluation does
    grid = GridSpec(3)
    for g, error in (("log(x1)", "log of a nonpositive"), ("2 - exp(800*x2)", "not finite")):
        pr = make_problem(2, 1, "(x1 - 1)^2 + (x2 - 1)^2", g=[g])
        roots = list(oracle._shared_roots(pr, Tolerances(), [], grid))
        defined = []
        for _, pe in roots:
            try:
                evaluate(pr, pe.x)
                defined.append(True)
            except ExprDomainError:
                defined.append(False)
        assert not all(defined) and any(defined)
        assert [("_jets" in vars(pe)) for _, pe in roots] == defined
        for target in (pr, make_regularized(pr, [0.3, 0.7], 0.5), pr):
            with pytest.raises(ExprDomainError, match=error):
                census_newton(target, grid)


def test_root_search_is_shared_by_both_sides_and_keyed(monkeypatch):
    calls = {"_lockstep_newton": 0, "_linear_roots": 0}

    def counted(name):
        inner = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(oracle, name, wrapper)

    counted("_lockstep_newton")
    counted("_linear_roots")
    rp = _exp_well_reg()
    grid = GridSpec(3)
    m_census = census_newton(rp.base, grid)
    runs = calls["_lockstep_newton"]
    assert runs > 0
    t_census = census_newton(rp, grid)
    census_newton(rp, GridSpec(3, -2.0, 2.0), Tolerances())  # equal keys
    assert calls["_lockstep_newton"] == runs
    census_newton(rp, GridSpec(2))
    assert calls["_lockstep_newton"] > runs
    runs = calls["_lockstep_newton"]
    census_newton(rp, grid, Tolerances(tol_act=1e-7))
    assert calls["_lockstep_newton"] > runs

    quad = well_ones_reg()
    census_quadratic(quad.base)
    assert calls["_linear_roots"] == 1
    census_t_quadratic(quad)
    assert calls["_linear_roots"] == 1
    census_t_quadratic(quad, Tolerances(tol_rank=1e-9))
    assert calls["_linear_roots"] == 2

    # a census reports the kept xs themselves, which refuse every write
    want = _rows(m_census), _rows(t_census)
    for x in [x for x, _ in m_census.m_points] + [x for x, _, _ in t_census.t_points]:
        with pytest.raises(ValueError, match="read-only"):
            x[:] = 99.0
    assert (_rows(census_newton(rp.base, grid)), _rows(census_newton(rp, grid))) == want


def test_patterns_list_supports_then_active_sets_by_size():
    # supports of size 0, 1, 2 of {1, 2, 3}, then active sets of size 0, 1, 2
    # of {1, 2}, each in lexicographic order; supports outermost
    pr = make_problem(3, 2, "x1^2 + x2^2 + x3^2", g=["x1 + 1", "x2 + 1"])
    supports = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    acts = [(), (1,), (2,), (1, 2)]
    assert _patterns(pr) == [(J, act) for J in supports for act in acts]
    assert _patterns(make_problem(2, 0, "x1^2 + x2^2")) == [((), ())]


def _linear_system(data, J, act):
    """Matrix and right-hand side of the linear system of one pattern, set
    entry by entry: the reference for oracle._kkt_matrix and the right-hand
    side of oracle._linear_roots."""
    jf, hj, gj = data
    grads = [j.gradient for j in hj] + [gj[q - 1].gradient for q in act]
    values = [j.value for j in hj] + [gj[q - 1].value for q in act]
    n = jf.gradient.size
    jc = [i for i in range(1, n + 1) if i not in J]
    size = n + len(grads) + len(jc)
    M, rhs = np.zeros((size, size)), np.zeros(size)
    for i in range(n):
        rhs[i] = -jf.gradient[i]
        for j in range(n):
            M[i, j] = jf.hessian[i, j]
        for k, a in enumerate(grads):
            M[i, n + k] = -a[i]
            M[n + k, i] = a[i]
    for k, v in enumerate(values):
        rhs[n + k] = -v
    for k, i in enumerate(jc, start=n + len(grads)):
        M[i - 1, k] = -1.0
        M[k, i - 1] = 1.0
    return M, rhs


def test_shared_kkt_matrix_is_pinned_by_certify_m_multipliers():
    # both root finders take their KKT matrices from _kkt_matrix, the Newton
    # one through _kkt_systems, which must set every entry as the reference
    # does; the pin is the comparison with certify_m, which solves for the
    # multipliers on its own
    rng = np.random.default_rng(7)
    tol = Tolerances()
    patterns = pinned = with_lam = with_mu = 0
    for _ in range(20):
        pr = random_quadratic_instance(rng, n_max=5).base
        n, mh = pr.n, len(pr.h)
        data = _quadratic_data(pr)
        for J, act in _patterns(pr):
            M, rhs = _linear_system(data, J, act)
            sing = np.linalg.svd(M, compute_uv=False)
            if sing[-1] <= tol.tol_rank * sing[0]:
                continue
            z = np.linalg.solve(M, rhs)
            jc0 = [[i - 1 for i in range(1, n + 1) if i not in J]]
            ((F, JF, failed),) = _kkt_systems(pr, [(act, np.array(jc0), z[None])])
            assert not failed[0]
            F, JF = F[0], JF[0]
            np.testing.assert_array_equal(JF, M)
            assert np.max(np.abs(F)) <= 1e-8
            patterns += 1
            cert = certify_m(pr, z[:n], tol)
            jc = tuple(i for i in range(1, n + 1) if i not in J)
            if not (cert.stationary and cert.ndm[0]):
                continue
            if cert.activity.I0 != jc or cert.activity.Q0 != act:
                continue
            solved = [*cert.lam.values(), *(cert.mu[q] for q in act), *(cert.gamma[i] for i in jc)]
            np.testing.assert_allclose(z[n:], solved, rtol=0.0, atol=1e-8)
            pinned += 1
            with_lam += mh > 0
            with_mu += len(act) > 0
    assert patterns >= 250 and pinned >= 200 and with_lam >= 10 and with_mu >= 10


def _linear_roots_one_by_one(pr, tol, notes):
    """The reference for oracle._linear_roots: one SVD and one solve per
    pattern, in pattern order."""
    data = _quadratic_data(pr)
    for J, act in _patterns(pr):
        M, rhs = _linear_system(data, J, act)
        sing = np.linalg.svd(M, compute_uv=False)
        if sing[0] == 0.0 or sing[-1] <= tol.tol_rank * sing[0]:
            notes.append(f"skipped singular pattern support={list(J)} active={list(act)}")
            continue
        x = np.linalg.solve(M, rhs)[: pr.n]
        if np.all(np.isfinite(x)):
            yield J, x


def test_stacked_linear_roots_equal_one_solve_per_pattern():
    rng = np.random.default_rng(83)
    tol = Tolerances()
    # f is linear in x1 and x3 is tied to x1 by the inequality: several
    # singular patterns of different sizes, among regular ones
    problems = [make_problem(4, 2, "x1 + (x2-1)^2 + x3^2 - x4^2", g=["x3 - x1 + 1"])]
    # two inequalities: groups (|J|, act) of one system size but different
    # constraint rows, as ((), (1,)), ((1,), (1, 2)) and ((1,), (2,))
    problems.append(make_problem(3, 2, "(x1-1)^2 + x2^2 - x3^2 + x1*x3", g=["x1 + x2 - 1", "x3 - x2"]))
    problems += [random_quadratic_instance(rng, n_max=6).base for _ in range(12)]
    sizes, skipped, shared = set(), 0, 0
    for pr in problems:
        got_notes, want_notes = [], []
        got = [(J, x.tobytes()) for J, x in oracle._linear_roots(pr, tol, got_notes)]
        want = [(J, x.tobytes()) for J, x in _linear_roots_one_by_one(pr, tol, want_notes)]
        assert got == want and got_notes == want_notes
        skipped += len(got_notes)
        groups = {(len(J), act) for J, act in _patterns(pr)}
        size = {key: 2 * pr.n + len(pr.h) + len(key[1]) - key[0] for key in groups}
        sizes |= set(size.values())
        shared += len(groups) - len(set(size.values()))  # groups beside another of their size
    assert skipped >= 3 and len(sizes) >= 8 and shared >= 10


def _m_pattern_system(pr, J, act):
    """Residual and Jacobian of the KKT system of one pattern, as a function
    of its unknowns: the one-point form of oracle._kkt_systems."""
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
        JF = _kkt_matrix(hess, [j.gradient for j in hj + gj], np.array([jc0], dtype=int))[0]
        return F, JF

    return eval_f, size


def _damped_newton(eval_f, z0, tol, max_iter=100, max_halvings=30):
    z = z0.copy()
    try:
        F, JF = eval_f(z)
    except ExprDomainError:
        return z, False
    merit = float(np.linalg.norm(F))
    for _ in range(max_iter):
        if merit <= tol.tol_feas:
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
            return z, merit <= tol.tol_feas
    return z, merit <= tol.tol_feas


def _newton_roots_one_by_one(pr, grid, tol, notes, counts):
    """The reference for oracle._newton_roots: one damped-Newton run per
    pattern and start, one point at a time.  counts gathers the runs and the
    evaluations that raised, at a start and in all."""
    axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
    failures = 0
    for J, act in _patterns(pr):
        eval_f, size = _m_pattern_system(pr, J, act)
        roots = []
        for start in itertools.product(axis, repeat=len(J)):
            z0 = np.zeros(size)
            for slot, i in enumerate(J):
                z0[i - 1] = start[slot]
            z, ok = _counted_run(eval_f, z0, tol, counts)
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


def _counted_run(eval_f, z0, tol, counts):
    calls = []

    def counted(z):
        calls.append(z)
        try:
            return eval_f(z)
        except ExprDomainError:
            counts["raised"] += 1
            counts["raised at start"] += len(calls) == 1
            raise

    counts["starts"] += 1
    return _damped_newton(counted, z0, tol)


def _smooth_source(rng, n):
    """Quadratic plus small sin/cos/exp/log(1+x^2) terms and two products,
    like the instances of the newton_smooth benchmark workload."""
    terms = [random_quadratic_source(rng, n)]
    for i in range(1, n + 1):
        a = float(rng.uniform(0.1, 0.3))
        terms.append((f"{a!r}*sin(x{i})", f"{a!r}*cos(x{i})", f"{a!r}*exp(0.3*x{i})",
                      f"{a!r}*log(1+x{i}^2)")[int(rng.integers(0, 4))])
    for _ in range(2):
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        terms.append(f"({float(rng.uniform(-0.2, 0.2))!r})*x{i}*sin(x{j})")
    return " + ".join(terms)


def test_lockstep_newton_roots_equal_one_start_at_a_time(monkeypatch):
    rng = np.random.default_rng(89)
    tol = Tolerances()
    curved_h = ["x1^2 + x2^2 + x3 - 1"]
    curved_g = ["2 - x1^2 - x2^2 - x3^2 - x4^2", "x1 + x2 - 0.5"]
    cases = [(make_problem(n, s, _smooth_source(rng, n)), GridSpec(3)) for n, s in ((4, 2), (5, 2), (6, 2))]
    cases += [
        # curved h and g, both of the latter active in some patterns; many
        # runs fail, some only after max_iter steps
        (make_problem(4, 2, _smooth_source(rng, 4), curved_h, curved_g), GridSpec(2)),
        (_exp_well_reg().base, GridSpec(3)),  # 3 starts do not converge
        # log raises at the starts x1 = -2 and in line searches below it
        (make_problem(2, 1, "log(x1 + 2) + x1^2 + (x2 - 1)^2"), GridSpec(3)),
        # g1 raises at the starts x2 = -2, also where it is inactive
        (make_problem(3, 2, "(x1 - 1)^2 + (x2 - 1)^2 + x3^2", g=["log(x2 + 2)"]), GridSpec(3)),
        # the Jacobian is singular at x1 = 0: least squares, within a batch
        (make_problem(3, 2, "x1^4 - x1 + (x2 - 1)^2 + x3^2"), GridSpec(3)),
        # 376 starts: two batches
        (make_problem(5, 3, _smooth_source(rng, 5)), GridSpec(3)),
    ]
    counts = dict.fromkeys(["starts", "raised", "raised at start"], 0)
    lstsq_calls = {"lockstep": 0, "reference": 0}
    lstsq = np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        lstsq_calls[phase] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    noted = 0
    for pr, grid in cases:
        got_notes, want_notes = [], []
        phase = "lockstep"
        got = [(J, x.tobytes()) for J, x in oracle._newton_roots(pr, grid, tol, got_notes)]
        phase = "reference"
        with np.errstate(all="ignore"):  # the runs that diverge overflow
            want = _newton_roots_one_by_one(pr, grid, tol, want_notes, counts)
            want = [(J, x.tobytes()) for J, x in want]
        assert got == want and got_notes == want_notes
        assert got
        noted += bool(got_notes)
    assert counts["starts"] > 2 * oracle._BATCH and noted >= 2
    assert counts["raised at start"] >= 3 and counts["raised"] > counts["raised at start"]
    assert lstsq_calls["lockstep"] == lstsq_calls["reference"] >= 3


def test_newton_stops_where_the_certifier_accepts():
    # stopping at max|F| <= tol_feas leaves the support-(3, 4) run at a
    # residual of 1.096e-9, above certify_m's bound tol_feas * (1 + |grad f|)
    # of about 1.08e-9, so Newton must stop on the norm the certifier reads
    f = (
        "(1.7091722931237654)*x1*x1 + (-0.06053404939038565)*x1 + (0.17336255558501668)*x1*x2"
        " + (-0.20749886080724345)*x1*x3 + (-0.27744887844127153)*x1*x4"
        " + (0.8288251788746606)*x2*x2 + (0.1548136410319194)*x2 + (0.24445077305905316)*x2*x3"
        " + (0.19769651884347206)*x2*x4 + (1.4051722856280073)*x3*x3 + (0.9025382014337398)*x3"
        " + (0.27909475546039053)*x3*x4 + (1.3831660998948767)*x4*x4 + (0.22674482002469487)*x4"
        " + (0.24369702578025518)*cos(x1) + (0.27882961948888235)*cos(x2)"
        " + (0.15331636523921827)*log(1+x3^2) + (0.2423094604967088)*log(1+x4^2)"
        " + (-0.14823740211561268)*x4*sin(x2) + (0.12048706367596229)*x4*sin(x2)"
    )
    pr = make_problem(4, 2, f)
    tol, grid = Tolerances(), GridSpec(3)
    roots = list(oracle._shared_roots(pr, tol, [], grid))
    assert (3, 4) in [J for J, _ in roots]
    for J, pe in roots:  # unconstrained: every pattern root is M-stationary
        assert certify_m(pr, pe, tol).stationary, J
    census = census_newton(pr, grid, tol)
    assert len(census.m_points) == len(roots) == 11
    assert census.by_index_m == {0: 6, 1: 4, 2: 1}
    rp = make_regularized(pr, [0.18076373444993057, 0.3683147223669741, 0.6998334232587011,
                               0.9274852786528066], 0.46200728288977233)
    assert census_newton(rp, grid, tol).by_index_t == {0: 6, 1: 8, 2: 3}


def test_lockstep_runs_keep_the_limits_of_one_run():
    # small max_iter and max_halvings put runs at both limits: a run may
    # converge on its last allowed step, or fail one step or halving short
    rng = np.random.default_rng(91)
    tol = Tolerances()
    problems = [make_problem(4, 2, _smooth_source(rng, 4)), _exp_well_reg().base,
                make_problem(3, 2, "x1^4 - x1 + (x2 - 1)^2 + x3^2"),
                make_problem(2, 1, "log(x1 + 2) + x1^2 + (x2 - 1)^2"),
                make_problem(2, 1, "exp(x1) - 3*x1 + x2^2 + x1*x2")]  # one start needs 2 trials
    outcomes = set()
    for pr in problems:
        axis = np.linspace(-2.0, 2.0, 3)
        starts = [(J, act, start) for J, act in _patterns(pr) for start in itertools.product(axis, repeat=len(J))]
        for max_iter, max_halvings in ((1, 30), (2, 30), (3, 1), (4, 2), (100, 1)):
            limits = {"max_iter": max_iter, "max_halvings": max_halvings}
            got = oracle._lockstep_newton(pr, starts, tol, **limits)
            for (J, act, start), x in zip(starts, got):
                eval_f, size = _m_pattern_system(pr, J, act)
                z0 = np.zeros(size)
                z0[[i - 1 for i in J]] = start
                with np.errstate(all="ignore"):
                    z, ok = _damped_newton(eval_f, z0, tol, **limits)
                assert (x is not None) == ok
                if ok:
                    assert x.tobytes() == z[: pr.n].tobytes()
                outcomes.add((max_iter, ok))
    assert outcomes == {(k, ok) for k in (1, 2, 3, 4, 100) for ok in (False, True)}


def _entry(x, index):
    x = np.array(x, dtype=float)
    cert = MCertificate(True, True, CcopActivity((), (), 0), m_index=index)
    return x, (x, cert)


def _dedupe_entries(entries, radius, snap, notes, what):
    """_dedupe of the keys and indices of (key, (x, cert)) entries, as a
    census reads them off its columns: the payloads it keeps, in its order."""
    keys = np.array([key for key, _ in entries])
    kept = _dedupe(keys, [payload[-1].m_index for _, payload in entries], radius, snap, notes, what)
    return [entries[k][1] for k in kept]


def test_dedupe_merges_equal_index_and_flags_differing_index():
    r = 0.25
    entries = [
        _entry([0.0, 0.0], 0),
        _entry([0.0, 0.2], 0),  # near, same index: merged
        _entry([1.0, 0.0], 0),
        _entry([1.0, 0.1], 1),  # near, other index: kept and flagged
        _entry([2.0, 3.0], 2),
        _entry([2.25, 3.0], 2),  # exactly radius apart: merged
        _entry([3.0, 5.0], 2),
        _entry([3.3, 5.0], 2),  # beyond radius in the first coordinate only
        _entry([4.0, 5.0], 2),  # far beyond
    ]
    notes = []
    kept = _dedupe_entries(list(reversed(entries)), r, r / 10, notes, "M")
    assert [x.tolist() for x, _ in kept] == [
        [0.0, 0.0], [1.0, 0.0], [1.0, 0.1], [2.0, 3.0], [3.0, 5.0], [3.3, 5.0], [4.0, 5.0]
    ]
    assert notes == ["manual review: nearby M points with differing index at [1.0, 0.1]"]


def test_dedupe_order_ignores_the_sign_of_rounding_noise():
    # the same census points, once with each zero coordinate's rounding
    # noise of one sign and once of the other, in either input order
    def listed(sign, reverse):
        entries = [
            _entry([sign * 2.5e-17, 1.0], 0),
            _entry([-sign * 4.1e-17, 2.0], 1),
            _entry([0.5, sign * 1e-17], 0),
        ]
        kept = _dedupe_entries(entries[::-1] if reverse else entries, 1e-7, 1e-8, [], "M")
        return [np.round(x, 12).tolist() for x, _ in kept]

    for sign in (1.0, -1.0):
        for reverse in (False, True):
            assert listed(sign, reverse) == [[0.0, 1.0], [0.0, 2.0], [0.5, 0.0]]


def test_dedupe_sweep_matches_pairwise_comparison():
    def pairwise(entries, radius, snap, notes):
        out = []
        snapped = lambda e: tuple(np.where(np.abs(e[0]) <= snap, 0.0, e[0]))
        for key, payload in sorted(entries, key=snapped):
            label = payload[-1].m_index
            for kkey, kpayload in out:
                if np.max(np.abs(key - kkey)) <= radius:
                    if kpayload[-1].m_index == label:
                        break
                    notes.append(np.round(key, 6).tolist())
            else:
                out.append((key, payload))
        return [payload for _, payload in out]

    def check(entries, radius, snap):
        notes, want_notes = [], []
        got = _dedupe_entries(entries, radius, snap, notes, "M")
        want = pairwise(entries, radius, snap, want_notes)
        assert [p[0].tolist() for p in got] == [p[0].tolist() for p in want]
        assert notes == [
            f"manual review: nearby M points with differing index at {k}" for k in want_notes
        ]

    rng = np.random.default_rng(5)
    for _ in range(20):
        # a coarse lattice, so that first coordinates repeat and neighbours
        # sit at, inside and just beyond the radius
        entries = [
            _entry(rng.integers(0, 4, size=3) * 0.125, int(rng.integers(0, 2)))
            for _ in range(60)
        ]
        check(entries, 0.125, 0.0125)

    # T-census shape: the companions of one M-point share x, so most points
    # share a snapped first coordinate (0 up to rounding noise of either
    # sign); y-coordinates near a boundary of the hash grid put neighbours
    # within the radius on both sides of it
    radius = 1e-3
    boundary = 0.5 * oracle._CELL_RADII * radius  # between the cells 0 and 1
    straddling = 0
    for _ in range(20):
        entries = []
        for x in ([0.0, 0.0, 1.5], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]):
            for _ in range(25):
                y = rng.choice([0.0, 1.25, boundary], size=3)
                near = y == boundary
                y[near] += rng.choice([-1.0, -0.5, 0.5, 1.0], size=int(near.sum())) * radius
                key = np.concatenate([x, y])
                zeros = key == 0.0
                key[zeros] = rng.choice([-1e-17, 1e-17], size=int(zeros.sum()))
                entries.append(_entry(key, int(rng.integers(0, 2))))
        keys = np.array([key for key, _ in entries])
        cells = np.floor(keys / (oracle._CELL_RADII * radius) + 0.5)
        for a in range(len(keys)):
            close = np.max(np.abs(keys - keys[a]), axis=1) <= radius
            straddling += int(np.sum(close & np.any(cells != cells[a], axis=1)))
        check(entries, radius, radius / 10)
    assert straddling > 100
