"""One PointEval per point feeds every check and certificate at that point,
and each (problem, point, tolerances) is certified once while its
certificate is held."""

import copy
import dataclasses
import gc
import os
import pickle
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import ccopkit
from ccopkit import (
    AssumptionError,
    ExprDomainError,
    GridSpec,
    PointEval,
    Problem,
    Tolerances,
    census_newton,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    certify_m_many,
    certify_t,
    certify_t_pairs,
    evaluate,
    lift,
    make_regularized,
    parse,
    project,
    to_source,
)
from ccopkit import ccop, cli, oracle, regmpoc

from helpers import (
    affine_source,
    make_problem,
    random_c,
    random_quadratic_instance,
    random_quadratic_source,
    random_sparse_point,
    well_ones,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def eval2_calls(monkeypatch):
    """Evaluations per (expression, point): eval2 calls and eval2_many rows,
    counted through every ccopkit module attribute bound to either.  The
    root searches' own evaluations are not counted: the jets at the origin
    of the linear one (oracle._quadratic_data) and the Newton iterates
    (ccop._jets_at as oracle calls it)."""
    counts: dict = {}
    quiet = []

    def count(expr, x):
        if not quiet:
            key = (id(expr), np.asarray(x, dtype=float).tobytes())
            counts[key] = counts.get(key, 0) + 1

    def one(expr, x):
        count(expr, x)
        return eval2(expr, x)

    def many(expr, X):
        for x in np.asarray(X, dtype=float):
            count(expr, x)
        return eval2_many(expr, X)

    eval2, eval2_many = ccopkit.exprcore.eval2, ccopkit.exprcore.eval2_many
    for name, module in list(sys.modules.items()):
        if name == "ccopkit" or name.startswith("ccopkit."):
            for attr, value in list(vars(module).items()):
                if value is eval2 or value is eval2_many:
                    monkeypatch.setattr(module, attr, one if value is eval2 else many)
    for attr in ("_quadratic_data", "_jets_at"):
        inner = getattr(oracle, attr)

        def uncounted(*args, inner=inner):
            quiet.append(True)
            try:
                return inner(*args)
            finally:
                quiet.pop()

        monkeypatch.setattr(oracle, attr, uncounted)
    return counts


def test_lift_and_project_evaluate_each_expression_once(eval2_calls):
    pr = make_problem(
        5, 3, "(x1-3)^2 + (x2-1)^2 + (x3-1)^2 + (x4-1)^2 + (x5-1)^2",
        h=["x1 - 3"], g=["x1 + x2 + 1"],
    )
    rp = make_regularized(pr, [0.15, 0.3, 0.45, 0.6, 0.75], 0.25)
    x = [3.0, 0.0, 0.0, 0.0, 0.0]
    ls = lift(rp, x)
    assert len(ls.companions) == 3
    assert len(eval2_calls) == 3 and set(eval2_calls.values()) == {1}  # f, h, g at x
    eval2_calls.clear()
    for y, _ in ls.companions:
        assert project(rp, x, y).nondegenerate
    assert eval2_calls == {}  # every certificate project needs is held by ls


def test_a_cold_project_evaluates_each_expression_once(eval2_calls):
    pr = make_problem(
        5, 3, "(x1-3)^2 + (x2-1)^2 + (x3-1)^2 + (x4-1)^2 + (x5-1)^2",
        h=["x1 - 3"], g=["x1 + x2 + 1"],
    )
    rp = make_regularized(pr, [0.15, 0.3, 0.45, 0.6, 0.75], 0.25)
    x = [3.0, 0.0, 0.0, 0.0, 0.0]
    held = [project(rp, x, regmpoc.companion_y(rp, 5, (3,)))]  # T and M miss, one evaluation
    assert held[0].nondegenerate
    assert len(eval2_calls) == 3 and set(eval2_calls.values()) == {1}  # f, h, g at x
    eval2_calls.clear()
    held.append(project(rp, x, regmpoc.companion_y(rp, 5, (2,))))  # only the T side misses
    assert len(eval2_calls) == 3 and set(eval2_calls.values()) == {1}


def test_verify_round_trips_after_the_censuses_evaluate_nothing(eval2_calls):
    rng = np.random.default_rng(67)
    trips = 0
    for _ in range(4):
        rp = random_quadratic_instance(rng, n_max=6)
        held = census_quadratic(rp.base), census_t_quadratic(rp)
        eval2_calls.clear()
        for x, mcert in held[0].m_points:  # as cmd_verify walks them
            if mcert.nondegenerate:
                pe = ccop._point(rp.base, x)
                ls = lift(rp, pe)
                for y, _ in ls.companions:
                    assert project(rp, pe, y).m_index == mcert.m_index
                    trips += 1
        assert eval2_calls == {}
    assert trips >= 20


def test_lifts_after_an_m_census_evaluate_nothing(eval2_calls):
    # lift gets arrays with the bits of kept roots, whose jets it reuses
    rng = np.random.default_rng(71)
    lifted = 0
    for _ in range(5):
        rp = random_quadratic_instance(rng, n_max=6)
        census = census_quadratic(rp.base)
        eval2_calls.clear()
        for x, mcert in census.m_points:
            if mcert.nondegenerate:
                lifted += len(lift(rp, x).companions)
        assert eval2_calls == {}
    assert lifted >= 20


def test_an_array_at_a_kept_root_carries_its_jets():
    pr = make_problem(2, 1, "(x1 - 1)^2 + (x2 - 1)^2", g=["x1 + 1"])
    roots = {pe.x.tobytes(): pe for _, pe in oracle._shared_roots(pr, Tolerances())[0]}
    assert len(roots) >= 3 and all("_jets" in vars(pe) for pe in roots.values())
    for bits, kept in roots.items():
        x = np.frombuffer(bits).copy()
        pe = ccop._point(pr, x)
        assert pe.x is not kept.x and pe.x.tobytes() == bits and not pe.x.flags.writeable
        assert vars(pe)["_jets"] is vars(kept)["_jets"]
    # other bits (here -0.0 for 0.0) evaluate on first use
    assert "_jets" not in vars(ccop._point(pr, [-0.0, -0.0]))
    # a root at which an expression fails is kept without jets, and an
    # array at it evaluates, and raises, on first use; the other roots keep
    # theirs
    pr = make_problem(2, 1, "(x1 - 1)^2 + (x2 - 1)^2", g=["log(x1)"])
    roots = [pe for _, pe in oracle._shared_roots(pr, Tolerances(), GridSpec(3))[0]]
    undefined = 0
    for pe in roots:
        defined = bool(pe.x[0] > 0.0)
        assert ("_jets" in vars(pe)) == ("_jets" in vars(ccop._point(pr, pe.x.copy()))) == defined
        if not defined:
            with pytest.raises(ExprDomainError):
                certify_m(pr, pe.x.copy())
            undefined += 1
    assert 0 < undefined < len(roots)


def test_cli_verify_evaluates_nothing_after_its_censuses(eval2_calls, monkeypatch, capsys):
    census = cli._census

    def then_clear(*args):
        report = census(*args)
        eval2_calls.clear()
        return report

    monkeypatch.setattr(cli, "_census", then_clear)
    for name in ("well_ones.prob", "constrained.prob"):
        assert cli.main(["verify", os.path.join(DATA, name), "--format", "machine"]) == 0
        assert "lift-roundtrip" in capsys.readouterr().out
        assert eval2_calls == {}


def test_t_census_evaluates_each_expression_once_per_root(eval2_calls):
    rng = np.random.default_rng(3)
    n, s = 5, 2
    g = [affine_source(rng.uniform(-1.0, 1.0, size=n), 0.5)]
    rp = make_regularized(
        make_problem(n, s, random_quadratic_source(rng, n), g=g), random_c(rng, n), 0.5 / (n - s)
    )
    census = census_t_quadratic(rp)
    assert len(census.t_points) > 10
    roots = len(oracle._shared_roots(rp.base, Tolerances())[0])
    assert set(eval2_calls.values()) == {1} and len(eval2_calls) == 2 * roots  # f and g
    held = census_quadratic(rp.base)  # the M side gets the same evaluated roots
    assert held.m_points and set(eval2_calls.values()) == {1} and len(eval2_calls) == 2 * roots


def test_point_eval_certificates_equal_array_certificates():
    rng = np.random.default_rng(41)
    compared = 0
    for _ in range(6):
        rp = random_quadratic_instance(rng, n_max=5)
        census = census_t_quadratic(rp)
        pairs = [(x, y) for x, y, _ in census.t_points[:4]]
        pairs.append((random_sparse_point(rng, rp.n, rp.s), rng.uniform(0.0, 1.0, size=rp.n)))
        for x, y in pairs:
            pe = evaluate(rp.base, x)
            assert certify_m(rp.base, pe) == certify_m(rp.base, x)
            assert certify_t(rp, pe, y) == certify_t(rp, x, y)
            compared += 1
    assert compared >= 15


def test_evaluate_checks_its_problem_and_shape():
    pe = evaluate(well_ones(), [1.0, 0.0])
    assert evaluate(pe.problem, pe) is pe
    assert not pe.x.flags.writeable
    with pytest.raises(ValueError, match="another problem"):
        certify_m(well_ones(), pe)
    with pytest.raises(ValueError, match="shape"):
        evaluate(pe.problem, [1.0, 0.0, 0.0])


def _permuted(rp, perm):
    """rp with x_i renamed x_perm[i] (perm 0-based) and c permuted alike."""
    def rename(e):
        src = re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", to_source(e))
        return parse(src, rp.n)

    pr = rp.base
    permuted = Problem(pr.n, pr.s, rename(pr.f), tuple(map(rename, pr.h)), tuple(map(rename, pr.g)))
    c = np.empty(rp.n)
    c[perm] = rp.c
    return make_regularized(permuted, c, rp.eps)


def _assert_permuted(got, want, perm, by_coordinate):
    """Multiplier dict `got` is `want` with coordinate keys permuted."""
    if by_coordinate:
        want = {int(perm[i - 1]) + 1: v for i, v in want.items()}
    assert set(got) == set(want)
    for i, v in want.items():
        assert got[i] == pytest.approx(v, rel=1e-9, abs=1e-9)


def test_permuting_coordinates_with_c_permutes_multipliers_and_keeps_indices():
    rng = np.random.default_rng(53)
    checked_m = checked_t = 0
    for _ in range(8):
        rp = random_quadratic_instance(rng, n_max=6)
        perm = rng.permutation(rp.n)
        rq = _permuted(rp, perm)

        def move(v):
            out = np.empty(rp.n)
            out[perm] = v
            return out

        for x, mcert in census_quadratic(rp.base).m_points:
            got = certify_m(rq.base, move(x))
            assert (got.m_index, got.quadratic_index, got.ndm) == (
                mcert.m_index, mcert.quadratic_index, mcert.ndm
            )
            _assert_permuted(got.lam, mcert.lam, perm, False)
            _assert_permuted(got.mu, mcert.mu, perm, False)
            _assert_permuted(got.gamma, mcert.gamma, perm, True)
            checked_m += 1
        for x, y, tcert in census_t_quadratic(rp).t_points:
            got = certify_t(rq, move(x), move(y))
            assert (got.t_index, got.quadratic_index, got.ndt) == (
                tcert.t_index, tcert.quadratic_index, tcert.ndt
            )
            assert got.mu3 == pytest.approx(tcert.mu3, rel=1e-9, abs=1e-9)
            for name in ("lam", "mu1"):
                _assert_permuted(getattr(got, name), getattr(tcert, name), perm, False)
            for name in ("mu2", "sigma1", "sigma2", "rho1", "rho2"):
                _assert_permuted(getattr(got, name), getattr(tcert, name), perm, True)
            checked_t += 1
    assert checked_m >= 50 and checked_t >= 50


# ---------------------------------------------------------------------------
# Certificate memo


def _sources(rp):
    pr = rp.base
    return (pr.n, pr.s, to_source(pr.f), [to_source(e) for e in pr.h],
            [to_source(e) for e in pr.g], rp.c, rp.eps)


def _fresh(rp):
    """A new Problem and RegularizedProblem from the sources of rp."""
    n, s, f, h, g, c, eps = _sources(rp)
    return make_regularized(make_problem(n, s, f, h, g), c, eps, override=rp.override)


def _memo_instance():
    rng = np.random.default_rng(61)
    n, s = 5, 2
    g = [affine_source(rng.uniform(-1.0, 1.0, size=n), 0.6)]
    pr = make_problem(n, s, random_quadratic_source(rng, n), g=g)
    return make_regularized(pr, random_c(rng, n), 0.5 / (n - s))


@pytest.fixture
def solves(monkeypatch):
    """Multiplier systems solved, one per certified candidate however many
    share a stacked solve, and the (side, point, tolerances) of every
    certificate that solved one, counted on both sides."""
    calls = {"solve": 0, "keys": []}
    solve = ccop.solve_multipliers

    def counted(G, target, tol):
        calls["solve"] += 1 if np.ndim(G) == 2 else len(G)
        return solve(G, target, tol)

    monkeypatch.setattr(ccop, "solve_multipliers", counted)
    certify_m_, certify_t_ = ccop._certify_m, regmpoc._certify_t_pairs

    def bits(x):
        return np.asarray(x.x if isinstance(x, PointEval) else x).tobytes()

    def m(pr, pes, tol):
        calls["keys"].extend(("m", id(pr), bits(pe), tol) for pe in pes)
        return certify_m_(pr, pes, tol)

    def t(rp, pes, at, Y, tol):
        calls["keys"].extend(("t", id(rp), bits(pes[a]), y.tobytes(), tol) for a, y in zip(at.tolist(), Y))
        return certify_t_(rp, pes, at, Y, tol)

    monkeypatch.setattr(ccop, "_certify_m", m)
    monkeypatch.setattr(regmpoc, "_certify_t_pairs", t)
    return calls


def test_census_lift_and_project_certify_each_point_once(solves):
    rp = _memo_instance()
    m_census, t_census = census_quadratic(rp.base), census_t_quadratic(rp)
    after_censuses = solves["solve"]
    trips = 0
    for x, mcert in m_census.m_points:
        if mcert.nondegenerate:
            ls = lift(rp, x)
            for y, tcert in ls.companions:
                assert project(rp, x, y).m_index == tcert.t_index == mcert.m_index
                trips += 1
    assert trips >= 5 and len(t_census.t_points) >= trips
    assert solves["solve"] == after_censuses == len(solves["keys"])
    assert len(set(solves["keys"])) == len(solves["keys"])


def test_a_cold_lift_does_each_piece_of_work_once_and_a_later_project_none(monkeypatch):
    # with the M census held, a lift certifies its companions in one call:
    # one _solve per layout group, each kernel once per group (one x-block,
    # one system per companion) and one build per companion; projecting a
    # companion afterwards certifies, solves and builds nothing
    rp = _memo_instance()
    m_census = census_quadratic(rp.base)
    seen: dict = {}

    def counted(owner, name, systems=False):
        call = getattr(owner, name)

        def spy(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            if systems:  # a stacked kernel call solves one system per matrix
                key = name + " systems"
                seen[key] = seen.get(key, 0) + (1 if np.ndim(args[0]) == 2 else len(args[0]))
            return call(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    for owner, name in ((ccop, "_certify_m"), (regmpoc, "_certify_t_pairs"), (regmpoc, "_solve"),
                        (regmpoc._TBlock, "build")):
        counted(owner, name)
    for name in ("rank_and_nullbasis", "solve_multipliers", "restricted_inertia"):
        counted(ccop, name, systems=True)
    lifts = companions = 0
    for x, mcert in m_census.m_points:
        if not mcert.nondegenerate:
            continue
        seen.clear()
        ls = lift(rp, x)
        k = len(ls.companions)
        groups = len({(len(t.lam), len(t.activity.Q0), len(t.activity.Ecal), t.activity.sum_active,
                       len(t.activity.a01), len(t.activity.a10), len(t.activity.a00)) for _, t in ls.companions})
        assert seen == {"_certify_t_pairs": 1, "_solve": groups, "build": k,
                        "rank_and_nullbasis": groups, "rank_and_nullbasis systems": groups,
                        "solve_multipliers": groups, "solve_multipliers systems": k,
                        "restricted_inertia": groups, "restricted_inertia systems": k}
        seen.clear()
        for y, tcert in ls.companions:
            assert project(rp, x, y) is ls.base_certificate and certify_t(rp, x, y) is tcert
        assert seen == {}
        lifts, companions = lifts + 1, companions + k
    assert lifts >= 3 and companions > lifts


def _fields(cert):
    return {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}


def test_warm_and_cold_certificates_are_equal():
    rp = _memo_instance()
    held = census_quadratic(rp.base), census_t_quadratic(rp)
    lifts = [lift(rp, x) for x, c in held[0].m_points if c.nondegenerate]
    cold = _fresh(rp)
    compared = 0
    for ls in lifts:
        x = ls.base_point
        warm = certify_m(rp.base, x)
        assert warm is ls.base_certificate
        assert _fields(warm) == _fields(certify_m(cold.base, x))
        for y, tcert in ls.companions:
            warm = certify_t(rp, x, y)
            assert warm is tcert
            assert _fields(warm) == _fields(certify_t(cold, x, y)) == _fields(tcert)
            compared += 1
    assert compared >= 5


def test_memo_key_is_the_point_bits_the_tolerances_and_the_problem(solves):
    rp = _memo_instance()
    x = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, rp.eps + 1.0, rp.eps + 1.0, 1.0 - 2.0 * rp.eps])
    held = [certify_m(rp.base, x), certify_t(rp, x, y)]
    assert solves["solve"] == 2
    certify_m(rp.base, evaluate(rp.base, x))
    certify_m(rp.base, [0, 0, 0, 0, 0])
    certify_t(rp, x, y.tolist(), Tolerances())
    assert solves["solve"] == 2
    x_bit = x.copy()
    x_bit[4] = -0.0
    y_bit = np.nextafter(y, 2.0)
    other = make_regularized(rp.base, rp.c[::-1], rp.eps)
    assert not np.array_equal(other.c, rp.c)
    for side, call in [
        ("m", lambda: certify_m(rp.base, x, Tolerances(tol_act=1e-7))),
        ("m", lambda: certify_m(rp.base, x_bit)),
        ("t", lambda: certify_t(rp, x, y, Tolerances(tol_strict=1e-9))),
        ("t", lambda: certify_t(rp, x_bit, y)),
        ("t", lambda: certify_t(rp, x, y_bit)),
        ("t", lambda: certify_t(other, x, y)),
    ]:
        before = solves["solve"]
        held.append(call())
        assert solves["solve"] == before + 1, side
    assert certify_m(rp.base, x) == held[0] and certify_t(rp, x, y) == held[1]


def _batches(rp, candidates, grid=None):
    """(x, ys) per pattern root of rp's base problem, as the T census forms
    them, x an array."""
    for J, pe in oracle._shared_roots(rp.base, Tolerances(), grid)[0]:
        yield pe.x, list(candidates(J, pe.x))


def test_certify_t_pairs_over_one_x_equals_certify_t_per_y_on_cold_memos():
    rng = np.random.default_rng(73)
    cases = []
    for _ in range(3):  # census_n8-shaped: n=8, s=3, one equality
        row = rng.uniform(0.25, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        pr = make_problem(8, 3, random_quadratic_source(rng, 8), h=[affine_source(row, 0.3)])
        rp = make_regularized(pr, random_c(rng, 8), float(rng.uniform(0.3, 1.0)) / 5)
        cases.append((rp, _batches(rp, oracle._subset_ys(rp)), False))
    for _ in range(3):  # the override sampler: vertices and draws of the y-polytope
        rp = random_quadratic_instance(rng, n_max=6)
        rp = make_regularized(rp.base, np.zeros(rp.n), 0.0, override=True)
        cases.append((rp, _batches(rp, oracle._sampled_ys(rp, Tolerances())), False))
    # Newton roots of a smooth instance with curved h and g
    f = random_quadratic_source(rng, 5) + " + 0.2*sin(x1) + 0.1*x2*x3"
    h, g = ["x1^2 + x2^2 + x3 + 0.5*x4 - 1"], ["2 - x1^2 - x2^2 - x3^2 - x4*x5"]
    pr = make_problem(5, 2, f, h, g)
    rp = make_regularized(pr, random_c(rng, 5), 0.5 / 3)
    cases.append((rp, _batches(rp, oracle._subset_ys(rp), GridSpec(2)), True))

    compared, shapes_in_one_call, curved = 0, 0, 0
    for rp, batches, smooth in cases:
        cold = _fresh(rp)
        for x, ys in batches:
            many = certify_t_pairs(rp, [(x, y) for y in ys])
            one = [certify_t(cold, x, y) for y in ys]
            assert [pickle.dumps(c) for c in many] == [pickle.dumps(c) for c in one]
            compared += len(ys)
            rows = {len(c.lam) + len(c.mu1) + len(c.mu2) + c.activity.sum_active
                    + len(c.sigma1) + len(c.sigma2) + 2 * len(c.rho1) for c in many}
            shapes_in_one_call += len(rows) > 1
            curved += smooth * sum(c.stationary and any(c.lam.values()) for c in many)
    assert compared >= 1000 and shapes_in_one_call >= 5 and curved >= 10

    stored = len(rp._certs)
    assert certify_t_pairs(rp, []) == []
    assert len(rp._certs) == stored


def _batch_cases(rng):
    """(rp, candidates, grid) of the shapes the censuses certify: n=8 with
    one equality (census_n8), the override sampler, and Newton roots of a
    smooth instance with curved h and g.  The first two span several
    batches."""
    row = rng.uniform(0.25, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    pr = make_problem(8, 3, random_quadratic_source(rng, 8), h=[affine_source(row, 0.3)])
    cases = [(make_regularized(pr, random_c(rng, 8), float(rng.uniform(0.3, 1.0)) / 5),
              oracle._subset_ys, None)]
    for pr in (make_problem(6, 4, random_quadratic_source(rng, 6)),
               random_quadratic_instance(rng, n_max=5).base):
        rp = make_regularized(pr, np.zeros(pr.n), 0.0, override=True)
        cases.append((rp, lambda rp: oracle._sampled_ys(rp, Tolerances()), None))
    f = random_quadratic_source(rng, 5) + " + 0.2*sin(x1) + 0.1*x2*x3"
    h, g = ["x1^2 + x2^2 + x3 + 0.5*x4 - 1"], ["2 - x1^2 - x2^2 - x3^2 - x4*x5"]
    rp = make_regularized(make_problem(5, 2, f, h, g), random_c(rng, 5), 0.5 / 3)
    cases.append((rp, oracle._subset_ys, GridSpec(2)))
    return cases


def _pickles(certs):
    return [pickle.dumps(c) for c in certs]


def test_census_batches_equal_cold_per_point_certificates():
    rng = np.random.default_rng(79)
    tol = Tolerances()
    cases = _batch_cases(rng)
    batches = crossing = mixed_roots = mixed_shapes = curved = 0
    for rp, sampler, grid in cases:
        cold = _fresh(rp)
        want_m, want_t = {}, {}  # point bits -> pickled cold certificate
        # arrays, not the roots' PointEvals of rp.base, which cold refuses
        roots = [(J, pe.x) for J, pe in oracle._shared_roots(rp.base, tol, grid)[0]]
        for xs in oracle._batches([x] for _, x in roots):
            want = _pickles([certify_m(cold.base, x) for x in xs])
            assert _pickles(certify_m_many(rp.base, xs)) == want
            want_m.update(zip((x.tobytes() for x in xs), want))
        candidates = sampler(rp)
        groups = [[(x, y) for y in candidates(J, x)] for J, x in roots]
        sizes = [len(pairs) for pairs in oracle._batches(groups)]
        # a batch closes at the first root that fills it, never inside a root
        assert min(sizes[:-1], default=oracle._BATCH) >= oracle._BATCH
        assert set(np.cumsum(sizes)) <= set(np.cumsum([len(g) for g in groups]))
        for pairs in oracle._batches(groups):
            many = certify_t_pairs(rp, pairs)
            want = _pickles([certify_t(cold, x, y) for x, y in pairs])
            assert _pickles(many) == want
            want_t.update(zip((x.tobytes() + y.tobytes() for x, y in pairs), want))
            batches += 1
            crossing += len(pairs) > oracle._BATCH
            mixed_roots += len({id(x) for x, _ in pairs}) > 1
            rows = {len(c.lam) + len(c.mu1) + len(c.mu2) + c.activity.sum_active
                    + len(c.sigma1) + len(c.sigma2) + 2 * len(c.rho1) for c in many}
            mixed_shapes += len(rows) > 1
            curved += (grid is not None) * sum(c.stationary and any(c.lam.values()) for c in many)

        # the censuses, on an instance no certificate was memoized on
        fresh = _fresh(rp)
        if grid is None:
            m_census, t_census = census_quadratic(fresh.base), census_t_quadratic(fresh)
        else:
            m_census, t_census = census_newton(fresh.base, grid), census_newton(fresh, grid)
        assert m_census.m_points and t_census.t_points
        for x, cert in m_census.m_points:
            assert pickle.dumps(cert) == want_m[x.tobytes()]
        for x, y, cert in t_census.t_points:
            assert pickle.dumps(cert) == want_t[x.tobytes() + y.tobytes()]
    assert batches > len(cases) and crossing >= 2
    assert mixed_roots >= 5 and mixed_shapes >= 5 and curved >= 10


def test_a_key_repeated_in_one_batch_is_certified_once(solves, eval2_calls):
    rp = _memo_instance()
    x = np.zeros(rp.n)
    y = np.array([0.0, 0.0, rp.eps + 1.0, rp.eps + 1.0, 1.0 - 2.0 * rp.eps])
    x2 = np.array([0.0, 0.5, 0.0, 0.0, 0.0])
    pairs = [(x, y), (x.copy(), y.copy()), (x2, y), (evaluate(rp.base, x), y.tolist()), (x, 2 * y)]
    cold = _fresh(rp)
    plain = [(x, y), (x, y), (x2, y), (x, y), (x, 2 * y)]  # the pairs as arrays of cold's problem
    want = _pickles([certify_t(cold, v, w) for v, w in plain])
    eval2_calls.clear()
    solves["keys"].clear()
    got = certify_t_pairs(rp, pairs)
    assert len(solves["keys"]) == len(set(solves["keys"])) == 3
    assert len(eval2_calls) == 2 * 2 and set(eval2_calls.values()) == {1}  # f, g at x and x2
    assert _pickles(got) == want  # the pairs interleave two xs
    assert got[1] is got[0] and got[3] is got[0] and got[4] is not got[0]
    xs = [x, x2, x.copy(), x]
    want = _pickles([certify_m(cold.base, v) for v in xs])
    solves["keys"].clear()
    ms = certify_m_many(rp.base, xs)
    assert len(solves["keys"]) == len(set(solves["keys"])) == 2
    assert _pickles(ms) == want and ms[2] is ms[0] and ms[3] is ms[0] and ms[1] is not ms[0]
    assert certify_t_pairs(rp, []) == [] and certify_m_many(rp.base, []) == []


def test_a_call_evaluates_the_xs_of_its_missed_points_alone(eval2_calls):
    # each distinct x is evaluated once if a pair (or point) over it is not
    # held, and never otherwise
    rp = _memo_instance()
    x1, x2 = np.zeros(rp.n), np.array([0.0, 0.5, 0.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, rp.eps + 1.0, rp.eps + 1.0, 1.0 - 2.0 * rp.eps])
    held = certify_t(rp, x1, y), certify_m(rp.base, x1)
    at_x2 = {(id(e), x2.tobytes()): 1 for e in (rp.base.f, *rp.base.h, *rp.base.g)}
    eval2_calls.clear()
    got = certify_t_pairs(rp, [(x1.copy(), y), (x2, y)])
    assert eval2_calls == at_x2 and got[0] is held[0]
    eval2_calls.clear()
    got = certify_m_many(rp.base, [x1.copy(), x2])
    assert eval2_calls == at_x2 and got[0] is held[1]


def test_a_batch_with_a_wrong_y_raises_and_stores_nothing():
    rp = _memo_instance()
    x = np.zeros(rp.n)
    y = np.array([0.0, 0.0, rp.eps + 1.0, rp.eps + 1.0, 1.0 - 2.0 * rp.eps])
    for bad in (y[:-1], y.reshape(-1, 1), np.append(y, 0.0)):
        for ys in ([bad, y], [y, bad], [y, y, bad]):
            with pytest.raises(ValueError, match="shape"):
                certify_t_pairs(rp, [(x, v) for v in ys])
            assert len(rp._certs) == 0
    held = certify_t_pairs(rp, [(x, y), (x, 2.0 * y)])
    assert len(rp._certs) == 2
    # the assumption is checked before any lookup: a stored entry is no hit
    relaxed = make_regularized(rp.base, np.zeros(rp.n), 0.0, override=True)
    held += certify_t_pairs(relaxed, [(x, y)])
    object.__setattr__(relaxed, "override", False)
    for ys in ([y], [], [y[:-1]]):
        with pytest.raises(AssumptionError):
            certify_t_pairs(relaxed, [(x, v) for v in ys])


def test_would_be_hits_still_raise():
    rp = _memo_instance()
    x = np.zeros(rp.n)
    y = np.array([0.0, 0.0, rp.eps + 1.0, rp.eps + 1.0, 1.0 - 2.0 * rp.eps])
    held = certify_m(rp.base, x), certify_t(rp, x, y)
    twin = _fresh(rp)
    for call in (lambda: certify_m(rp.base, evaluate(twin.base, x)),
                 lambda: certify_t(rp, evaluate(twin.base, x), y)):
        with pytest.raises(ValueError, match="another problem"):
            call()
    for call in (lambda: certify_m(rp.base, x.reshape(-1, 1)),
                 lambda: certify_t(rp, x.reshape(-1, 1), y),
                 lambda: certify_t(rp, x, y.reshape(-1, 1))):
        with pytest.raises(ValueError, match="shape"):
            call()
    # parameters that break the assumption, certified under override; the
    # flag is frozen, so switch it off in place to leave a stored entry
    relaxed = make_regularized(rp.base, np.zeros(rp.n), 0.0, override=True)
    held += (certify_t(relaxed, x, y),)
    assert len(relaxed._certs) == 1
    object.__setattr__(relaxed, "override", False)
    with pytest.raises(AssumptionError):
        certify_t(relaxed, x, y)


def test_a_hit_is_the_held_certificate():
    rp = _memo_instance()
    census = census_quadratic(rp.base), census_t_quadratic(rp)
    x, y, tcert = next(p for p in census[1].t_points if p[2].activity.a00)
    assert tcert.eq8_branches
    mcert = next(c for _, c in census[0].m_points if c.gamma)
    xm = next(x for x, c in census[0].m_points if c is mcert)
    stored = list(rp.base._certs.values()) + list(rp._certs.values())
    for entry, hits in ((mcert, [certify_m(rp.base, xm), certify_m(rp.base, xm.copy())]),
                        (tcert, [certify_t(rp, x, y), certify_t(rp, x.copy(), y.tolist())])):
        assert any(entry is kept for kept in stored)
        assert all(hit is entry for hit in hits)


def test_lift_and_project_raise_input_errors_cold_and_warm():
    pr = make_problem(2, 1, "log(x1) + (x2-1)^2")
    rp = make_regularized(pr, [0.3, 0.7], 0.5)
    undefined, y = [0.0, 1.0], [1.0, 0.0]
    held = []
    for _ in range(2):  # cold, then with certificates held at another point
        for call in (lambda: lift(rp, undefined), lambda: project(rp, undefined, y)):
            with pytest.raises(ExprDomainError):
                call()
        for call in (lambda: lift(rp, [1.0, 0.0, 0.0]), lambda: project(rp, [1.0, 0.0, 0.0], y),
                     lambda: project(rp, [1.0, 0.0], [1.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="shape"):
                call()
        held += [certify_m(pr, [1.0, 0.0]), certify_t(rp, [1.0, 0.0], [0.0, 1.0])]
        assert len(pr._certs) == len(rp._certs) == 1


def test_project_reports_an_input_error_before_the_parameters():
    pr = make_problem(2, 1, "log(x1) + (x2-1)^2")
    relaxed = make_regularized(pr, [0.0, 0.0], 0.0)
    with pytest.raises(ExprDomainError):
        project(relaxed, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        project(relaxed, [0.0, 1.0, 0.0], [1.0, 0.0])
    with pytest.raises(AssumptionError):
        project(relaxed, [1.0, 0.0], [0.0, 1.0])


def test_domain_errors_raise_on_every_call():
    pr = make_problem(2, 1, "log(x1) + (x2-1)^2")
    rp = make_regularized(pr, [0.3, 0.7], 0.5)
    for _ in range(3):
        with pytest.raises(ExprDomainError):
            certify_m(pr, [0.0, 1.0])
        with pytest.raises(ExprDomainError):
            certify_t(rp, [0.0, 1.0], [1.0, 0.0])
    assert len(pr._certs) == 0 and len(rp._certs) == 0


# every way to change a dict in place, each of which a certificate's mapping
# refuses; k is a key of the mapping, or any key if it is empty
_MUTATIONS = (
    lambda m, k: m.__setitem__(k, 99.0),
    lambda m, k: m.__setitem__(99, 99.0),
    lambda m, k: m.__delitem__(k),
    lambda m, k: m.__ior__({k: 99.0}),
    lambda m, k: m.clear(),
    lambda m, k: m.pop(k),
    lambda m, k: m.popitem(),
    lambda m, k: m.setdefault(99, 99.0),
    lambda m, k: m.update({k: 99.0}),
    lambda m, k: m.__init__({k: 99.0}),
)


def test_init_on_a_frozen_dict_raises_and_changes_nothing():
    # dict.__init__ would add the items in place; an empty mapping cannot
    # tell its first fill from a later one, so every later call must raise
    for items in ({1: 2.0, 3: -0.5}, {}):
        frozen = ccop.FrozenDict(items)
        want = pickle.dumps(frozen)
        for clone in (frozen, pickle.loads(want), copy.deepcopy(frozen), copy.copy(frozen)):
            assert type(clone) is ccop.FrozenDict and clone == items and pickle.dumps(clone) == want
            for args, kwargs in (((), {}), (({4: 1.0},), {}), (([(1, 9.0)],), {}), ((), {"x": 1.0})):
                with pytest.raises(TypeError, match="read-only"):
                    clone.__init__(*args, **kwargs)
                assert clone == items and pickle.dumps(clone) == want
    assert ccop.FrozenDict(a=1.0) == {"a": 1.0} and ccop.FrozenDict([(2, 3.0)], b=4.0) == {2: 3.0, "b": 4.0}


def test_mutating_a_certificate_changes_no_later_hit():
    rp = _memo_instance()
    census = census_t_quadratic(rp)
    x, y, tcert = next(p for p in census.t_points if p[2].activity.a00 and p[2].mu1)
    mcert = certify_m(rp.base, x)
    want_m, want_t = pickle.dumps(mcert), pickle.dumps(tcert)
    mappings = 0
    for cert in (mcert, tcert):
        for name, value in _fields(cert).items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(cert, name)
            if isinstance(value, dict):
                mappings += 1
                for mutate in _MUTATIONS:
                    with pytest.raises(TypeError, match="read-only"):
                        mutate(value, next(iter(value), 1))  # a key of value, if it has one
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.note = "a field that does not exist"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.activity.Q0 = ()
    assert mappings == 3 + 8 and tcert.eq8_branches and tcert.mu1
    assert certify_m(rp.base, x) is mcert and pickle.dumps(mcert) == want_m
    assert certify_t(rp, x, y) is tcert and pickle.dumps(tcert) == want_t


def test_certificates_pickle_and_deepcopy_as_read_only_certificates():
    rp = _memo_instance()
    census = census_t_quadratic(rp)
    x, y, tcert = next(p for p in census.t_points if p[2].activity.a00 and p[2].mu1)
    for cert in (certify_m(rp.base, x), tcert):
        want = pickle.dumps(cert)
        for clone in (pickle.loads(want), copy.deepcopy(cert), copy.copy(cert)):
            assert type(clone) is type(cert) and clone == cert and pickle.dumps(clone) == want
            mappings = [v for v in _fields(clone).values() if isinstance(v, dict)]
            assert mappings and all(type(v) is ccop.FrozenDict for v in mappings)
            for value in mappings:
                for mutate in _MUTATIONS:
                    with pytest.raises(TypeError, match="read-only"):
                        mutate(value, next(iter(value), 1))
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone.residual = 0.0
        name = next(f for f, v in _fields(cert).items() if isinstance(v, dict) and v)
        changed = dataclasses.replace(cert, residual=0.0)
        assert changed.residual == 0.0 and getattr(changed, name) is getattr(cert, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            changed.residual = 1.0
        with pytest.raises(TypeError, match="read-only"):
            getattr(changed, name).clear()


def _unread_pair():
    """An M- and a T-point of _memo_instance's censuses at a T-point with a
    biactive index and an active inequality, each with a function that runs
    that side's census on a fresh problem: it returns the census points, the
    position of the chosen point, which nothing has read, and a function that
    certifies at that point through certify_m or certify_t on the census's
    problem.  A census on another fresh problem chooses the point."""
    rp = _memo_instance()
    seen = census_t_quadratic(_fresh(rp)).t_points
    k = next(k for k, (_, _, c) in enumerate(seen) if c.activity.a00 and c.mu1 and c.sigma2)
    x, y = seen.x[k], seen.y[k]

    def m_side():
        pr = _fresh(rp).base
        points = census_quadratic(pr).m_points
        return points, next(j for j, xm in enumerate(points.x) if xm.tobytes() == x.tobytes()), lambda: certify_m(pr, x)

    def t_side():
        cold = _fresh(rp)
        return census_t_quadratic(cold).t_points, k, lambda: certify_t(cold, x, y)

    return [m_side, t_side]


def _read(side):
    """The certificate of a fresh census point of `side` (see _unread_pair), built by reading it."""
    points, k, _ = side()
    return points[k][-1]


def test_unread_read_and_whole_certificates_pickle_copy_and_compare_alike():
    # a census point's certificate is built whole on its first read; no
    # operation may tell it from one read through the memo, from one
    # certified at the point on a problem without a census, or from one
    # built whole by its __init__
    for side in _unread_pair():
        points, k, hit = side()
        read = _read(side)
        repr(read)
        whole = type(read)(**_fields(read))
        cold = _fresh(_memo_instance())  # no census on it: certified at the point
        cold = certify_m(cold.base, points.x[k]) if points.y is None else certify_t(cold, points.x[k], points.y[k])
        want = pickle.dumps(whole)
        assert pickle.dumps(_read(side)) == pickle.dumps(read) == pickle.dumps(cold) == want
        for op in (copy.copy, copy.deepcopy, lambda c: dataclasses.replace(c, residual=0.0)):
            got = [op(c) for c in (_read(side), read, whole, cold)]
            assert len({pickle.dumps(c) for c in got}) == 1 and got[0] == got[1] == got[2] == got[3]
            assert all(type(c) is type(whole) and vars(c).keys() == vars(whole).keys() for c in got)
        assert _read(side) == whole and whole == _read(side) and _read(side) == read
        assert repr(_read(side)) == repr(read) == repr(whole)
        assert dataclasses.asdict(_read(side)) == dataclasses.asdict(whole)
        unread = hit()  # through the memo, before any read of the point
        assert pickle.dumps(unread) == want and _fields(unread) == _fields(whole) and points[k][-1] is unread


def test_unknown_names_raise_at_once_and_an_unpickled_unread_certificate_reads():
    for side in _unread_pair():
        cert = _read(side)
        for name in ("no_such_field", "__setstate__", "__deepcopy__", "nondegenerate_"):
            assert not hasattr(cert, name)
        with pytest.raises(AttributeError, match="object has no attribute 'no_such_field'"):
            cert.no_such_field
        assert list(vars(cert)) == [f.name for f in dataclasses.fields(cert)]  # built whole, in field order
        blank = object.__new__(type(cert))  # as an unpickler makes it, before its state
        for name in ("lam", "activity", "_source", "no_such_field", "__setstate__"):
            assert not hasattr(blank, name)
        clone = pickle.loads(pickle.dumps(_read(side)))
        assert list(vars(clone)) == list(vars(cert)) and _fields(clone) == _fields(cert)
        assert pickle.dumps(clone) == pickle.dumps(cert)


def test_threads_reading_one_unread_certificate_get_equal_groups(monkeypatch):
    # threads that read one unread census point at once, some through the
    # census points and some through the memo, all get one certificate
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for block in (ccop._MBlock, regmpoc._TBlock):
            def slow_build(self, row, build=block.build):  # the other threads read while one builds
                built = build(self, row)
                time.sleep(0.002)
                return built

            monkeypatch.setattr(block, "build", slow_build)
        for side in _unread_pair():
            want = _read(side)
            names = [f.name for f in dataclasses.fields(want)]
            for _ in range(5):
                points, k, hit = side()
                start = threading.Barrier(6, timeout=10)
                got: list = [None] * 6

                def read(j, points=points, k=k, hit=hit, start=start, got=got):
                    start.wait()
                    cert = points[k][-1] if j % 2 else hit()
                    order = names[j:] + names[:j]  # each thread reads first another field
                    got[j] = cert, {name: getattr(cert, name) for name in order}

                threads = [threading.Thread(target=read, args=(j,)) for j in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert all(cert is got[0][0] and fields == _fields(want) for cert, fields in got)
                assert points[k][-1] is got[0][0] is hit() and pickle.dumps(got[0][0]) == pickle.dumps(want)
    finally:
        sys.setswitchinterval(switch)


def test_an_entry_lives_as_long_as_its_certificate_is_held():
    rp = _memo_instance()
    census = census_quadratic(rp.base)
    assert len(rp.base._certs) == len(census.m_points) > 0  # rejected roots are gone
    x, mcert = census.m_points[0]
    ls = lift(rp, x)
    assert len(rp._certs) == len(ls.companions) > 0
    want = pickle.dumps(mcert)
    hit = certify_m(rp.base, x)
    assert hit is mcert is ls.base_certificate
    stored = weakref.ref(mcert)
    del census, mcert
    gc.collect()
    assert stored() is hit and len(rp.base._certs) == 1  # the hit and the LiftSet hold it
    del hit
    gc.collect()
    assert stored() is ls.base_certificate and len(rp.base._certs) == 1
    del ls
    gc.collect()
    assert stored() is None and len(rp.base._certs) == 0 and len(rp._certs) == 0
    assert pickle.dumps(certify_m(rp.base, x)) == want


def test_problems_pickle_and_deepcopy_after_a_census():
    rp = _memo_instance()
    census = census_quadratic(rp.base), census_t_quadratic(rp)
    x = next(x for x, c in census[0].m_points if c.nondegenerate)
    ls = lift(rp, x)
    y = ls.companions[0][0]
    assert len(rp.base._certs) and len(rp._certs)
    clones = [pickle.loads(pickle.dumps(rp)), copy.deepcopy(rp)]
    clones += [make_regularized(pickle.loads(pickle.dumps(rp.base)), rp.c, rp.eps),
               make_regularized(copy.deepcopy(rp.base), rp.c, rp.eps)]
    for clone in clones:
        assert clone.base == rp.base and np.array_equal(clone.c, rp.c)
        assert _fields(certify_m(clone.base, x)) == _fields(ls.base_certificate)
        assert _fields(certify_t(clone, x, y)) == _fields(ls.companions[0][1])
