"""One PointEval per point feeds every check and certificate at that point."""

import re
import sys

import numpy as np
import pytest

import ccopkit
from ccopkit import (
    Problem,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    certify_t,
    evaluate,
    lift,
    make_regularized,
    parse,
    project,
    to_source,
)
from ccopkit import oracle

from helpers import (
    affine_source,
    make_problem,
    random_c,
    random_quadratic_instance,
    random_quadratic_source,
    random_sparse_point,
    well_ones,
)


@pytest.fixture
def eval2_calls(monkeypatch):
    """eval2 calls per (expression, point), counted through every ccopkit
    module attribute bound to eval2; the census's jets at the origin
    (oracle._quadratic_data) are not counted."""
    original = ccopkit.exprcore.eval2
    counts: dict = {}
    quiet = []

    def counted(expr, x):
        if not quiet:
            key = (id(expr), np.asarray(x, dtype=float).tobytes())
            counts[key] = counts.get(key, 0) + 1
        return original(expr, x)

    for name, module in list(sys.modules.items()):
        if name == "ccopkit" or name.startswith("ccopkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    quadratic_data = oracle._quadratic_data

    def uncounted(pr):
        quiet.append(True)
        try:
            return quadratic_data(pr)
        finally:
            quiet.pop()

    monkeypatch.setattr(oracle, "_quadratic_data", uncounted)
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
    for y, _ in ls.companions:
        eval2_calls.clear()
        assert project(rp, x, y).nondegenerate
        assert len(eval2_calls) == 3 and set(eval2_calls.values()) == {1}


def test_t_census_evaluates_each_expression_once_per_root(eval2_calls):
    rng = np.random.default_rng(3)
    n, s = 5, 2
    g = [affine_source(rng.uniform(-1.0, 1.0, size=n), 0.5)]
    rp = make_regularized(
        make_problem(n, s, random_quadratic_source(rng, n), g=g), random_c(rng, n), 0.5 / (n - s)
    )
    census = census_t_quadratic(rp)
    assert len(census.t_points) > 10
    assert set(eval2_calls.values()) == {1}


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
