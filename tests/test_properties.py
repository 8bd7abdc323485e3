"""Seeded properties the paper implies, over random quadratic instances:
redundant constraints change nothing, project(lift(x)) keeps the index at
any admissible regularization, the T census's indices do not depend on the
admissible (c, eps), a small random linear term makes every census
point nondegenerate, and the coercive family's censuses follow their
closed forms and the Morse relations."""

import dataclasses

import numpy as np
import pytest

from ccopkit import (
    AssumptionError,
    Problem,
    Tolerances,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    lift,
    make_regularized,
    merge_censuses,
    parse,
    project,
    to_source,
    verify_counts,
)

from helpers import (
    coercive_counts, coercive_instance, make_problem, random_c, random_quadratic_instance, random_sparse_point, well_e1, well_ones, x_and_t_index,
)


def _fields(cert):
    return {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}


def _with_redundant_inequality(rp):
    """rp with one more inequality, k(x) + 1 >= 0 for the first constraint k
    of rp: implied by k = 0 or k >= 0, and never active where they hold."""
    pr = rp.base
    k = (*pr.h, *pr.g)[0]
    extra = parse(f"({to_source(k)}) + 1", pr.n)
    return make_regularized(Problem(pr.n, pr.s, pr.f, pr.h, (*pr.g, extra)), rp.c, rp.eps)


def _statuses(rp, m_census, t_census):
    report = verify_counts(rp, merge_censuses(m_census, t_census))
    return [(check.name, check.status) for check in report.checks]


def test_an_inactive_redundant_inequality_changes_no_verdict_or_count():
    rng = np.random.default_rng(89)
    instances = points = 0
    while instances < 12:
        rp = random_quadratic_instance(rng, n_max=5)
        if not (rp.base.h or rp.base.g):
            continue
        rq = _with_redundant_inequality(rp)
        m, mq = census_quadratic(rp.base), census_quadratic(rq.base)
        t, tq = census_t_quadratic(rp), census_t_quadratic(rq)
        assert (m.by_index_m, t.by_index_t) == (mq.by_index_m, tq.by_index_t)
        assert _statuses(rp, m, t) == _statuses(rq, mq, tq)
        # the same points with the same certificates: the extra row is never active
        assert len(m.m_points) == len(mq.m_points) and len(t.t_points) == len(tq.t_points)
        for (x, cert), (xq, certq) in zip(m.m_points, mq.m_points):
            assert x.tobytes() == xq.tobytes() and _fields(cert) == _fields(certq)
        for (x, y, cert), (xq, yq, certq) in zip(t.t_points, tq.t_points):
            assert (x.tobytes(), y.tobytes()) == (xq.tobytes(), yq.tobytes())
            assert _fields(cert) == _fields(certq)
        # the patterns with the new row active are singular or infeasible
        assert all(note.startswith("skipped singular pattern")
                   for note in mq.notes if note not in m.notes)
        # off the censuses, wherever the new row is inactive
        for _ in range(10):
            x = random_sparse_point(rng, rp.n, rp.s)
            cert, certq = certify_m(rp.base, x), certify_m(rq.base, x)
            if len(rq.base.g) not in certq.activity.Q0:
                assert _fields(cert) == _fields(certq)
                points += 1
        instances += 1
    assert points >= 100


def test_project_of_lift_keeps_the_index_at_any_admissible_eps():
    # eps on the bound 1/(n-s) of the parameter assumption, far below it,
    # and in between
    rng = np.random.default_rng(97)
    trips = 0
    for k in range(24):
        rp = random_quadratic_instance(rng, n_max=6)
        bound = 1.0 / (rp.n - rp.s)
        eps = (bound, 1e-3 * bound, float(rng.uniform(0.05, 1.0)) * bound)[k % 3]
        rp = make_regularized(rp.base, rp.c, eps)
        assert rp.assumption1_ok
        for x, mcert in census_quadratic(rp.base).m_points:
            if not mcert.nondegenerate:
                continue
            for y, tcert in lift(rp, x).companions:
                back = project(rp, x, y)
                assert tcert.t_index == back.m_index == mcert.m_index
                assert _fields(back) == _fields(mcert)
                trips += 1
    assert trips >= 200


def _admissible(rp) -> list:
    """rp's base problem regularized three more ways that meet the
    assumption: tiny c with tiny eps, large decreasing c with eps on its
    bound 1/(n-s), and c whose gaps are twice tol_strict."""
    n, s = rp.n, rp.s
    return [
        make_regularized(rp.base, 1e-3 * np.arange(1, n + 1), 1e-6),
        make_regularized(rp.base, 10.0 * np.arange(n, 0, -1), 1.0 / (n - s)),
        make_regularized(rp.base, 1.0 + 2e-8 * np.arange(n), 0.5 / (n - s)),
    ]


def test_t_census_indices_do_not_depend_on_the_admissible_c_and_eps():
    # only the ys and ibar may move with (c, eps); the counts by index and
    # the index over each root's x may not
    compared = 0
    for seed in range(60):
        rp = random_quadratic_instance(np.random.default_rng(seed), n_max=6)
        own = census_t_quadratic(rp)
        for other in _admissible(rp):
            assert other.assumption1_ok
            census = census_t_quadratic(other)
            assert census.by_index_t == own.by_index_t, seed
            assert x_and_t_index(census) == x_and_t_index(own), seed
            compared += 1
    assert compared == 180


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: with (n - s) * eps near tol_act, 1 + eps and 1 - (n - s - 1) * eps lie within "
    "tol_act of each other, so the activity test reads the mid component of every companion y as at "
    "the upper bound and the T census loses its points"))
def test_a_tiny_admissible_eps_keeps_the_t_census():
    # seed 18 draws n = 6, s = 2 and one inequality; eps = 1e-9 passes the
    # assumption, and eps = 3e-9 already gives the counts of eps = 1e-6
    rp = random_quadratic_instance(np.random.default_rng(18), n_max=6)
    tiny, wide = (make_regularized(rp.base, np.arange(1.0, 7.0), eps) for eps in (1e-9, 1e-6))
    assert tiny.assumption1_ok and census_t_quadratic(wide).by_index_t == {0: 8, 1: 33, 2: 19}
    assert census_t_quadratic(tiny).by_index_t == census_t_quadratic(wide).by_index_t


def test_c_gaps_under_tol_strict_break_the_assumption():
    pr, ts = well_ones(), Tolerances().tol_strict
    assert make_regularized(pr, [1.0, 1.0 + 2.0 * ts], 0.5).assumption1_ok
    tied = make_regularized(pr, [1.0, 1.0 + 0.5 * ts], 0.5)
    assert not tied.assumption1_ok
    with pytest.raises(AssumptionError):
        census_t_quadratic(tied)
    sampled = census_t_quadratic(make_regularized(pr, [1.0, 1.0 + 0.5 * ts], 0.5, override=True))
    assert not sampled.complete and sampled.notes[0].startswith("override sampler")


def _wells(seed: int, linear: bool):
    """f = sum (x_i - a_i)^2 with about half the a_i set to 0, whose zero
    multipliers make points degenerate, plus r.x with r ~ U(-1e-3, 1e-3)^n
    if linear, regularized with random_c and eps = 0.5/(n-s)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    s = int(rng.integers(0, n))
    a = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(-1.0, 1.0, size=n))
    r = rng.uniform(-1e-3, 1e-3, size=n)
    f = " + ".join(f"(x{i} - ({v!r}))^2" for i, v in enumerate(a.tolist(), start=1))
    if linear:
        f += "".join(f" + ({v!r})*x{i}" for i, v in enumerate(r.tolist(), start=1))
    pr = make_problem(n, s, f)
    return make_regularized(pr, random_c(rng, n), 0.5 / (n - s))


def test_a_small_linear_term_makes_every_census_point_nondegenerate():
    degenerate = {False: [0, 0], True: [0, 0]}  # linear term -> degenerate M- and T-points
    for seed in range(80):
        for linear in (False, True):
            rp = _wells(seed, linear)
            m, t = census_quadratic(rp.base), census_t_quadratic(rp)
            degenerate[linear][0] += m.m_points.index.count(None)
            degenerate[linear][1] += t.t_points.index.count(None)
            if linear:
                assert verify_counts(rp, merge_censuses(m, t)).ok, seed
    assert min(degenerate[False]) >= 100 and degenerate[True] == [0, 0]


def test_a_small_linear_term_makes_well_e1_nondegenerate():
    # well_e1's origin is degenerate on both sides (a zero multiplier);
    # r.x with r ~ U(-1e-3, 1e-3)^2 splits it into nondegenerate points
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    assert census_quadratic(rp.base).by_index_m == {0: 1, "degenerate": 1}
    assert census_t_quadratic(rp).by_index_t == {0: 1, 1: 1, "degenerate": 1}
    for seed in range(20):
        r = np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=2)
        f = "(x1-1)^2 + x2^2" + "".join(f" + ({v!r})*x{i}" for i, v in enumerate(r.tolist(), start=1))
        rp = make_regularized(make_problem(2, 1, f), [0.3, 0.7], 0.5)
        m, t = census_quadratic(rp.base), census_t_quadratic(rp)
        assert m.by_index_m == t.by_index_t == {0: 2, 1: 1}, seed
        assert verify_counts(rp, merge_censuses(m, t)).ok, seed


def test_the_coercive_family_follows_its_closed_form_and_the_morse_relations():
    # positive definite H, no constraints: every support of at most s
    # coordinates gives one nondegenerate M-point, each with its binomial
    # number of companions of its index; the T counts t_k then satisfy the
    # Morse relation sum (-1)^k t_k = 1 and the Morse inequalities
    for n in range(4, 9):
        rp = coercive_instance(n)
        m, t = census_quadratic(rp.base), census_t_quadratic(rp)
        assert m.complete and t.complete and rp.s == n // 2 + 1
        assert (m.by_index_m, t.by_index_t) == coercive_counts(n, rp.s), n
        counts = [t.by_index_t[k] for k in range(rp.s + 1)]
        assert sum((-1) ** k * tk for k, tk in enumerate(counts)) == 1
        for k in range(len(counts)):
            assert sum((-1) ** (k - j) * counts[j] for j in range(k + 1)) >= (-1) ** k, (n, k)
