"""Seeded properties the paper implies, over random quadratic instances:
redundant constraints change nothing, and project(lift(x)) keeps the index
at any admissible regularization."""

import dataclasses

import numpy as np

from ccopkit import (
    Problem,
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

from helpers import random_quadratic_instance, random_sparse_point


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
