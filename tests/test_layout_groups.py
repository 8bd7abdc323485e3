"""The layout-group pass certifies as the per-candidate reference does.

certify_m_many and certify_t_pairs certify each layout group as arrays
(ccop._solve); reference_certifier keeps the per-candidate certifiers they
replaced.  Every certificate must equal the reference's field by field and
bit for bit, and the kernels must see the same rows, targets, Lagrangian
Hessians and null bases per candidate, on the shapes the censuses certify
and on the corners: layouts that share a shape, Q0 that differs between
candidates of one shape, curved h and g, zero rows, empty null spaces and
tolerances that a multiplier or a y meets exactly.  The small groups that
lift certifies (every prefix of one point's companions) and the one-point
checks are compared too.
"""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest

import reference_certifier as reference
from ccopkit import (
    GridSpec,
    Tolerances,
    ccop,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    certify_m_many,
    certify_t,
    certify_t_pairs,
    check_cc_licq,
    check_feasible,
    check_feasible_r,
    check_mpoc_licq,
    make_regularized,
    numkern,
    oracle,
    regmpoc,
)
from ccopkit.regmpoc import companion_y
from helpers import affine_source, make_problem, random_c, random_quadratic_source

TOL = Tolerances()


def _bits(cert) -> dict:
    """Each field of a certificate as its pickle, which holds every bit of
    every float and the order of every dict."""
    return {f.name: pickle.dumps(getattr(cert, f.name)) for f in dataclasses.fields(cert)}


def _census_n8(rng):
    row = rng.uniform(0.25, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    pr = make_problem(8, 3, random_quadratic_source(rng, 8), h=[affine_source(row, 0.3)])
    return make_regularized(pr, random_c(rng, 8), float(rng.uniform(0.3, 1.0)) / 5)


def _inequalities(rng):
    """n=5, s=2 with three affine inequalities through the origin's
    neighbourhood, so that roots of one shape have different Q0."""
    g = [affine_source(rng.uniform(-1.0, 1.0, size=5), b) for b in (0.0, 0.0, 0.4)]
    pr = make_problem(5, 2, random_quadratic_source(rng, 5), g=g)
    return make_regularized(pr, random_c(rng, 5), 0.5 / 3)


def _curved(rng):
    f = random_quadratic_source(rng, 5) + " + 0.2*sin(x1) + 0.1*x2*x3"
    h, g = ["x1^2 + x2^2 + x3 + 0.5*x4 - 1"], ["2 - x1^2 - x2^2 - x3^2 - x4*x5"]
    return make_regularized(make_problem(5, 2, f, h, g), random_c(rng, 5), 0.5 / 3)


def _cases():
    """(rp, candidates, grid): census_n8's shape, several inequalities,
    the override sampler, and Newton roots with curved h and g."""
    rng = np.random.default_rng(211)
    override = make_regularized(_census_n8(rng).base, np.zeros(8), 0.0, override=True)
    return [
        (_census_n8(rng), oracle._subset_ys, None),
        (_inequalities(rng), oracle._subset_ys, None),
        (override, lambda rp: oracle._sampled_ys(rp, TOL), None),
        (_curved(rng), oracle._subset_ys, GridSpec(2)),
    ]


def _corners(rp):
    """Points whose systems have no rows or an empty null space: x dense
    (M: no zero, no active g) and x = 0 with y = 0 (T: every index
    biactive, 2n independent unit rows)."""
    n = rp.n
    dense, zero = np.linspace(0.5, 1.5, n), np.zeros(n)
    return [dense, zero], [(dense, np.full(n, 0.5)), (zero, zero), (zero, np.full(n, 1.0 + rp.eps))]


@pytest.fixture
def kernel_inputs(monkeypatch):
    """The arrays each kernel gets per candidate, as a set of tuples of
    bytes, for the library (ccop) and for the reference; candidates with
    equal inputs count once, since the library certifies a repeated point
    once.  And under "candidates", each candidate's (rank, neg, zero) by
    its rows and target: the library's rank by blocks (ccop._solve), the
    reference's from one SVD of its rows."""
    seen = {"ccop": {}, "reference": {}}

    def spy(module, key, name):
        kernel = getattr(module, name)

        def call(*args):  # one item's arrays, or stacks of them, then tol
            arrays = args[:-1]
            for item in zip(*arrays) if arrays[0].ndim == 3 else [arrays]:
                seen[key].setdefault(name, set()).add(tuple(a.tobytes() for a in item))
                if name == "restricted_inertia":  # the Lagrangian Hessian, compared on its own
                    seen[key].setdefault("hessians", []).append(item[0].copy())
            return kernel(*args)

        monkeypatch.setattr(module, name, call)

    def record(key, rows, targets, ranks, negs, zeros):
        candidates = seen[key].setdefault("candidates", {})
        for r, t, rank, neg, zero in zip(rows, targets, ranks, negs, zeros):
            candidates[r.shape, r.tobytes(), t.tobytes()] = int(rank), neg, zero

    def library(solve):
        def call(bank, at, index, layout, shifts, tol, ys=None):
            out = solve(bank, at, index, layout, shifts, tol, ys)
            record("ccop", bank.rows[at[:, None], index], bank.target[at], *out[-3:])
            return out
        return call

    def reference_solve(families, *args):
        out = solve(families, *args)
        ranks = [numkern.rank_and_nullbasis(rows, args[-1])[0] for _, _, rows, _ in families]
        record("reference", [f[2] for f in families], [f[3] for f in families], ranks,
               [r[-2] for r in out], [r[-1] for r in out])
        return out

    solve = reference._solve
    for name in ("rank_and_nullbasis", "solve_multipliers", "restricted_inertia"):
        spy(ccop, "ccop", name)
        spy(reference, "reference", name)
    monkeypatch.setattr(ccop, "_solve", library(ccop._solve))
    monkeypatch.setattr(regmpoc, "_solve", library(regmpoc._solve))
    monkeypatch.setattr(reference, "_solve", reference_solve)
    return seen


def _same_kernel_inputs(seen, side="m"):
    """Both sides' solve_multipliers inputs and per-candidate (rank, neg,
    zero) are equal.  On the M side so are the inputs of the other two
    kernels; on the T side, where the library works by blocks and the
    reference in 2n dimensions, the library's n x n Lagrangian Hessians
    equal the leading n x n blocks of the reference's."""
    got, want = seen["ccop"], seen["reference"]
    assert got["candidates"] == want["candidates"]
    assert got.get("solve_multipliers") == want.get("solve_multipliers")
    if side == "m":
        for name in ("rank_and_nullbasis", "restricted_inertia"):
            assert got.get(name) == want.get(name), name
    else:  # the reference's Hessians are 2n x 2n
        assert {h.tobytes() for h in got["hessians"]} == {
            h[: len(h) // 2, : len(h) // 2].tobytes() for h in want["hessians"]}
    got.clear()
    want.clear()


def test_layout_groups_equal_the_per_candidate_reference(kernel_inputs):
    batches = shared_shape = mixed_q0 = curved = corners = 0
    for rp, sampler, grid in _cases():
        roots = [(J, pe.x) for J, pe in oracle._shared_roots(rp.base, TOL, grid)[0]]
        m_points, t_pairs = _corners(rp)
        for batch in [*oracle._batches([x] for _, x in roots), m_points]:
            got, want = certify_m_many(rp.base, batch, TOL), reference.certify_m_reference(rp.base, batch, TOL)
            assert [_bits(c) for c in got] == [_bits(c) for c in want]
            _same_kernel_inputs(kernel_inputs)
            corners += sum(not (c.lam or c.mu or c.gamma) or len(c.gamma) == rp.n for c in got)
        candidates = sampler(rp)
        groups = [[(x, y) for y in candidates(J, x)] for J, x in roots] + [t_pairs]
        for pairs in oracle._batches(groups):
            got, want = certify_t_pairs(rp, pairs, TOL), reference.certify_t_reference(rp, pairs, TOL)
            assert [_bits(c) for c in got] == [_bits(c) for c in want]
            _same_kernel_inputs(kernel_inputs, "t")
            batches += 1
            layouts: dict = {}
            q0s: dict = {}
            for c in got:
                a = c.activity
                layout = (len(a.Q0), len(a.Ecal), a.sum_active, len(a.a01), len(a.a10), len(a.a00))
                layouts.setdefault(sum(layout) + len(a.a00), set()).add(layout)
                q0s.setdefault(layout, set()).add(a.Q0)
                curved += grid is not None and any(c.lam.values()) and any(c.mu1.values())
            shared_shape += any(len(v) > 1 for v in layouts.values())
            mixed_q0 += any(len(v) > 1 for v in q0s.values())
            corners += sum(len(c.rho1) == rp.n or not c.lam and not (
                c.mu1 or c.mu2 or c.sigma1 or c.sigma2 or c.rho1) for c in got)
    assert batches >= 6 and shared_shape >= 4 and mixed_q0 >= 1 and curved >= 5 and corners >= 8


def test_licq_checks_decide_as_the_certificates_do():
    # check_cc_licq and check_mpoc_licq return NDM1 and NDT1 of the
    # certificate at the point, so a check and a certificate cannot disagree
    # at a margin
    checked = 0
    for rp, sampler, grid in _cases():
        roots = [(J, pe.x) for J, pe in oracle._shared_roots(rp.base, TOL, grid)[0]]
        m_points, t_pairs = _corners(rp)
        for x in [x for _, x in roots] + m_points:
            assert check_cc_licq(rp.base, x, TOL) == certify_m(rp.base, x, TOL).ndm[0]
        candidates = sampler(rp)
        for x, y in [(x, y) for J, x in roots for y in candidates(J, x)] + t_pairs:
            assert check_mpoc_licq(rp, x, y, TOL) == certify_t(rp, x, y, TOL).ndt[0]
            checked += 1
    assert checked >= 1000


def _crafted(rng):
    """(rp, pairs, dependent) at the edges of the block rule, dependent
    telling for each pair whether its rows are.

    h scaled by 1e-6 and by 1e-12, so that sigma_max comes from the y-block
    (a companion's y-block holds the all-ones row), and at 1e-12 the h row of
    a dense x lies below tol_rank * sigma_max but above tol_rank times the
    x-block's own sigma_max; x = 0, y = 0, every index biactive; a y-block
    whose all-ones row depends on its unit rows (Ecal, a10 and a00 cover
    every index and the sum is active, under an override eps = 0.5); and an
    override eps = -1, where the rows -e_(n+i) of Ecal and e_(n+i) of a00
    coincide up to sign."""
    n, s = 5, 2
    f, a = random_quadratic_source(rng, n), rng.uniform(0.5, 1.0, size=n)
    dense, zero, i0 = np.linspace(0.5, 1.5, n), np.zeros(n), np.array([0.0, 0.0, 0.0, 0.7, -0.4])
    cases = []
    for scale in (1e-6, 1e-12):
        rp = make_regularized(make_problem(n, s, f, [affine_source(scale * a, scale)]), random_c(rng, n), 0.5 / 3)
        # x = 0 puts h among n unit rows; at 1e-12 the h row of every x is lost
        pairs = [(dense, zero), (i0, companion_y(rp, 3, (1, 2))), (i0, zero), (zero, zero)]
        cases.append((rp, pairs, [scale < 1e-10] * 3 + [True]))
    pr = make_problem(4, 1, random_quadratic_source(rng, 4), [affine_source(a[:4], 0.2)])
    cases.append((make_regularized(pr, random_c(rng, 4), 0.5, override=True),
                  [(np.array([0.0, 0.0, 0.7, 0.0]), np.array([1.5, 1.5, 0.0, 0.0]))], [True]))
    cases.append((make_regularized(make_problem(n, s, f), random_c(rng, n), -1.0, override=True),
                  [(zero, zero), (i0, zero), (dense, zero)], [True, True, False]))
    return cases


def test_block_rank_and_inertia_equal_the_2n_reference_on_crafted_pairs(kernel_inputs):
    for rp, pairs, dependent in _crafted(np.random.default_rng(269)):
        got, want = certify_t_pairs(rp, pairs, TOL), reference.certify_t_reference(rp, pairs, TOL)
        assert [_bits(c) for c in got] == [_bits(c) for c in want]
        assert [c.non_unique for c in got] == dependent
        assert [check_mpoc_licq(rp, x, y, TOL) for x, y in pairs] == [c.ndt[0] for c in got]
        _same_kernel_inputs(kernel_inputs, "t")


def test_y_blocks_are_ranked_by_their_layouts_canonical_block(monkeypatch):
    # certify_t_pairs ranks each pair's y-block by the singular values of
    # its layout's canonical block (regmpoc._y_sing): they must be those of
    # the pair's own y-block to 1e-15 of its sigma_max and give its y-rank,
    # and have the same bits whether the pair is certified alone or in a
    # census batch
    solve, held = regmpoc._solve, {}
    seen = {"layouts": set(), "overlapping": 0, "compared": 0}

    def spy(bank, at, index, layout, shifts, tol, ys):
        n, y = bank.x.shape[1], np.repeat([shift is None for shift in shifts], layout)
        own = np.zeros((len(at), max(len(y) - y.sum(), y.sum()), n))
        own[:, : y.sum()] = bank.rows[at[:, None], index][:, y, n:]  # each pair's y-block, padded as _solve pads
        want, got = np.linalg.svd(own)[1], np.broadcast_to(ys, (len(at), ys.shape[1]))
        assert np.all(np.abs(got - want) <= 1e-15 * want[:, :1])
        rank = lambda sing: np.add.reduce(sing > TOL.tol_rank * sing[:, :1], axis=1).tolist()  # noqa: E731
        assert rank(got) == rank(want)
        for x, rows, values in zip(bank.x[at], index, got):  # a pair's y-block is fixed by x and its bank rows
            seen["compared"] += (key := (x.tobytes(), rows.tobytes())) in held
            assert held.setdefault(key, values.tobytes()) == values.tobytes()
        seen["layouts"].add(layout)
        seen["overlapping"] += int((got != regmpoc._y_sing(n, layout, 0)).any(axis=1).sum())
        return solve(bank, at, index, layout, shifts, tol, ys)

    monkeypatch.setattr(regmpoc, "_solve", spy)
    cases = [(rp, [(x, y) for J, pe in oracle._shared_roots(rp.base, TOL, grid)[0] for x in [pe.x]
                   for y in sampler(rp)(J, x)] + _corners(rp)[1], grid is None) for rp, sampler, grid in _cases()]
    cases += [(rp, pairs, False) for rp, pairs, _ in _crafted(np.random.default_rng(269))]
    for rp, pairs, quadratic in cases:
        held.clear()
        if quadratic:
            census_t_quadratic(rp, TOL)
        certify_t_pairs(make_regularized(rp.base, rp.c, rp.eps, override=True), pairs, TOL)  # one batch
        for pair in pairs:  # each on a problem of its own, whose memo holds no certificate
            certify_t_pairs(make_regularized(rp.base, rp.c, rp.eps, override=True), [pair], TOL)
    assert len(seen["layouts"]) >= 30 and seen["overlapping"] >= 2 and seen["compared"] >= 2000


def test_census_points_are_built_whole_on_first_read_as_the_reference_does(monkeypatch):
    # a census keeps its points as columns: no certificate exists until a
    # point is read; the first read builds the reference's certificate whole,
    # and a second read, or certify_m or certify_t at the point, returns that
    # certificate and solves nothing
    built, solved = [], []
    for block in (ccop._MBlock, regmpoc._TBlock):
        monkeypatch.setattr(block, "build", lambda self, row, build=block.build: built.append(row) or build(self, row))
    solve = ccop.solve_multipliers
    monkeypatch.setattr(ccop, "solve_multipliers", lambda *args: solved.append(1) or solve(*args))
    rng = np.random.default_rng(263)
    read = {"MCertificate": 0, "TCertificate": 0}
    for rp in (_inequalities(rng), _census_n8(rng)):
        m_points, t_points = census_quadratic(rp.base, TOL).m_points, census_t_quadratic(rp, TOL).t_points
        assert m_points and t_points and not built  # no certificate object exists yet
        want = reference.certify_m_reference(rp.base, m_points.x, TOL)
        want += reference.certify_t_reference(rp, list(zip(t_points.x, t_points.y)), TOL)
        solved.clear()
        certs = [c for _, c in m_points] + [c for _, _, c in t_points]
        assert len(built) == len(certs) == len(want)  # each built once, on its first read
        for cert, expected in zip(certs, want, strict=True):
            assert type(cert) is type(expected) and _bits(cert) == _bits(expected)
            assert list(vars(cert)) == [f.name for f in dataclasses.fields(cert)]  # a plain frozen dataclass
            read[type(cert).__name__] += 1
        ms, ts, pairs = certs[: len(m_points)], certs[len(m_points) :], list(zip(t_points.x, t_points.y))
        for held, got in [
            (ms, [c for _, c in m_points]), (ts, [c for _, _, c in t_points]),
            (ms, certify_m_many(rp.base, m_points.x, TOL)), (ts, certify_t_pairs(rp, pairs, TOL)),
            (ms[:5], [certify_m(rp.base, x, TOL) for x in m_points.x[:5]]),
            (ts[:5], [certify_t(rp, x, y, TOL) for x, y in pairs[:5]]),
        ]:
            assert len(got) == len(held) and all(a is b for a, b in zip(got, held))
        assert len(built) == len(certs) and not solved
        built.clear()
    assert read["MCertificate"] >= 20 and read["TCertificate"] >= 100


def test_flags_meet_their_tolerances_as_the_reference_does():
    # each comparison of a multiplier with tol_strict, at a tol_strict that
    # some multiplier of the candidate equals in magnitude: > and >= differ
    # only there
    rng = np.random.default_rng(223)
    compared = 0
    for rp, sampler, grid in _cases()[:3]:
        pairs = [(x, y) for J, pe in oracle._shared_roots(rp.base, TOL, grid)[0]
                 for x in [pe.x] for y in sampler(rp)(J, x)]
        for k in rng.choice(len(pairs), size=12, replace=False):
            x, y = pairs[k]
            cert = reference.certify_t_reference(rp, [(x, y)], TOL)[0]
            values = [v for name in ("mu1", "mu2", "sigma1", "rho1", "rho2")
                      for v in getattr(cert, name).values()] + [cert.mu3]
            mcert = reference.certify_m_reference(rp.base, [x], TOL)[0]
            m_values = [*mcert.mu.values(), *mcert.gamma.values()]
            for v in {abs(v) for v in values + m_values if 1e-9 < abs(v) < 1e6}:
                tol = Tolerances(tol_strict=v)
                got = certify_t_pairs(rp, [(x, y)], tol)
                assert [_bits(c) for c in got] == [
                    _bits(c) for c in reference.certify_t_reference(rp, [(x, y)], tol)]
                got = certify_m_many(rp.base, [x], tol)
                assert [_bits(c) for c in got] == [
                    _bits(c) for c in reference.certify_m_reference(rp.base, [x], tol)]
                compared += 1
    assert compared >= 100


def _styled(rng, n, s, style):
    """A quadratic instance of the shapes lift certifies: unconstrained (""),
    with one affine equality ("h") or with one affine inequality ("g")."""
    row = rng.uniform(0.25, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    h = [affine_source(row, float(rng.uniform(-0.5, 0.5)))] if style == "h" else []
    g = [affine_source(row, float(rng.uniform(0.2, 1.0)))] if style == "g" else []
    pr = make_problem(n, s, random_quadratic_source(rng, n), h, g)
    return make_regularized(pr, random_c(rng, n), float(rng.uniform(0.3, 1.0)) / (n - s))


def _companions(rp, mcert):
    """The ys of the companions of an M-point, as lift builds them, without
    certifying them (so that no certificate is held)."""
    i0 = mcert.activity.I0
    ibar = max(i0, key=lambda i: rp.c[i - 1])
    rest = sorted(set(i0) - {ibar})
    return [companion_y(rp, ibar, ebar) for ebar in itertools.combinations(rest, rp.n - rp.s - 1)]


@pytest.mark.parametrize("style", ["", "h", "g"])
def test_small_groups_over_one_x_equal_the_reference(style, kernel_inputs):
    # lift certifies the companions of one x in one call, mostly a group of
    # one to a few pairs: every prefix of them, down to a single pair, must
    # give the reference's certificates and kernel inputs
    rng = np.random.default_rng({"": 227, "h": 229, "g": 233}[style])
    groups = sizes = 0
    for n, s in [(4, 1), (5, 2), (6, 2), (6, 3)]:
        rp = _styled(rng, n, s, style)
        m_points = census_quadratic(rp.base).m_points
        kernel_inputs["ccop"].clear()  # the census's own M-side calls
        for x, mcert in m_points:
            ys = _companions(rp, mcert) if mcert.nondegenerate else []
            # and a y that no companion has: every coordinate at zero
            for K in range(1, len(ys) + 2):
                pairs = [(x, y) for y in [*ys, np.zeros(n)][:K]]
                # no certificate is held from one K to the next, so each call certifies all K
                got = [_bits(c) for c in certify_t_pairs(rp, pairs, TOL)]
                assert got == [_bits(c) for c in reference.certify_t_reference(rp, pairs, TOL)]
                _same_kernel_inputs(kernel_inputs, "t")
                groups += 1
            sizes = max(sizes, len(ys))
    assert groups >= 30 and sizes >= 3


@pytest.mark.parametrize("style", ["", "h", "g"])
def test_one_point_checks_agree_with_the_reference(style):
    # check_feasible, check_cc_licq, check_feasible_r and check_mpoc_licq
    # read their activity and LICQ off the certificate at one point
    rng = np.random.default_rng({"": 239, "h": 241, "g": 251}[style])
    checked = 0
    for n, s in [(4, 1), (5, 2), (6, 3)]:
        rp = _styled(rng, n, s, style)
        points = [x for x, _ in census_quadratic(rp.base).m_points]
        points += [np.zeros(n), np.linspace(0.5, 1.5, n), rng.standard_normal(n)]
        for x, mcert in zip(points, reference.certify_m_reference(rp.base, points, TOL)):
            assert check_feasible(rp.base, x, TOL) == (mcert.feasible, mcert.activity)
            assert check_cc_licq(rp.base, x, TOL) == mcert.ndm[0]
            ys = _companions(rp, mcert)[:2] if mcert.nondegenerate else []
            ys += [np.zeros(n), np.full(n, 1.0 + rp.eps)]
            for y, tcert in zip(ys, reference.certify_t_reference(rp, [(x, y) for y in ys], TOL)):
                assert check_feasible_r(rp, x, y, TOL) == (tcert.feasible, tcert.activity)
                assert check_mpoc_licq(rp, x, y, TOL) == tcert.ndt[0]
                checked += 1
    assert checked >= 40


def test_feasibility_bounds_meet_their_tolerances_as_the_reference_does():
    # a companion's y moved exactly onto a bound of the lifted problem:
    # 1 + eps + tol_feas where it is 1 + eps, -tol_feas where it is zero
    # at a zero of x; <= and < differ only there
    rng = np.random.default_rng(257)
    feasible = {"upper": 0, "lower": 0}
    for style in ("", "h", "g"):
        rp = _styled(rng, 5, 2, style)
        for x, mcert in census_quadratic(rp.base).m_points:
            for y in _companions(rp, mcert) if mcert.nondegenerate else []:
                for i in mcert.activity.I0:
                    if y[i - 1] not in (0.0, 1.0 + rp.eps):
                        continue
                    side, bound = ("upper", 1.0 + rp.eps + TOL.tol_feas) if y[i - 1] else ("lower", -TOL.tol_feas)
                    edge = y.copy()
                    edge[i - 1] = bound
                    got = [_bits(c) for c in certify_t_pairs(rp, [(x, edge)], TOL)]
                    want = reference.certify_t_reference(rp, [(x, edge)], TOL)
                    assert got == [_bits(c) for c in want]
                    assert check_feasible_r(rp, x, edge, TOL) == (want[0].feasible, want[0].activity)
                    feasible[side] += want[0].feasible
    assert feasible["upper"] >= 10 and feasible["lower"] >= 10
