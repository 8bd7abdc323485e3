import numpy as np
import pytest

from ccopkit import Tolerances, ccop, rank_and_nullbasis, restricted_inertia, solve_multipliers

TOL = Tolerances()


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_feas=0.0)
    with pytest.raises(ValueError):
        Tolerances(tol_rank=1e-6, tol_strict=1e-8)
    t = Tolerances(tol_act=1e-7)
    assert t.tol_act == 1e-7 and t.tol_feas == 1e-9


@pytest.mark.parametrize("name", ["tol_feas", "tol_act", "tol_rank", "tol_strict"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tolerances_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        Tolerances(**{name: value})


def test_rank_identity_has_empty_nullspace():
    rank, basis = rank_and_nullbasis(np.eye(2), TOL)
    assert rank == 2
    assert basis.shape == (2, 0)


def test_rank_one_row_nullvector_direction():
    rank, basis = rank_and_nullbasis(np.array([[1.0, 1.0]]), TOL)
    assert rank == 1
    assert basis.shape == (2, 1)
    v = basis[:, 0]
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(v, expected, atol=1e-12) or np.allclose(v, -expected, atol=1e-12)


def test_rank_coordinate_rows():
    rank, basis = rank_and_nullbasis(np.array([[1.0, 0.0], [0.0, 1.0]]), TOL)
    assert rank == 2 and basis.shape == (2, 0)


def test_rank_of_zero_and_empty_matrices():
    assert rank_and_nullbasis(np.zeros((2, 3)), TOL)[0] == 0
    rank, basis = rank_and_nullbasis(np.zeros((0, 3)), TOL)
    assert rank == 0 and basis.shape == (3, 3)


def test_nullbasis_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        r = int(rng.integers(0, min(m, k) + 1))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, k))
        rank, basis = rank_and_nullbasis(A, TOL)
        smax = np.linalg.svd(A, compute_uv=False)[0] if min(A.shape) else 0.0
        if basis.shape[1] and smax > 0.0:
            assert np.max(np.abs(A @ basis)) <= 10 * TOL.tol_rank * smax
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)


def test_solve_multipliers_examples():
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    coeffs, res = solve_multipliers(G, np.array([-2.0, 0.0]), TOL)
    assert np.allclose(coeffs, [-2.0, 0.0], atol=1e-12) and res <= 1e-12

    coeffs, res = solve_multipliers(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), TOL)
    assert np.allclose(coeffs, [0.0], atol=1e-12) and abs(res - 1.0) <= 1e-12

    coeffs, res = solve_multipliers(G, np.array([-2.0, -2.0]), TOL)
    assert np.allclose(coeffs, [-2.0, -2.0], atol=1e-12) and res <= 1e-12


def test_solve_multipliers_empty_columns():
    coeffs, res = solve_multipliers(np.zeros((3, 0)), np.array([3.0, 0.0, 4.0]), TOL)
    assert coeffs.size == 0 and abs(res - 5.0) <= 1e-12


def test_residual_equals_distance_to_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        G = rng.standard_normal((d, k))
        target = rng.standard_normal(d)
        _, res = solve_multipliers(G, target, TOL)
        # independent projector onto range(G)
        Q, _ = np.linalg.qr(G)
        distance = np.linalg.norm(target - Q @ (Q.T @ target))
        assert abs(res - distance) <= 1e-10


def test_restricted_inertia_examples():
    assert restricted_inertia(np.diag([2.0, 2.0]), np.array([[1.0], [0.0]]), TOL) == (0, 0, 1)
    assert restricted_inertia(np.diag([5.0, -1.0]), np.zeros((2, 0)), TOL) == (0, 0, 0)
    assert restricted_inertia(np.diag([-1.0, 3.0]), np.eye(2), TOL) == (1, 0, 1)


def test_restricted_inertia_zero_band_counts_as_degenerate():
    H = np.diag([1e-12, 1.0])
    assert restricted_inertia(H, np.eye(2), TOL) == (0, 1, 1)


def test_inertia_invariant_under_orthonormal_rebase():
    rng = np.random.default_rng(9)
    for _ in range(60):
        d = int(rng.integers(2, 8))
        r = int(rng.integers(1, d + 1))
        H = rng.standard_normal((d, d))
        H = H + H.T
        N = np.linalg.qr(rng.standard_normal((d, r)))[0]
        Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        assert restricted_inertia(H, N, TOL) == restricted_inertia(H, N @ Q, TOL)


def _rank_cases(rng):
    """Stacks of m x k matrices: full rank, rank-deficient, all-zero and
    integer-valued, including 0-row and 0-column shapes."""
    for m, k in [(3, 8), (9, 16), (16, 16), (12, 5), (0, 6), (4, 0)]:
        stack = rng.standard_normal((8, m, k))
        if m and k:
            stack[1] = 0.0
            stack[2, -1] = stack[2, 0]  # a repeated row
            stack[3] = np.round(2.0 * stack[3])
            stack[4, :, -1] = 0.0  # a zero column
        yield stack


def test_stacked_rank_and_nullbasis_equals_the_per_matrix_call():
    # numpy runs one matrix and a stack through the same LAPACK routine;
    # certify_t_pairs relies on this to give certify_t's bits
    rng = np.random.default_rng(13)
    deficient = 0
    for stack in _rank_cases(rng):
        pairs = rank_and_nullbasis(stack, TOL)
        assert len(pairs) == len(stack)
        for A, (rank, basis) in zip(stack, pairs):
            want_rank, want_basis = rank_and_nullbasis(A, TOL)
            assert rank == want_rank
            assert basis.shape == want_basis.shape and basis.tobytes() == want_basis.tobytes()
            if A.size:  # the bits of np.linalg.svd, whose gufunc the kernel calls
                _, sing, vt = np.linalg.svd(A)
                assert rank == int((sing > TOL.tol_rank * sing[0]).sum())
                assert basis.tobytes() == vt[rank:].T.copy().tobytes()
            deficient += 0 < rank < min(A.shape)
        m, k = stack.shape[1:]
        if m and k:
            assert pairs[0][0] == min(m, k) and pairs[1][0] == 0
    assert deficient >= 5


def test_stacked_restricted_inertia_equals_the_per_matrix_call():
    rng = np.random.default_rng(17)
    ts = TOL.tol_strict
    for d, r in [(4, 0), (4, 2), (8, 3), (16, 5), (16, 16)]:
        H = rng.standard_normal((10, d, d))
        H = H + H.transpose(0, 2, 1)
        H[1] = 0.0
        H[2] = np.diag(rng.choice([-ts, ts, 0.0, 1.0, -1.0], size=d))  # on the band edges
        N = np.linalg.qr(rng.standard_normal((10, d, d)))[0][:, :, :r].copy()
        N[2] = np.eye(d)[:, :r]
        triples = restricted_inertia(H, N, TOL)
        assert triples == [restricted_inertia(h, b, TOL) for h, b in zip(H, N)]
        if r:
            # the stacked products and eigensolve give each matrix's own bits
            M = N.transpose(0, 2, 1) @ H @ N
            eig = np.linalg.eigvalsh(M)
            for k in range(len(H)):
                alone = N[k].T @ H[k] @ N[k]
                assert M[k].tobytes() == alone.tobytes()
                assert eig[k].tobytes() == np.linalg.eigvalsh(alone).tobytes()
                # the signs of np.linalg.eigvalsh, whose gufunc the kernel calls
                eig_k = np.linalg.eigvalsh(0.5 * (alone + alone.T))
                neg, pos = int((eig_k < -ts).sum()), int((eig_k > ts).sum())
                assert triples[k] == (neg, r - neg - pos, pos)


def test_kernels_raise_where_np_linalg_does():
    A = np.ones((3, 4))
    A[1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        np.linalg.svd(A)
    H = np.full((3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        np.linalg.eigvalsh(H)
    for stack in (False, True):
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            rank_and_nullbasis(np.array([A, A]) if stack else A, TOL)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            restricted_inertia(np.array([H, H]) if stack else H,
                               np.array([np.eye(3)] * 2) if stack else np.eye(3), TOL)


def _lstsq_cases(rng):
    """Stacks (G, target) of one shape each: tall, square, wide, one column
    and no column, K = 1 up to 39; within a stack, random systems, systems
    with a repeated or a zero column (rank-deficient) and systems with a
    column of size 1e-12 next to tol_rank."""
    for d, k in [(5, 3), (4, 4), (2, 5), (6, 1), (4, 0), (1, 1), (16, 9)]:
        for K in (1, 2, 7, 39):
            G = rng.standard_normal((K, d, k))
            target = rng.standard_normal((K, d))
            for j in range(1, K, 3) if k else ():
                G[j, :, -1] = 2.0 * G[j, :, 0] if k > 1 else 0.0
            for j in range(2, K, 3) if k else ():
                G[j, :, 0] *= 1e-12
            yield G, target


def test_stacked_solve_equals_lstsq_per_system_bit_for_bit():
    rng = np.random.default_rng(97)
    compared = deficient = 0
    for G, target in _lstsq_cases(rng):
        pairs = solve_multipliers(G, target, TOL)
        assert len(pairs) == len(G)
        for g, t, (coeffs, res) in zip(G, target, pairs):
            want = np.linalg.lstsq(g, t, rcond=TOL.tol_rank)[0]
            assert coeffs.shape == want.shape and coeffs.tobytes() == want.tobytes()
            assert res == float(np.linalg.norm(g @ want - t))
            alone = solve_multipliers(g, t, TOL)  # a stack of one
            assert alone[0].tobytes() == want.tobytes() and alone[1] == res
            compared += 1
            deficient += np.linalg.matrix_rank(g) < min(g.shape)
    assert compared >= 300 and deficient >= 50


def test_stacked_solve_raises_where_lstsq_does():
    G, target = np.ones((3, 4, 2)), np.ones((3, 4))
    G[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        np.linalg.lstsq(G[1], target[1], rcond=TOL.tol_rank)
    for args in ((G, target), (G[1], target[1])):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            solve_multipliers(*args, TOL)


def test_certificate_residuals_keep_the_bits_of_one_solve_on_rows_t():
    # ccop._solve gathers each layout group's directions (rows, k x d) from
    # the bank of their points and solves with their transpose; every
    # residual must be the one a solve of rows.T alone gives, bits included
    rng = np.random.default_rng(101)
    families = []
    for _ in range(60):
        d = int(rng.integers(2, 9))
        rows = rng.standard_normal((int(rng.integers(0, d + 1)), d))
        families.append((rows, rng.standard_normal(d)))
    got = [None] * len(families)
    for shape in {rows.shape for rows, _ in families}:
        group = [k for k, (rows, _) in enumerate(families) if rows.shape == shape]
        (k, d), K = shape, len(group)
        bank = ccop._Bank(x=np.zeros((K, d)), values=np.zeros((K, 0)),
                          rows=np.array([families[j][0] for j in group]).reshape(K, k, d),
                          target=np.array([families[j][1] for j in group]), bound=np.zeros(K),
                          hessians=np.zeros((K, 1, d, d)))
        index = np.broadcast_to(np.arange(k), (K, k))
        coeffs, residual, *_ = ccop._solve(bank, np.arange(K), index, (0, 0, k), (0, 0, 0), TOL)
        for j, c, res in zip(group, coeffs, residual):
            got[j] = c, res
    for (rows, target), (coeffs, res) in zip(families, got):
        want = np.linalg.lstsq(rows.T, target, rcond=TOL.tol_rank)[0]
        assert coeffs.tobytes() == want.tobytes()
        assert res == float(np.linalg.norm(rows.T @ want - target))
