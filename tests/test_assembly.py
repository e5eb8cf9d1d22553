import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from dynbc import assembly
from dynbc import (
    assemble,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_mesh,
    estimate_coercivity,
    inner_X2,
    norm_X2,
    smallest_eigenpair,
)


def interval_sys(n=2, gamma=1.0, delta=0.0, beta=1.0):
    return assemble(build_interval_mesh(0, 1, n), gamma, delta, beta)


def test_hand_assembled_interval():
    # h = 0.5, endpoint surface masses 1
    s = interval_sys()
    np.testing.assert_allclose(s.M_diag, [1.25, 0.5, 1.25])
    expected_K = np.array(
        [[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]]
    ) + np.diag([1.0, 0.0, 1.0])
    np.testing.assert_allclose(s.K.toarray(), expected_K)


def test_constants_in_kernel_when_beta_zero():
    for mesh in (build_interval_mesh(0, 1, 7), build_disk_mesh(1, 3, 12)):
        s = assemble(mesh, gamma=1.3, delta=0.7, beta=0.0)
        c = np.full(s.ndof, 3.7)
        np.testing.assert_allclose(s.K @ c, 0.0, atol=1e-12)


def test_disk_surface_stiffness_is_periodic_second_difference():
    mesh = build_disk_mesh(1, 2, 8)
    s = assemble(mesh, gamma=1.0, delta=1.0, beta=0.0)
    nb = mesh.n_boundary
    ell = 2 * np.sin(np.pi / 8)
    expected = (
        2 * np.eye(nb) - np.roll(np.eye(nb), 1, axis=1) - np.roll(np.eye(nb), -1, axis=1)
    ) / ell
    got = s.K_surf.toarray()[np.ix_(mesh.boundary_nodes, mesh.boundary_nodes)]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_inner_and_norm():
    s = interval_sys()
    z = np.zeros(3)
    assert inner_X2(s, z, z) == 0.0
    ones = np.ones(3)
    assert inner_X2(s, ones, ones) == pytest.approx(3.0)
    assert norm_X2(s, ones) == pytest.approx(np.sqrt(3.0))


def test_inner_bilinearity():
    s = interval_sys(n=9)
    rng = np.random.default_rng(0)
    U, W, V = (rng.standard_normal(s.ndof) for _ in range(3))
    left = inner_X2(s, U + W, V)
    right = inner_X2(s, U, V) + inner_X2(s, W, V)
    assert abs(left - right) <= 1e-13 * max(abs(left), 1.0)


def test_inner_of_a_strided_column_equals_that_of_its_copy():
    # the columns of a row-major block are strided; BLAS's strided dot
    # product sums them in another order than a contiguous copy
    s = assemble(build_disk_mesh(1.0, 16, 64), 1.0, 0.5, 1.0)
    block = np.random.default_rng(4).standard_normal((s.ndof, 64))
    assert block.flags.c_contiguous
    for col in block.T:
        copy = col.copy()
        assert inner_X2(s, col, col) == inner_X2(s, copy, copy)
        assert inner_X2(s, col, block[:, 0]) == inner_X2(s, copy, block[:, 0].copy())
        assert norm_X2(s, col) == norm_X2(s, copy)


def test_inner_dimension_mismatch():
    s = interval_sys()
    with pytest.raises(ValueError):
        inner_X2(s, np.ones(4), np.ones(3))


def test_matrices_exactly_symmetric():
    for mesh in (
        build_interval_mesh(0, 1, 9),
        build_rect_mesh(1, 2, 3, 4),
        build_disk_mesh(1, 3, 12),
    ):
        s = assemble(mesh, gamma=0.8, delta=0.3, beta=1.5)
        assert (abs(s.K - s.K.T)).max() == 0.0
        assert (abs(s.M - s.M.T)).max() == 0.0


def test_generator_self_adjoint_in_M():
    s = interval_sys(n=16)
    rng = np.random.default_rng(1)
    for _ in range(10):
        U = rng.standard_normal(s.ndof)
        V = rng.standard_normal(s.ndof)
        AU = -(s.K @ U) / s.M_diag
        AV = -(s.K @ V) / s.M_diag
        a = inner_X2(s, AU, V)
        b = inner_X2(s, U, AV)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_generalized_eigenvalues_nonnegative_and_coercive():
    s = assemble(build_rect_mesh(1, 1, 3, 3), gamma=1.0, delta=0.2, beta=1.0)
    w = sla.eigh(s.K.toarray(), s.M.toarray(), eigvals_only=True)
    assert w.min() >= -1e-12
    assert w.min() > 0  # beta >= 1 > 0


def test_spd_mass():
    s = interval_sys(n=5)
    assert np.all(s.M_diag > 0)


def test_coercivity_against_dense_eigensolve():
    s = interval_sys()
    c = estimate_coercivity(s)
    w = sla.eigh(s.K.toarray(), s.M.toarray(), eigvals_only=True)
    assert c == pytest.approx(w[0], rel=1e-8)


def test_coercivity_monotone_in_beta():
    c1 = estimate_coercivity(interval_sys(n=8, beta=1.0))
    c2 = estimate_coercivity(interval_sys(n=8, beta=2.0))
    assert c2 >= c1 > 0


def test_coercivity_requires_positive_beta():
    s = interval_sys(beta=0.0)
    with pytest.raises(ValueError):
        estimate_coercivity(s)


def test_smallest_eigenpair_residual():
    s = interval_sys(n=12)
    c, x = smallest_eigenpair(s)
    resid = s.K @ x - c * (s.M_diag * x)
    assert np.linalg.norm(resid) <= 1e-5 * max(1.0, c)
    assert norm_X2(s, x) == pytest.approx(1.0)


def test_smallest_eigenpair_raises_at_iteration_cap(monkeypatch):
    # one iteration cannot meet the test on the eigenvalue change
    monkeypatch.setattr(assembly, "_EIGEN_MAXIT", 1)
    with pytest.raises(assembly.ConvergenceError):
        smallest_eigenpair(interval_sys(n=12))


@pytest.mark.parametrize(
    "build, bound",
    [
        (lambda: build_interval_mesh(0, 1, 7), 1),
        (lambda: build_interval_mesh(-1, 2, 16), 1),
        (lambda: build_rect_mesh(1.3, 0.7, 7, 5), 5 + 1),
        (lambda: build_rect_mesh(1.0, 2.0, 3, 9), 3 + 1),
        (lambda: build_rect_mesh(1.0, 1.0, 12, 12), 12 + 1),
        (lambda: build_disk_mesh(2.0, 2, 8), 8 + 1),
        (lambda: build_disk_mesh(1.0, 3, 9), 9 + 1),
        (lambda: build_disk_mesh(1.0, 5, 15), 15 + 1),
        (lambda: build_disk_mesh(1.0, 8, 32), 32 + 1),
    ],
)
def test_node_order_bounds_the_half_bandwidth(build, bound):
    # the band factor stores (kd + 1) ndof doubles: its memory rests on this
    s = assemble(build(), 1.0, 0.5, 1.0)
    A = (s.K + s.M).tocoo()
    assert np.abs(A.row - A.col).max() <= bound
    assert assembly.BandCholesky(s.K + s.M).kd <= bound


@pytest.mark.parametrize(
    "nx, ny", [(7, 5), (64, 2), (2, 64), (2000, 2), (40, 7), (7, 40), (128, 128)]
)
def test_band_follows_the_short_side_of_a_rectangle(nx, ny):
    # the builder numbers the shorter side fastest; the factor bands in that order
    s = assemble(build_rect_mesh(1.0, 1.0, nx, ny), 1.0, 0.5, 1.0)
    A = (s.K + s.M).tocoo()
    factor = assembly.BandCholesky(A)
    assert factor.kd == np.abs(A.row - A.col).max()
    assert factor.kd <= min(nx, ny) + 1


def test_band_cholesky_sums_duplicate_entries():
    # [[4, 1, 0], [1, 5, 2], [0, 2, 6]], every entry of the upper band split in two
    rows = [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2]
    cols = [0, 0, 1, 1, 0, 1, 1, 2, 2, 1, 2, 2]
    vals = [3.0, 1.0, 0.5, 0.5, 1.0, 2.0, 3.0, 1.5, 0.5, 2.0, 5.0, 1.0]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(3, 3))
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    np.testing.assert_array_equal(A.toarray(), dense)
    factor = assembly.BandCholesky(A)
    assert factor.kd == 1
    assert A.nnz == len(vals)  # the caller's matrix is left as it was
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(factor.solve(b), np.linalg.solve(dense, b), rtol=1e-14)


def test_only_wide_blocks_take_the_blocked_solve(monkeypatch):
    # a vector and 8 columns go to dpbtrs and build no blocks, and come back
    # in its Fortran order; 40 columns go to the blocked path, which returns
    # a row-major block, and whose blocks are freed with the factor
    s = assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.5, 1.0)
    calls = []
    dpbtrs = assembly.lapack.dpbtrs

    def counting_dpbtrs(ab, b, **kwargs):
        calls.append(np.shape(b))
        return dpbtrs(ab, b, **kwargs)

    monkeypatch.setattr(assembly.lapack, "dpbtrs", counting_dpbtrs)
    factor = assembly.BandCholesky(s.M + 0.01 * s.K)
    B = np.random.default_rng(3).standard_normal((s.ndof, 40))
    for b in (B[:, 0], B[:, :8]):
        assert factor.solve(b).flags.f_contiguous
    assert calls == [(s.ndof,), (s.ndof, 8)]
    assert "_blocks" not in vars(factor)
    x = factor.solve(B)
    assert len(calls) == 2
    assert x.shape == B.shape and x.flags.c_contiguous and not x.flags.f_contiguous
    assert len(factor._blocks) == -(-s.ndof // max(factor.kd, 32))
    block = weakref.ref(factor._blocks[0])
    del factor
    assert block() is None


@pytest.mark.parametrize(
    "dense",
    [
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
        [[1.0, 1.0], [1.0, 1.0]],  # singular
        [[2.0, 1.0], [0.0, 2.0]],  # positive definite upper band, not symmetric
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # not square
    ],
)
def test_band_cholesky_refuses_a_non_spd_matrix(dense):
    with pytest.raises(np.linalg.LinAlgError):
        assembly.BandCholesky(sp.csr_matrix(np.array(dense)))


def test_injection_rows_only_at_boundary():
    mesh = build_rect_mesh(1, 1, 3, 3)
    s = assemble(mesh, gamma=1.0, delta=0.0, beta=1.0)
    row_mass = np.asarray(abs(s.B).sum(axis=1)).ravel()
    nonzero = np.flatnonzero(row_mass)
    assert set(nonzero.tolist()) == set(mesh.boundary_nodes.tolist())


def test_assemble_rejects_bad_coefficients():
    mesh = build_interval_mesh(0, 1, 4)
    with pytest.raises(ValueError):
        assemble(mesh, gamma=0.0, delta=0.0, beta=1.0)
    with pytest.raises(ValueError):
        assemble(mesh, gamma=1.0, delta=-0.1, beta=1.0)
    with pytest.raises(ValueError):
        assemble(mesh, gamma=1.0, delta=0.0, beta=np.array([1.0, -1.0]))


def test_beta_from_callable():
    mesh = build_interval_mesh(0, 1, 4)
    s = assemble(mesh, gamma=1.0, delta=0.0, beta=lambda x: 1.0 + x[:, 0])
    np.testing.assert_allclose(sorted(s.beta), [1.0, 2.0])
    assert s.beta0 == 1.0


def _loop_bulk_operators(mesh):
    """Per-cell loop assembly: the reference for the array kernel."""
    n = mesh.n_nodes
    m = np.zeros(n)
    rows, cols, vals = [], [], []
    if mesh.dim == 1:
        x = mesh.bulk_nodes[:, 0]
        for i, j in mesh.bulk_cells:
            hc = x[j] - x[i]
            m[i] += hc / 2.0
            m[j] += hc / 2.0
            k = 1.0 / hc
            rows += [i, i, j, j]
            cols += [i, j, i, j]
            vals += [k, -k, -k, k]
    else:
        pts = mesh.bulk_nodes
        for tri in mesh.bulk_cells:
            a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            area = 0.5 * area2
            g = (
                np.array(
                    [
                        [b[1] - c[1], c[0] - b[0]],
                        [c[1] - a[1], a[0] - c[0]],
                        [a[1] - b[1], b[0] - a[0]],
                    ]
                )
                / area2
            )
            for li in range(3):
                m[tri[li]] += area / 3.0
                for lj in range(3):
                    rows.append(tri[li])
                    cols.append(tri[lj])
                    vals.append(area * float(g[li] @ g[lj]))
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    return m, K


def _loop_surface_operators(mesh):
    """Per-edge loop assembly: the reference for the array kernel."""
    n = mesh.n_nodes
    nb = mesh.n_boundary
    if mesh.dim == 1:
        return np.ones(nb), sp.csr_matrix((n, n))
    pos_in_boundary = {int(node): k for k, node in enumerate(mesh.boundary_nodes)}
    m = np.zeros(nb)
    rows, cols, vals = [], [], []
    pts = mesh.bulk_nodes
    for i, j in mesh.boundary_edges:
        ell = float(np.linalg.norm(pts[j] - pts[i]))
        m[pos_in_boundary[int(i)]] += ell / 2.0
        m[pos_in_boundary[int(j)]] += ell / 2.0
        k = 1.0 / ell
        rows += [i, i, j, j]
        cols += [i, j, i, j]
        vals += [k, -k, -k, k]
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    return m, K


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "mesh",
    [
        build_rect_mesh(1.3, 0.7, 7, 5),
        build_disk_mesh(1.0, 8, 32),
        # on this disk a row-wise norm of the edge vectors is not bitwise
        # the per-edge length
        build_disk_mesh(1.0, 16, 64),
        build_interval_mesh(0.0, 1.0, 8),
    ],
    ids=["rect7x5", "disk8x32", "disk16x64", "interval8"],
)
def test_array_assembly_bitwise_equals_loop_oracle(mesh, monkeypatch):
    def beta(x):
        return 1.0 + x[:, 0] ** 2

    fast = assemble(mesh, gamma=0.8, delta=0.3, beta=beta)
    monkeypatch.setattr(assembly, "_bulk_operators", _loop_bulk_operators)
    monkeypatch.setattr(assembly, "_surface_operators", _loop_surface_operators)
    slow = assemble(mesh, gamma=0.8, delta=0.3, beta=beta)
    for name in ("M_diag", "m_bulk", "m_surf"):
        assert _bitwise_equal(getattr(fast, name), getattr(slow, name)), name
    for name in ("K", "K_bulk", "K_surf", "B"):
        a, b = getattr(fast, name), getattr(slow, name)
        for part in ("indptr", "indices", "data"):
            assert _bitwise_equal(getattr(a, part), getattr(b, part)), (name, part)
