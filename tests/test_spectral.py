import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.errors import BasisTooSmallError, SpectralDegeneracyError
from nsstab.grid import DomainSpec, build_grid
from nsstab.spectral import (
    EXTRA_MODES,
    StokesBasis,
    assemble_gram,
    assemble_operators,
    canonical_basis,
    cluster_starts,
    count_modes,
    fit_spectral_constant,
)

import oracle
from conftest import make_setup


def test_operators_symmetric_to_the_bit(tiny8):
    for key in ("k1", "k2"):
        k = tiny8[key].toarray()
        assert np.array_equal(k, k.T)


def test_stiffness_row_sums_vanish_inside():
    grid = build_grid(DomainSpec(1.0, 0.8, 12, 10, (0.1, 0.4, 0.1, 0.4)))
    k1, _ = assemble_operators(grid)
    sums = k1.sum(axis=1).reshape(12, 10)
    # rows whose stencil never reaches the boundary: two nodes from each wall
    inner = sums[2:-2, 2:-2]
    assert np.abs(inner).max() <= 1e-12 / grid.hx**2


def test_stiffness_consistent_with_laplacian_on_clamped_mode():
    # Rayleigh quotient of sin^2(pi x) sin^2(pi y) tends to 8 pi^2 / 3.
    # (A clamped test function: the central-difference form carries an O(h)
    # boundary deficit on functions with nonzero normal derivative, but the
    # whole discretization only ever evaluates it on clamped data.)
    grid = build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.1, 0.4, 0.1, 0.4)))
    k1, _ = assemble_operators(grid)
    psi = np.outer(np.sin(np.pi * grid.x) ** 2, np.sin(np.pi * grid.y) ** 2).ravel()
    rayleigh = (psi @ k1 @ psi) / (psi @ psi)
    assert rayleigh == pytest.approx(8.0 * np.pi**2 / 3.0, rel=0.02)


def test_first_eigenvalue_matches_clamped_buckling_value(square32):
    # reference value for the smallest clamped-plate buckling eigenvalue
    # (= smallest Stokes eigenvalue) on the unit square
    assert square32["basis"].eigenvalues[0] == pytest.approx(52.3447, rel=0.01)


def test_odd_by_odd_grids_rejected():
    grid = build_grid(DomainSpec(1.0, 1.0, 31, 31, (0.1, 0.4, 0.1, 0.4)))
    with pytest.raises(ValueError, match="odd"):
        assemble_operators(grid)


def test_eigenvalues_positive_ascending(square32):
    tau = square32["basis"].eigenvalues
    assert tau[0] > 0
    assert np.all(np.diff(tau) >= 0)


def test_eigenvalues_match_dense_brute_force_oracle(tiny8):
    k1, k2, basis = tiny8["k1"], tiny8["k2"], tiny8["basis"]
    w = np.linalg.eigvals(np.linalg.solve(k1.toarray(), k2.toarray()))
    w = np.sort(w.real)[: basis.n_modes]
    assert np.allclose(basis.eigenvalues, w, rtol=1e-8)


def test_sparse_operators_equal_dense_oracle_to_the_bit(tiny8):
    grid = build_grid(DomainSpec(1.0, 0.8, 12, 10, (0.1, 0.4, 0.1, 0.4)))
    for g, (k1, k2) in ((tiny8["grid"], (tiny8["k1"], tiny8["k2"])), (grid, assemble_operators(grid))):
        d1, d2 = oracle.dense_operators(g)
        assert np.array_equal(k1.toarray(), d1)
        assert np.array_equal(k2.toarray(), d2)


@pytest.mark.parametrize("fixture", ["square32", "tiny8"])
def test_sparse_basis_matches_canonicalized_dense_oracle(fixture, request):
    basis = request.getfixturevalue(fixture)["basis"]
    ref = oracle.dense_eigenbasis(basis.grid, basis.n_modes)
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0)
    scale = np.abs(ref.stream_functions).max()
    assert np.abs(basis.stream_functions - ref.stream_functions).max() <= 1e-10 * scale


def test_tiny8_cuts_a_cluster_and_ties_are_bit_equal(tiny8_pairs, tiny8, square32):
    # 8x8 with 10 modes keeps one vector of the degenerate pair tau_10 = tau_11
    tau = tiny8_pairs[0]
    assert 10 not in cluster_starts(tau)
    for basis in (tiny8["basis"], square32["basis"]):
        tau = basis.eigenvalues
        ties = np.isclose(tau[1:], tau[:-1], rtol=1e-8, atol=0)
        assert ties.any()
        assert np.array_equal(tau[1:][ties], tau[:-1][ties])


@pytest.fixture(scope="module")
def tiny8_pairs(tiny8):
    """Raw dense eigenpairs of the 8x8 pencil, before canonicalization."""
    grid = tiny8["grid"]
    k1, k2 = oracle.dense_operators(grid)
    m = tiny8["basis"].n_modes
    tau, vecs = scipy.linalg.eigh(k2, k1, subset_by_index=(0, m + EXTRA_MODES - 1))
    return tau, vecs, k1, canonical_basis(tau, vecs, k1, m, grid)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flips=st.lists(st.booleans(), min_size=14, max_size=14))
def test_canonical_basis_ignores_rotations_and_signs_inside_clusters(tiny8_pairs, seed, flips):
    tau, vecs, k1, reference = tiny8_pairs
    rng = np.random.default_rng(seed)
    mixed = vecs * np.where(flips, -1.0, 1.0)
    starts = cluster_starts(tau)
    for lo, hi in zip(starts, [*starts[1:], len(tau)]):
        q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
        mixed[:, lo:hi] = mixed[:, lo:hi] @ q
    basis = canonical_basis(tau, mixed, k1, reference.n_modes, reference.grid)
    assert np.array_equal(basis.eigenvalues, reference.eigenvalues)
    scale = np.abs(reference.stream_functions).max()
    assert np.abs(basis.stream_functions - reference.stream_functions).max() <= 1e-12 * scale


def test_canonical_basis_needs_the_whole_cluster_of_tau_m(tiny8_pairs):
    tau, vecs, k1, reference = tiny8_pairs
    with pytest.raises(ValueError, match="inside the cluster"):
        canonical_basis(tau[:11], vecs[:, :11], k1, reference.n_modes, reference.grid)


def test_first_eigenvalue_mesh_convergence(square32, square48):
    t32 = square32["basis"].eigenvalues[0]
    t48 = square48["basis"].eigenvalues[0]
    assert abs(t32 - t48) / t48 < 0.02


#: smallest clamped-plate buckling eigenvalue of the unit square (Bjorstad &
#: Tjostheim, Computing 63, 1999), which is the smallest Stokes eigenvalue
BUCKLING_LAMBDA_1 = 52.344691168


def test_first_eigenvalue_converges_at_second_order_to_the_literature_value(square32):
    """tau_1 on the 32, 64 and 128 square grids (h = 1/(n+1)) approaches the
    literature value at order 2, and Richardson extrapolation of the two finer
    grids recovers it; the square's degenerate pair tau_2 = tau_3 stays bit-equal."""
    bases = [square32["basis"]] + [make_setup(n, n, 24)[3] for n in (64, 128)]
    h = np.array([1.0 / 33, 1.0 / 65, 1.0 / 129])
    tau1 = np.array([basis.eigenvalues[0] for basis in bases])
    err = tau1 - BUCKLING_LAMBDA_1
    assert np.all(err > 0)
    order = np.log(err[:-1] / err[1:]) / np.log(h[:-1] / h[1:])
    assert np.all((1.9 <= order) & (order <= 2.1)), order
    extrapolated = (h[1] ** 2 * tau1[2] - h[2] ** 2 * tau1[1]) / (h[1] ** 2 - h[2] ** 2)
    assert abs(extrapolated - BUCKLING_LAMBDA_1) <= 1e-4
    for basis in bases:
        assert basis.eigenvalues[1] == basis.eigenvalues[2]


def test_basis_orthonormal(square32):
    basis, grid = square32["basis"], square32["grid"]
    full = assemble_gram(basis, grid, mask=np.ones((grid.nx, grid.ny)))
    assert np.abs(full - np.eye(basis.n_modes)).max() <= 1e-10


def test_rayleigh_quotient_identity(square32):
    basis, k1, k2 = square32["basis"], square32["k1"], square32["k2"]
    for i in (0, 7, 23):
        psi = basis.stream_functions[i].ravel()
        ratio = (psi @ k2 @ psi) / (psi @ k1 @ psi)
        assert ratio == pytest.approx(basis.eigenvalues[i], rel=1e-8)


def test_truncated_basis():
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    small = oracle.truncated(basis, 3)
    assert small.n_modes == 3
    assert np.array_equal(small.eigenvalues, basis.eigenvalues[:3])
    with pytest.raises(ValueError):
        oracle.truncated(basis, 7)


def test_gram_full_window_is_identity(square32):
    basis = square32["basis"]
    grid = build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.0, 1.0, 0.0, 1.0)))
    gram = assemble_gram(basis, grid)
    assert np.abs(gram - np.eye(basis.n_modes)).max() <= 1e-10


def test_gram_symmetric_psd_bounded_diagonal(square32):
    gram = square32["gram"]
    assert np.array_equal(gram, gram.T)
    eigs = scipy.linalg.eigvalsh(gram)
    assert eigs[0] >= -1e-12
    assert np.all(gram.diagonal() >= 0.0) and np.all(gram.diagonal() <= 1.0)


def test_gram_min_eigenvalue_matches_inverse_iteration_oracle(square32):
    # independent check: inverse power iteration on the 8x8 block
    block = square32["gram"][:8, :8]
    reference = scipy.linalg.eigvalsh(block)[0]
    v = np.ones(8) / np.sqrt(8)
    for _ in range(200):
        v = np.linalg.solve(block, v)
        v /= np.linalg.norm(v)
    oracle = float(v @ block @ v)
    assert reference == pytest.approx(oracle, rel=1e-8)


def test_gram_min_eigenvalue_nonincreasing_in_block_size(square32):
    gram = square32["gram"]
    mins = [scipy.linalg.eigvalsh(gram[:n, :n])[0] for n in range(1, gram.shape[0] + 1)]
    assert np.all(np.diff(mins) <= 1e-14)


def _fake_basis(tau):
    grid = build_grid(DomainSpec(1.0, 1.0, 4, 4, (0.1, 0.9, 0.1, 0.9)))
    m = len(tau)
    return StokesBasis(
        eigenvalues=np.asarray(tau, dtype=float),
        stream_functions=np.zeros((m, 4, 4)),
        velocities=np.zeros((m, 2, 4, 4)),
        grid=grid,
    )


def test_count_modes_boundary_cases():
    basis = _fake_basis([10.0, 20.0, 30.0])
    assert count_modes(basis, 20.0) == 2
    assert count_modes(basis, 5.0) == 0
    assert count_modes(basis, 29.999) == 2
    with pytest.raises(BasisTooSmallError):
        count_modes(basis, 30.0)
    with pytest.raises(ValueError):
        count_modes(basis, -1.0)


def test_count_modes_matches_linear_scan(square32):
    basis = square32["basis"]
    tau = basis.eigenvalues
    rng = np.random.default_rng(7)
    for lam in rng.uniform(tau[0], tau[-1] * 0.999, 50):
        scan = sum(1 for t in tau if t <= lam)
        assert count_modes(basis, float(lam)) == scan


def test_fit_full_window_gives_floor(square32):
    basis = square32["basis"]
    grid = build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.0, 1.0, 0.0, 1.0)))
    gram = assemble_gram(basis, grid)
    fit = fit_spectral_constant(basis, gram)
    assert fit.value == 1.0


def test_fit_monotone_in_window_inclusion(square32):
    basis = square32["basis"]
    small = build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.6, 0.9, 0.1, 0.4)))
    large = build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.5, 0.95, 0.05, 0.5)))
    fit_small = fit_spectral_constant(basis, assemble_gram(basis, small))
    fit_large = fit_spectral_constant(basis, assemble_gram(basis, large))
    assert fit_large.unclamped_value <= fit_small.unclamped_value + 1e-9
    assert fit_large.value <= fit_small.value + 1e-9


def test_fit_roots_match_lambert_w_inversion(square32):
    basis, gram = square32["basis"], square32["gram"]
    fit = fit_spectral_constant(basis, gram)
    for lam, _, min_eig, root, _ in fit.table:
        s = np.sqrt(lam)
        w = scipy.special.lambertw(s / min_eig).real
        assert root == pytest.approx(w / s, rel=1e-5)


def test_fit_invariant_under_grid_reordering(square32):
    basis, gram = square32["basis"], square32["gram"]
    lam_grid = basis.eigenvalues[:20]
    fit_fwd = fit_spectral_constant(basis, gram, lam_grid=lam_grid)
    fit_rev = fit_spectral_constant(basis, gram, lam_grid=lam_grid[::-1])
    assert fit_fwd.value == fit_rev.value
    assert fit_fwd.unclamped_value == fit_rev.unclamped_value


def test_fit_rejects_thresholds_outside_basis(square32):
    basis, gram = square32["basis"], square32["gram"]
    with pytest.raises(ValueError):
        fit_spectral_constant(basis, gram, lam_grid=np.array([1.0]))
    with pytest.raises(ValueError):
        fit_spectral_constant(basis, gram, lam_grid=basis.eigenvalues[-1:])


def test_degenerate_window_raises():
    # a window that misses every node makes the Gram singular
    grid, _, _, basis = make_setup(10, 10, 6, omega=(0.401, 0.405, 0.401, 0.405))
    assert grid.omega_mask.sum() == 0
    gram = assemble_gram(basis, grid)
    with pytest.raises(SpectralDegeneracyError):
        fit_spectral_constant(basis, gram, lam_grid=basis.eigenvalues[:1])
