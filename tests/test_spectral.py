import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.errors import BasisTooSmallError, SpectralDegeneracyError
from nsstab.grid import DomainSpec, build_grid
from nsstab.spectral import (
    CLASSES,
    EXTRA_MODES,
    StokesBasis,
    _invert_gain_curve,
    assemble_gram,
    assemble_operators,
    class_fields,
    cluster_starts,
    count_modes,
    fit_spectral_constant,
    reflection_parities,
    solve_eigenbasis,
)

import oracle
from conftest import make_setup
from oracle import canonical_basis, class_coordinates


def dense(op, grid):
    """The operator's matrix, from its own products with the identity."""
    return op @ np.eye(grid.n_interior)


def test_operators_symmetric_to_the_bit(tiny8):
    for key in ("k1", "k2"):
        k = dense(tiny8[key], tiny8["grid"])
        assert np.array_equal(k, k.T)


def test_stiffness_row_sums_vanish_inside():
    grid = build_grid(DomainSpec(1.0, 0.8, 12, 10, (0.1, 0.4, 0.1, 0.4)))
    k1, _ = assemble_operators(grid)
    sums = (k1 @ np.ones(grid.n_interior)).reshape(12, 10)
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
    rayleigh = (psi @ (k1 @ psi)) / (psi @ psi)
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
    k1, k2 = oracle.dense_operators(tiny8["grid"])
    basis = tiny8["basis"]
    w = np.linalg.eigvals(np.linalg.solve(k1, k2))
    w = np.sort(w.real)[: basis.n_modes]
    assert np.allclose(basis.eigenvalues, w, rtol=1e-8)


def test_sparse_operators_equal_dense_oracle_to_the_bit(tiny8):
    grid = build_grid(DomainSpec(1.0, 0.8, 12, 10, (0.1, 0.4, 0.1, 0.4)))
    for g, (k1, k2) in ((tiny8["grid"], (tiny8["k1"], tiny8["k2"])), (grid, assemble_operators(grid))):
        d1, d2 = oracle.dense_operators(g)
        assert np.array_equal(dense(k1, g), d1)
        assert np.array_equal(dense(k2, g), d2)


@pytest.mark.parametrize("fixture", ["square32", "tiny8"])
def test_sparse_basis_matches_canonicalized_dense_oracle(fixture, request):
    basis = request.getfixturevalue(fixture)["basis"]
    ref = oracle.dense_eigenbasis(basis.grid, basis.n_modes)
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0)
    scale = np.abs(ref.stream_functions).max()
    assert np.abs(basis.stream_functions - ref.stream_functions).max() <= 1e-10 * scale


@pytest.mark.parametrize("fixture", ["tiny8", "square16"])
def test_lanczos_basis_matches_dense_eigh(fixture, request):
    """The block Lanczos basis against the oracle's dense generalized eigh,
    both canonicalized: eigenvalues within 1e-11 relative, velocities within
    1e-9 of the largest entry, and every cluster's eigenvalues bit-equal."""
    basis = request.getfixturevalue(fixture)["basis"]
    ref = oracle.dense_eigenbasis(basis.grid, basis.n_modes)
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-11, atol=0)
    assert np.abs(basis.velocities - ref.velocities).max() <= 1e-9 * np.abs(ref.velocities).max()
    starts = cluster_starts(basis.eigenvalues)
    assert len(starts) < basis.n_modes  # the square's degenerate pairs
    for lo, hi in zip(starts, [*starts[1:], basis.n_modes]):
        assert np.all(basis.eigenvalues[lo:hi] == basis.eigenvalues[lo])


@pytest.mark.parametrize(("n", "m"), [(64, 24), (32, 64)])
def test_lanczos_eigenvalues_match_eigsh(n, m):
    """Against scipy's shift-invert eigsh on the sparse assembly, within 1e-10
    relative; the basis shares one value per cluster, which eigsh splits at
    roundoff."""
    grid, _, _, basis = make_setup(n, n, m)
    ref = oracle.sparse_eigenvalues(grid, m + EXTRA_MODES)[:m]
    np.testing.assert_allclose(basis.eigenvalues, ref, rtol=1e-10, atol=0)


def test_a_class_doubles_its_pairs_alone_when_its_last_falls_inside_the_basis(square16, monkeypatch):
    """With two extra pairs, 16x16 with 24 modes first solves 6 + 2 pairs in
    each reflection class; the even-even class holds 8 of the 24 modes, so
    its last pair falls inside the basis and it alone doubles to 16 pairs,
    while the other classes keep their first solve; the basis still matches
    the dense oracle."""
    from nsstab import spectral

    started = []

    class Recording(spectral.BlockLanczos):
        def __init__(self, apply, n, k):
            started.append(k)
            super().__init__(apply, n, k)

    monkeypatch.setattr(spectral, "EXTRA_MODES", 2)
    monkeypatch.setattr(spectral, "BlockLanczos", Recording)
    basis = spectral.solve_eigenbasis(square16["k1"], square16["k2"], 24, square16["grid"])
    assert started == [8, 8, 8, 8, 16]
    assert [c["pairs"] for c in basis.solve["classes"].values()] == [16, 8, 8, 8]
    sx, sy, _ = spectral.reflection_parities(basis.stream_functions)
    assert np.sum((sx == 1) & (sy == 1)) == 8
    ref = oracle.dense_eigenbasis(square16["grid"], 24)
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-11, atol=0)
    assert np.abs(basis.velocities - ref.velocities).max() <= 1e-9 * np.abs(ref.velocities).max()


def test_class_solve_matches_the_unsplit_lanczos_oracle(square16):
    """The solve by reflection class against one block Lanczos on the whole
    pencil, canonicalized by the same rule: eigenvalues within 1e-11
    relative, velocities within 1e-9 of the largest entry."""
    basis = square16["basis"]
    ref, solved = oracle.unsplit_eigenbasis(square16["k1"], square16["k2"], 24, square16["grid"])
    assert solved == [24 + EXTRA_MODES]
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-11, atol=0)
    assert np.abs(basis.velocities - ref.velocities).max() <= 1e-9 * np.abs(ref.velocities).max()


@pytest.mark.parametrize(("nx", "ny", "lx", "ly", "m", "pairs"), [
    (16, 16, 1.0, 1.0, 24, [10, 10, 10, 10]),
    (32, 32, 1.0, 1.0, 24, [10, 10, 10, 10]),
    (32, 32, 1.0, 1.0, 64, [20, 20, 20, 20]),
    (48, 8, 12.0, 1.0, 20, [18, 9, 18, 9]),
])
def test_class_solve_orients_its_modes_as_the_general_canonicalizer(nx, ny, lx, ly, m, pairs):
    """The class solve orients each class's pairs of a cluster in class
    coordinates; the same Lanczos pairs mapped to the grid and split by the
    oracle's general canonicalizer give bit-equal eigenvalues, stream
    functions within 1e-14 of the largest entry, and the same exact
    parities.  On the 12 x 1 rectangle the two classes even in y double
    their pairs."""
    grid, k1, k2, basis = make_setup(nx, ny, m, lx=lx, ly=ly)
    assert [c["pairs"] for c in basis.solve["classes"].values()] == pairs
    ref = oracle.classwise_eigenbasis(k1, k2, m, grid)
    assert np.array_equal(basis.eigenvalues, ref.eigenvalues)
    scale = np.abs(ref.stream_functions).max()
    assert np.abs(basis.stream_functions - ref.stream_functions).max() <= 1e-14 * scale
    sx, sy, residual = reflection_parities(basis.stream_functions)
    ref_sx, ref_sy, ref_residual = reflection_parities(ref.stream_functions)
    assert residual == ref_residual == 0.0
    assert np.array_equal(sx, ref_sx) and np.array_equal(sy, ref_sy)


@pytest.mark.parametrize(("m", "same_pencil", "message"), [
    (0, False, "mode count 0 outside [1, 62]"),
    (63, False, "mode count 63 outside [1, 62]"),
    (10, True, "the cluster of tau_10 reaches the top of the spectrum"),
])
def test_solve_rejects_a_mode_count_it_cannot_serve(tiny8, m, same_pencil, message):
    """m outside [1, n - 2] on the 8x8 grid, and the pencil K1 psi = tau K1
    psi, whose spectrum is one cluster, so no pair lies beyond tau_m's."""
    k2 = tiny8["k1"] if same_pencil else tiny8["k2"]
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_eigenbasis(tiny8["k1"], k2, m, tiny8["grid"])


def test_lanczos_that_has_not_converged_after_its_restarts_fails(square16, monkeypatch):
    """The 16x16 solve restarts in every class, so with no restarts allowed
    it fails and names the largest residual."""
    from nsstab import spectral

    assert square16["basis"].solve["restarts"] > 0
    monkeypatch.setattr(spectral, "MAX_RESTARTS", 0)
    with pytest.raises(RuntimeError, match=r"Lanczos did not converge in 0 restarts \(largest residual .*\)"):
        spectral.solve_eigenbasis(square16["k1"], square16["k2"], 24, square16["grid"])


PARITY_GRIDS = [(8, 8, 1.0, 1.0, 10), (16, 16, 1.0, 1.0, 24), (15, 16, 1.0, 1.0, 24), (12, 10, 1.0, 0.8, 20)]


@pytest.mark.parametrize(("nx", "ny", "lx", "ly", "m"), PARITY_GRIDS)
def test_every_mode_has_exact_reflection_parities(nx, ny, lx, ly, m):
    """Each stream function is +-itself mirrored in x and in y, bit for bit,
    from the class solve and from the dense oracle canonicalized by the same
    rule, on squares, an odd-by-even grid and a rectangle with Lx != Ly; the
    solve records a parity residual of 0.0, and both bases agree."""
    grid, _, _, basis = make_setup(nx, ny, m, lx=lx, ly=ly)
    assert basis.solve["parity_residual"] == 0.0
    ref = oracle.dense_eigenbasis(grid, m)
    for psi in (basis.stream_functions, ref.stream_functions):
        sx, sy, residual = reflection_parities(psi)
        assert residual == 0.0
        assert np.array_equal(psi[:, ::-1, :], sx[:, None, None] * psi)
        assert np.array_equal(psi[:, :, ::-1], sy[:, None, None] * psi)
    assert np.array_equal(reflection_parities(ref.stream_functions)[:2], reflection_parities(basis.stream_functions)[:2])
    np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0)


@pytest.mark.parametrize(("nx", "ny"), [(8, 8), (15, 16), (7, 10)])
def test_class_operators_are_the_operators_on_class_fields(nx, ny):
    """A class operator is symmetric to the bit, and class_fields carries it
    to the full operator on that class's fields, within rounding; the
    projection of a class's fields onto another class is exactly zero."""
    grid = build_grid(DomainSpec(1.0, 1.0, nx, ny, (0.1, 0.4, 0.1, 0.4)))
    rng = np.random.default_rng(3)
    for op in assemble_operators(grid):
        full = dense(op, grid)
        for sx, sy in CLASSES:
            part = op.restricted(sx, sy)
            n = part.nx * part.ny
            matrix = part @ np.eye(n)
            assert np.array_equal(matrix, matrix.T)
            phi = rng.standard_normal((2, part.nx, part.ny))
            fields = class_fields(phi, sx, sy, nx, ny)
            moved = (full @ fields.reshape(2, -1).T).T.reshape(fields.shape)
            expected = class_fields((matrix @ phi.reshape(2, -1).T).T.reshape(phi.shape), sx, sy, nx, ny)
            assert np.abs(moved - expected).max() <= 1e-12 * np.abs(moved).max()
            for other in CLASSES:
                if other != (sx, sy):
                    assert not class_coordinates(fields, *other).any()


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
    return tau, vecs, tiny8["k1"], canonical_basis(tau, vecs, tiny8["k1"], m, grid)


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
    basis = square32["basis"]
    # the Gram over a window that is the whole square
    full = assemble_gram(basis, build_grid(DomainSpec(1.0, 1.0, 32, 32, (0.0, 1.0, 0.0, 1.0))))
    assert np.abs(full - np.eye(basis.n_modes)).max() <= 1e-10


def test_rayleigh_quotient_identity(square32):
    basis, k1, k2 = square32["basis"], square32["k1"], square32["k2"]
    for i in (0, 7, 23):
        psi = basis.stream_functions[i].ravel()
        ratio = (psi @ (k2 @ psi)) / (psi @ (k1 @ psi))
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


EPS = np.finfo(float).eps


def _lambert_root(target, s):
    """W(target * s) / s in 50 digits, the root of c * exp(c * s) = target."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        return float(mpmath.lambertw(mpmath.mpf(target) * s).real / s)


def test_fit_roots_match_lambert_w_inversion(square32):
    """Each root is within a few ulps of a 50-digit Lambert W and satisfies
    its defining inequality in floating point."""
    basis, gram = square32["basis"], square32["gram"]
    fit = fit_spectral_constant(basis, gram)
    for lam, _, min_eig, root, _ in fit.table:
        s = np.sqrt(lam)
        target = 1.0 / min_eig
        assert root == pytest.approx(_lambert_root(target, s), rel=4 * EPS)
        assert math.log(root) + root * s >= math.log(target)


def test_gain_curve_root_matches_lambert_w_on_random_pairs():
    rng = np.random.default_rng(3)
    for target, s in zip(10.0 ** rng.uniform(-1, 17, 500), 10.0 ** rng.uniform(-3, 2, 500)):
        root = _invert_gain_curve(target, s)
        assert root == pytest.approx(_lambert_root(target, s), rel=4 * EPS)
        assert math.log(root) + root * s >= math.log(target)


def test_fit_needs_five_modes_for_its_threshold_grid():
    basis = StokesBasis(np.arange(1.0, 5.0), None, None, None)
    with pytest.raises(ValueError, match="basis too small for the threshold grid"):
        fit_spectral_constant(basis, np.eye(4))


def test_degenerate_window_raises():
    # a window that misses every node makes the Gram singular
    grid, _, _, basis = make_setup(10, 10, 6, omega=(0.401, 0.405, 0.401, 0.405))
    assert grid.omega_mask.sum() == 0
    gram = assemble_gram(basis, grid)
    with pytest.raises(SpectralDegeneracyError):
        fit_spectral_constant(basis, gram)
