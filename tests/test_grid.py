import numpy as np
import pytest

from nsstab.grid import DomainSpec, build_grid, discrete_divergence, stream_to_velocity

from oracle import inner_l2


def test_full_domain_control_trivial():
    grid = build_grid(DomainSpec(1.0, 1.0, 3, 3, (0.0, 1.0, 0.0, 1.0)))
    assert grid.n_interior == 9
    assert grid.hx == 0.25 and grid.hy == 0.25
    assert np.all(grid.omega_mask == 1.0)


def test_mask_count_matches_brute_force():
    spec = DomainSpec(1.0, 1.0, 32, 32, (0.6, 0.9, 0.1, 0.4))
    grid = build_grid(spec)
    a, b, c, d = spec.omega
    count = 0
    for x in grid.x:
        for y in grid.y:
            if a < x < b and c < y < d:
                count += 1
    assert int(grid.omega_mask.sum()) == count


def test_mask_count_matches_brute_force_random_windows():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, c = rng.uniform(0.0, 0.7, 2)
        b = a + rng.uniform(0.05, 1.0 - a)
        d = c + rng.uniform(0.05, 1.0 - c)
        spec = DomainSpec(1.0, 1.0, 17, 23, (a, b, c, d))
        grid = build_grid(spec)
        oracle = sum(
            1 for x in grid.x for y in grid.y if a < x < b and c < y < d
        )
        assert int(grid.omega_mask.sum()) == oracle


def test_mask_nonempty_for_wide_windows():
    # windows spanning at least two mesh widths per axis always catch a node
    rng = np.random.default_rng(4)
    for _ in range(20):
        grid0 = build_grid(DomainSpec(1.0, 1.0, 20, 20, (0.1, 0.9, 0.1, 0.9)))
        w = 2 * grid0.hx + rng.uniform(0, 0.1)
        h = 2 * grid0.hy + rng.uniform(0, 0.1)
        a = rng.uniform(0, 1 - w)
        c = rng.uniform(0, 1 - h)
        grid = build_grid(DomainSpec(1.0, 1.0, 20, 20, (a, a + w, c, c + h)))
        assert grid.omega_mask.sum() >= 1


def test_domain_validation_errors():
    with pytest.raises(ValueError, match="area"):
        DomainSpec(1.0, 1.0, 8, 8, (0.5, 0.5, 0.1, 0.4))
    with pytest.raises(ValueError, match="inside"):
        DomainSpec(1.0, 1.0, 8, 8, (0.5, 1.2, 0.1, 0.4))
    with pytest.raises(ValueError, match="at least 3"):
        DomainSpec(1.0, 1.0, 2, 8, (0.1, 0.4, 0.1, 0.4))
    with pytest.raises(ValueError, match="positive"):
        DomainSpec(0.0, 1.0, 8, 8, (0.1, 0.4, 0.1, 0.4))


def test_build_grid_deterministic():
    spec = DomainSpec(1.0, 0.8, 13, 9, (0.2, 0.5, 0.1, 0.7))
    g1, g2 = build_grid(spec), build_grid(spec)
    assert np.array_equal(g1.x, g2.x) and np.array_equal(g1.y, g2.y)
    assert np.array_equal(g1.omega_mask, g2.omega_mask)
    assert g1.hx == g2.hx and g1.hy == g2.hy


def test_stream_zero_gives_zero_velocity():
    grid = build_grid(DomainSpec(1.0, 1.0, 8, 8, (0.1, 0.4, 0.1, 0.4)))
    u = stream_to_velocity(np.zeros((8, 8)), grid)
    assert np.all(u == 0.0)


def test_stream_analytic_derivative_oracle():
    # psi = x*y has velocity (x, -y); central differences are exact for
    # bilinear data away from the zero-padded boundary ring
    grid = build_grid(DomainSpec(1.0, 1.0, 20, 20, (0.1, 0.4, 0.1, 0.4)))
    psi = np.outer(grid.x, grid.y)
    u = stream_to_velocity(psi, grid)
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    inner = (slice(1, -1), slice(1, -1))
    assert np.allclose(u[0][inner], xx[inner], atol=1e-12)
    assert np.allclose(u[1][inner], -yy[inner], atol=1e-12)


def test_velocity_norm_is_stiffness_quadratic_form(square32):
    # cell_area * psi K1 psi equals the velocity L2 norm squared, by assembly
    grid, k1, basis = square32["grid"], square32["k1"], square32["basis"]
    psi = basis.stream_functions[0]
    u = stream_to_velocity(psi, grid)
    qform = grid.cell_area * psi.ravel() @ k1 @ psi.ravel()
    assert abs(inner_l2(u, u, grid) - qform) <= 1e-10
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((grid.nx, grid.ny))
    u = stream_to_velocity(psi, grid)
    qform = grid.cell_area * psi.ravel() @ k1 @ psi.ravel()
    assert abs(inner_l2(u, u, grid) - qform) <= 1e-10 * max(1.0, qform)


def test_inner_l2_positive_definite():
    grid = build_grid(DomainSpec(1.0, 1.0, 8, 8, (0.1, 0.4, 0.1, 0.4)))
    rng = np.random.default_rng(1)
    u = rng.standard_normal((2, 8, 8))
    assert inner_l2(u, u, grid) > 0
    assert inner_l2(np.zeros_like(u), np.zeros_like(u), grid) == 0.0


def test_inner_l2_agrees_with_naive_summation():
    grid = build_grid(DomainSpec(1.3, 0.9, 7, 11, (0.2, 0.6, 0.1, 0.5)))
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2, 7, 11))
    v = rng.standard_normal((2, 7, 11))
    acc = 0.0
    for i in range(7):
        for j in range(11):
            acc += (u[0, i, j] * v[0, i, j] + u[1, i, j] * v[1, i, j]) * grid.hx * grid.hy
    assert inner_l2(u, v, grid) == pytest.approx(acc, rel=1e-13)
    masked = 0.0
    for i in range(7):
        for j in range(11):
            if grid.omega_mask[i, j]:
                masked += (u[0, i, j] * v[0, i, j] + u[1, i, j] * v[1, i, j]) * grid.hx * grid.hy
    assert inner_l2(u, v, grid, grid.omega_mask) == pytest.approx(masked, rel=1e-13)


def test_inner_l2_symmetric_bilinear_and_mask_bounded():
    grid = build_grid(DomainSpec(1.0, 1.0, 9, 9, (0.2, 0.8, 0.2, 0.8)))
    rng = np.random.default_rng(5)
    u, v, w = rng.standard_normal((3, 2, 9, 9))
    assert inner_l2(u, v, grid) == pytest.approx(inner_l2(v, u, grid), rel=1e-13)
    lhs = inner_l2(u + 2.0 * w, v, grid)
    rhs = inner_l2(u, v, grid) + 2.0 * inner_l2(w, v, grid)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert inner_l2(u, u, grid, grid.omega_mask) <= inner_l2(u, u, grid)


def test_inner_l2_rejects_mismatched_shapes():
    grid = build_grid(DomainSpec(1.0, 1.0, 8, 8, (0.1, 0.4, 0.1, 0.4)))
    with pytest.raises(ValueError):
        inner_l2(np.zeros((2, 8, 8)), np.zeros((2, 8, 7)), grid)
    with pytest.raises(ValueError):
        inner_l2(np.zeros((2, 7, 7)), np.zeros((2, 7, 7)), grid)


def test_divergence_of_stream_fields_vanishes():
    grid = build_grid(DomainSpec(1.0, 1.0, 16, 16, (0.1, 0.4, 0.1, 0.4)))
    rng = np.random.default_rng(6)
    psi = rng.standard_normal((16, 16))
    div = discrete_divergence(stream_to_velocity(psi, grid), grid)
    assert np.abs(div).max() <= 1e-13 * max(1.0, np.abs(psi).max() / grid.hx**2)


def test_divergence_constant_and_linear_fields():
    grid = build_grid(DomainSpec(1.0, 1.0, 12, 12, (0.1, 0.4, 0.1, 0.4)))
    inner = (slice(1, -1), slice(1, -1))
    u = np.zeros((2, 12, 12))
    u[0] = 1.0
    assert np.abs(discrete_divergence(u, grid)[inner]).max() == 0.0
    u[0] = np.meshgrid(grid.x, grid.y, indexing="ij")[0]
    assert np.abs(discrete_divergence(u, grid)[inner] - 1.0).max() <= 1e-12
