import numpy as np
import pytest

import linwave.invariant as inv
from linwave.fields import (
    ModeLattice,
    SpectralField,
    analyze,
    component_weights,
    dirac_partial_sum,
    distributional_coefficients,
    l2_inner,
    random_field,
    sobolev_norm,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    synthesize,
    zero_field,
)
from linwave.slices import slice_geometry


def test_lattice_counts_and_lookup():
    lat = ModeLattice(3, 2)
    assert lat.num_modes == 5 ** 3
    assert np.array_equal(lat.modes[lat.mode_index((1, -2, 0))], (1, -2, 0))
    perm = lat.negation_permutation()
    assert np.array_equal(-lat.modes[perm], lat.modes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sym2_converters_round_trip_in_index_pair_order(n):
    rng = np.random.default_rng(n)
    ncomp = n * (n + 1) // 2
    c = rng.standard_normal((5, 2, ncomp)) + 1j * rng.standard_normal((5, 2, ncomp))
    full = sym2_to_full(c, n)
    assert full.shape == (5, 2, n, n)
    assert np.array_equal(full, np.swapaxes(full, -1, -2))
    assert np.array_equal(sym2_from_full(full, n), c)
    for a, (i, j) in enumerate(sym2_index_pairs(n)):
        assert np.array_equal(full[..., i, j], c[..., a])
        assert np.array_equal(full[..., j, i], c[..., a])
    # the upper triangle is what is stored; the lower one is never read
    assert np.array_equal(sym2_from_full(np.triu(full[0, 0]), n), c[0, 0])


def test_analyze_synthesize_round_trip():
    rng = np.random.default_rng(7)
    lat = ModeLattice(3, 4)
    f = random_field(lat, "sym2", rng)
    grid = synthesize(f, 16)
    g = analyze(grid, "sym2", lat)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


def test_analyze_rejects_coarse_grid():
    lat = ModeLattice(2, 4)
    grid = np.zeros((8, 8, 1))
    with pytest.raises(ValueError):
        analyze(grid, "scalar", lat)


def test_synthesize_rejects_non_hermitian():
    lat = ModeLattice(2, 1)
    c = np.zeros((lat.num_modes, 1), complex)
    c[lat.mode_index((1, 0)), 0] = 1.0  # missing conjugate partner
    f = SpectralField(lat, "scalar", c)
    with pytest.raises(ValueError):
        synthesize(f, 8)


def evaluate_at(field: SpectralField, points: np.ndarray) -> np.ndarray:
    """Exact evaluation of the truncated series at arbitrary points (m, n)."""
    points = np.atleast_2d(np.asarray(points, float))
    phases = np.exp(1j * points @ field.lattice.modes.T)
    return (phases @ field.coeffs).real


def test_point_evaluation_matches_grid():
    rng = np.random.default_rng(3)
    lat = ModeLattice(2, 3)
    f = random_field(lat, "one-form", rng)
    npts = 12
    grid = synthesize(f, npts)
    x = 2 * np.pi * np.array([2, 5]) / npts
    assert np.max(np.abs(evaluate_at(f, x) - grid[2, 5])) < 1e-12


def test_parseval_against_grid_quadrature():
    rng = np.random.default_rng(11)
    lat = ModeLattice(3, 3)
    f = random_field(lat, "sym2", rng)
    spectral = l2_inner(f, f)
    grid = synthesize(f, 12)
    w = component_weights("sym2", 3)
    quad = np.sum(grid ** 2 * w) * (2 * np.pi / 12) ** 3
    assert abs(spectral - quad) < 1e-10 * max(1.0, abs(spectral))


def test_metric_l2_inner_matches_grid_contraction():
    # l2_inner with a constant metric G against grid quadrature of the
    # pointwise contraction of full tensors, T_ij S_pq g^ip g^jq (T_i S_p g^ip)
    rng = np.random.default_rng(12)
    npts = 10
    for n in (2, 3):
        A = rng.standard_normal((n, n))
        metrics = [A @ A.T + n * np.eye(n)]
        if n == 3:
            metrics.append(slice_geometry("kasner", p=(2 / 3, 2 / 3, -1 / 3), t0=1.3).metric)
        lat = ModeLattice(n, 2)
        for G in metrics:
            gi = np.linalg.inv(G)
            for rank in ("one-form", "sym2"):
                a, b = random_field(lat, rank, rng), random_field(lat, rank, rng)
                ga, gb = synthesize(a, npts), synthesize(b, npts)
                if rank == "sym2":
                    ga, gb = sym2_to_full(ga, n), sym2_to_full(gb, n)
                    pointwise = np.einsum("...ij,...pq,ip,jq->...", ga, gb, gi, gi)
                else:
                    pointwise = np.einsum("...i,...p,ip->...", ga, gb, gi)
                quad = np.sum(pointwise) * (2 * np.pi / npts) ** n
                err = abs(l2_inner(a, b, metric=G) - quad)
                assert err <= 1e-12 * abs(quad), (n, rank, err / abs(quad))


def test_berger_gram_matrix_keeps_its_contraction():
    # the invariant Gram matrix is vol * component_gram; bit for bit the
    # volume-weighted contraction E^T (g^-1 x g^-1) E it replaced
    E = sym2_to_full(np.eye(6), 3)
    for lam in (0.3, 1.0, 2.5):
        geo = inv.InvariantGeometry(inv.berger_frame(lam))
        vol, gi = geo.volume, geo.metric_inv
        want = {
            "scalar": np.array([[vol]]),
            "one-form": vol * gi,
            "sym2": vol * np.einsum("aij,ip,jq,bpq->ab", E, gi, gi, E),
        }
        for rank, w in want.items():
            assert np.array_equal(inv.gram_matrix(geo, rank), w), (lam, rank)


def test_sobolev_norm_of_constant_and_cosine():
    lat = ModeLattice(3, 2)
    one = zero_field(lat, "scalar")
    one.coeffs[lat.mode_index((0, 0, 0)), 0] = 1.0
    for s in (-2.0, 0.0, 1.5):
        assert abs(sobolev_norm(one, s) - 1.0) < 1e-14
    cos = zero_field(lat, "scalar")
    cos.coeffs[lat.mode_index((1, 0, 0)), 0] = 0.5
    cos.coeffs[lat.mode_index((-1, 0, 0)), 0] = 0.5
    n0 = sobolev_norm(cos, 0.0) ** 2
    for s in (-1.0, 2.0, 3.0):
        assert abs(sobolev_norm(cos, s) ** 2 / n0 - 2.0 ** s) < 1e-12


def test_dirac_line_distribution_membership():
    # order-n derivative of a line Dirac lies in H^{-n-1} but not H^{-n}:
    # the line partial sums are sum_m (1+m^2)^s m^{2n}
    n = 2
    order = n
    lat = ModeLattice(n, 40)
    f = distributional_coefficients(lat, order=order, axis=0, components=0, rank="scalar")
    lo = dirac_partial_sum(order, -n - 1.0, 10 ** 5)
    hi = dirac_partial_sum(order, -n - 1.0, 2 * 10 ** 5)
    assert abs(hi - lo) < 1e-4 * hi  # convergent tail
    div_lo = dirac_partial_sum(order, -float(n), 10 ** 4)
    div_hi = dirac_partial_sum(order, -float(n), 10 ** 5)
    assert div_hi > 5.0 * div_lo  # partial sums diverge linearly
    # truncated norms agree with the direct lattice computation
    direct = sobolev_norm(f, -n - 1.0)
    partial = np.sqrt(dirac_partial_sum(order, -n - 1.0, lat.nmax))
    assert abs(direct - partial) < 1e-12 * max(1.0, partial)


def test_hermitian_symmetry_of_random_fields():
    rng = np.random.default_rng(0)
    f = random_field(ModeLattice(3, 3), "sym2", rng)
    assert f.hermitian_defect() < 1e-15
