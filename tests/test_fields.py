import numpy as np
import pytest

import linwave.invariant as inv
from linwave.fields import (
    ModeLattice,
    SpectralField,
    analyze,
    component_weights,
    dirac_partial_sum,
    ik_phase,
    k_monomials,
    l2_inner,
    monomial_basis,
    random_field,
    sobolev_norm,
    sym2_congruence_matrix,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    times_ik,
    zero_field,
)
from linwave.slices import slice_geometry

from fd_oracles import distributional_coefficients, synthesize


def test_lattice_counts_and_lookup():
    lat = ModeLattice(3, 2)
    assert lat.num_modes == 5 ** 3
    assert np.array_equal(lat.modes[lat.mode_index((1, -2, 0))], (1, -2, 0))
    perm = lat.negation_permutation()
    assert np.array_equal(-lat.modes[perm], lat.modes)


def _take_per_axis_negation(n, nmax):
    """k -> -k built without the index reversal: np.take of the reversed
    axis range on each axis of the (2 nmax + 1)^n box of flat indices."""
    m = 2 * nmax + 1
    perm = np.arange(m ** n).reshape((m,) * n)
    for ax in range(n):
        perm = np.take(perm, np.arange(m)[::-1], axis=ax)
    return perm.ravel()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("nmax", [0, 1, 2, 5])
def test_negation_is_index_reversal(n, nmax):
    # C order over the symmetric box [-nmax, nmax]^n: k -> -k reverses the
    # flat index, and the Hermitian half is the first (N + 1) / 2 rows,
    # ending with k = 0.  ModeLattice refuses nmax 0, so the one-mode box is
    # checked on its mode table alone
    r = np.arange(-nmax, nmax + 1)
    modes = np.stack([g.ravel() for g in np.meshgrid(*[r] * n, indexing="ij")], axis=-1)
    N = len(modes)
    perm = _take_per_axis_negation(n, nmax)
    half = np.flatnonzero(np.arange(N) <= perm)
    assert np.array_equal(modes[::-1], -modes)
    assert np.array_equal(perm, np.arange(N)[::-1])
    assert np.array_equal(half, np.arange((N + 1) // 2))
    assert not modes[half[-1]].any()
    if nmax == 0:
        with pytest.raises(ValueError, match="nmax must be >= 1"):
            ModeLattice(n, nmax)
        return
    lat = ModeLattice(n, nmax)
    assert np.array_equal(lat.modes, modes)
    assert np.array_equal(lat.negation_permutation(), perm)
    assert np.array_equal(np.arange(lat.half.stop), half)
    assert np.array_equal(np.arange(N)[lat.half], half)
    assert np.array_equal(lat.half_weights(), np.where(perm[half] == half, 1.0, 2.0))


@pytest.mark.parametrize("rank", ["scalar", "one-form", "sym2"])
def test_random_field_and_defect_match_the_permuted_formulas_bit_for_bit(rank):
    # raw[::-1] is raw at -k: a seeded random_field is the permuted gather
    # 0.5 (raw + conj(raw[perm])) byte for byte, with and without decay,
    # and hermitian_defect reads the permuted defect
    for lat, decay in ((ModeLattice(3, 4), 0.0), (ModeLattice(2, 5), 1.5)):
        perm = _take_per_axis_negation(lat.n, lat.nmax)
        got = random_field(lat, rank, np.random.default_rng(61), decay).coeffs
        rng = np.random.default_rng(61)
        raw = rng.standard_normal(got.shape) + 1j * rng.standard_normal(got.shape)
        want = 0.5 * (raw + np.conj(raw[perm]))
        if decay > 0:
            want *= np.exp(-np.sum(lat.modes ** 2, axis=1) / (2.0 * decay ** 2))[:, None]
        assert got.tobytes() == want.tobytes()
        defect = SpectralField(lat, rank, raw).hermitian_defect()
        assert defect == np.max(np.abs(raw[perm] - np.conj(raw))) > 0.1


def test_lattice_modes_are_built_once_and_read_only():
    lat = ModeLattice(3, 2)
    assert lat.modes is lat.modes
    assert lat == ModeLattice(3, 2) and hash(lat) == hash(ModeLattice(3, 2))
    with pytest.raises(ValueError, match="read-only"):
        lat.modes[0, 0] = 7
    assert lat.modes[0, 0] == -2


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sym2_congruence_matrix_applies_a_transpose_x_plus_x_a(n):
    rng = np.random.default_rng(10 + n)
    ncomp = n * (n + 1) // 2
    a = rng.standard_normal((n, n))  # not symmetric
    x = rng.standard_normal((7, ncomp)) + 1j * rng.standard_normal((7, ncomp))
    M = sym2_congruence_matrix(a)
    assert M.shape == (ncomp, ncomp) and M.dtype == float
    X = sym2_to_full(x, n)
    want = sym2_from_full(a.T @ X + X @ a, n)
    assert np.max(np.abs(x @ M - want)) <= 1e-15 * np.max(np.abs(want))
    assert not np.any(x @ sym2_congruence_matrix(np.zeros((n, n))))


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
    spectral = l2_inner(f, f, np.eye(3))
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
        geo = inv.InvariantGeometry(np.diag([lam, 1.0, 1.0]))
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


def test_dirac_partial_sum_refuses_a_negative_order():
    # m^(2 order) at m = 0 would divide by zero; the coefficients refuse it too
    message = "derivative order must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        dirac_partial_sum(-1, -2.0, 8)
    with pytest.raises(ValueError, match=message):
        distributional_coefficients(ModeLattice(2, 4), -1, 0, 0)


def test_hermitian_symmetry_of_random_fields():
    rng = np.random.default_rng(0)
    f = random_field(ModeLattice(3, 3), "sym2", rng)
    assert f.hermitian_defect() < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_monomial_basis_follows_the_one_monomial_order(n):
    """monomial_basis writes the monomials of k_monomials(n, 2) out column by
    column; it equals the product form bit for bit.  times_ik maps each
    monomial below degree 2 to its product with k_a, and ik_phase is
    i^deg."""
    mono = k_monomials(n, 2)
    k = ModeLattice(n, 3).modes
    assert np.array_equal(monomial_basis(k), np.prod(k[:, None, :] ** mono, axis=-1))
    # the columns written out by hand, byte for byte and in C order, in the
    # float arithmetic of monomial_basis; -k has components -0.0
    for q in (1.0 * k, -1.0 * k):
        cols = [np.ones(len(q))] + [q[:, a] for a in range(n)] + [q[:, a] ** 2 for a in range(n)]
        cols += [q[:, a] * q[:, b] for a in range(n) for b in range(a + 1, n)]
        got = monomial_basis(q)
        assert got.flags.c_contiguous and got.tobytes() == np.stack(cols, axis=1).tobytes()
    assert mono.shape == (1 + 2 * n + n * (n - 1) // 2, n)
    rng = np.random.default_rng(3)
    low = int(np.sum(mono.sum(axis=1) < 2))
    c = np.zeros((3, len(mono)))
    c[:, :low] = rng.standard_normal((3, low))
    shifted = times_ik(c, n, "test")  # (n, 3, npoly): coefficients of (i k)^e
    basis = monomial_basis(k) * ik_phase(n)  # (i k)^e per mode
    for a in range(n):
        assert np.allclose(shifted[a] @ basis.T, 1j * k[:, a] * (c @ basis.T), rtol=0, atol=1e-12)
