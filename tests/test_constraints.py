import tracemalloc

import numpy as np
import pytest

import linwave.invariant as inv
from linwave.constraints import (
    ORACLE_EPS,
    ORACLE_STEP,
    InitialDataPair,
    _cofactor_inverse,
    _grid_size,
    _phi_invariant,
    _phi_pointwise,
    _stencil_samples,
    _stencil_symbols,
    _torus_constraint_fields,
    dphi,
    dphi_modes,
    dphi_oracle,
    normal_identities,
)
from linwave.fields import (
    ModeLattice,
    SpectralField,
    analyze,
    random_field,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    synthesize_shifted,
    zero_field,
)
from linwave.slices import slice_geometry
from linwave.spacetime import CauchyJet, spacetime_background

from fd_oracles import (
    distributional_coefficients,
    kasner_triples,
    milnor_slice,
    phi_pointwise_reference,
    reference_dphi_invariant,
    reference_dphi_modes,
)

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)


def phi(gdata, kdata, geom):
    """Reference nonlinear constraints (Phi_1, Phi_2) of metric data gdata
    and extrinsic data kdata, both sym2 fields of the slice's backend
    holding the FULL fields (on a torus, background constants on the zero
    mode), from the oracle's own kernels.  Returns a scalar and a one-form
    field of the same backend.  Torus derivatives are 4th-order stencils at
    ORACLE_STEP, as in dphi_oracle.
    """
    if not geom.is_torus:
        phi1, phi2 = _phi_invariant(sym2_to_full(gdata.components, 3),
                                    sym2_to_full(kdata.components, 3))
        return (inv.InvariantField("scalar", np.array([phi1])),
                inv.InvariantField("one-form", phi2))
    lat = gdata.lattice
    npts = _grid_size(lat)
    g, dg, d2g = _stencil_samples(gdata, npts, ORACLE_STEP, second=True, name="g~")
    k, dk, _ = _stencil_samples(kdata, npts, ORACLE_STEP, second=False, name="k~")
    return _torus_constraint_fields(*_phi_pointwise(g, dg, d2g, k, dk), lat, npts)


def background_pair(geom, lat):
    g = zero_field(lat, "sym2")
    k = zero_field(lat, "sym2")
    i0 = lat.mode_index((0, 0, 0))
    g.coeffs[i0] = sym2_from_full(geom.metric, 3)
    k.coeffs[i0] = sym2_from_full(geom.extrinsic, 3)
    return g, k


def test_nonlinear_phi_vanishes_on_backgrounds():
    lat = ModeLattice(3, 1)
    for kind, kw in [("flat-torus", dict(n=3)), ("kasner", dict(p=KASNER_P, t0=1.3))]:
        geom = slice_geometry(kind, **kw)
        g, k = background_pair(geom, lat)
        p1, p2 = phi(g, k, geom)
        assert np.max(np.abs(p1.coeffs)) < 1e-8
        assert np.max(np.abs(p2.coeffs)) < 1e-10
    geomb = slice_geometry("berger")
    p1, p2 = phi(*(inv.InvariantField("sym2", sym2_from_full(x, 3))
                   for x in (geomb.metric, geomb.extrinsic)), geomb)
    assert (p1.rank, p2.rank) == ("scalar", "one-form")
    assert abs(p1.components[0]) < 1e-12 and np.max(np.abs(p2.components)) < 1e-12


def pulled_back(T, lat, npts=16):
    """The pull-back J^T T J of a constant tensor T under the torus map
    x1 += 0.3 sin x2, x2 += 0.2 sin(x1 + x3), as a sym2 field on lat: the
    Jacobian J is I plus trigonometric terms of degree 1, so J^T T J is
    band-limited at nmax 2 and analyze reads it exactly."""
    x = 2.0 * np.pi * np.arange(npts) / npts
    x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
    J = np.broadcast_to(np.eye(3), (npts,) * 3 + (3, 3)).copy()
    J[..., 0, 1] = 0.3 * np.cos(x2)
    J[..., 1, 0] = J[..., 1, 2] = 0.2 * np.cos(x1 + x3)
    return analyze(sym2_from_full(np.einsum("...ia,ij,...jb->...ab", J, T, J), 3), "sym2", lat)


def test_phi_vanishes_on_a_background_in_curvilinear_coordinates():
    # Phi is diffeomorphism covariant, so the pull-back of a flat or Kasner
    # slice satisfies the nonlinear constraints pointwise.  Unlike the
    # background itself, the pulled-back g~ is not constant, so every term of
    # the kernel is exercised: measured worst 1.9e-13 (Phi_1, stencil
    # truncation) and 1.4e-14 (Phi_2).  With the sign of T3 flipped Phi_1
    # reads 0.51, of Gamma^c_am Gamma^m_cb 0.07 and of Gamma^c_cm Gamma^m_ab
    # 0.04; with the d g^-1 part of d_x tr k flipped Phi_2 reads 0.12
    lat = ModeLattice(3, 2)
    npts = _grid_size(lat)
    for geom in (slice_geometry("flat-torus", n=3), slice_geometry("kasner", p=KASNER_P, t0=1.3)):
        gdata, kdata = pulled_back(geom.metric, lat), pulled_back(geom.extrinsic, lat)
        assert np.max(np.abs(gdata.coeffs[lat.mode_index((2, 0, 2))])) > 1e-3
        g, dg, d2g = _stencil_samples(gdata, npts, ORACLE_STEP, second=True)
        k, dk, _ = _stencil_samples(kdata, npts, ORACLE_STEP, second=False)
        p1, p2 = _phi_pointwise(g, dg, d2g, k, dk)
        assert np.max(np.abs(p1)) <= 2e-13
        assert np.max(np.abs(p2)) <= 1.5e-14


def test_nonlinear_phi_detects_round_sphere_curvature():
    # the round Berger sphere (lambda = 1) has Scal = 6, not 0
    p1, _ = phi(inv.InvariantField("sym2", sym2_from_full(np.eye(3), 3)),
                inv.InvariantField("sym2", np.zeros(6)), slice_geometry("berger"))
    geo = inv.InvariantGeometry(np.diag([1.0, 1.0, 1.0]))
    assert abs(p1.components[0] - 6.0) < 1e-12
    assert abs(geo.scal - 6.0) < 1e-12


def test_dphi_matches_oracle_flat_torus():
    rng = np.random.default_rng(10)
    lat = ModeLattice(3, 2)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng, decay=2.0),
        random_field(lat, "sym2", rng, decay=2.0),
        slice_geometry("flat-torus", n=3),
    )
    a, b = dphi(pair), dphi_oracle(pair)
    s1 = np.max(np.abs(a.scalar.coeffs))
    s2 = np.max(np.abs(a.oneform.coeffs))
    assert np.max(np.abs(a.scalar.coeffs - b.scalar.coeffs)) < 1e-6 * s1
    assert np.max(np.abs(a.oneform.coeffs - b.oneform.coeffs)) < 1e-6 * s2


def test_dphi_matches_oracle_kasner_slice():
    rng = np.random.default_rng(11)
    lat = ModeLattice(3, 2)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng, decay=2.0),
        random_field(lat, "sym2", rng, decay=2.0),
        slice_geometry("kasner", p=KASNER_P, t0=1.3),
    )
    a, b = dphi(pair), dphi_oracle(pair)
    s1 = np.max(np.abs(a.scalar.coeffs))
    s2 = np.max(np.abs(a.oneform.coeffs))
    assert np.max(np.abs(a.scalar.coeffs - b.scalar.coeffs)) < 1e-6 * s1
    assert np.max(np.abs(a.oneform.coeffs - b.oneform.coeffs)) < 1e-6 * s2


def test_dphi_matches_oracle_berger():
    # on the scalar-flat Berger sphere, and on curved slices off it: a
    # squashed Berger sphere and a Milnor slice with three distinct axes
    rng = np.random.default_rng(12)
    for geom in (slice_geometry("berger"), slice_geometry("berger", lam=2.7), milnor_slice(1.5)):
        pair = InitialDataPair(
            inv.InvariantField("sym2", rng.standard_normal(6)),
            inv.InvariantField("sym2", rng.standard_normal(6)),
            geom,
        )
        a, b = dphi(pair), dphi_oracle(pair)
        assert abs(a.scalar.components[0] - b.scalar.components[0]) < 1e-7
        assert np.max(np.abs(a.oneform.components - b.oneform.components)) < 1e-7


@pytest.mark.parametrize("geom", [
    slice_geometry("flat-torus", n=3),
    slice_geometry("flat-torus", n=2),
    *(slice_geometry("kasner", p=p, t0=t0) for p in kasner_triples() for t0 in (0.7, 1.3)),
], ids=["torus3", "torus2", *(f"kasner{i}-t{t0}" for i in range(3) for t0 in (0.7, 1.3))])
def test_dphi_matches_the_per_mode_torus_reference(geom):
    # the one formula against DPhi contracted by hand per mode, on the whole
    # lattice (through dphi) and on the half lattice the diagnostics read
    rng = np.random.default_rng(14)
    lat = ModeLattice(geom.n, 3)
    h, m = random_field(lat, "sym2", rng), random_field(lat, "sym2", rng)
    res = dphi(InitialDataPair(h, m, geom))
    idx = np.arange(lat.half.stop)
    for got, rows in (((res.scalar.coeffs, res.oneform.coeffs), np.arange(lat.num_modes)),
                      (dphi_modes(geom, lat.modes[idx], h.coeffs[idx], m.coeffs[idx]), idx)):
        want1, want2 = reference_dphi_modes(geom, lat.modes[rows], h.coeffs[rows], m.coeffs[rows])
        for g, w in ((got[0], want1[:, None]), (got[1], want2)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("geom", [
    slice_geometry("berger"),
    slice_geometry("berger", lam=2.7),
    slice_geometry("berger", lam=1.0),
    milnor_slice(1.5),
], ids=["lam4", "lam2.7", "lam1", "milnor1.5"])
def test_dphi_matches_the_invariant_reference(geom):
    # with k~ = 0 every k~ term of the one formula is an exact zero, so the
    # k~-free reduction is reproduced bit for bit
    rng = np.random.default_rng(15)
    h, m = (inv.InvariantField("sym2", rng.standard_normal(6)) for _ in range(2))
    res = dphi(InitialDataPair(h, m, geom))
    want1, want2 = reference_dphi_invariant(geom, h, m)
    assert np.array_equal(res.scalar.components, want1.components)
    assert np.array_equal(res.oneform.components, want2.components)


def test_dphi_is_linear():
    rng = np.random.default_rng(13)
    lat = ModeLattice(3, 2)
    geom = slice_geometry("kasner", p=KASNER_P, t0=0.9)
    h1, m1 = random_field(lat, "sym2", rng), random_field(lat, "sym2", rng)
    h2, m2 = random_field(lat, "sym2", rng), random_field(lat, "sym2", rng)
    h3 = type(h1)(lat, "sym2", 2.0 * h1.coeffs - 3.0 * h2.coeffs)
    m3 = type(m1)(lat, "sym2", 2.0 * m1.coeffs - 3.0 * m2.coeffs)
    r1 = dphi(InitialDataPair(h1, m1, geom))
    r2 = dphi(InitialDataPair(h2, m2, geom))
    r3 = dphi(InitialDataPair(h3, m3, geom))
    comb = 2.0 * r1.scalar.coeffs - 3.0 * r2.scalar.coeffs
    assert np.max(np.abs(r3.scalar.coeffs - comb)) < 1e-12 * np.max(np.abs(comb))


def test_oracle_rejects_distributional_data():
    lat = ModeLattice(3, 3)
    h = distributional_coefficients(lat, order=1, axis=0, components=0, rank="sym2")
    m = zero_field(lat, "sym2")
    pair = InitialDataPair(h, m, slice_geometry("flat-torus", n=3))
    with pytest.raises(ValueError):
        dphi_oracle(pair)
    # but dphi itself operates mode by mode and accepts it
    res = dphi(pair)
    assert np.isfinite(res.scalar.coeffs).all()


def test_oracle_rejects_complex_samples():
    lat = ModeLattice(3, 2)
    geom = slice_geometry("flat-torus", n=3)
    rng = np.random.default_rng(16)
    h = random_field(lat, "sym2", rng, decay=2.0)
    h.coeffs[lat.mode_index((1, 0, 0))] += 1e-3j  # breaks c_{-k} = conj(c_k)
    pair = InitialDataPair(h, zero_field(lat, "sym2"), geom)
    with pytest.raises(ValueError, match="h~ samples came out complex"):
        dphi_oracle(pair)
    m = random_field(lat, "sym2", rng, decay=2.0)
    m.coeffs[lat.mode_index((0, 1, -1))] += 1e-3j
    pair = InitialDataPair(random_field(lat, "sym2", rng, decay=2.0), m, geom)
    with pytest.raises(ValueError, match="m~ samples came out complex"):
        dphi_oracle(pair)
    g, k = background_pair(geom, lat)
    with pytest.raises(ValueError, match="g~ samples came out complex"):
        phi(g + h, k, geom)
    with pytest.raises(ValueError, match="k~ samples came out complex"):
        phi(g, k + m, geom)


FIRST_WEIGHTS = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}  # over 12 step
SECOND_WEIGHTS = {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}  # over 12 step^2


def offset_grid_stencils(field, npts, step):
    """Reference: 4th-order differences of exact offset grids, each from its
    own synthesize_shifted call.  Returns {key: (stencil, scale)} over the
    stored sym2 components; the scale is sum |w| max|f| / denominator, the
    largest value any term of the stencil can take."""
    n = field.lattice.n

    def grid(offsets):
        shift = np.zeros(n)
        for axis, m in offsets:
            shift[axis] += m * step
        return synthesize_shifted(field, npts, shift).real.reshape(npts ** n, -1)

    fmax = float(np.max(np.abs(grid(()))))
    out = {}
    for a in range(n):
        out[a] = (sum(w * grid([(a, m)]) for m, w in FIRST_WEIGHTS.items()) / (12 * step),
                  18.0 * fmax / (12 * step))
        out[a, a] = (sum(w * grid([(a, m)]) for m, w in SECOND_WEIGHTS.items())
                     / (12 * step ** 2), 64.0 * fmax / (12 * step ** 2))
        for b in range(a + 1, n):
            out[a, b] = (sum(wa * wb * grid([(a, ma), (b, mb)])
                             for ma, wa in FIRST_WEIGHTS.items()
                             for mb, wb in FIRST_WEIGHTS.items()) / (144 * step ** 2),
                         324.0 * fmax / (144 * step ** 2))
    return out


def test_stencil_multipliers_match_offset_grid_differences():
    # full metric data G + h~ (background on the zero mode) on the flat 3-torus,
    # a Kasner slice and the flat 2-torus; measured worst 2.0e-16 of the
    # scale (the reference's own round-off, up to 4.9e-10 of a second
    # derivative, comes from G cancelling between offset grids)
    rng = np.random.default_rng(14)
    cases = [(slice_geometry("flat-torus", n=3), 3),
             (slice_geometry("kasner", p=KASNER_P, t0=1.3), 3),
             (slice_geometry("flat-torus", n=2), 2)]
    worst = 0.0
    for geom, n in cases:
        lat = ModeLattice(n, 2)
        field = random_field(lat, "sym2", rng, decay=2.0)
        field.coeffs[lat.mode_index((0,) * n)] += sym2_from_full(geom.metric, n)
        npts = 16
        f, df, d2f = _stencil_samples(field, npts, ORACLE_STEP, second=True)
        ref = offset_grid_stencils(field, npts, ORACLE_STEP)
        values = synthesize_shifted(field, npts).real.reshape(npts ** n, -1)
        # samples keep the grid axis last: (n, n, P) -> (P, ncomp)
        stored = lambda x: sym2_from_full(np.moveaxis(x, -1, 0), n)
        assert np.max(np.abs(stored(f) - values)) <= 1e-14 * np.max(np.abs(values))
        for key, (stencil, scale) in ref.items():
            got = df[key] if isinstance(key, int) else d2f[key]
            worst = max(worst, float(np.max(np.abs(stored(got) - stencil))) / scale)
            if not isinstance(key, int):
                assert np.array_equal(d2f[key[::-1]], got)
    assert worst <= 1e-14, worst


def test_stencils_of_a_constant_field_are_exactly_zero():
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    g, k = background_pair(geom, ModeLattice(3, 2))
    for field, const, second in ((g, geom.metric, True), (k, geom.extrinsic, False)):
        f, df, d2f = _stencil_samples(field, 16, ORACLE_STEP, second)
        assert np.max(np.abs(np.moveaxis(f, -1, 0) - const)) <= 1e-15
        assert not np.any(df)
        assert d2f is None or not np.any(d2f)


def padded_irfftn_samples(field, npts, step, second):
    """Reference: the stencil rows of the Hermitian half k_n >= 0 placed at
    k % npts in a zero-padded spectrum and synthesized by one real inverse
    FFT, in the (row, c, d, P) layout of _stencil_samples' full array."""
    lat = field.lattice
    n = lat.n
    half = lat.modes[:, -1] >= 0
    modes = lat.modes[half]
    rows = _stencil_symbols(modes, step, second)[:, None, :] * field.coeffs[half].T
    spec = np.zeros(rows.shape[:2] + (npts,) * (n - 1) + (npts // 2 + 1,), complex)
    idx = tuple(modes[:, ax] % npts for ax in range(n - 1)) + (modes[:, -1],)
    spec[(slice(None), slice(None)) + idx] = rows
    grids = np.fft.irfftn(spec, s=(npts,) * n, axes=tuple(range(2, n + 2)), norm="forward")
    return grids.reshape(len(grids), field.ncomp, -1)[:, sym2_to_full(np.arange(field.ncomp), n)]


@pytest.mark.parametrize("n, nmax, npts", [(3, 2, 16), (3, 8, 17), (2, 2, 16)])
def test_synthesis_matches_the_zero_padded_real_fft(n, nmax, npts):
    # per-axis matrix synthesis against the padded irfftn it replaced, on
    # full metric data G + h~ (measured worst 9.2e-16 of each row's maximum)
    rng = np.random.default_rng(21)
    lat = ModeLattice(n, nmax)
    field = random_field(lat, "sym2", rng, decay=2.0)
    field.coeffs[lat.mode_index((0,) * n)] += sym2_from_full(np.eye(n), n)
    for second in (True, False):
        f, df, d2f = _stencil_samples(field, npts, ORACLE_STEP, second)
        ref = padded_irfftn_samples(field, npts, ORACLE_STEP, second)
        got = [f, *df] + ([] if d2f is None else [d2f[a, b] for a, b in sym2_index_pairs(n)])
        assert len(got) == len(ref)
        for row, want in zip(got, ref):
            assert row.shape == want.shape and row.strides[-1] == row.itemsize
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind, n", [("flat-torus", 2), ("flat-torus", 3), ("kasner", 3)])
def test_cofactor_inverse_matches_lapack(kind, n):
    # background metrics perturbed at 500 points, still positive definite
    # (condition numbers up to 3.1; measured worst 3.5e-16 of the inverse's
    # largest entry)
    geom = slice_geometry(kind, n=n) if kind == "flat-torus" else slice_geometry(
        kind, p=KASNER_P, t0=1.3)
    rng = np.random.default_rng(22)
    dg = 0.05 * rng.standard_normal((n, n, 500))
    g = geom.metric[..., None] + dg + np.swapaxes(dg, 0, 1)
    assert np.all(np.linalg.eigvalsh(np.moveaxis(g, -1, 0)) > 0.5)
    want = np.moveaxis(np.linalg.inv(np.moveaxis(g, -1, 0)), 0, -1)
    got = _cofactor_inverse(g)
    assert got.shape == g.shape and got.strides[-1] == got.itemsize
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # not only symmetric matrices: C^T, not C, over the determinant
    a = rng.standard_normal((n, n, 50)) + 3.0 * np.eye(n)[..., None]
    want = np.moveaxis(np.linalg.inv(np.moveaxis(a, -1, 0)), 0, -1)
    assert np.max(np.abs(_cofactor_inverse(a) - want)) <= 1e-14 * np.max(np.abs(want))


ORACLE_CASES = [
    (slice_geometry("flat-torus", n=3), 3),
    (slice_geometry("kasner", p=KASNER_P, t0=1.3), 3),
    (slice_geometry("flat-torus", n=2), 2),
]


def test_pointwise_kernel_matches_the_reference_kernel():
    # the grid-last kernel against the grid-in-the-middle reference on the
    # same samples at G +- eps h~, K +- eps m~.  Phi_1 is measured against
    # |Phi_1| + (tr k~)^2: on the Kasner slice it is the difference of the
    # O(1) terms -g~(k~, k~) and (tr k~)^2 (measured worst 1.7e-15 of that,
    # 6.0e-13 of |Phi_1| alone), Phi_2 against |Phi_2| (3.5e-16)
    rng = np.random.default_rng(19)
    for geom, n in ORACLE_CASES:
        lat = ModeLattice(n, 2)
        h, dh, d2h = _stencil_samples(random_field(lat, "sym2", rng, decay=2.0),
                                      16, ORACLE_STEP, second=True)
        m, dm, _ = _stencil_samples(random_field(lat, "sym2", rng, decay=2.0),
                                    16, ORACLE_STEP, second=False)
        G, K = geom.metric[..., None], geom.extrinsic[..., None]
        trK2 = np.trace(geom.metric_inv @ geom.extrinsic) ** 2
        for eps in (ORACLE_EPS, -ORACLE_EPS):
            args = (G + eps * h, eps * dh, eps * d2h, K + eps * m, eps * dm)
            p1, p2 = _phi_pointwise(*args)
            # the reference takes the grid axis after the derivative axes
            r1, r2 = phi_pointwise_reference(*(np.moveaxis(x, -1, axis) for x, axis in
                                               zip(args, (0, 1, 2, 0, 1))))
            assert p1.shape == r1.shape and p2.shape == r2.T.shape
            assert np.max(np.abs(p1 - r1)) <= 1e-12 * (np.max(np.abs(r1)) + trK2)
            assert np.max(np.abs(p2 - r2.T)) <= 1e-12 * np.max(np.abs(r2))


def test_pointwise_kernel_transient_memory_is_bounded():
    # tracemalloc peak of one kernel call above its inputs, per grid point,
    # at nmax 8 (4913 points): measured 92.1 doubles.  A kernel that forms
    # the rank-5 bracket of d2g (n^4 values per point, twice) takes 203
    lat = ModeLattice(3, 8)
    npts = _grid_size(lat)
    rng = np.random.default_rng(23)
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    h, dh, d2h = _stencil_samples(random_field(lat, "sym2", rng, decay=2.0),
                                  npts, ORACLE_STEP, second=True)
    m, dm, _ = _stencil_samples(random_field(lat, "sym2", rng, decay=2.0),
                                npts, ORACLE_STEP, second=False)
    eps = ORACLE_EPS
    args = (geom.metric[..., None] + eps * h, eps * dh, eps * d2h,
            geom.extrinsic[..., None] + eps * m, eps * dm)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _phi_pointwise(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_point = peak / (8 * npts ** 3)
    assert per_point <= 105.0, per_point


def reference_samples(field, npts, step, second):
    """Samples in the reference layout (f [p, c, d], df [a, p, c, d],
    d2f [e, a, p, c, d]) from one complex synthesize_shifted per stencil
    row."""
    lat = field.lattice
    n = lat.n
    rows = np.stack([
        sym2_to_full(synthesize_shifted(SpectralField(lat, "sym2", s[:, None] * field.coeffs),
                                        npts).real.reshape(npts ** n, -1), n)
        for s in _stencil_symbols(lat.modes, step, second)
    ])
    d2f = rows[sym2_to_full(np.arange(n + 1, len(rows)), n)] if second else None
    return rows[0], rows[1:n + 1], d2f


def test_oracle_matches_a_reference_from_per_row_complex_synthesis():
    # the whole torus oracle against one assembled from per-row complex
    # synthesis and the reference kernel (measured worst 7.2e-14 relative)
    rng = np.random.default_rng(20)
    for geom, n in ORACLE_CASES:
        lat = ModeLattice(n, 2)
        pair = InitialDataPair(random_field(lat, "sym2", rng, decay=2.0),
                               random_field(lat, "sym2", rng, decay=2.0), geom)
        h, dh, d2h = reference_samples(pair.h, 16, ORACLE_STEP, second=True)
        m, dm, _ = reference_samples(pair.m, 16, ORACLE_STEP, second=False)
        G, K, eps = geom.metric, geom.extrinsic, ORACLE_EPS
        p1p, p2p = phi_pointwise_reference(G + eps * h, eps * dh, eps * d2h, K + eps * m, eps * dm)
        p1m, p2m = phi_pointwise_reference(G - eps * h, -eps * dh, -eps * d2h,
                                           K - eps * m, -eps * dm)
        shape = (16,) * n
        ref1 = analyze(((p1p - p1m) / (2 * eps)).reshape(shape), "scalar", lat).coeffs
        ref2 = analyze(((p2p - p2m) / (2 * eps)).reshape(shape + (n,)), "one-form", lat).coeffs
        got = dphi_oracle(pair)
        assert np.max(np.abs(got.scalar.coeffs - ref1)) <= 1e-12 * np.max(np.abs(ref1))
        assert np.max(np.abs(got.oneform.coeffs - ref2)) <= 1e-12 * np.max(np.abs(ref2))


def test_oracle_catches_a_dropped_extrinsic_curvature_term():
    # dphi with the A_up h~ term of DPhi_1 removed, computed here: the oracle
    # must reject it by orders of magnitude and still accept the true dphi
    # (measured: 1.2e-1 against 1.6e-8 of the scale)
    rng = np.random.default_rng(15)
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    lat = ModeLattice(3, 2)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng, decay=2.0),
        random_field(lat, "sym2", rng, decay=2.0),
        geom,
    )
    K, gi = geom.extrinsic, geom.metric_inv
    A_up = gi @ (2.0 * (K @ gi @ K - np.trace(gi @ K) * K)) @ gi
    dropped = np.einsum("ab,kab->k", A_up, sym2_to_full(pair.h.coeffs, 3))
    true, oracle = dphi(pair), dphi_oracle(pair)
    scale = np.max(np.abs(true.scalar.coeffs))
    assert np.max(np.abs(true.scalar.coeffs - oracle.scalar.coeffs)) < 1e-6 * scale
    wrong = true.scalar.coeffs[:, 0] - dropped
    assert np.max(np.abs(wrong - oracle.scalar.coeffs[:, 0])) > 1e-3 * scale


def test_pair_validation():
    lat = ModeLattice(3, 1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        InitialDataPair(
            random_field(lat, "one-form", rng),
            random_field(lat, "sym2", rng),
            slice_geometry("flat-torus", n=3),
        )
    with pytest.raises(ValueError):
        InitialDataPair(
            random_field(lat, "sym2", rng),
            random_field(ModeLattice(3, 2), "sym2", rng),
            slice_geometry("flat-torus", n=3),
        )


def test_pair_checks_the_backend_of_m_as_of_h():
    lat = ModeLattice(3, 1)
    rng = np.random.default_rng(1)
    spectral = random_field(lat, "sym2", rng)
    invariant = inv.InvariantField("sym2", rng.standard_normal(6))
    with pytest.raises(ValueError, match="share one mode lattice"):
        InitialDataPair(spectral, invariant, slice_geometry("flat-torus", n=3))
    with pytest.raises(ValueError, match="invariant fields"):
        InitialDataPair(invariant, spectral, slice_geometry("berger"))


def test_normal_identities_hold_for_arbitrary_jets():
    # both identities hold for ANY symmetric 2-tensor jet on a vacuum
    # background, with the second time derivative closed by the wave equation
    rng = np.random.default_rng(14)
    lat = ModeLattice(3, 2)
    for kind, kw, t in [
        ("minkowski-torus", dict(n=3), 0.0),
        ("kasner", dict(p=KASNER_P), 1.3),
    ]:
        bg = spacetime_background(kind, **kw)
        jet = CauchyJet(
            bg, t,
            random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
            random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
            random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
        )
        res = normal_identities(jet)
        assert res["identity4_rel"] < 1e-8
        assert res["identity5_rel"] < 1e-8


def test_normal_identities_are_closure_independent():
    # the constraint combinations of the linearised Ricci tensor carry no
    # second time derivatives, so the identities hold for ANY closure
    rng = np.random.default_rng(15)
    lat = ModeLattice(3, 1)
    bg = spacetime_background("kasner", p=KASNER_P)
    jet = CauchyJet(
        bg, 1.1,
        random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
        random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
        random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
    )
    bogus = rng.standard_normal((lat.num_modes, 10)) + 0j
    withbogus = normal_identities(jet, closure=bogus)
    assert withbogus["identity4_rel"] < 1e-8
    assert withbogus["identity5_rel"] < 1e-8
