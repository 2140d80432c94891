import numpy as np
import pytest

import linwave.invariant as inv
from linwave.constraints import (
    ORACLE_EPS,
    ORACLE_STEP,
    InitialDataPair,
    _phi_pointwise,
    _stencil_samples,
    _stencil_symbols,
    dphi,
    dphi_oracle,
    normal_identities,
    phi,
)
from linwave.fields import (
    ModeLattice,
    SpectralField,
    analyze,
    distributional_coefficients,
    random_field,
    sym2_from_full,
    sym2_to_full,
    synthesize_shifted,
    zero_field,
)
from linwave.slices import slice_geometry
from linwave.spacetime import CauchyJet, spacetime_background

from fd_oracles import phi_pointwise_reference

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)


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
    p1, p2 = phi(geomb.metric, geomb.extrinsic, geomb)
    assert abs(p1) < 1e-12 and np.max(np.abs(p2)) < 1e-12


def test_nonlinear_phi_detects_round_sphere_curvature():
    # the round Berger sphere (lambda = 1) has Scal = 6, not 0
    p1, _ = phi(np.eye(3), np.zeros((3, 3)), slice_geometry("berger"))
    geo = inv.InvariantGeometry(inv.berger_frame(1.0))
    assert abs(p1 - 6.0) < 1e-12
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
    rng = np.random.default_rng(12)
    pair = InitialDataPair(
        inv.InvariantField("sym2", rng.standard_normal(6)),
        inv.InvariantField("sym2", rng.standard_normal(6)),
        slice_geometry("berger"),
    )
    a, b = dphi(pair), dphi_oracle(pair)
    assert abs(a.scalar.components[0] - b.scalar.components[0]) < 1e-7
    assert np.max(np.abs(a.oneform.components - b.oneform.components)) < 1e-7


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
    with pytest.raises(ValueError, match="came out complex"):
        dphi_oracle(pair)
    m = random_field(lat, "sym2", rng, decay=2.0)
    m.coeffs[lat.mode_index((0, 1, -1))] += 1e-3j
    pair = InitialDataPair(random_field(lat, "sym2", rng, decay=2.0), m, geom)
    with pytest.raises(ValueError, match="came out complex"):
        dphi_oracle(pair)
    g, k = background_pair(geom, lat)
    with pytest.raises(ValueError, match="came out complex"):
        phi(g + h, k, geom)
    with pytest.raises(ValueError, match="came out complex"):
        phi(g, k + m, geom)


def test_oracle_rejects_a_grid_too_small_for_the_lattice():
    # N < 2 nmax + 1 points per axis would alias modes k and k - N onto one
    # grid frequency
    nmax = 2
    lat = ModeLattice(3, nmax)
    geom = slice_geometry("flat-torus", n=3)
    rng = np.random.default_rng(18)
    pair = InitialDataPair(random_field(lat, "sym2", rng, decay=2.0),
                           random_field(lat, "sym2", rng, decay=2.0), geom)
    with pytest.raises(ValueError, match=rf"grid size {2 * nmax} too small"):
        dphi_oracle(pair, npts=2 * nmax)
    g, k = background_pair(geom, lat)
    with pytest.raises(ValueError, match=rf"grid size {2 * nmax} too small"):
        phi(g, k, geom, npts=2 * nmax)
    # the smallest admissible grid is accepted
    p1, _ = phi(g, k, geom, npts=2 * nmax + 1)
    assert np.max(np.abs(p1.coeffs)) < 1e-8


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
