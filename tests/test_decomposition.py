import numpy as np
import pytest

import linwave.invariant as inv
from linwave.constraints import InitialDataPair, dphi, dphi_modes
from linwave.decomposition import (
    KERNEL_TOL,
    SplitOperatorParams,
    gamma_equation_norms,
    gauge_producing_data,
    kernel_basis,
    moncrief_p_star,
    moncrief_project,
    split_matrices,
    split_operator,
    split_params,
    split_solve,
)
from linwave.fields import (
    ModeLattice,
    SpectralField,
    random_field,
    sym2_from_full,
    sym2_to_full,
    zero_field,
)
from linwave.slices import apply_slice_operator, operator_matrices, slice_geometry
from linwave.spacetime import (
    assemble_mode_operator,
    induced_data_state,
    spacetime_background,
)

from fd_oracles import berger_matrix, distributional_coefficients, milnor_slice

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
TORUS = slice_geometry("flat-torus", n=3)
BERGER = slice_geometry("berger")
LAT = ModeLattice(3, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        SplitOperatorParams(1.0, 2.5)
    with pytest.raises(ValueError):
        SplitOperatorParams(-1.0, 2.0)
    assert abs(split_params("position", 3).a * split_params("position", 3).b - 2 / 3) < 1e-15
    assert abs(split_params("momentum", 3).a * split_params("momentum", 3).b - 4 / 3) < 1e-15
    with pytest.raises(ValueError):
        split_params("velocity", 3)


def torus_split_apply(params, phi, omega):
    """Reference P(phi, omega) on the flat torus, composed from the slice
    operators: Ric = 0 there, so P = (Delta phi, L*L omega + b d phi)."""
    lap = apply_slice_operator(TORUS, "laplacian", phi)
    ckl = apply_slice_operator(TORUS, "ckl_normal", omega)
    d = apply_slice_operator(TORUS, "d", phi)
    return lap.coeffs, ckl.coeffs + params.b * d.coeffs


def test_kernel_dimensions_and_membership():
    p = split_params("position", 3)
    ker_t = kernel_basis(p, TORUS, LAT)
    assert len(ker_t) == 4  # constants + three parallel one-forms
    for phi, omega in ker_t:
        r1, r2 = torus_split_apply(p, phi, omega)
        assert np.max(np.abs(r1)) < 1e-12
        assert np.max(np.abs(r2)) < 1e-12
    ker_b = kernel_basis(p, BERGER)
    assert len(ker_b) == 2  # constants + the e1-dual Killing form
    for phi, omega in ker_b:
        r = np.r_[tuple(f.components for f in split_operator(p, BERGER, phi, omega))]
        assert np.max(np.abs(r)) < 1e-12


def test_split_operator_flat_mode_formula():
    rng = np.random.default_rng(1)
    p = split_params("momentum", 3)
    phi = random_field(LAT, "scalar", rng)
    omega = random_field(LAT, "one-form", rng)
    M = split_matrices(p, TORUS, LAT)
    r = np.einsum("mij,mj->mi", M, np.concatenate([phi.coeffs, omega.coeffs], axis=1))
    r1, r2 = r[:, :1], r[:, 1:]
    k = LAT.modes.astype(float)
    k2 = np.einsum("ma,ma->m", k, k)
    want1 = k2[:, None] * phi.coeffs
    kv = np.einsum("ma,ma->m", k, omega.coeffs)
    want2 = (
        2 * k2[:, None] * omega.coeffs
        + (2 - 4 / 3) * kv[:, None] * k
        + p.b * 1j * k * phi.coeffs
    )
    assert np.max(np.abs(r1 - want1)) < 1e-12
    assert np.max(np.abs(r2 - want2)) < 1e-12
    ref1, ref2 = torus_split_apply(p, phi, omega)
    assert np.max(np.abs(r1 - ref1)) < 1e-12
    assert np.max(np.abs(r2 - ref2)) < 1e-12


def gauge_map(geom):
    """(N, beta) -> the gauge-producing pair (h~, m~), as a tuple of fields."""
    def G(N, beta):
        gp = gauge_producing_data(N, beta, geom)
        return gp.h, gp.m
    return G


def test_probed_berger_operators_match_operator_matrices():
    geo = BERGER.invariant_geometry
    ck = berger_matrix(BERGER, "conformal_killing", "one-form")
    ric_row = berger_matrix(BERGER, "ricci_pairing", "sym2")
    for which in ("position", "momentum"):
        p = split_params(which, 3)
        want = np.zeros((4, 4))  # invariant scalars kill Delta phi and d phi
        want[0, 1:] = p.a * (ric_row @ ck)[0]
        want[1:, 1:] = berger_matrix(BERGER, "ckl_normal", "one-form")
        got = split_matrices(p, BERGER)
        assert got.shape == (1, 4, 4)
        assert np.max(np.abs(got[0] - want)) <= 1e-14 * np.max(np.abs(want))
    # P(beta, N) = (Lie_beta g~, Hess N - Ric N); Hess of a constant is 0
    want = np.zeros((12, 4))
    want[:6, :3] = berger_matrix(BERGER, "lie_metric", "one-form")
    want[6:, 3] = -geo.ricci_sym6()
    got = operator_matrices(BERGER, lambda beta, N: gauge_map(BERGER)(N, beta),
                            ("one-form", "scalar"))
    assert np.max(np.abs(got[0] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("geom", [
    slice_geometry("flat-torus", n=2),
    slice_geometry("flat-torus", n=3),
    slice_geometry("kasner", p=KASNER_P, t0=1.0),
    slice_geometry("kasner", p=(1.0, 0.0, 0.0), t0=1.3),
], ids=["torus2", "torus3", "kasner", "kasner-flat-spacetime"])
def test_gauge_quotient_counted_mode_by_mode(geom):
    """The paper's isomorphism, counted per Fourier mode: the gauge map G_k
    (N, beta) -> (h~, m~) lands in ker DPhi_k, both maps have rank 1 + n at
    every k != 0, so data modulo gauge has 2 (n(n+1)/2 - n - 1) dimensions
    per mode (two polarisations in position and momentum on the 3-torus,
    none on the 2-torus).  At k = 0 both ranks are 0 on a flat slice (a
    cokernel of 1 + n KIDs: time translation and translations) and 1 on
    Kasner, where d/dt is not Killing."""
    n = geom.n
    lat = ModeLattice(n, 4)

    def dphi_map(h, m):
        d1, d2 = dphi_modes(geom, h.lattice.modes, h.coeffs, m.coeffs)
        return SpectralField(h.lattice, "scalar", d1), SpectralField(h.lattice, "one-form", d2)

    D = operator_matrices(geom, dphi_map, ("sym2", "sym2"), lat)
    G = operator_matrices(geom, gauge_map(geom), ("scalar", "one-form"), lat)
    assert D.shape[1:] == (1 + n, n * (n + 1)) and G.shape[1:] == (n * (n + 1), 1 + n)
    DG = np.max(np.abs(D @ G))
    if geom.kind == "flat-torus":
        assert DG == 0.0
    else:
        assert DG <= 1e-14 * np.max(np.abs(D)) * np.max(np.abs(G))

    def ranks(M):
        s = np.linalg.svd(M, compute_uv=False)
        return np.sum(s > 1e-8 * np.maximum(1.0, s[:, :1]), axis=1)

    zero = lat.mode_index((0,) * n)
    nonzero = np.arange(lat.num_modes) != zero
    for M in (D, G):
        r = ranks(M)
        assert np.all(r[nonzero] == 1 + n)
        assert r[zero] == (0 if geom.kind == "flat-torus" else 1)


def test_split_operator_rejects_kasner():
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="scalar-flat slice"):
        kernel_basis(split_params("position", 3), geom, LAT)
    with pytest.raises(ValueError, match="scalar-flat slice"):
        split_solve(random_field(LAT, "sym2", rng), "position", geom)


@pytest.mark.parametrize("b", [1.5, 2.0])
def test_second_result_off_the_berger_axis(b):
    # a left-invariant X is Killing when ad_X is skew for g, which for e_1
    # needs b = c: with three distinct axes no invariant one-form is Killing,
    # so ker P is the constants alone (2 on Berger), and both splits solve
    geom = milnor_slice(b)
    assert abs(geom.scal) <= 1e-12 and geom.scalar_flat
    geo = geom.invariant_geometry
    assert np.linalg.norm(geo.ricci) > 0.1
    assert np.min(np.linalg.svd(berger_matrix(geom, "lie_metric", "one-form"),
                                compute_uv=False)) > 0.1
    rng = np.random.default_rng(41)
    for which in ("position", "momentum"):
        assert len(kernel_basis(split_params(which, 3), geom)) == 1
        r = split_solve(inv.InvariantField("sym2", rng.standard_normal(6)), which, geom)
        assert max(r.residuals.values()) <= 1e-12, r.residuals
    split = moncrief_project(InitialDataPair(inv.InvariantField("sym2", rng.standard_normal(6)),
                                             inv.InvariantField("sym2", rng.standard_normal(6)),
                                             geom))
    assert max(split.report.values()) <= 1e-12, split.report


def test_split_solve_constant_metric_source():
    cg = zero_field(LAT, "sym2")
    cg.coeffs[LAT.mode_index((0, 0, 0))] = 0.7 * sym2_from_full(TORUS.metric, 3)
    r = split_solve(cg, "position", TORUS)
    assert np.max(np.abs(r.gamma_part.coeffs - cg.coeffs)) == 0.0
    assert np.max(np.abs(r.omega.coeffs)) == 0.0
    assert r.C == 0.0 and np.max(np.abs(r.phi.coeffs)) == 0.0


def test_split_solve_ricci_source_on_berger():
    geo = BERGER.invariant_geometry
    ric = inv.InvariantField("sym2", geo.ricci_sym6())
    r = split_solve(ric, "position", BERGER)
    assert abs(r.C - 1.0) < 1e-12
    assert np.max(np.abs(r.gamma_part.components)) < 1e-12
    assert np.max(np.abs(r.phi.components)) < 1e-12
    Lw = berger_matrix(BERGER, "conformal_killing", "one-form") @ r.omega.components
    assert np.max(np.abs(Lw)) < 1e-12


@pytest.mark.parametrize("which", ["position", "momentum"])
def test_split_solve_torus_reconstruction_and_idempotence(which):
    rng = np.random.default_rng(2)
    src = random_field(LAT, "sym2", rng)
    r = split_solve(src, which, TORUS)
    assert r.residuals["reconstruction_rel"] < 1e-10
    assert r.residuals[f"{which}_scalar_eq"] < 1e-10
    assert r.residuals[f"{which}_divergence_eq"] < 1e-10
    assert np.max(np.abs(r.phi.coeffs[LAT.mode_index((0, 0, 0))])) == 0.0
    again = split_solve(r.gamma_part, which, TORUS)
    assert np.max(np.abs(again.omega.coeffs)) < 1e-10
    assert np.max(np.abs(again.phi.coeffs)) < 1e-10
    assert abs(again.C) < 1e-10


@pytest.mark.parametrize("which", ["position", "momentum"])
def test_split_solve_berger_against_least_squares_oracle(which):
    rng = np.random.default_rng(3)
    geo = BERGER.invariant_geometry
    gi = BERGER.metric_inv
    src = inv.InvariantField("sym2", rng.standard_normal(6))
    r = split_solve(src, which, BERGER)
    assert r.residuals["reconstruction_rel"] < 1e-10
    assert r.residuals[f"{which}_scalar_eq"] < 1e-10
    assert r.residuals[f"{which}_divergence_eq"] < 1e-10
    # brute-force oracle: basis of the constraint space from the nullspace of
    # the stacked equations, then one dense least-squares solve for all parts
    div = berger_matrix(BERGER, "divergence", "sym2")
    ric_row = np.zeros((1, 6))
    for c in range(6):
        hm = sym2_to_full(np.eye(6)[c], 3)
        ric_row[0, c] = np.einsum("ac,bd,ab,cd->", gi, gi, BERGER.ricci, hm)
    constraints = np.vstack([div, ric_row])
    _, s, vt = np.linalg.svd(constraints)
    s = np.concatenate([s, np.zeros(6 - len(s))])
    gamma_basis = vt[s <= 1e-10 * s[0]]
    assert len(gamma_basis) == 3
    L = berger_matrix(BERGER, "conformal_killing", "one-form")
    A = np.concatenate([gamma_basis.T, L, geo.ricci_sym6()[:, None]], axis=1)
    u, *_ = np.linalg.lstsq(A, src.components, rcond=1e-10)
    gamma_oracle = gamma_basis.T @ u[:3]
    assert np.max(np.abs(gamma_oracle - r.gamma_part.components)) < 1e-10
    assert abs(u[-1] - r.C) < 1e-10
    again = split_solve(r.gamma_part, which, BERGER)
    assert np.max(np.abs(again.omega.components)) < 1e-10
    assert abs(again.C) < 1e-10


def test_split_solve_uniqueness_up_to_kernel():
    rng = np.random.default_rng(4)
    src = random_field(LAT, "sym2", rng)
    xi = random_field(LAT, "one-form", rng)
    Lxi = apply_slice_operator(TORUS, "conformal_killing", xi)
    shifted = SpectralField(LAT, "sym2", src.coeffs + Lxi.coeffs)
    ra = split_solve(src, "position", TORUS)
    rb = split_solve(shifted, "position", TORUS)
    assert np.max(np.abs(ra.gamma_part.coeffs - rb.gamma_part.coeffs)) < 1e-10
    assert abs(ra.C - rb.C) < 1e-10
    diff = SpectralField(LAT, "one-form", rb.omega.coeffs - ra.omega.coeffs - xi.coeffs)
    Ldiff = apply_slice_operator(TORUS, "conformal_killing", diff)
    assert np.max(np.abs(Ldiff.coeffs)) < 1e-10


def test_direct_sum_pairings_on_berger():
    rng = np.random.default_rng(5)
    geo = BERGER.invariant_geometry
    w = inv.InvariantField("one-form", rng.standard_normal(3))
    Lw = berger_matrix(BERGER, "conformal_killing", "one-form") @ w.components
    assert abs((berger_matrix(BERGER, "trace", "sym2") @ Lw)[0]) < 1e-13
    g6 = inv.gram_matrix(geo, "sym2")
    assert abs(Lw @ g6 @ geo.ricci_sym6()) < 1e-12


def test_gamma_residual_on_derivative_dirac_line():
    # delta^(n)(x^3) dx^1 dx^2 is divergence- and trace-free mode by mode
    lat = ModeLattice(3, 12)
    h = distributional_coefficients(lat, order=2, axis=2, components=1, rank="sym2")
    m = zero_field(lat, "sym2")
    res = {**gamma_equation_norms(h, "position", TORUS),
           **gamma_equation_norms(m, "momentum", TORUS)}
    assert len(res) == 4 and all(v < 1e-12 for v in res.values())


def test_gamma_residual_on_constant_pair():
    g6 = sym2_from_full(TORUS.metric, 3)
    h = zero_field(LAT, "sym2")
    m = zero_field(LAT, "sym2")
    h.coeffs[LAT.mode_index((0, 0, 0))] = 0.3 * g6
    m.coeffs[LAT.mode_index((0, 0, 0))] = -0.8 * g6
    res = {**gamma_equation_norms(h, "position", TORUS),
           **gamma_equation_norms(m, "momentum", TORUS)}
    assert len(res) == 4 and all(v == 0.0 for v in res.values())


def berger_ricci_row(geo):
    """g~(Ric, .) on stored sym2 components, summed over full indices."""
    gi = geo.metric_inv
    return np.array([np.einsum("ac,bd,ab,cd->", gi, gi, geo.ricci, sym2_to_full(e, 3))
                     for e in np.eye(6)])


@pytest.mark.parametrize("which", ["position", "momentum"])
def test_berger_gamma_norms_match_matrix_reference(which):
    # reference: the Berger formulas assembled from operator matrices; the
    # Laplacian of an invariant scalar vanishes, and so does d tr h
    geo = BERGER.invariant_geometry
    div = berger_matrix(BERGER, "divergence", "sym2")
    trace = berger_matrix(BERGER, "trace", "sym2")
    g6 = sym2_from_full(BERGER.metric, 3)
    sign = -1.0 if which == "position" else 1.0
    rng = np.random.default_rng(21)
    for _ in range(3):
        h = rng.standard_normal(6)
        scalar = sign * berger_ricci_row(geo) @ h
        v = div @ h if which == "position" else div @ (h - (trace @ h)[0] * g6)
        want = {
            f"{which}_scalar_eq": abs(scalar) * np.sqrt(geo.volume),
            f"{which}_divergence_eq": np.sqrt(v @ inv.gram_matrix(geo, "one-form") @ v),
        }
        got = gamma_equation_norms(inv.InvariantField("sym2", h), which, BERGER)
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), key


def test_berger_p_star_matches_matrix_reference():
    # P*(h, m) = (-2 div h, div div m - g~(Ric, m)) from the operator matrices
    geo = BERGER.invariant_geometry
    div = berger_matrix(BERGER, "divergence", "sym2")
    div1 = berger_matrix(BERGER, "divergence", "one-form")
    rng = np.random.default_rng(22)
    for _ in range(3):
        h, m = rng.standard_normal(6), rng.standard_normal(6)
        r1, r2 = moncrief_p_star(inv.InvariantField("sym2", h), inv.InvariantField("sym2", m),
                                 BERGER)
        assert (r1.rank, r2.rank) == ("one-form", "scalar")
        assert np.max(np.abs(r1.components + 2.0 * div @ h)) <= 1e-12
        want = (div1 @ div @ m)[0] - berger_ricci_row(geo) @ m
        assert abs(r2.components[0] - want) <= 1e-12


def test_moncrief_projection_properties():
    rng = np.random.default_rng(6)
    pair = InitialDataPair(
        random_field(LAT, "sym2", rng), random_field(LAT, "sym2", rng), TORUS
    )
    ms = moncrief_project(pair)
    assert ms.report["p_star_oneform"] < 1e-10
    assert ms.report["p_star_scalar"] < 1e-10
    assert ms.report["orthogonality"] < 1e-10
    recon_h = ms.gauge_h.coeffs + ms.gamma_h.coeffs
    assert np.max(np.abs(recon_h - pair.h.coeffs)) < 1e-13
    # projecting again is stable
    again = moncrief_project(InitialDataPair(ms.gamma_h, ms.gamma_m, TORUS))
    assert np.max(np.abs(again.gauge_h.coeffs)) < 1e-10
    assert np.max(np.abs(again.gauge_m.coeffs)) < 1e-10


def test_moncrief_pure_gauge_projects_away():
    rng = np.random.default_rng(7)
    N = random_field(LAT, "scalar", rng)
    beta = random_field(LAT, "one-form", rng)
    gp = gauge_producing_data(N, beta, TORUS)
    ms = moncrief_project(gp)
    scale = max(np.max(np.abs(gp.h.coeffs)), np.max(np.abs(gp.m.coeffs)))
    assert np.max(np.abs(ms.gamma_h.coeffs)) < 1e-10 * scale
    assert np.max(np.abs(ms.gamma_m.coeffs)) < 1e-10 * scale


def test_moncrief_fixes_kernel_of_p_star():
    # a pair already in ker(P*) comes back untouched
    lat = ModeLattice(3, 12)
    h = distributional_coefficients(lat, order=1, axis=2, components=1, rank="sym2")
    m = zero_field(lat, "sym2")
    r1, r2 = moncrief_p_star(h, m, TORUS)
    assert np.max(np.abs(r1.coeffs)) < 1e-12 and np.max(np.abs(r2.coeffs)) < 1e-12
    ms = moncrief_project(InitialDataPair(h, m, TORUS))
    assert np.max(np.abs(ms.gauge_h.coeffs)) < 1e-10
    assert np.max(np.abs(ms.gamma_h.coeffs - h.coeffs)) < 1e-10


def test_moncrief_batched_solve_matches_per_mode_lstsq():
    # reference: the per-mode minimum-norm lstsq with rcond = KERNEL_TOL on
    # every mode of the lattice, on P(beta, N) = (Lie_beta g~, Hess N)
    # assembled here mode by mode in the sqrt(component weight) metric;
    # covers k = 0, where P vanishes, and complex non-Hermitian data, whose
    # -k modes the solve fills from the conjugated pinv of their partners
    lat = ModeLattice(3, 3)
    rng = np.random.default_rng(9)
    real = (random_field(lat, "sym2", rng), random_field(lat, "sym2", rng))
    raw = rng.standard_normal((2, lat.num_modes, 6, 2)) @ np.array([1.0, 1j])
    for h, m in (real, [SpectralField(lat, "sym2", c) for c in raw]):
        pair = InitialDataPair(h, m, TORUS)
        ms = moncrief_project(pair)
        got = np.concatenate([ms.beta.coeffs, ms.N.coeffs], axis=1)
        pairs = [(a, b) for a in range(3) for b in range(a, 3)]
        wsq = np.sqrt([1.0 if a == b else 2.0 for a, b in pairs] * 2)
        x = np.concatenate([pair.h.coeffs, pair.m.coeffs], axis=1)
        ref = np.empty_like(got)
        for i, k in enumerate(lat.modes):
            A = np.zeros((12, 4), complex)
            for c, (a, b) in enumerate(pairs):
                A[c, a] += 1j * k[b]
                A[c, b] += 1j * k[a]
                A[6 + c, 3] = -k[a] * k[b]
            ref[i], *_ = np.linalg.lstsq(wsq[:, None] * A, wsq * x[i], rcond=KERNEL_TOL)
        zero = lat.mode_index((0, 0, 0))
        assert np.all(ref[zero] == 0) and np.all(got[zero] == 0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_moncrief_normal_equations_match_the_pinv_path():
    # on the torus every k != 0 of the half lattice solves the normal
    # equations of P(beta, N), which is injective there; against the
    # rank-revealing pinv on every mode (the path Berger and k = 0 take)
    from linwave.decomposition import MONCRIEF_RANKS, _least_squares

    rng = np.random.default_rng(11)
    for n, nmax in ((3, 8), (2, 6)):
        geom = slice_geometry("flat-torus", n=n)
        lat = ModeLattice(n, nmax)
        pair = InitialDataPair(random_field(lat, "sym2", rng), random_field(lat, "sym2", rng),
                               geom)

        def P(beta, N):
            gauge = gauge_producing_data(N, beta, geom)
            return gauge.h, gauge.m

        A = operator_matrices(geom, P, MONCRIEF_RANKS, lat)
        y = np.concatenate([pair.h.coeffs, pair.m.coeffs], axis=1)
        ranks = ("sym2", "sym2")
        got = _least_squares(geom, A, y, ranks, MONCRIEF_RANKS, lat)
        want = _least_squares(geom, A, y, ranks, MONCRIEF_RANKS)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n


def test_moncrief_on_berger():
    rng = np.random.default_rng(8)
    pair = InitialDataPair(
        inv.InvariantField("sym2", rng.standard_normal(6)),
        inv.InvariantField("sym2", rng.standard_normal(6)),
        BERGER,
    )
    ms = moncrief_project(pair)
    assert ms.report["p_star_oneform"] < 1e-10
    assert ms.report["p_star_scalar"] < 1e-10
    assert ms.report["orthogonality"] < 1e-10


def test_gauge_data_trivial_cases():
    zN = zero_field(LAT, "scalar")
    zb = zero_field(LAT, "one-form")
    gp = gauge_producing_data(zN, zb, TORUS)
    assert np.max(np.abs(gp.h.coeffs)) == 0.0 and np.max(np.abs(gp.m.coeffs)) == 0.0
    # constant one-form = parallel translation = isometry
    dx1 = zero_field(LAT, "one-form")
    dx1.coeffs[LAT.mode_index((0, 0, 0)), 0] = 1.0
    gp = gauge_producing_data(zN, dx1, TORUS)
    assert np.max(np.abs(gp.h.coeffs)) == 0.0 and np.max(np.abs(gp.m.coeffs)) == 0.0


def test_gauge_data_refuses_a_field_of_the_other_backend():
    rng = np.random.default_rng(10)
    N, beta = random_field(LAT, "scalar", rng), random_field(LAT, "one-form", rng)
    iN = inv.InvariantField("scalar", rng.standard_normal(1))
    ibeta = inv.InvariantField("one-form", rng.standard_normal(3))
    for args, geom in (((iN, beta), TORUS), ((N, ibeta), TORUS),
                       ((N, ibeta), BERGER), ((iN, beta), BERGER)):
        with pytest.raises(ValueError, match="slice operators act on"):
            gauge_producing_data(*args, geom)


def test_gauge_data_solve_linearised_constraints():
    rng = np.random.default_rng(9)
    for geom in [TORUS, slice_geometry("kasner", p=KASNER_P, t0=1.3)]:
        gp = gauge_producing_data(
            random_field(LAT, "scalar", rng), random_field(LAT, "one-form", rng), geom
        )
        assert max(dphi(gp).norms.values()) < 1e-10
    gpb = gauge_producing_data(
        inv.InvariantField("scalar", rng.standard_normal(1)),
        inv.InvariantField("one-form", rng.standard_normal(3)),
        BERGER,
    )
    assert max(dphi(gpb).norms.values()) < 1e-10


def test_kasner_gauge_data_matches_spacetime_lie_oracle():
    # induced data of h = Lie_V g for V = N nu (extended t-independently)
    # must equal gauge_producing_data(N, 0) on the slice
    bg = spacetime_background("kasner", p=KASNER_P)
    t0 = 1.3
    lat = ModeLattice(3, 1)
    N = zero_field(lat, "scalar")
    N.coeffs[lat.mode_index((1, 0, 0)), 0] = 0.5
    N.coeffs[lat.mode_index((-1, 0, 0)), 0] = 0.5  # N = cos x^1
    beta = zero_field(lat, "one-form")
    V = np.zeros((lat.num_modes, 4), complex)
    V[:, 0] = -N.coeffs[:, 0]  # V_0 = g_00 V^0 = -N
    # direct per-mode symbolic assembly of the Lie operator's V coefficient
    ops = [assemble_mode_operator(bg, "lie_of_g", k) for k in lat.modes]

    def L0(t):
        return np.stack([op.matrices(t)[0] for op in ops])

    U = np.einsum("kij,kj->ki", L0(t0), V)
    dt = 1e-6
    Udot = np.einsum("kij,kj->ki", (L0(t0 + dt) - L0(t0 - dt)) / (2 * dt), V)
    htilde, mtilde = induced_data_state(bg, t0, lat, U, Udot)
    gp = gauge_producing_data(N, beta, bg.slice_at(t0))
    assert np.max(np.abs(htilde.coeffs - gp.h.coeffs)) < 1e-6
    assert np.max(np.abs(mtilde.coeffs - gp.m.coeffs)) < 1e-6
