import numpy as np
import pytest

from linwave.errors import InternalError
from linwave.evolution import Trajectory, diagnostics, wave_energies
from linwave.fields import (
    ModeLattice,
    component_weights,
    random_field,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
)
from linwave.spacetime import (
    OPERATOR_KINDS,
    CauchyJet,
    FamilyAction,
    assemble_mode_operator,
    family_coefficients,
    jet_add,
    jet_d_ric,
    jet_div_trace_reversed,
    jet_lichnerowicz,
    jet_lie_of_g,
    jet_matrices,
    monomial_basis,
    nu_jet_conversion,
    spacetime_background,
    unknown_jet,
)

from fd_oracles import fd_d_ric, fd_lichnerowicz, fd_ricci, metric_fn, mode_apply

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
MINK = spacetime_background("minkowski-torus", n=3)
KAS = spacetime_background("kasner", p=KASNER_P)
K = np.array([2.0, -1.0, 3.0])
PAIRS = sym2_index_pairs(4)


def quadratic_mode(rng, t0, k):
    """An exact quadratic-in-t mode solution candidate and its callable."""
    u = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(3)]

    def h_fn(x):
        dt = x[0] - t0
        vec = u[0] + u[1] * dt + 0.5 * u[2] * dt * dt
        return sym2_to_full(vec, 4) * np.exp(1j * (k @ x[1:]))

    return u, h_fn


def test_background_validation():
    with pytest.raises(ValueError):
        spacetime_background("kasner", p=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        KAS.metric_derivs(0.0, 1)
    with pytest.raises(ValueError, match="Kasner background needs its exponent triple p"):
        spacetime_background("kasner")


def test_backgrounds_are_vacuum():
    rng = np.random.default_rng(0)
    assert np.max(np.abs(MINK.ricci(3.0))) == 0.0
    for t in 0.2 + 3 * rng.random(20):
        assert np.max(np.abs(KAS.ricci(t))) < 1e-10


def test_fd_ricci_on_known_curved_metric():
    # flat FLRW with a(t) = t: Ric = diag(0, 2, 2, 2) by hand
    flrw = lambda x: np.diag([-1.0, x[0] ** 2, x[0] ** 2, x[0] ** 2])
    ric = fd_ricci(flrw, np.array([1.3, 0.2, 0.5, -0.1]))
    assert np.max(np.abs(ric - np.diag([0.0, 2.0, 2.0, 2.0]))) < 1e-8


def test_fd_ricci_kasner_vacuum():
    for x in [np.array([1.2, 0.1, 0.2, 0.3]), np.array([0.7, -0.4, 0.0, 1.0])]:
        assert np.max(np.abs(fd_ricci(metric_fn(KAS), x))) < 1e-8


def test_minkowski_lichnerowicz_is_flat_wave_symbol():
    op = assemble_mode_operator(MINK, "lichnerowicz", K)
    M0, M1, M2 = op.matrices(0.0)
    assert np.max(np.abs(M2 - np.eye(10))) == 0.0
    assert np.max(np.abs(M1)) == 0.0
    assert np.max(np.abs(M0 - np.sum(K ** 2) * np.eye(10))) == 0.0


def test_minkowski_zero_mode_is_second_derivative_only():
    op = assemble_mode_operator(MINK, "lichnerowicz", np.zeros(3))
    M0, M1, M2 = op.matrices(0.0)
    assert np.max(np.abs(M0)) == 0.0 and np.max(np.abs(M1)) == 0.0
    assert np.max(np.abs(M2 - np.eye(10))) == 0.0


def test_minkowski_lie_matches_hand_formula():
    rng = np.random.default_rng(1)
    op = assemble_mode_operator(MINK, "lie_of_g", K)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vd = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    res = mode_apply(op, 0.0, [v, vd])
    kx = np.r_[0.0, K]
    hand = np.array([1j * kx[a] * v[b] + 1j * kx[b] * v[a] for a, b in PAIRS])
    hand += np.array(
        [(vd[b] if a == 0 else 0) + (vd[a] if b == 0 else 0) for a, b in PAIRS]
    )
    assert np.max(np.abs(res - hand)) < 1e-14


def test_kasner_lichnerowicz_against_fd_oracle():
    rng = np.random.default_rng(2)
    t0 = 1.2
    x = np.array([t0, 0.1, 0.2, 0.3])
    u, h_fn = quadratic_mode(rng, t0, K)
    ph = np.exp(1j * (K @ x[1:]))
    op = assemble_mode_operator(KAS, "lichnerowicz", K)
    got = mode_apply(op, t0, [ui * ph for ui in u])
    fd = fd_lichnerowicz(metric_fn(KAS), h_fn, x)
    want = sym2_from_full(fd, 4)
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))


def test_kasner_d_ric_against_fd_oracle():
    rng = np.random.default_rng(3)
    t0 = 1.2
    x = np.array([t0, -0.2, 0.4, 0.1])
    u, h_fn = quadratic_mode(rng, t0, K)
    ph = np.exp(1j * (K @ x[1:]))
    op = assemble_mode_operator(KAS, "d_ric", K)
    got = mode_apply(op, t0, [ui * ph for ui in u])
    fd = fd_d_ric(metric_fn(KAS), h_fn, x)
    want = sym2_from_full(fd, 4)
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))


def test_gauge_solutions_in_kernel_of_d_ric():
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        V = unknown_jet(bg, t, K, "one-form", 5)
        mats = jet_matrices(jet_d_ric(jet_lie_of_g(V)))
        assert max(np.max(np.abs(m)) for m in mats) < 1e-12


def test_d_ric_decomposes_into_lichnerowicz_plus_lie():
    # DRic h = (1/2)(box_L h + Lie_{(div hbar)#} g) for arbitrary h
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        H = unknown_jet(bg, t, K, "sym2", 5)
        lie = jet_lie_of_g(jet_div_trace_reversed(H))
        rhs = jet_add(jet_lichnerowicz(H), lie, 0.5, 0.5)
        resid = jet_add(jet_d_ric(H), rhs, 1.0, -1.0)
        assert np.max(np.abs(resid.data[0])) < 1e-12


def test_killing_wave_identity():
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        op = assemble_mode_operator(bg, "killing_wave", K)
        assert max(np.max(np.abs(m)) for m in op.matrices(t)) < 1e-12


def test_nu_jet_conversion_matches_kasner_christoffels():
    # on Kasner Gamma^i_{0j} = (p_i / t) delta^i_j and Gamma^m_{00} = 0, so at
    # unit lapse dU/dt_ab = (nabla_nu h)_ab + ((p_a + p_b) / t) h_ab, p_0 = 0
    rng = np.random.default_rng(4)
    lat = ModeLattice(3, 2)
    t = 1.2
    jet = CauchyJet(
        KAS, t,
        random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
        random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
        random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
    )
    U, Ud = nu_jet_conversion(jet)
    p = np.r_[0.0, KASNER_P]

    def component(nn, nf, sp, a, b):
        if a == 0:
            return nn.coeffs[:, 0] if b == 0 else nf.coeffs[:, b - 1]
        return sym2_to_full(sp.coeffs, 3)[:, a - 1, b - 1]

    for c, (a, b) in enumerate(PAIRS):
        h = component(jet.h_nn, jet.h_n, jet.h_sp, a, b)
        nabla_nu_h = component(jet.dh_nn, jet.dh_n, jet.dh_sp, a, b)
        assert np.max(np.abs(U[:, c] - h)) == 0.0
        want = nabla_nu_h + (p[a] + p[b]) / t * h
        assert np.max(np.abs(Ud[:, c] - want)) < 1e-13


def test_nu_conversion_is_identity_on_minkowski():
    rng = np.random.default_rng(5)
    lat = ModeLattice(3, 1)
    jet = CauchyJet(
        MINK, 0.0,
        random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
        random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
        random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
    )
    U, Ud = nu_jet_conversion(jet)
    sp = jet.h_sp.coeffs
    assert np.max(np.abs(U[:, -6:] - sp)) == 0.0  # tangential block copied
    # with zero Christoffels, dU/dt equals the nabla_nu blocks verbatim
    assert np.max(np.abs(Ud[:, 0] - jet.dh_nn.coeffs[:, 0])) == 0.0


def test_asymmetric_rank2_jet_is_an_internal_error():
    J = unknown_jet(MINK, 0.0, K, "sym2", 0)
    J.data[0, 0, 0, 1] += 1.0  # h_01 no longer equals h_10
    with pytest.raises(InternalError, match="spacetime.jet_matrices: rank-2 jet"):
        jet_matrices(J)


def test_mode_operator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        assemble_mode_operator(MINK, "bogus", K)


# non-probe modes (|k_a| up to 3, all three axes mixed) next to two probes
APPLY_MODES = np.array(
    [[2, -1, 3], [0, 3, -2], [-3, 2, 1], [1, 1, 1], [0, 0, 0], [0, 1, 1]], float
)


def _kasner_triples():
    # the generic triple is p_i = 1/3 + 2/3 cos(0.7 + 2 pi i / 3)
    generic = tuple(1 / 3 + 2 / 3 * np.cos(0.7 + 2 * np.pi * i / 3) for i in range(3))
    return (KASNER_P, (1.0, 0.0, 0.0), generic)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _probe_modes(n):
    """k = 0, +-e_a and e_a + e_b: the ten probes that fix a quadratic in k."""
    eye = np.eye(n)
    modes = [np.zeros(n)] + [s * eye[a] for a in range(n) for s in (1.0, -1.0)]
    modes += [eye[a] + eye[b] for a in range(n) for b in range(a + 1, n)]
    return np.array(modes)


def test_family_coefficient_table_matches_direct_assembly():
    # C_j(1) * t**E_j against the symbolic jet assembly at t itself
    modes = _probe_modes(3)
    basis = monomial_basis(modes)
    for p in _kasner_triples():
        bg = spacetime_background("kasner", p=p)
        for kind in OPERATOR_KINDS:
            for t in (0.3, 1.0, 1.7, 2.9):
                table = [
                    np.einsum("mp,pij->mij", basis, C)
                    for C in family_coefficients(bg, kind, t)
                ]
                direct = [
                    np.stack(mats)
                    for mats in zip(*(
                        assemble_mode_operator(bg, kind, k).matrices(t) for k in modes
                    ))
                ]
                assert len(table) == len(direct)
                # killing_wave vanishes identically, so its entries are
                # round-off on both sides: scale by at least 1
                scale = max(1.0, max(np.max(np.abs(d)) for d in direct))
                err = max(np.max(np.abs(a - d)) for a, d in zip(table, direct))
                assert err <= 1e-13 * scale, (p, kind, t, err / scale)


def _table_backgrounds():
    return [MINK] + [spacetime_background("kasner", p=p) for p in _kasner_triples()]


def test_family_tables_hold_exact_zeros_or_true_entries():
    # the probes' round-off is set to exactly zero when a table is built;
    # what is left is far above it (the smallest true entry is 3e-2 of the
    # scale), in the real and the imaginary parts alike
    for bg in _table_backgrounds():
        for kind in OPERATOR_KINDS:
            table = family_coefficients(bg, kind, 1.0)
            scale = max(1.0, max(float(np.max(np.abs(C))) for C in table))
            for C in table:
                for part in (C.real, C.imag):
                    mag = np.abs(part)
                    assert np.all((mag == 0) | (mag > 1e-10 * scale)), (bg.p, kind)
            if kind in ("lichnerowicz", "connection_wave"):
                # k_a k_b (a < b): identically zero on a diagonal metric
                for t in (0.3, 1.0, 1.7, 2.9):
                    cross = [C[7:] for C in family_coefficients(bg, kind, t)]
                    assert not any(np.any(c) for c in cross), (bg.p, kind, t)


def _dense_from_layout(act, terms):
    """The (npoly, ncomp_out, ncomp_in) matrices C_j that a layout of
    FamilyAction stands for: its constant block, live blocks and identity
    multiples put back in place."""
    dense = []
    for lay, (const, flat, scal) in zip(act._layout, terms):
        ncomp_in, ncomp_out = const.shape
        C = np.zeros((10, ncomp_out, ncomp_in), complex)
        C[0] = const.T
        C[lay.live] = flat.reshape(len(lay.live), ncomp_in, ncomp_out).transpose(0, 2, 1)
        C[lay.scal] = scal[:, None, None] * np.eye(ncomp_out, ncomp_in)
        dense.append(C)
    return dense


def test_family_layout_sums_back_to_the_table():
    # what apply reads after at(t) and rate() is the table C_j(1) * t**E_j
    # and its exact derivative E_j * C_j(1) * t**(E_j - 1)
    from linwave.spacetime import _coefficient_table

    for bg in _table_backgrounds():
        for kind in OPERATOR_KINDS:
            _, E, _ = _coefficient_table(bg, kind, 1.0)
            act = FamilyAction(bg, kind, 1.0, APPLY_MODES)
            for t in (0.3, 1.0, 1.7, 2.9):
                want = family_coefficients(bg, kind, t)
                want_rate = [C * e / t for C, e in zip(family_coefficients(bg, kind, t), E)]
                moved = act.at(t)
                for got, ref in ((moved._terms, want), (moved.rate()._terms, want_rate)):
                    got = _dense_from_layout(act, got)
                    scale = max(1.0, max(float(np.max(np.abs(C))) for C in ref))
                    err = max(float(np.max(np.abs(g - r))) for g, r in zip(got, ref))
                    assert err <= 1e-13 * scale, (bg.p, kind, t, err / scale)


def test_family_coefficients_refuse_kasner_singularity():
    family_coefficients(KAS, "lichnerowicz", 1.0)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="Kasner time must be positive"):
            family_coefficients(KAS, "lichnerowicz", t)


def _dense_reference(bg, kind, t, modes, us):
    """sum_j M_j(k) u_j per mode from direct symbolic assembly, and the
    largest matrix entry."""
    out, scale = [], 0.0
    for i, k in enumerate(modes):
        mats = assemble_mode_operator(bg, kind, k).matrices(t)
        out.append(sum(M @ u[i] for M, u in zip(mats, us)))
        scale = max(scale, max(float(np.max(np.abs(M))) for M in mats))
    return np.array(out), scale


def test_family_action_matches_direct_assembly():
    rng = np.random.default_rng(6)
    backgrounds = [MINK] + [spacetime_background("kasner", p=p) for p in _kasner_triples()]
    for bg in backgrounds:
        for kind in OPERATOR_KINDS:
            ncomp = 10 if kind in ("lichnerowicz", "div_trace_reversed", "d_ric") else 4
            for t in (0.3, 1.7):
                act = FamilyAction(bg, kind, t, APPLY_MODES)
                for j in range(act.order() + 1):
                    u = _complex_normal(rng, (len(APPLY_MODES), ncomp))
                    u /= np.max(np.abs(u))
                    us = [np.zeros_like(u)] * j + [u]
                    want, scale = _dense_reference(bg, kind, t, APPLY_MODES, us)
                    err = float(np.max(np.abs(act.apply(j, u) - want)))
                    # killing_wave vanishes identically: scale by at least 1
                    scale = max(1.0, scale)
                    assert err <= 1e-13 * scale, (bg.p, kind, t, j, err / scale)


def test_wave_energies_and_gauge_residual_match_dense_reference():
    rng = np.random.default_rng(7)
    lat = ModeLattice(3, 1)
    times = np.array([1.0, 1.7])

    shape = (len(times), lat.num_modes, 10)
    traj = Trajectory(
        KAS, lat, times, _complex_normal(rng, shape), _complex_normal(rng, shape), dt=1e-2
    )
    diag = diagnostics(traj)
    k2 = np.sum(lat.modes.astype(float) ** 2, axis=1)
    w = component_weights("sym2", 4)
    for i, t in enumerate(times):
        U, Ud = traj.states[i], traj.derivs[i]
        G, _ = _dense_reference(KAS, "div_trace_reversed", t, lat.modes, [U, Ud])
        want = np.sqrt(np.sum(np.abs(G) ** 2))
        assert abs(diag.gauge_residual[i] - want) <= 1e-13 * want
        Udd, _ = _dense_reference(KAS, "lichnerowicz", t, lat.modes, [U, Ud])
        stack = [U, Ud, -Udd]
        for j in (0, 1):
            dens = (k2[:, None] * np.abs(stack[j]) ** 2 + np.abs(stack[j + 1]) ** 2) @ w
            want = np.sqrt(np.sum((1.0 + k2) ** -j * dens))
            assert abs(diag.energies[i, j] - want) <= 1e-13 * want
            got = wave_energies(KAS, lat, t, U, Ud)[j]
            assert abs(got - want) <= 1e-13 * want


def test_family_action_rate_is_exact_derivative():
    # against a central difference of the direct assembly (step 1e-6, whose
    # truncation and cancellation error is ~1e-10 relative) on Kasner; the
    # Minkowski torus is static, so the rate is exactly zero there
    rng = np.random.default_rng(8)
    u = _complex_normal(rng, (len(APPLY_MODES), 4))
    eps = 1e-6
    for p in _kasner_triples():
        bg = spacetime_background("kasner", p=p)
        for t in (0.3, 1.7):
            rate = FamilyAction(bg, "lie_of_g", t, APPLY_MODES).rate()
            for j in (0, 1):
                us = [np.zeros_like(u)] * j + [u]
                plus, _ = _dense_reference(bg, "lie_of_g", t + eps, APPLY_MODES, us)
                minus, _ = _dense_reference(bg, "lie_of_g", t - eps, APPLY_MODES, us)
                want = (plus - minus) / (2 * eps)
                err = float(np.max(np.abs(rate.apply(j, u) - want)))
                assert err <= 1e-8 * float(np.max(np.abs(want))), (p, t, j)
    for t in (0.0, 1.7):
        rate = FamilyAction(MINK, "lie_of_g", t, APPLY_MODES).rate()
        assert all(np.max(np.abs(rate.apply(j, u))) == 0.0 for j in (0, 1))


def test_monic_check_runs_once_per_family(monkeypatch):
    lat = ModeLattice(3, 1)
    calls = []
    is_monic = FamilyAction.is_monic

    def counting(self, tol=1e-12):
        calls.append(self.t)
        return is_monic(self, tol)

    monkeypatch.setattr(FamilyAction, "is_monic", counting)
    wave = FamilyAction(KAS, "lichnerowicz", 1.0, lat.modes)
    u = np.ones((lat.num_modes, 10), complex)
    for t in (1.0, 1.5, 2.0):
        wave.at(t).monic_closure(u, u)
    assert calls == [1.0]


def test_monic_closure_in_place_is_bit_identical():
    # the closure accumulates apply(1, ud) into apply(0, u) in place; IEEE
    # addition commutes, so it equals the out-of-place sum bit for bit
    rng = np.random.default_rng(9)
    lat = ModeLattice(3, 2)
    shape = (lat.num_modes, 10)
    u, ud = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    for bg, t in ((KAS, 1.3), (MINK, 0.4)):
        wave = FamilyAction(bg, "lichnerowicz", t, lat.modes)
        got = wave.monic_closure(u, ud)
        want = -(wave.apply(1, ud) + wave.apply(0, u))
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_monic_lead_with_a_power_of_t_is_refused(monkeypatch):
    # a monic leading coefficient that varied with t would make the check
    # at the family's first time wrong at later ones
    from linwave import spacetime

    exponents = spacetime._homothety_exponents

    def shifted(background, kind, shapes):
        E = exponents(background, kind, shapes)
        return E[:-1] + [E[-1] + 1.0]

    monkeypatch.setattr(spacetime, "_TABLES", {})
    monkeypatch.setattr(spacetime, "_homothety_exponents", shifted)
    with pytest.raises(RuntimeError, match="lichnerowicz has a nonzero exponent of t"):
        FamilyAction(KAS, "lichnerowicz", 1.0, ModeLattice(3, 1).modes)
    FamilyAction(KAS, "div_trace_reversed", 1.0, ModeLattice(3, 1).modes)
