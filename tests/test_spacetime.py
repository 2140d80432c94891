import numpy as np
import pytest

from linwave.errors import InternalError
from linwave.evolution import Trajectory, diagnostics, wave_energies
from linwave.fields import (
    ModeLattice,
    component_weights,
    monomial_basis,
    random_field,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
)
from linwave.spacetime import (
    OPERATOR_KINDS,
    CauchyJet,
    FamilyAction,
    _leib,
    assemble_mode_operator,
    complex_form,
    family_coefficients,
    jet_add,
    jet_apply,
    jet_connection_laplacian,
    jet_d_ric,
    jet_div_trace_reversed,
    jet_lichnerowicz,
    jet_lie_of_g,
    jet_matrices,
    jet_nabla,
    nu_jet_conversion,
    parity_phase,
    real_form,
    spacetime_background,
    unknown_jet,
)

from fd_oracles import (
    fd_d_ric,
    fd_lichnerowicz,
    fd_ricci,
    kasner_triples,
    metric_fn,
    mode_apply,
    reference_mode_matrices,
)

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


def spacetime_ricci(bg, t):
    """Ric_be = R^a_{bae} of a background at time t."""
    return np.einsum("abae->be", bg.riemann_up_derivs(t, 0)[0])


def jet_killing_wave(J):
    """Residual of the Killing-wave identity on a one-form jet:
    div(trace-reverse(Lie_V g)) + nabla*nabla V - Ric(V, .)."""
    lie = jet_lie_of_g(J)
    t1 = jet_div_trace_reversed(lie)
    t2 = jet_connection_laplacian(J)
    gi = J.bg.metric_inv_derivs(J.t, J.depth)
    # both backgrounds are vacuum, so the Ricci derivative stack is constant 0;
    # the term is kept regardless
    ric = np.zeros((J.depth + 1,) + (J.bg.dim,) * 2)
    ric[0] = spacetime_ricci(J.bg, J.t)
    mixed = _leib(gi, ric, "ac,ab->cb")
    t3 = jet_apply(mixed, J, "cb,c->b")
    return jet_add(jet_add(t1, t2), t3, 1.0, -1.0)


def test_background_validation():
    with pytest.raises(ValueError):
        spacetime_background("kasner", p=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        KAS.metric_derivs(0.0, 1)
    with pytest.raises(ValueError, match="Kasner background needs its exponent triple p"):
        spacetime_background("kasner")


def test_backgrounds_are_vacuum():
    rng = np.random.default_rng(0)
    assert np.max(np.abs(spacetime_ricci(MINK, 3.0))) == 0.0
    for t in 0.2 + 3 * rng.random(20):
        assert np.max(np.abs(spacetime_ricci(KAS, t))) < 1e-10


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


# the jet identities below hold for every k at once: the jets keep k
# symbolic, and every polynomial coefficient of the residual must vanish


def test_gauge_solutions_in_kernel_of_d_ric():
    # DRic(Lie_V g) is cubic in k, so V's jet holds monomials up to degree 3
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        V = unknown_jet(bg, t, "one-form", 5, degree=3)
        mats = jet_matrices(jet_d_ric(jet_lie_of_g(V)))
        assert mats[0].shape[0] == 20  # every monomial of degree <= 3 in k
        assert max(np.max(np.abs(m)) for m in mats) < 1e-12


def test_d_ric_decomposes_into_lichnerowicz_plus_lie():
    # DRic h = (1/2)(box_L h + Lie_{(div hbar)#} g) for arbitrary h
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        H = unknown_jet(bg, t, "sym2", 5)
        lie = jet_lie_of_g(jet_div_trace_reversed(H))
        rhs = jet_add(jet_lichnerowicz(H), lie, 0.5, 0.5)
        resid = jet_add(jet_d_ric(H), rhs, 1.0, -1.0)
        assert np.max(np.abs(resid.data[0])) < 1e-12


def test_killing_wave_identity():
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        mats = jet_matrices(jet_killing_wave(unknown_jet(bg, t, "one-form", 2)))
        assert max(np.max(np.abs(m)) for m in mats) < 1e-12


def test_a_term_of_k_degree_three_is_an_internal_error():
    # the tables are quadratic in k: a third spatial derivative of a jet
    # that holds monomials up to degree 2 has nowhere to go
    for bg, t in [(MINK, 0.0), (KAS, 1.4)]:
        J = jet_nabla(jet_nabla(unknown_jet(bg, t, "one-form", 3)))
        with pytest.raises(InternalError, match="a term of k-degree 3"):
            jet_nabla(J)


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


def _stored_from_packed_blocks(nn, nf, sp):
    """The stored components of the tensor with blocks h(nu,nu), h(nu,.)
    and h(.,.), by filling a zeroed (N, n+1, n+1) tensor and packing it."""
    n = sp.lattice.n
    full = np.zeros((sp.lattice.num_modes, n + 1, n + 1), complex)
    full[:, 0, 0] = nn.coeffs[:, 0]
    full[:, 0, 1:] = full[:, 1:, 0] = nf.coeffs
    full[:, 1:, 1:] = sym2_to_full(sp.coeffs, n)
    return sym2_from_full(full, n + 1)


def _time_connection_on_tensors(bg, t, U):
    """Gamma^m_{0a} h_mb + Gamma^m_{0b} h_am contracted on (N, 4, 4) tensors."""
    gam0 = bg.gamma_derivs(t, 0)[0][:, 0, :]
    full = sym2_to_full(U, bg.dim)
    return sym2_from_full(np.einsum("ma,kmb->kab", gam0, full)
                          + np.einsum("mb,kam->kab", gam0, full), bg.dim)


def _random_jet(bg, t, lat, rng):
    return CauchyJet(
        bg, t,
        random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
        random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
        random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
    )


@pytest.mark.parametrize("bg, t", [(MINK, 0.0), (KAS, 1.0), (KAS, 1.3)])
def test_nu_jet_conversion_matches_the_tensor_contractions_bit_for_bit(bg, t):
    # the blocks are gathered straight into their stored columns and the
    # connection terms contracted on stored components; with exponents in
    # thirds every sum of two Christoffels is exact, so nothing moves
    rng = np.random.default_rng(6)
    jet = _random_jet(bg, t, ModeLattice(3, 2), rng)
    jet.dh_sp.coeffs[0] = -0.0  # signed zeros are kept too
    U, Ud = nu_jet_conversion(jet)
    H = _stored_from_packed_blocks(jet.h_nn, jet.h_n, jet.h_sp)
    Nu = _stored_from_packed_blocks(jet.dh_nn, jet.dh_n, jet.dh_sp)
    assert U.tobytes() == H.tobytes()
    assert Ud.tobytes() == (Nu + _time_connection_on_tensors(bg, t, H)).tobytes()


def test_nu_jet_conversion_matches_the_tensor_contractions_for_any_exponents():
    bg = spacetime_background("kasner", p=(-2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0))
    rng = np.random.default_rng(7)
    jet = _random_jet(bg, 1.7, ModeLattice(3, 2), rng)
    U, Ud = nu_jet_conversion(jet)
    want = (_stored_from_packed_blocks(jet.dh_nn, jet.dh_n, jet.dh_sp)
            + _time_connection_on_tensors(bg, 1.7, U))
    assert np.max(np.abs(Ud - want)) <= 1e-15 * np.max(np.abs(want))


def test_asymmetric_rank2_jet_is_an_internal_error():
    J = unknown_jet(MINK, 0.0, "sym2", 0)
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


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _apply(act, j, u):
    """act.apply on complex components u, through the real form."""
    dim = act.background.dim
    return complex_form(act.apply(j, real_form(u, dim)), dim)


def test_family_coefficient_table_matches_direct_assembly():
    # C_j(1) * t**E_j against the symbolic jet assembly at t itself
    modes = APPLY_MODES
    basis = monomial_basis(modes)
    for p in kasner_triples():
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
                # scale by at least 1, so an identically zero matrix is
                # compared in absolute terms
                scale = max(1.0, max(np.max(np.abs(d)) for d in direct))
                err = max(np.max(np.abs(a - d)) for a, d in zip(table, direct))
                assert err <= 1e-13 * scale, (p, kind, t, err / scale)


def _table_backgrounds():
    return [MINK] + [spacetime_background("kasner", p=p) for p in kasner_triples()]


def test_symbolic_tables_match_the_per_mode_reference():
    # one assembly with k symbolic against a complex assembly at each
    # concrete k (i k_a per spatial derivative), at modes that are not the
    # probes k = 0, +-e_a, e_a + e_b and at times other than the table's t = 1
    backgrounds = _table_backgrounds() + [spacetime_background("minkowski-torus", n=2)]
    for bg in backgrounds:
        modes = APPLY_MODES[:, : bg.n]
        basis = monomial_basis(modes)
        for kind in OPERATOR_KINDS:
            for t in (0.3, 1.0, 1.7, 2.9):
                table = [np.einsum("mp,pij->mij", basis, C)
                         for C in family_coefficients(bg, kind, t)]
                ref = [np.stack(mats) for mats in zip(*(
                    reference_mode_matrices(bg, kind, t, k) for k in modes))]
                assert len(table) == len(ref)
                scale = max(1.0, max(float(np.max(np.abs(r))) for r in ref))
                err = max(float(np.max(np.abs(a - r))) for a, r in zip(table, ref))
                assert err <= 1e-13 * scale, (bg.kind, bg.n, bg.p, kind, t, err / scale)


def _reflection_signs(ncomp, dim, index):
    """S on stored one-form or sym2 components of a dim-dimensional tensor:
    -1 where the component has an odd number of the spacetime index."""
    slots = [(c,) for c in range(dim)] if ncomp == dim else sym2_index_pairs(dim)
    return np.array([(-1.0) ** slot.count(index) for slot in slots])


def test_coefficient_tables_are_reflection_covariant():
    # x_a -> -x_a is an isometry of both (diagonal) backgrounds, so
    # M(R_a k) = S_a M(k) S_a, with S_a flipping each stored component with
    # an odd number of index a.  In the monomial basis that is
    # S_a C_p S_a = (-1)^(deg_a p) C_p, exactly.  The relation holds entry by
    # entry, so it catches an entry in the wrong monomial or component (an
    # index slip), but a sign flip of one entry keeps it and cannot fail it.
    for bg in _table_backgrounds():
        for a in range(bg.n):
            flip = np.ones((1, bg.n))
            flip[0, a] = -1.0
            parity = monomial_basis(flip)[0][:, None, None]  # (-1)^(deg_a p)
            for kind in OPERATOR_KINDS:
                for t in (0.3, 1.0, 1.7):
                    for C in family_coefficients(bg, kind, t):
                        s_out = _reflection_signs(C.shape[1], bg.dim, a + 1)
                        s_in = _reflection_signs(C.shape[2], bg.dim, a + 1)
                        got = s_out[:, None] * C * s_in
                        assert np.array_equal(got, parity * C), (bg.p, kind, t, a)


def test_family_tables_hold_exact_zeros_or_true_entries():
    # the assembly's round-off is set to exactly zero when a table is built;
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
    FamilyAction stands for: its constant and live blocks and identity
    multiples put back in place, rotated back from the real form by the
    parity phase D (C = D_out R conj(D_in))."""
    dense = []
    for lay, (blocks, scal) in zip(act._layout, terms):
        ncomp_out, ncomp_in = blocks.shape[1:]
        R = np.zeros((10, ncomp_out, ncomp_in))
        R[[0] * lay.const + lay.live.tolist()] = blocks
        R[lay.scal] = scal[:, None, None] * np.eye(ncomp_out, ncomp_in)
        D_out, D_in = parity_phase(ncomp_out, 4), parity_phase(ncomp_in, 4)
        dense.append(D_out[:, None] * R * np.conj(D_in))
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
    backgrounds = [MINK] + [spacetime_background("kasner", p=p) for p in kasner_triples()]
    for bg in backgrounds:
        for kind in OPERATOR_KINDS:
            ncomp = 10 if kind in ("lichnerowicz", "div_trace_reversed", "d_ric",
                                   "dphi_induced") else 4
            for t in (0.3, 1.7):
                act = FamilyAction(bg, kind, t, APPLY_MODES)
                for j in range(len(family_coefficients(bg, kind, t))):
                    u = _complex_normal(rng, (len(APPLY_MODES), ncomp))
                    u /= np.max(np.abs(u))
                    us = [np.zeros_like(u)] * j + [u]
                    want, scale = _dense_reference(bg, kind, t, APPLY_MODES, us)
                    err = float(np.max(np.abs(_apply(act, j, u) - want)))
                    # scale by at least 1, as in the table test above
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
    for p in kasner_triples():
        bg = spacetime_background("kasner", p=p)
        for t in (0.3, 1.7):
            rate = FamilyAction(bg, "lie_of_g", t, APPLY_MODES).rate()
            for j in (0, 1):
                us = [np.zeros_like(u)] * j + [u]
                plus, _ = _dense_reference(bg, "lie_of_g", t + eps, APPLY_MODES, us)
                minus, _ = _dense_reference(bg, "lie_of_g", t - eps, APPLY_MODES, us)
                want = (plus - minus) / (2 * eps)
                err = float(np.max(np.abs(_apply(rate, j, u) - want)))
                assert err <= 1e-8 * float(np.max(np.abs(want))), (p, t, j)
    for t in (0.0, 1.7):
        rate = FamilyAction(MINK, "lie_of_g", t, APPLY_MODES).rate()
        assert all(np.max(np.abs(_apply(rate, j, u))) == 0.0 for j in (0, 1))


def test_monic_check_runs_once_per_family(monkeypatch):
    lat = ModeLattice(3, 1)
    calls = []
    is_monic = FamilyAction.is_monic

    def counting(self):
        calls.append(self.t)
        return is_monic(self)

    monkeypatch.setattr(FamilyAction, "is_monic", counting)
    wave = FamilyAction(KAS, "lichnerowicz", 1.0, lat.modes)
    x = real_form(np.ones((lat.num_modes, 10), complex), 4)
    for t in (1.0, 1.5, 2.0):
        wave.at(t).monic_closure(x, x)
    assert calls == [1.0]


def test_monic_closure_in_place_is_bit_identical():
    # the closure accumulates apply(1, ud) into apply(0, u) in place; IEEE
    # addition commutes, so it equals the out-of-place sum bit for bit
    rng = np.random.default_rng(9)
    lat = ModeLattice(3, 2)
    shape = (lat.num_modes, 10)
    u, ud = (real_form(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 4)
             for _ in range(2))
    for bg, t in ((KAS, 1.3), (MINK, 0.4)):
        wave = FamilyAction(bg, "lichnerowicz", t, lat.modes)
        got = wave.monic_closure(u, ud)
        want = -(wave.apply(1, ud) + wave.apply(0, u))
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def _dense_block_apply(act, j, x):
    """act.apply(j, x) with every block of the table multiplied: each
    monomial block of order j that is not a multiple of the identity, the
    constant one and exactly zero ones included, one product scaled by its
    monomial, summed over the stacked blocks, then the identity blocks as
    one per-mode scalar times x, as apply sums them."""
    from linwave.spacetime import _coefficient_table

    A, E, _ = _coefficient_table(act.background, act.kind, act.t)
    C, e, lay = A[j], E[j], act._layout[j]
    dim = act.background.dim
    phase = np.conj(parity_phase(C.shape[1], dim))[:, None] * parity_phase(C.shape[2], dim)
    R = (phase * C).real
    dense = [p for p in range(len(R)) if p not in lay.scal]
    basis = np.concatenate([act.basis, act.basis]).T
    out = np.sum(np.matmul(R[dense] * act.t ** e[dense], x.T) * basis[dense][:, None, :],
                 axis=0)
    scal = act._terms[j][1]
    if scal.size:
        out += x.T * np.sum(basis[lay.scal] * scal[:, None], axis=0)
    return out.T


def test_zero_blocks_are_dropped_and_apply_matches_the_dense_blocks():
    # no layout keeps an exactly zero block (the Minkowski constant blocks,
    # the zero order 1 of its wave operators), and apply and monic_closure
    # equal multiplying every block, zeros only possibly differing in sign
    from linwave.spacetime import _coefficient_table

    rng = np.random.default_rng(11)
    lat = ModeLattice(3, 8)
    dropped = 0
    for bg in _table_backgrounds():
        for kind in OPERATOR_KINDS:
            A, _, layout = _coefficient_table(bg, kind, 1.0)
            for C, lay in zip(A, layout):
                blocks, scal = lay.coeffs
                assert all(np.any(b) for b in blocks) and np.all(scal != 0), (bg.p, kind)
                assert lay.const == bool(np.any(C[0]))
                dropped += not lay.const
            for modes in (lat.modes[lat.half], lat.modes):
                act = FamilyAction(bg, kind, 1.3, modes)
                xs = [rng.standard_normal((C.shape[2], 2 * len(modes))).T for C in A]
                for j, x in enumerate(xs):
                    assert np.array_equal(act.apply(j, x), _dense_block_apply(act, j, x)), \
                        (bg.p, kind, j)
                if act.is_monic():
                    want = _dense_block_apply(act, 0, xs[0])
                    want += _dense_block_apply(act, 1, xs[1])
                    assert np.array_equal(act.monic_closure(*xs[:2]), -want), (bg.p, kind)
    assert dropped == 11  # 10 on the Minkowski torus, 1 on Kasner (1, 0, 0)
    for kind in ("lichnerowicz", "connection_wave"):
        lay = FamilyAction(MINK, kind, 1.0, APPLY_MODES)._layout[1]
        assert not (lay.const or lay.live.size or lay.scal.size), kind


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
    with pytest.raises(RuntimeError, match=r"spacetime\._coefficient_table: the monic leading "
                       "coefficient of lichnerowicz has a nonzero exponent of t"):
        FamilyAction(KAS, "lichnerowicz", 1.0, ModeLattice(3, 1).modes)
    FamilyAction(KAS, "div_trace_reversed", 1.0, ModeLattice(3, 1).modes)


def _parity_backgrounds():
    return ([MINK, spacetime_background("minkowski-torus", n=2)]
            + [spacetime_background("kasner", p=p)
               for p in (KASNER_P, (1.0, 0.0, 0.0), (-1 / 3, 2 / 3, 2 / 3))])


def test_coefficient_tables_are_real_in_the_parity_phase():
    # spatial inversion x -> -x: the k_a blocks are imaginary and join
    # components of opposite parity, every other block is real and joins
    # components of the same parity, so conj(D_out) C_p D_in is real
    from linwave.spacetime import _coefficient_table

    for bg in _parity_backgrounds():
        for kind in OPERATOR_KINDS:
            for C, lay in zip(family_coefficients(bg, kind, 1.0),
                              _coefficient_table(bg, kind, 1.0)[2]):
                _, ncomp_out, ncomp_in = C.shape
                D_out, D_in = parity_phase(ncomp_out, bg.dim), parity_phase(ncomp_in, bg.dim)
                R = np.conj(D_out)[:, None] * C * D_in
                assert not np.any(R.imag), (bg.kind, bg.n, bg.p, kind)
                assert all(x.dtype == float for x in lay.coeffs)


def test_a_block_of_the_wrong_parity_is_refused(monkeypatch):
    from linwave import spacetime

    assembled = spacetime._assembled_coefficients

    def flipped(background, kind, t):
        A = assembled(background, kind, t)
        # the first nonzero k_a block, made real
        j, p = next((j, p) for j, C in enumerate(A) for p in range(1, background.n + 1)
                    if np.any(C[p]))
        A[j][p] = 1j * A[j][p]
        return A

    monkeypatch.setattr(spacetime, "_TABLES", {})
    monkeypatch.setattr(spacetime, "_assembled_coefficients", flipped)
    for bg in (MINK, KAS):
        with pytest.raises(InternalError, match="d_ric is not real in the parity phase"):
            spacetime._coefficient_table(bg, "d_ric", 1.0)


def _complex_apply(act, j, C, u):
    """M_j(k) u on the complex components u of every mode, as FamilyAction
    evaluated it before the real form, kept as the reference: u times the
    constant block, one complex product of the outer product
    W = b_live(k) x u with the stacked live blocks, and the identity blocks
    as one per-mode scalar times u, all from the complex table C
    (npoly, ncomp_out, ncomp_in) of order j."""
    lay = act._layout[j]
    flat = C[lay.live].transpose(0, 2, 1).reshape(-1, C.shape[1])
    scal = np.diagonal(C[lay.scal], axis1=1, axis2=2).mean(axis=1)
    out = u @ C[0].T
    W = act.basis[:, lay.live, None] * u[:, None, :]
    out += W.reshape(len(u), -1) @ flat
    if scal.size:
        out += (act.basis[:, lay.scal] @ scal)[:, None] * u
    return out


@pytest.mark.parametrize("nmax", [2, 8])
def test_real_form_matches_the_complex_evaluator(nmax):
    from linwave.spacetime import _coefficient_table

    rng = np.random.default_rng(10)
    for bg in _parity_backgrounds():
        modes = ModeLattice(bg.n, nmax).modes
        for kind in OPERATOR_KINDS:
            A, E, _ = _coefficient_table(bg, kind, 1.0)
            for t in (0.6, 1.7):
                act = FamilyAction(bg, kind, t, modes)
                tables = (
                    (act, [C * t ** e for C, e in zip(A, E)]),
                    (act.rate(), [C * e * t ** np.where(e == 0, 0.0, e - 1.0)
                                  for C, e in zip(A, E)]),
                )
                for fam, Cs in tables:
                    for j, C in enumerate(Cs):
                        u = _complex_normal(rng, (len(modes), C.shape[2]))
                        want = _complex_apply(act, j, C, u)
                        err = np.max(np.abs(_apply(fam, j, u) - want))
                        assert err <= 1e-15 * np.max(np.abs(want)), (bg.p, kind, t, j)
                if act.is_monic():
                    u, ud = (_complex_normal(rng, (len(modes), A[0].shape[2]))
                             for _ in range(2))
                    want = -(_complex_apply(act, 1, tables[0][1][1], ud)
                             + _complex_apply(act, 0, tables[0][1][0], u))
                    got = complex_form(act.monic_closure(real_form(u, bg.dim),
                                                         real_form(ud, bg.dim)), bg.dim)
                    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
