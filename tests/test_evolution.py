import numpy as np
import pytest

from linwave.constraints import InitialDataPair
from linwave.decomposition import gauge_producing_data
from linwave.evolution import (
    Trajectory,
    _rk4,
    build_cauchy_jet,
    diagnostics,
    evolve,
    evolve_state,
    extract_induced_data,
    lie_trajectory,
    recover_gauge_vector,
    trajectory_difference,
    wave_energies,
)
from linwave.constraints import dphi, normal_identities
from linwave.fields import (
    ModeLattice,
    SpectralField,
    component_weights,
    random_field,
    sobolev_norm,
    sym2_from_full,
    sym2_to_full,
    zero_field,
)
from linwave.slices import apply_slice_operator, slice_geometry
from linwave.spacetime import (
    FamilyAction,
    assemble_mode_operator,
    induced_data_state,
    nu_jet_conversion,
    spacetime_background,
)

from fd_oracles import mode_apply

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
MINK = spacetime_background("minkowski-torus", n=3)
KAS = spacetime_background("kasner", p=KASNER_P)
TORUS = slice_geometry("flat-torus", n=3)
KSLICE = slice_geometry("kasner", p=KASNER_P, t0=1.0)
LAT = ModeLattice(3, 2)


def hermitian_pair(lat, rng, comps):
    arr = rng.standard_normal((lat.num_modes, comps)) + 1j * rng.standard_normal(
        (lat.num_modes, comps)
    )
    perm = lat.negation_permutation()
    return 0.5 * (arr + np.conj(arr[perm]))


def standing_wave_pair(lat):
    # h~ = cos x^1 (dx^2 dx^2 - dx^3 dx^3), m~ = 0: a TT standing wave
    h = zero_field(lat, "sym2")
    for i, s in [(lat.mode_index((1, 0, 0)), 0.5), (lat.mode_index((-1, 0, 0)), 0.5)]:
        h.coeffs[i, 3] = s
        h.coeffs[i, 5] = -s
    return InitialDataPair(h, zero_field(lat, "sym2"), TORUS)


def gauge_residual_norm(bg, lat, t, U, Ud):
    # direct per-mode symbolic assembly, independent of FamilyAction
    G = [
        mode_apply(assemble_mode_operator(bg, "div_trace_reversed", k), t, [U[i], Ud[i]])
        for i, k in enumerate(lat.modes)
    ]
    return float(np.max(np.abs(G)))


def test_build_cauchy_jet_zero_and_mismatch():
    z = InitialDataPair(zero_field(LAT, "sym2"), zero_field(LAT, "sym2"), TORUS)
    jet = build_cauchy_jet(z, MINK)
    assert all(
        np.max(np.abs(getattr(jet, b).coeffs)) == 0.0
        for b in ("h_nn", "h_n", "h_sp", "dh_nn", "dh_n", "dh_sp")
    )
    zk = InitialDataPair(zero_field(LAT, "sym2"), zero_field(LAT, "sym2"), KSLICE)
    with pytest.raises(ValueError):
        build_cauchy_jet(zk, MINK)  # Kasner slice on a Minkowski background


def test_jet_normal_velocity_is_divergence_of_trace_reversal():
    rng = np.random.default_rng(0)
    h = random_field(LAT, "sym2", rng)
    pair = InitialDataPair(h, zero_field(LAT, "sym2"), TORUS)
    jet = build_cauchy_jet(pair, MINK)
    hbar = apply_slice_operator(TORUS, "trace_reverse", h)
    div = apply_slice_operator(TORUS, "divergence", hbar)
    assert np.max(np.abs(jet.dh_n.coeffs - div.coeffs)) < 1e-13
    U, Ud = nu_jet_conversion(jet)
    assert gauge_residual_norm(MINK, LAT, 0.0, U, Ud) < 1e-12


def test_jet_gauge_residual_vanishes_on_kasner():
    # the slice gauge residual vanishes for ANY pair, including all k~ terms
    rng = np.random.default_rng(1)
    pair = InitialDataPair(
        random_field(LAT, "sym2", rng), random_field(LAT, "sym2", rng), KSLICE
    )
    jet = build_cauchy_jet(pair, KAS)
    U, Ud = nu_jet_conversion(jet)
    assert gauge_residual_norm(KAS, LAT, 1.0, U, Ud) < 1e-10


def _induced_backgrounds():
    return [
        (spacetime_background("minkowski-torus", n=2), 0.0),
        (MINK, 0.0),
        (KAS, 1.3),
    ]


def test_induced_data_inverts_the_cauchy_jet():
    # slice data -> gauge-choice jet -> per-mode state -> induced data is the
    # identity: exact structure, independent of any time stepping
    rng = np.random.default_rng(11)
    for bg, t0 in _induced_backgrounds():
        lat = ModeLattice(bg.n, 2)
        geom = bg.slice_at(t0)
        pair = InitialDataPair(
            random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
        )
        U, Ud = nu_jet_conversion(build_cauchy_jet(pair, bg, t0=t0))
        h, m = induced_data_state(bg, t0, lat, U, Ud)
        for got, want in ((h, pair.h), (m, pair.m)):
            err = np.max(np.abs(got.coeffs - want.coeffs))
            assert err <= 1e-13 * np.max(np.abs(want.coeffs)), (bg.kind, bg.n, err)


def _induced_m_from_full_gradient(bg, t, lat, U, Ud):
    # the defining formula with the whole covariant gradient of h:
    # m~ = -1/2 h(nu,nu) k~ - 1/2 (nabla_X h)(nu,Y) - 1/2 (nabla_Y h)(nu,X)
    #      + 1/2 (nabla_nu h)(X,Y)
    n = bg.n
    H, Hdot = sym2_to_full(U, n + 1), sym2_to_full(Ud, n + 1)
    kx = np.zeros((len(U), n + 1))
    kx[:, 1:] = lat.modes
    gam = bg.gamma_derivs(t, 0)[0]
    # (nabla h)_{abc} = partial_a h_bc - Gamma^m_{ab} h_mc - Gamma^m_{ac} h_bm
    grad = 1j * kx[:, :, None, None] * H[:, None]
    grad[:, 0] += Hdot
    grad -= np.einsum("mab,kmc->kabc", gam, H) + np.einsum("mac,kbm->kabc", gam, H)
    mixed = grad[:, 1:, 0, 1:]  # (nabla_i h)(nu, j)
    m = 0.5 * (
        -H[:, 0, 0, None, None] * bg.slice_at(t).extrinsic
        - mixed - np.swapaxes(mixed, 1, 2) + grad[:, 0, 1:, 1:]
    )
    return sym2_from_full(m, n)


def test_induced_data_closed_form_matches_full_gradient():
    rng = np.random.default_rng(12)
    generic = spacetime_background(
        "kasner", p=[1 / 3 + 2 / 3 * np.cos(0.7 + 2 * np.pi * i / 3) for i in range(3)]
    )
    for bg, t in _induced_backgrounds() + [(generic, 0.7)]:
        lat = ModeLattice(bg.n, 2)
        ncomp = (bg.n + 1) * (bg.n + 2) // 2
        U = hermitian_pair(lat, rng, ncomp)
        Ud = hermitian_pair(lat, rng, ncomp)
        want = _induced_m_from_full_gradient(bg, t, lat, U, Ud)
        got = induced_data_state(bg, t, lat, U, Ud)[1].coeffs
        err = np.max(np.abs(got - want))
        assert err <= 1e-14 * np.max(np.abs(want)), (bg.kind, bg.n, err)


def test_every_closure_refuses_a_non_monic_operator(monkeypatch):
    # the four places that solve for a second time derivative share one
    # check and one message
    lat = ModeLattice(3, 1)
    rng = np.random.default_rng(13)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng),
        KAS.slice_at(1.0),
    )
    jet = build_cauchy_jet(pair, KAS)
    traj = evolve(jet, 1.02, dt=1e-2, sample_times=[1.0, 1.02])
    W0 = hermitian_pair(lat, rng, 4)
    refused = {"lichnerowicz", "connection_wave"}

    def is_monic(self, tol=1e-12):
        return self.kind not in refused

    monkeypatch.setattr(FamilyAction, "is_monic", is_monic)
    calls = [
        lambda: evolve(jet, 1.02, dt=1e-2),
        lambda: normal_identities(jet),
        lambda: lie_trajectory(KAS, lat, [1.0, 1.01], W0, W0, dt=1e-2),
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="operator is not monic in d/dt"):
            call()
    refused.discard("lichnerowicz")  # the gauge solve's own connection wave
    with pytest.raises(RuntimeError, match="connection_wave operator is not monic in d/dt"):
        recover_gauge_vector(traj)


def test_evolve_zero_and_validation():
    z = InitialDataPair(zero_field(LAT, "sym2"), zero_field(LAT, "sym2"), TORUS)
    traj = evolve(build_cauchy_jet(z, MINK), 3.0)
    assert np.max(np.abs(traj.states)) == 0.0
    zk = InitialDataPair(zero_field(LAT, "sym2"), zero_field(LAT, "sym2"), KSLICE)
    jet = build_cauchy_jet(zk, KAS)
    with pytest.raises(ValueError):
        evolve(jet, 2.0)  # Kasner needs dt
    with pytest.raises(ValueError):
        evolve(jet, 2.0, dt=-0.1)
    with pytest.raises(ValueError):
        evolve(jet, -1.0, dt=0.1)  # would cross the singularity


def test_minkowski_standing_wave_period():
    jet = build_cauchy_jet(standing_wave_pair(LAT), MINK)
    traj = evolve(jet, 2 * np.pi, sample_times=[0.0, np.pi, 2 * np.pi])
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-12
    assert np.max(np.abs(traj.states[1] + traj.states[0])) < 1e-12  # half period flips


def test_kasner_integrator_is_fourth_order():
    rng = np.random.default_rng(2)
    lat = ModeLattice(3, 1)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), KSLICE
    )
    jet = build_cauchy_jet(pair, KAS)
    ref = evolve(jet, 1.5, dt=1e-3 / 8, sample_times=[1.0, 1.5])
    d = {}
    for dt in (2e-3, 1e-3):
        got = evolve(jet, 1.5, dt=dt, sample_times=[1.0, 1.5])
        d[dt] = np.max(np.abs(got.states[-1] - ref.states[-1]))
    assert d[2e-3] / d[1e-3] >= 14.0


def test_minkowski_diagnostics_on_gauge_data():
    rng = np.random.default_rng(3)
    N = SpectralField(LAT, "scalar", hermitian_pair(LAT, rng, 1))
    beta = SpectralField(LAT, "one-form", hermitian_pair(LAT, rng, 3))
    gp = gauge_producing_data(N, beta, TORUS)
    traj = evolve(build_cauchy_jet(gp, MINK), 10.0, sample_times=np.linspace(0, 10, 6))
    diag = diagnostics(traj)
    assert diag.gauge_residual.max() < 1e-12
    assert diag.dphi1_residual.max() < 1e-12
    assert diag.dphi2_residual.max() < 1e-12
    # the wave energy is constant under the exact propagator
    assert np.ptp(diag.energies[:, 0]) < 1e-12 * diag.energies[0, 0]


def test_constraint_violating_data_break_gauge_propagation():
    # nonzero div(m~ - (tr m~) g~) means nonzero nabla_nu (div hbar) on the
    # slice: the residual starts at zero and grows
    lat = ModeLattice(3, 1)
    m = zero_field(lat, "sym2")
    m.coeffs[lat.mode_index((1, 0, 0)), 3] = 0.5
    m.coeffs[lat.mode_index((-1, 0, 0)), 3] = 0.5  # cos x^1 dx^2 dx^2
    pair = InitialDataPair(zero_field(lat, "sym2"), m, TORUS)
    traj = evolve(build_cauchy_jet(pair, MINK), 1.0, sample_times=[0.0, 1.0])
    diag = diagnostics(traj)
    assert diag.gauge_residual[0] < 1e-13
    assert diag.gauge_residual[1] > 1e2 * max(diag.gauge_residual[0], 1e-15)


def test_kasner_gauge_and_constraint_propagation():
    rng = np.random.default_rng(4)
    lat = ModeLattice(3, 1)
    N = SpectralField(lat, "scalar", hermitian_pair(lat, rng, 1))
    beta = SpectralField(lat, "one-form", hermitian_pair(lat, rng, 3))
    gp = gauge_producing_data(N, beta, KSLICE)
    traj = evolve(
        build_cauchy_jet(gp, KAS), 1.5, dt=1e-3, sample_times=np.linspace(1.0, 1.5, 3)
    )
    diag = diagnostics(traj)
    assert diag.gauge_residual.max() < 1e-8
    assert diag.dphi1_residual.max() < 1e-8
    assert diag.dphi2_residual.max() < 1e-8


def test_extract_round_trip_and_errors():
    rng = np.random.default_rng(5)
    pair = InitialDataPair(
        random_field(LAT, "sym2", rng), random_field(LAT, "sym2", rng), TORUS
    )
    traj = evolve(build_cauchy_jet(pair, MINK), 2.0, sample_times=[0.0, 1.0, 2.0])
    back = extract_induced_data(traj, 0.0)
    assert np.max(np.abs(back.h.coeffs - pair.h.coeffs)) < 1e-13
    assert np.max(np.abs(back.m.coeffs - pair.m.coeffs)) < 1e-13
    with pytest.raises(ValueError):
        extract_induced_data(traj, 5.0)
    mid = extract_induced_data(traj, 0.5)  # dense output between samples
    assert np.isfinite(mid.h.coeffs).all()


@pytest.mark.parametrize("times", [[1.0, 1.04, 1.08], [1.08, 1.04, 1.0]])
def test_kasner_dense_output_reintegrates_from_the_sample_behind(times):
    rng = np.random.default_rng(34)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    traj = evolve_state(KAS, LAT, times[0], U0, Ud0, times[-1], 1e-2, sample_times=times)
    for i, tau in ((0, 0.5 * (times[0] + times[1]) + 0.003),
                   (1, 0.5 * (times[1] + times[2]) - 0.002)):
        U, Ud = traj.state_at(tau)
        seg = evolve_state(KAS, LAT, times[i], traj.states[i], traj.derivs[i], tau, 1e-2,
                           sample_times=[tau])
        assert np.array_equal(U, seg.states[0]) and np.array_equal(Ud, seg.derivs[0])
        # a run with tau as a sample takes other steps, so agrees to the RK4 error
        ref = evolve_state(KAS, LAT, times[0], U0, Ud0, tau, 1e-2,
                           sample_times=[times[0], tau])
        for got, want in ((U, ref.states[-1]), (Ud, ref.derivs[-1])):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("dt, times, match", [
    (np.inf, [1.0, 1.02], "positive finite dt"),
    (np.nan, [1.0, 1.02], "positive finite dt"),
    (-1e-2, [1.0, 1.02], "positive"),
    (1e-2, [1.0, np.inf], "times must be finite"),
    (1e-2, [1.0, np.nan], "times must be finite"),
])
def test_kasner_steps_refuse_a_bad_dt_or_sample_time(dt, times, match):
    rng = np.random.default_rng(35)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    with pytest.raises(ValueError, match=match):
        evolve_state(KAS, LAT, 1.0, U0, Ud0, 1.02, dt, sample_times=times)
    with pytest.raises(ValueError, match=match):
        lie_trajectory(KAS, LAT, times, W0, Wd0, dt=dt)
    good = evolve_state(KAS, LAT, 1.0, U0, Ud0, 1.02, 1e-2, sample_times=[1.0, 1.02])
    bad = Trajectory(KAS, LAT, np.array(times), good.states, good.derivs, dt=dt)
    with pytest.raises(ValueError, match=match):
        recover_gauge_vector(bad)
    if np.all(np.isfinite(times)):
        with pytest.raises(ValueError, match=match):
            bad.state_at(1.01)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_minkowski_exact_propagator_refuses_a_non_finite_time(bad):
    rng = np.random.default_rng(36)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    with pytest.raises(ValueError, match="times must be finite"):
        evolve_state(MINK, LAT, 0.0, U0, Ud0, 1.0, sample_times=[0.0, bad])
    with pytest.raises(ValueError, match="times must be finite"):
        lie_trajectory(MINK, LAT, [0.0, bad], W0, Wd0)
    good = evolve_state(MINK, LAT, 0.0, U0, Ud0, 1.0, sample_times=[0.0, 1.0])
    with pytest.raises(ValueError, match="times must be finite"):
        recover_gauge_vector(Trajectory(MINK, LAT, np.array([0.0, bad]),
                                        good.states, good.derivs))


def test_gauge_recovery_on_difference_trajectory():
    # h = evolved gauge data minus the exact Lie_W g trajectory has zero
    # induced data; the theorem's V must reproduce it
    rng = np.random.default_rng(6)
    W0 = hermitian_pair(LAT, rng, 4)
    Wd0 = hermitian_pair(LAT, rng, 4)
    N = SpectralField(LAT, "scalar", -W0[:, :1])
    beta = SpectralField(LAT, "one-form", W0[:, 1:])
    gp = gauge_producing_data(N, beta, TORUS)
    times = np.linspace(0.0, 10.0, 6)
    trh = evolve(build_cauchy_jet(gp, MINK), 10.0, sample_times=times)
    trg = lie_trajectory(MINK, LAT, times, W0, Wd0)
    w = trajectory_difference(trh, trg)
    rec = recover_gauge_vector(w)
    assert rec.relative_deviation.max() < 1e-10


def test_gauge_recovery_on_kasner():
    rng = np.random.default_rng(7)
    lat = ModeLattice(3, 1)
    W0 = hermitian_pair(lat, rng, 4)
    Wd0 = hermitian_pair(lat, rng, 4)
    N = SpectralField(lat, "scalar", -W0[:, :1])
    beta = SpectralField(lat, "one-form", W0[:, 1:])
    gp = gauge_producing_data(N, beta, KSLICE)
    times = np.linspace(1.0, 1.5, 3)
    trh = evolve(build_cauchy_jet(gp, KAS), 1.5, dt=2e-3, sample_times=times)
    trg = lie_trajectory(KAS, lat, times, W0, Wd0, dt=2e-3)
    w = trajectory_difference(trh, trg)
    rec = recover_gauge_vector(w)
    assert rec.relative_deviation.max() < 1e-8


def test_trajectory_difference_compares_backgrounds_by_value():
    rng = np.random.default_rng(9)
    lat = ModeLattice(3, 1)
    times = np.array([1.0, 1.5])
    shape = (len(times), lat.num_modes, 10)

    def traj(bg):
        return Trajectory(bg, lat, times, rng.standard_normal(shape),
                          rng.standard_normal(shape), dt=1e-2)

    a = traj(spacetime_background("minkowski-torus", n=3))
    b = traj(spacetime_background("minkowski-torus", n=3))
    assert a.background is not b.background
    w = trajectory_difference(a, b)
    assert np.array_equal(w.states, a.states - b.states)
    assert np.array_equal(w.derivs, a.derivs - b.derivs)
    for other in (KAS, spacetime_background("minkowski-torus", n=2)):
        with pytest.raises(ValueError, match="different backgrounds"):
            trajectory_difference(a, traj(other))


def test_lie_trajectory_derivative_is_exact():
    # at the first sample W = W0 exactly, so d/dt (L_0 W + L_1 W') is fixed by
    # the operators alone: against the central difference (step 1e-6) of the
    # direct per-mode assembly on Kasner; on the static Minkowski torus
    # dL/dt is exactly zero and drops out
    rng = np.random.default_rng(8)
    lat = ModeLattice(3, 1)
    W0 = hermitian_pair(lat, rng, 4)
    Wd0 = hermitian_pair(lat, rng, 4)
    eps = 1e-6
    for bg, t in ((KAS, 1.3), (MINK, 0.0)):
        traj = lie_trajectory(bg, lat, [t], W0, Wd0, dt=1e-2)
        want = []
        for i, k in enumerate(lat.modes):
            C0, C1, _ = assemble_mode_operator(bg, "connection_wave", k).matrices(t)
            Wdd = -(C1 @ Wd0[i] + C0 @ W0[i])
            L0, L1 = assemble_mode_operator(bg, "lie_of_g", k).matrices(t)
            L0p, L1p = assemble_mode_operator(bg, "lie_of_g", k).matrices(t + eps)
            L0m, L1m = assemble_mode_operator(bg, "lie_of_g", k).matrices(t - eps)
            want.append(
                (L0p - L0m) / (2 * eps) @ W0[i] + L0 @ Wd0[i]
                + (L1p - L1m) / (2 * eps) @ Wd0[i] + L1 @ Wdd
            )
        want = np.array(want)
        err = np.max(np.abs(traj.derivs[0] - want))
        assert err <= 1e-8 * np.max(np.abs(want)), (bg.kind, err)
    lie = FamilyAction(MINK, "lie_of_g", 0.0, lat.modes)
    conn = FamilyAction(MINK, "connection_wave", 0.0, lat.modes)
    Wdd = -(conn.apply(1, Wd0) + conn.apply(0, W0))
    exact = lie.apply(0, Wd0) + lie.apply(1, Wdd)
    assert np.array_equal(traj.derivs[0], exact)


def test_tt_wave_is_not_gauge():
    jet = build_cauchy_jet(standing_wave_pair(LAT), MINK)
    traj = evolve(jet, 2.0, sample_times=[0.0, 1.0, 2.0])
    rec = recover_gauge_vector(traj)
    assert rec.relative_deviation.min() >= 0.9


def test_zero_recovery():
    z = InitialDataPair(zero_field(LAT, "sym2"), zero_field(LAT, "sym2"), TORUS)
    traj = evolve(build_cauchy_jet(z, MINK), 1.0, sample_times=[0.0, 1.0])
    rec = recover_gauge_vector(traj)
    assert np.max(np.abs(rec.V)) == 0.0 and rec.deviation.max() == 0.0


def test_time_symmetry():
    rng = np.random.default_rng(8)
    pair = InitialDataPair(
        random_field(LAT, "sym2", rng), random_field(LAT, "sym2", rng), TORUS
    )
    jet = build_cauchy_jet(pair, MINK)
    U0, Ud0 = nu_jet_conversion(jet)
    fwd = evolve(jet, 7.3, sample_times=[0.0, 7.3])
    back = evolve_state(
        MINK, LAT, 7.3, fwd.states[-1], fwd.derivs[-1], 0.0, sample_times=[7.3, 0.0]
    )
    assert np.max(np.abs(back.states[-1] - U0)) < 1e-12
    assert np.max(np.abs(back.derivs[-1] - Ud0)) < 1e-12
    lat = ModeLattice(3, 1)
    pk = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), KSLICE
    )
    jk = build_cauchy_jet(pk, KAS)
    Uk, Udk = nu_jet_conversion(jk)
    fk = evolve(jk, 1.4, dt=2e-3, sample_times=[1.0, 1.4])
    bk = evolve_state(
        KAS, lat, 1.4, fk.states[-1], fk.derivs[-1], 1.0, dt=2e-3,
        sample_times=[1.4, 1.0],
    )
    assert np.max(np.abs(bk.states[-1] - Uk)) < 1e-9


def test_pipeline_linearity():
    rng = np.random.default_rng(9)
    lat = ModeLattice(3, 1)
    pairs = [
        InitialDataPair(
            random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), TORUS
        )
        for _ in range(2)
    ]
    combo = InitialDataPair(
        SpectralField(lat, "sym2", 2.0 * pairs[0].h.coeffs - 0.5 * pairs[1].h.coeffs),
        SpectralField(lat, "sym2", 2.0 * pairs[0].m.coeffs - 0.5 * pairs[1].m.coeffs),
        TORUS,
    )
    ts = [0.0, 1.7]
    t0 = evolve(build_cauchy_jet(pairs[0], MINK), 1.7, sample_times=ts)
    t1 = evolve(build_cauchy_jet(pairs[1], MINK), 1.7, sample_times=ts)
    tc = evolve(build_cauchy_jet(combo, MINK), 1.7, sample_times=ts)
    assert np.max(np.abs(tc.states - 2.0 * t0.states + 0.5 * t1.states)) < 1e-12


def test_energy_rejects_large_j():
    with pytest.raises(ValueError):
        wave_energies(MINK, LAT, 0.0, np.zeros((LAT.num_modes, 10)),
                      np.zeros((LAT.num_modes, 10)), J=3)


@pytest.mark.parametrize("order", [np.nan, np.inf, -np.inf])
def test_energy_rejects_a_non_finite_sobolev_order(order):
    zero = np.zeros((LAT.num_modes, 10))
    with pytest.raises(ValueError, match="finite"):
        wave_energies(MINK, LAT, 0.0, zero, zero, sobolev_order=order)
    traj = Trajectory(MINK, LAT, np.array([0.0]), zero[None], zero[None])
    with pytest.raises(ValueError, match="finite"):
        diagnostics(traj, sobolev_order=order)


# ---------------------------------------------------------------------------
# Real data evolve on half the lattice
# ---------------------------------------------------------------------------


def _is_exactly_hermitian(arr, lat, axis=0):
    perm = lat.negation_permutation()
    return np.array_equal(np.take(arr, perm, axis=axis), np.conj(arr))


def _count_builds(monkeypatch):
    built = []
    init = FamilyAction.__init__

    def counting(self, background, kind, t, modes):
        built.append((kind, len(modes)))
        init(self, background, kind, t, modes)

    monkeypatch.setattr(FamilyAction, "__init__", counting)
    return built


def test_half_indices_pick_one_mode_of_each_pair():
    for lat in (ModeLattice(3, 8), ModeLattice(2, 3)):
        half = lat.half_indices()
        perm = lat.negation_permutation()
        assert len(half) == (lat.num_modes + 1) // 2
        assert np.array_equal(np.union1d(half, perm[half]), np.arange(lat.num_modes))
        assert np.array_equal(np.intersect1d(half, perm[half]), [lat.mode_index((0,) * lat.n)])


def test_half_lattice_evolution_is_bit_identical_to_full():
    rng = np.random.default_rng(31)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    wave = FamilyAction(KAS, "lichnerowicz", 1.0, LAT.modes)

    def acc(t, y):
        return (y[1], wave.at(t).monic_closure(*y))

    times = [1.0, 1.05, 1.1]
    traj = evolve_state(KAS, LAT, 1.0, U0, Ud0, 1.1, 1e-2, sample_times=times)
    y = (U0, Ud0)
    for i, (t0, t1) in enumerate(zip(times, times[1:])):
        y = _rk4(acc, t0, y, t1, 1e-2)
        assert np.array_equal(traj.states[i + 1], y[0])
        assert np.array_equal(traj.derivs[i + 1], y[1])
        seg = evolve_state(KAS, LAT, t0, traj.states[i], traj.derivs[i], t1, 1e-2,
                           sample_times=[t1])
        assert np.array_equal(seg.states[0], y[0]) and np.array_equal(seg.derivs[0], y[1])
    assert _is_exactly_hermitian(traj.states, LAT, 1)
    assert _is_exactly_hermitian(traj.derivs, LAT, 1)


def test_real_data_take_the_half_lattice_and_complex_data_the_full(monkeypatch):
    rng = np.random.default_rng(32)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    half = len(LAT.half_indices())
    built = _count_builds(monkeypatch)
    times = [1.0, 1.01, 1.02]
    # one family for the whole run, however many samples it has
    evolve_state(KAS, LAT, 1.0, U0, Ud0, 1.02, 1e-2, sample_times=times)
    assert built == [("lichnerowicz", half)]
    built.clear()
    Ud1 = Ud0.copy()
    Ud1[0, 0] += 1e-12j  # a defect below HERMITIAN_TOL still takes the full lattice
    evolve_state(KAS, LAT, 1.0, U0, Ud1, 1.02, 1e-2, sample_times=times)
    assert built == [("lichnerowicz", LAT.num_modes)]
    built.clear()
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    traj = lie_trajectory(KAS, LAT, times, W0, Wd0, dt=1e-2)
    assert ("connection_wave", half) in built
    assert built.count(("lie_of_g", LAT.num_modes)) == 1
    built.clear()
    recover_gauge_vector(traj)
    integrated = [b for b in built if b[0] in ("lichnerowicz", "connection_wave")]
    assert integrated == [("lichnerowicz", half), ("connection_wave", half)]
    assert built.count(("lie_of_g", LAT.num_modes)) == 1
    built.clear()
    recover_gauge_vector(Trajectory(KAS, LAT, traj.times, 1j * traj.states,
                                    1j * traj.derivs, dt=traj.dt))
    integrated = [b for b in built if b[0] in ("lichnerowicz", "connection_wave")]
    assert integrated == [("lichnerowicz", LAT.num_modes), ("connection_wave", LAT.num_modes)]


def test_half_lattice_runs_are_linear_in_complex_data():
    # y and w are real data, so each runs on the half; y + i w is not, so it
    # runs on the full lattice; the solution maps are linear over C
    rng = np.random.default_rng(33)
    lat = ModeLattice(3, 1)
    times = [1.0, 1.03, 1.06]
    Wy, Wdy, Ww, Wdw = (hermitian_pair(lat, rng, 4) for _ in range(4))
    ly = lie_trajectory(KAS, lat, times, Wy, Wdy, dt=1e-2)
    lw = lie_trajectory(KAS, lat, times, Ww, Wdw, dt=1e-2)
    lc = lie_trajectory(KAS, lat, times, Wy + 1j * Ww, Wdy + 1j * Wdw, dt=1e-2)
    for a in ("states", "derivs"):
        want = getattr(lc, a)
        got = getattr(ly, a) + 1j * getattr(lw, a)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), a
        assert _is_exactly_hermitian(getattr(ly, a), lat, 1)
    Uy, Udy, Uw, Udw = (hermitian_pair(lat, rng, 10) for _ in range(4))
    ty = evolve_state(KAS, lat, 1.0, Uy, Udy, 1.06, 1e-2, sample_times=times)
    tw = evolve_state(KAS, lat, 1.0, Uw, Udw, 1.06, 1e-2, sample_times=times)
    tc = Trajectory(KAS, lat, ty.times, ty.states + 1j * tw.states,
                    ty.derivs + 1j * tw.derivs, dt=1e-2)
    ry, rw, rc = (recover_gauge_vector(tr) for tr in (ty, tw, tc))
    for a in ("V", "Vdot"):
        want = getattr(rc, a)
        got = getattr(ry, a) + 1j * getattr(rw, a)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), a
        assert _is_exactly_hermitian(getattr(ry, a), lat, 1)


def test_symplectic_current_is_conserved_on_kasner():
    # box_L is formally self-adjoint, so for two solutions u, v the current
    # J_k = t (<u_k, nabla_nu v_k> - <nabla_nu u_k, v_k>) of each mode is
    # conserved (sqrt(det g~) = t on Kasner); <a, b> = conj(a_ab) g^aa g^bb b_ab
    # and (nabla_nu u)_ab = du_ab/dt - (q_a + q_b) u_ab / t with q = (0, p)
    rng = np.random.default_rng(34)
    lat = ModeLattice(3, 1)
    times = np.linspace(1.0, 2.0, 5)
    u, v = (
        evolve_state(KAS, lat, 1.0, hermitian_pair(lat, rng, 10),
                     hermitian_pair(lat, rng, 10), 2.0, 1e-3, sample_times=times)
        for _ in range(2)
    )
    q = np.concatenate([[0.0], KASNER_P])

    def current(i):
        t = times[i]
        ginv = np.concatenate([[-1.0], t ** (-2.0 * np.asarray(KASNER_P))])
        U, V = sym2_to_full(u.states[i], 4), sym2_to_full(v.states[i], 4)
        conn = (q[:, None] + q[None, :]) / t
        dU = sym2_to_full(u.derivs[i], 4) - conn * U
        dV = sym2_to_full(v.derivs[i], 4) - conn * V

        def pair(a, b):
            return np.einsum("kab,a,b,kab->k", np.conj(a), ginv, ginv, b)

        return t * (pair(U, dV) - pair(dU, V))

    J0 = current(0)
    drift = max(np.max(np.abs(current(i) - J0)) for i in range(1, len(times)))
    assert drift <= 1e-11 * np.max(np.abs(J0))


# ---------------------------------------------------------------------------
# Diagnostics of real data on half the lattice
# ---------------------------------------------------------------------------


def _full_lattice_diagnostics(traj, sobolev_order=0.5):
    """Per sample: gauge residual, the two constraint residuals with the
    norm of their per-mode term scale |k|_g^2 |h~| + |m~|, and the energies,
    all evaluated on every mode of the lattice."""
    bg, lat = traj.background, traj.lattice
    k = lat.modes.astype(float)
    k2 = np.sum(k ** 2, axis=1)
    w = component_weights("sym2", bg.dim)
    out = []
    for t, U, Ud in zip(traj.times, traj.states, traj.derivs):
        div = FamilyAction(bg, "div_trace_reversed", t, lat.modes)
        gauge = np.sqrt(np.sum(np.abs(div.apply(0, U) + div.apply(1, Ud)) ** 2))
        h, m = induced_data_state(bg, t, lat, U, Ud)
        geom = bg.slice_at(t)
        res = dphi(InitialDataPair(h, m, geom))
        fro = [np.sqrt(np.sum(np.abs(sym2_to_full(f.coeffs, bg.n)) ** 2, axis=(1, 2)))
               for f in (h, m)]
        terms = np.einsum("ka,ab,kb->k", k, geom.metric_inv, k) * fro[0] + fro[1]
        scale = [sobolev_norm(SpectralField(lat, "scalar", terms[:, None]), s)
                 for s in (0.0, 1.0)]
        Udd = FamilyAction(bg, "lichnerowicz", t, lat.modes).monic_closure(U, Ud)
        stack = [U, Ud, Udd]
        energies = [
            np.sqrt(np.sum((1.0 + k2) ** (sobolev_order - j) * np.einsum(
                "c,kc->k", w, k2[:, None] * np.abs(stack[j]) ** 2 + np.abs(stack[j + 1]) ** 2)))
            for j in (0, 1)
        ]
        out.append((gauge, res.norms["dphi1_H0"], res.norms["dphi2_H1"], scale, energies))
    return out


def _assert_matches_full_lattice(traj, diag, sobolev_order=0.5):
    for i, (gauge, d1, d2, scale, energies) in enumerate(
            _full_lattice_diagnostics(traj, sobolev_order)):
        assert abs(diag.gauge_residual[i] - gauge) <= 1e-13 * gauge, i
        assert abs(diag.dphi1_residual[i] - d1) <= 1e-14 * scale[0], i
        assert abs(diag.dphi2_residual[i] - d2) <= 1e-14 * scale[1], i
        for j in (0, 1):
            assert abs(diag.energies[i, j] - energies[j]) <= 1e-13 * energies[j], (i, j)


def _real_trajectories():
    rng = np.random.default_rng(41)
    lat3 = ModeLattice(3, 3)
    pair = InitialDataPair(random_field(lat3, "sym2", rng), random_field(lat3, "sym2", rng),
                           TORUS)
    mink = evolve(build_cauchy_jet(pair, MINK), 2.0, sample_times=[0.0, 0.7, 2.0])
    pair = InitialDataPair(random_field(LAT, "sym2", rng), random_field(LAT, "sym2", rng),
                           KSLICE)
    kas = evolve(build_cauchy_jet(pair, KAS), 1.1, dt=2e-2, sample_times=[1.0, 1.04, 1.1])
    return mink, kas


def test_real_diagnostics_take_the_half_lattice_and_match_the_full():
    # random data violate the constraints, so every residual compared here
    # is well above round-off
    for traj in _real_trajectories():
        lat = traj.lattice
        assert _is_exactly_hermitian(traj.states, lat, 1)
        diag = diagnostics(traj, sobolev_order=0.5)
        assert diag.modes == len(lat.half_indices())
        assert min(diag.dphi1_residual.min(), diag.dphi2_residual.min()) > 1e-3
        _assert_matches_full_lattice(traj, diag)


def test_complex_diagnostics_take_the_full_lattice_and_match():
    for traj in _real_trajectories():
        lat = traj.lattice
        states = traj.states.copy()
        states[1, 5, 3] += 1e-12  # one coefficient off Hermitian symmetry
        nudged = Trajectory(traj.background, lat, traj.times, states, traj.derivs, traj.dt)
        diag = diagnostics(nudged, sobolev_order=0.5)
        assert diag.modes == lat.num_modes
        _assert_matches_full_lattice(nudged, diag)


def test_half_lattice_diagnostics_count_the_zero_mode_once():
    # only k = 0 and one +-k pair carry data; the zero mode counted twice,
    # or a pair once, would move E_0 by far more than round-off
    rng = np.random.default_rng(42)
    lat = ModeLattice(3, 1)
    zero, k = lat.mode_index((0, 0, 0)), lat.mode_index((1, -1, 0))
    neg = lat.negation_permutation()[k]
    states = np.zeros((1, lat.num_modes, 10), complex)
    derivs = np.zeros_like(states)
    for arr in (states, derivs):
        arr[0, zero] = rng.standard_normal(10)
        arr[0, k] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        arr[0, neg] = np.conj(arr[0, k])
    traj = Trajectory(MINK, lat, np.array([0.0]), states, derivs)
    diag = diagnostics(traj)
    assert diag.modes == len(lat.half_indices())
    want = wave_energies(MINK, lat, 0.0, states[0], derivs[0])
    assert np.max(np.abs(diag.energies[0] - want)) <= 1e-14 * np.max(want)
    only_zero = Trajectory(MINK, lat, np.array([0.0]), states * 0, derivs.copy())
    only_zero.derivs[0, [k, neg]] = 0.0
    e0 = diagnostics(only_zero).energies[0, 0]
    w = component_weights("sym2", 4)
    assert abs(e0 - np.sqrt(np.abs(derivs[0, zero]) ** 2 @ w)) <= 1e-14 * e0
