import re
import tracemalloc

import numpy as np
import pytest

from linwave import evolution
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
    rank_components,
    sobolev_norm,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    weighted_norm,
    zero_field,
)
from linwave.slices import apply_slice_operator, slice_geometry
from linwave.spacetime import (
    FamilyAction,
    assemble_mode_operator,
    complex_form,
    induced_data_state,
    nu_jet_conversion,
    real_form,
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


def real(*arrays):
    """The real forms (see real_form) of complex 4D one-form or sym2 arrays."""
    return tuple(real_form(a, 4) for a in arrays)


def cplx(*arrays):
    """The complex arrays of real forms of 4D one-form or sym2 arrays."""
    return tuple(complex_form(a, 4) for a in arrays)


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

    def is_monic(self):
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
    with pytest.raises(ValueError, match="not a sample time"):
        extract_induced_data(traj, 0.5)  # a trajectory holds its samples only


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


def test_minkowski_exact_propagator_refuses_no_sample_times():
    rng = np.random.default_rng(36)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    with pytest.raises(ValueError, match="at least one sample time"):
        evolve_state(MINK, LAT, 0.0, U0, Ud0, 1.0, sample_times=[])
    with pytest.raises(ValueError, match="at least one sample time"):
        lie_trajectory(MINK, LAT, [], W0, Wd0)
    empty = np.zeros((0, LAT.num_modes, 10), complex)
    with pytest.raises(ValueError, match="at least one sample time"):
        recover_gauge_vector(Trajectory(MINK, LAT, np.array([]), empty, empty))


@pytest.mark.parametrize("bg, count, modes, comps", [
    (MINK, 3, LAT.num_modes, 10),
    (MINK, 2, LAT.num_modes - 1, 10),
    (spacetime_background("minkowski-torus", n=2), 2, LAT.num_modes, 10),  # 6 on T^2
], ids=["a-sample-more-than-the-times", "a-mode-short", "components-of-another-dim"])
def test_trajectory_refuses_samples_that_do_not_match_its_times_lattice_or_background(
        bg, count, modes, comps):
    rng = np.random.default_rng(39)
    good = np.zeros((2, LAT.num_modes, rank_components("sym2", bg.dim)), complex)
    bad = rng.standard_normal((count, modes, comps)) + 0j
    for states, derivs in ((bad, good), (good, bad)):
        want = f"shapes {states.shape} and {derivs.shape} do not match the {good.shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            Trajectory(bg, LAT, np.array([0.0, 1.0]), states, derivs)


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

    def traj(bg):
        shape = (len(times), lat.num_modes, rank_components("sym2", bg.dim))
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
    for bg, t, dt in ((KAS, 1.3, 1e-2), (MINK, 0.0, None)):
        traj = lie_trajectory(bg, lat, [t], W0, Wd0, dt=dt)
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
    X0, Xd0 = real(W0, Wd0)
    Xdd = -(conn.apply(1, Xd0) + conn.apply(0, X0))
    exact, = cplx(lie.apply(0, Xd0) + lie.apply(1, Xdd))
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
        half = np.arange(lat.half.stop)
        perm = lat.negation_permutation()
        assert len(half) == (lat.num_modes + 1) // 2
        assert np.array_equal(np.union1d(half, perm[half]), np.arange(lat.num_modes))
        assert np.array_equal(np.intersect1d(half, perm[half]), [lat.mode_index((0,) * lat.n)])


def test_half_lattice_evolution_is_bit_identical_to_full():
    _assert_half_lattice_evolution_is_bit_identical_to_full(LAT)


def test_half_lattice_evolution_is_bit_identical_to_full_at_nmax_8():
    # at nmax 8 a mode's result would depend on its column in a matrix
    # product that stacked the blocks of a family (see FamilyAction)
    _assert_half_lattice_evolution_is_bit_identical_to_full(ModeLattice(3, 8))


def _assert_half_lattice_evolution_is_bit_identical_to_full(lat):
    rng = np.random.default_rng(31)
    U0, Ud0 = hermitian_pair(lat, rng, 10), hermitian_pair(lat, rng, 10)
    wave = FamilyAction(KAS, "lichnerowicz", 1.0, lat.modes)

    def rhs(wave_t, y):
        return (y[1], wave_t.monic_closure(*y))

    times = [1.0, 1.05, 1.1]
    traj = evolve_state(KAS, lat, 1.0, U0, Ud0, 1.1, 1e-2, sample_times=times)
    x = real(U0, Ud0)
    for i, (t0, t1) in enumerate(zip(times, times[1:])):
        x = _rk4(wave.at, rhs, t0, x, t1, 1e-2)
        y = cplx(*x)
        assert np.array_equal(traj.states[i + 1], y[0])
        assert np.array_equal(traj.derivs[i + 1], y[1])
        seg = evolve_state(KAS, lat, t0, traj.states[i], traj.derivs[i], t1, 1e-2,
                           sample_times=[t1])
        assert np.array_equal(seg.states[0], y[0]) and np.array_equal(seg.derivs[0], y[1])
    assert _is_exactly_hermitian(traj.states, lat, 1)
    assert _is_exactly_hermitian(traj.derivs, lat, 1)


@pytest.mark.parametrize("nmax", [6, 8])
def test_full_lattice_recovery_keeps_hermitian_data_exactly_hermitian(nmax):
    # mode k and mode -k must see the same arithmetic wherever they sit in
    # the state: each block of a family is its own matrix product and the
    # per-mode scalar an elementwise sum (see FamilyAction)
    lat = ModeLattice(3, nmax)
    rng = np.random.default_rng(45)
    y = real(*(hermitian_pair(lat, rng, c) for c in (4, 4, 10, 10)))
    families = [FamilyAction(KAS, kind, 1.0, lat.modes)
                for kind in ("lichnerowicz", "div_trace_reversed", "connection_wave")]
    y = _rk4(lambda t: [f.at(t) for f in families], evolution._recovery_rhs,
             1.0, y, 1.03, 1e-2)
    for x in cplx(*y):
        assert np.any(x.imag) and _is_exactly_hermitian(x, lat, 0)


def _rk4_four_stage_times(at, rhs, t0, y, t1, dt):
    """Reference RK4 that re-times the families at every one of the four
    stages, as _rk4 did before it re-timed once per distinct stage time."""
    span = t1 - t0
    steps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / steps
    t = t0

    def acc(t, y):
        return rhs(at(t), y)

    def axpy(y, c, k):
        return tuple(a + c * b for a, b in zip(y, k))

    for _ in range(steps):
        k1 = acc(t, y)
        k2 = acc(t + 0.5 * h, axpy(y, 0.5 * h, k1))
        k3 = acc(t + 0.5 * h, axpy(y, 0.5 * h, k2))
        k4 = acc(t + h, axpy(y, h, k3))
        y = tuple(
            a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        t += h
    return y


def _kasner_runs(dt):
    """evolve_state, lie_trajectory and recover_gauge_vector on Kasner, with
    real data (the half lattice) and complex data (the full lattice)."""
    rng = np.random.default_rng(41)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    times = [1.0, 1.013, 1.05, 1.05 + 5e-15, 1.1]
    out = []
    for c in (1.0, 1.0 + 0.5j):
        wave = evolve_state(KAS, LAT, 1.0, c * U0, c * Ud0, 1.1, dt, sample_times=times)
        lie = lie_trajectory(KAS, LAT, times, c * W0, c * Wd0, dt=dt)
        rec = recover_gauge_vector(lie)
        out += [wave.states, wave.derivs, lie.states, lie.derivs,
                rec.V, rec.Vdot, rec.deviation, rec.relative_deviation]
    return out


def test_rk4_matches_four_re_times_per_step_bit_for_bit(monkeypatch):
    for dt in (1e-2, 3e-3):
        runs = _kasner_runs(dt)
        with monkeypatch.context() as m:
            m.setattr(evolution, "_rk4", _rk4_four_stage_times)
            reference = _kasner_runs(dt)
        assert len(runs) == len(reference) == 16
        for got, want in zip(runs, reference):
            assert np.array_equal(got, want)


def _count_re_times(monkeypatch):
    timed = []
    at = FamilyAction.at

    def counting(self, t):
        timed.append(self.kind)
        return at(self, t)

    monkeypatch.setattr(FamilyAction, "at", counting)
    return timed


@pytest.mark.parametrize("kinds, rhs, comps", [
    (("lichnerowicz",), evolution._monic_rhs, (10, 10)),
    (("connection_wave",), evolution._monic_rhs, (4, 4)),
    (("lichnerowicz", "div_trace_reversed", "connection_wave"),
     evolution._recovery_rhs, (4, 4, 10, 10)),
])
def test_rk4_re_times_each_family_twice_per_step(monkeypatch, kinds, rhs, comps):
    rng = np.random.default_rng(43)
    y = real(*(hermitian_pair(LAT, rng, c) for c in comps))
    families = [FamilyAction(KAS, kind, 1.0, LAT.modes) for kind in kinds]
    timed = _count_re_times(monkeypatch)
    for t0, t1, dt, steps in [(1.0, 1.1, 1e-2, 10), (1.1, 1.0, 3e-3, 34),
                              (2.0, 2.005, 1e-2, 1)]:
        timed.clear()
        _rk4(lambda t: [f.at(t) for f in families], rhs, t0, y, t1, dt)
        assert sorted(timed) == sorted(kinds * (2 * steps + 1))


def test_sampler_re_times_the_wave_twice_per_step(monkeypatch):
    rng = np.random.default_rng(44)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    timed = _count_re_times(monkeypatch)
    evolve_state(KAS, LAT, 1.0, U0, Ud0, 1.1, 1e-2, sample_times=[1.0, 1.05, 1.1])
    assert timed == ["lichnerowicz"] * 2 * (2 * 5 + 1)  # two segments of 5 steps


def test_real_data_take_the_half_lattice_and_complex_data_the_full(monkeypatch):
    rng = np.random.default_rng(32)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    half = LAT.half.stop
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
    assert built == [("connection_wave", half), ("connection_wave", half), ("lie_of_g", half)]
    built.clear()
    recover_gauge_vector(traj)
    assert built == [("lichnerowicz", half), ("div_trace_reversed", half),
                     ("connection_wave", half), ("lie_of_g", half)]
    built.clear()
    recover_gauge_vector(Trajectory(KAS, LAT, traj.times, 1j * traj.states,
                                    1j * traj.derivs, dt=traj.dt))
    integrated = [b for b in built if b[0] in ("lichnerowicz", "connection_wave")]
    assert integrated == [("lichnerowicz", LAT.num_modes), ("connection_wave", LAT.num_modes)]


def _closed_form(lat, X0, Xd0, s):
    # each component a harmonic oscillator of frequency w = |k|:
    # cos(ws) X0 + sin(ws)/w Xd0, with s for sin(ws)/w at w = 0
    w = np.sqrt(np.sum(lat.modes ** 2, axis=1))[:, None]
    sinc = np.where(w > 0, np.sin(w * s) / np.where(w > 0, w, 1.0), s)
    return np.cos(w * s) * X0 + sinc * Xd0, np.cos(w * s) * Xd0 - w * np.sin(w * s) * X0


def test_minkowski_real_data_take_the_half_lattice_in_closed_form(monkeypatch):
    rng = np.random.default_rng(37)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    half = LAT.half.stop
    times = np.array([0.5, 1.2, 3.9])
    built = _count_builds(monkeypatch)
    traj = evolve_state(MINK, LAT, 0.5, U0, Ud0, 3.9, sample_times=times)
    assert built == [("lichnerowicz", half)]
    for i, t in enumerate(times):
        U, Ud = _closed_form(LAT, U0, Ud0, t - 0.5)
        assert np.array_equal(traj.states[i], U) and np.array_equal(traj.derivs[i], Ud)
    built.clear()
    lie = lie_trajectory(MINK, LAT, times, W0, Wd0)
    assert built == [("connection_wave", half), ("connection_wave", half), ("lie_of_g", half)]
    lie0, conn = (FamilyAction(MINK, kind, 0.5, LAT.modes)
                  for kind in ("lie_of_g", "connection_wave"))
    for i, t in enumerate(times):
        W, Wd = _closed_form(LAT, W0, Wd0, t - 0.5)
        X, Xd = real(W, Wd)
        Xdd = conn.monic_closure(X, Xd)  # the static Lie operator has no rate
        assert np.array_equal(lie.states[i], *cplx(lie0.apply(0, X) + lie0.apply(1, Xd)))
        assert np.array_equal(lie.derivs[i], *cplx(lie0.apply(0, Xd) + lie0.apply(1, Xdd)))
    built.clear()
    rec = recover_gauge_vector(lie)
    assert built == [("lichnerowicz", half), ("div_trace_reversed", half),
                     ("connection_wave", half), ("lie_of_g", half)]
    # a non-Hermitian copy of the same data takes the full lattice
    built.clear()
    evolve_state(MINK, LAT, 0.5, 1j * U0, 1j * Ud0, 3.9, sample_times=times)
    lie_trajectory(MINK, LAT, times, 1j * W0, 1j * Wd0)
    rec_c = recover_gauge_vector(Trajectory(MINK, LAT, lie.times, 1j * lie.states,
                                            1j * lie.derivs))
    assert {n for kind, n in built} == {LAT.num_modes}
    assert len(built) == 1 + 3 + 4  # evolve_state, lie_trajectory, recover_gauge_vector
    for a in ("V", "Vdot"):
        want = getattr(rec_c, a)
        assert np.max(np.abs(1j * getattr(rec, a) - want)) <= 1e-14 * np.max(np.abs(want))


def test_minkowski_torus_takes_no_dt():
    rng = np.random.default_rng(38)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    W0, Wd0 = hermitian_pair(LAT, rng, 4), hermitian_pair(LAT, rng, 4)
    jet = build_cauchy_jet(standing_wave_pair(LAT), MINK)
    for run in (lambda: evolve(jet, 1.0, dt=1e-2),
                lambda: evolve_state(MINK, LAT, 0.0, U0, Ud0, 1.0, 1e-2),
                lambda: lie_trajectory(MINK, LAT, [0.0, 1.0], W0, Wd0, dt=1e-2)):
        with pytest.raises(ValueError, match="takes no dt, got dt = 0.01"):
            run()
    good = evolve(jet, 1.0, sample_times=[0.0, 1.0])
    assert good.dt is None
    with pytest.raises(ValueError, match="takes no dt"):
        recover_gauge_vector(Trajectory(MINK, LAT, good.times, good.states, good.derivs,
                                        dt=1e-2))


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


def _mirror_and_stack(dim):
    """Reference for _on_real_half: each sample, in complex form, mirrored
    to a new pair of full-lattice arrays, the pairs kept in a list and
    stacked at the end, and returned as samples on every row.  Given rows,
    it runs on them, as _on_real_half does."""
    def sampler(lattice, y0, count, run, rows=None):
        perm = lattice.negation_permutation()
        half = np.arange(lattice.half.stop)
        if rows is None:
            rows = lattice.half if evolution._exactly_real(lattice, y0) else slice(None)
        if rows.stop is None:
            ys = [tuple(complex_form(x, dim) for x in y) for y in run(lattice.modes, y0)]
        else:
            def mirror(x):
                x = complex_form(x, dim)
                full = np.empty((lattice.num_modes,) + x.shape[1:], x.dtype)
                full[perm[half]] = np.conj(x) + 0.0
                full[half] = x
                return full

            ys = [tuple(mirror(x) for x in y)
                  for y in run(lattice.modes[half], tuple(x[half] for x in y0))]
        assert len(ys) == count
        # the real form and back is exact, signed zeros included
        return (slice(None), *(np.array([real_form(y[j], dim).T for y in ys]) for j in (0, 1)))

    return sampler


@pytest.mark.parametrize("bg, times, dt", [(MINK, [0.5, 1.2, 1.2, 3.9], None),
                                           (KAS, [1.0, 1.013, 1.013, 1.05], 1e-2)])
@pytest.mark.parametrize("nudge", [0.0, 1e-13j])
@pytest.mark.parametrize("system", ["wave", "recovery"])
def test_sampler_writes_what_mirroring_and_stacking_wrote(monkeypatch, bg, times, dt,
                                                          nudge, system):
    # bit for bit, signed zeros included, on real data (the half lattice)
    # and on data nudged off Hermitian symmetry (the full lattice): the
    # sampler's rows, read through the complex arrays of the trajectory
    rng = np.random.default_rng(46)
    U0, Ud0 = hermitian_pair(LAT, rng, 10), hermitian_pair(LAT, rng, 10)
    Ud0[LAT.mode_index((1, 0, 2)), 3] += nudge
    if system == "wave":
        args = (("lichnerowicz",), evolution._monic_rhs, times[0], (U0, Ud0), times, dt,
                evolution._harmonic)
    else:
        V0, Vd0 = evolution._gauge_initial_state(bg, U0)
        args = (("lichnerowicz", "div_trace_reversed", "connection_wave"),
                evolution._recovery_rhs, times[0], (V0, Vd0, U0, Ud0), times, dt,
                evolution._recovery_exact)
    traj = evolution._samples(bg, LAT, *args)
    assert traj._rows[0] == (LAT.half if nudge == 0.0 else slice(None))
    got = traj.states, traj.derivs
    monkeypatch.setattr(evolution, "_on_real_half", _mirror_and_stack(bg.dim))
    ref = evolution._samples(bg, LAT, *args)
    want = ref.states, ref.derivs
    assert evolution._exactly_real(LAT, [*got[0], *got[1]]) == (nudge == 0.0)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (len(times), LAT.num_modes, w.shape[2])
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_evolve_keeps_little_beyond_its_trajectory():
    # tracemalloc peak of evolve above the samples it keeps, in units of
    # the complex (15, num_modes, 10) arrays of the same samples (nmax 4,
    # 3.5 MB): measured 0.22, the same bytes as when evolve kept those
    # arrays (set-up and one sample's temporaries).  A sampler that keeps
    # each sample in a list and stacks them at the end holds the kept
    # samples twice and reads 0.57.  Real data keep the half lattice
    # in real form: at most 0.51 of the complex arrays (0.501, the half
    # includes k = 0)
    lat = ModeLattice(3, 4)
    rng = np.random.default_rng(47)
    pair = gauge_producing_data(random_field(lat, "scalar", rng),
                                random_field(lat, "one-form", rng), TORUS)
    jet = build_cauchy_jet(pair, MINK)
    times = np.linspace(0.0, 10.0, 15)
    evolve(jet, 10.0, sample_times=times)  # tables and lazy imports are built once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = evolve(jet, 10.0, sample_times=times)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows, X, Xd = traj._rows
    kept = X.nbytes + Xd.nbytes
    full = traj.states.nbytes + traj.derivs.nbytes
    assert rows == lat.half and kept <= 0.51 * full, kept / full
    assert peak - kept <= 0.25 * full, (peak - kept) / full


def test_exactly_real_compares_without_a_permuted_copy():
    # tracemalloc peak of _exactly_real above its start on Hermitian
    # (4913, 10) arrays (nmax 8), in units of one array's bytes: measured
    # 0.70 comparing the half rows of the reversed view x[::-1] with their
    # conjugates, 1.23 comparing all of x[::-1] with conj(x); a permuted
    # copy x[perm] next to conj(x) reads 2.12
    lat = ModeLattice(3, 8)
    rng = np.random.default_rng(48)
    arrays = [hermitian_pair(lat, rng, 10) for _ in range(3)]
    assert evolution._exactly_real(lat, arrays[:1])  # lazy set-up runs once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        real = evolution._exactly_real(lat, arrays)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert real
    assert peak <= 1.5 * arrays[0].nbytes, peak / arrays[0].nbytes


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


def test_kasner_axis_mode_matches_its_bessel_closed_form():
    # at p = (2/3, 2/3, -1/3) and k = (0, 0, k), h_12 couples to no other
    # component, and h^1_2 = g^11 h_12 = t^(-4/3) h_12 solves the scalar
    # wave equation phi'' + phi'/t + k^2 t^(2/3) phi = 0 (sqrt(-g) = t,
    # g^33 = t^(2/3)); z = 3 k t^(4/3) / 4 has dz/dt = k t^(1/3) and turns
    # it into Bessel's equation of order 0, so
    #     h_12 = t^(4/3) (A J_0(z) + B Y_0(z)),
    # an exact solution that does not come from RK4.  Against it the state
    # and rate of RK4 over [1, 2] at dt 1e-3 read 3.3e-14 at k = 1 and
    # 3.1e-12 at k = 3 of their largest value, and halving dt from 2e-3
    # divides the k = 3 error by 16.0
    from scipy.special import j0, j1, y0, y1

    lat = ModeLattice(3, 3)
    c12 = sym2_index_pairs(4).index((1, 2))
    A, B = 0.8, -0.3

    def exact(k, t):
        z = 0.75 * k * t ** (4 / 3)
        Z, dZ = A * j0(z) + B * y0(z), -(A * j1(z) + B * y1(z))  # Z_0' = -Z_1
        return t ** (4 / 3) * Z, (4 / 3) * t ** (1 / 3) * Z + k * t ** (5 / 3) * dZ

    U0, Ud0 = np.zeros((2, lat.num_modes, 10))
    axis = {k: [lat.mode_index((0, 0, s * k)) for s in (1, -1)] for k in (1, 3)}
    for k, rows in axis.items():
        U0[rows, c12], Ud0[rows, c12] = exact(k, 1.0)  # real: c_-k = conj(c_k)
    times = np.linspace(1.0, 2.0, 5)
    others = np.ones((len(times), lat.num_modes, 10), bool)
    for rows in axis.values():
        others[:, rows, c12] = False
    err = {}
    for dt in (2e-3, 1e-3):
        traj = evolve_state(KAS, lat, 1.0, U0, Ud0, 2.0, dt, sample_times=times)
        states, derivs = traj.states, traj.derivs
        assert not np.any(states[others]) and not np.any(derivs[others]), dt
        for k, rows in axis.items():
            want = np.array([exact(k, t) for t in times])
            got = np.stack([states[:, rows[0], c12], derivs[:, rows[0], c12]], axis=1)
            err[dt, k] = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert max(err[1e-3, 1], err[1e-3, 3]) <= 1e-11, err
    assert err[2e-3, 3] >= 14 * err[1e-3, 3], err


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
        X, Xd = real(U, Ud)
        gauge = np.sqrt(np.sum(np.abs(*cplx(div.apply(0, X) + div.apply(1, Xd))) ** 2))
        h, m = induced_data_state(bg, t, lat, U, Ud)
        geom = bg.slice_at(t)
        res = dphi(InitialDataPair(h, m, geom))
        fro = [np.sqrt(np.sum(np.abs(sym2_to_full(f.coeffs, bg.n)) ** 2, axis=(1, 2)))
               for f in (h, m)]
        terms = np.einsum("ka,ab,kb->k", k, geom.metric_inv, k) * fro[0] + fro[1]
        scale = [sobolev_norm(SpectralField(lat, "scalar", terms[:, None]), s)
                 for s in (0.0, 1.0)]
        Udd, = cplx(FamilyAction(bg, "lichnerowicz", t, lat.modes).monic_closure(X, Xd))
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
        assert diag.modes == lat.half.stop
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


def test_diagnostics_name_the_mode_of_the_largest_residual_term():
    # per sample, the mode diagnostics reports for each residual carries the
    # largest per-mode term of its norm on the full lattice (k and -k tie on
    # real data), from the slow path: div hbar per mode, and dphi of the
    # induced data with the H^1 weight on DPhi_2; on real data it is a row
    # of the half lattice
    for traj in _real_trajectories():
        bg, lat = traj.background, traj.lattice
        states = traj.states.copy()
        states[1, 5, 3] += 1e-12  # off Hermitian symmetry: the full lattice
        nudged = Trajectory(bg, lat, traj.times, states, traj.derivs, traj.dt)
        sob = 1.0 + np.sum(lat.modes ** 2, axis=1)
        for tr, rows in ((traj, lat.half.stop), (nudged, lat.num_modes)):
            diag = diagnostics(tr)
            worst = np.stack([diag.worst_modes[key] for key in ("gauge", "dphi1", "dphi2")],
                             axis=1)
            assert worst.shape == (len(tr.times), 3, lat.n) and worst.dtype == lat.modes.dtype
            for i, t in enumerate(tr.times):
                U, Ud = tr.states[i], tr.derivs[i]
                div = FamilyAction(bg, "div_trace_reversed", t, lat.modes)
                X, Xd = real(U, Ud)
                g, = cplx(div.apply(0, X) + div.apply(1, Xd))
                h, m = induced_data_state(bg, t, lat, U, Ud)
                res = dphi(InitialDataPair(h, m, bg.slice_at(t)))
                terms = (np.sum(np.abs(g) ** 2, axis=1), np.abs(res.scalar.coeffs[:, 0]) ** 2,
                         sob * np.sum(np.abs(res.oneform.coeffs) ** 2, axis=1))
                for k, term in zip(worst[i], terms):
                    idx = lat.mode_index(k)
                    assert idx < rows, (k, rows)
                    assert term[idx] >= (1.0 - 1e-12) * term.max(), (i, k)


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
    assert diag.modes == lat.half.stop
    want = wave_energies(MINK, lat, 0.0, states[0], derivs[0])
    assert np.max(np.abs(diag.energies[0] - want)) <= 1e-14 * np.max(want)
    zero_derivs = derivs.copy()
    zero_derivs[0, [k, neg]] = 0.0
    only_zero = Trajectory(MINK, lat, np.array([0.0]), states * 0, zero_derivs)
    e0 = diagnostics(only_zero).energies[0, 0]
    w = component_weights("sym2", 4)
    assert abs(e0 - np.sqrt(np.abs(derivs[0, zero]) ** 2 @ w)) <= 1e-14 * e0


# ---------------------------------------------------------------------------
# Trajectories kept as the sampler wrote them
# ---------------------------------------------------------------------------


def _sampled_trajectory(bg):
    """evolve of random (constraint-violating) real data at nmax 8, kept in
    the sampler's real-form rows on the half lattice."""
    rng = np.random.default_rng(49)
    lat = ModeLattice(3, 8)
    geom = TORUS if bg is MINK else KSLICE
    pair = InitialDataPair(random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom)
    if bg is MINK:
        traj = evolve(build_cauchy_jet(pair, bg), 3.0, sample_times=[0.0, 1.1, 3.0])
    else:
        traj = evolve(build_cauchy_jet(pair, bg), 1.02, dt=1e-2, sample_times=[1.0, 1.01, 1.02])
    assert traj._rows[0] == lat.half
    return traj


def _series_bytes(diag):
    return [diag.times.tobytes(), diag.gauge_residual.tobytes(), diag.dphi1_residual.tobytes(),
            diag.dphi2_residual.tobytes(), diag.energies.tobytes(), diag.modes,
            *(diag.worst_modes[key].tobytes() for key in ("gauge", "dphi1", "dphi2"))]


@pytest.mark.parametrize("bg", [MINK, KAS], ids=["minkowski", "kasner"])
def test_diagnostics_of_sampled_rows_equal_those_of_the_full_arrays(bg):
    # residuals, energies and worst modes read off the sampler's rows equal,
    # bit for bit, those of a trajectory built from the complex arrays
    traj = _sampled_trajectory(bg)
    got = diagnostics(traj, sobolev_order=0.5)
    full = Trajectory(bg, traj.lattice, traj.times, traj.states.copy(), traj.derivs.copy(),
                      traj.dt)
    want = diagnostics(full, sobolev_order=0.5)
    assert got.modes == traj.lattice.half.stop
    assert _series_bytes(got) == _series_bytes(want)


@pytest.mark.parametrize("bg", [MINK, KAS], ids=["minkowski", "kasner"])
def test_a_read_of_the_states_is_a_copy(bg):
    # a write into the arrays states and derivs return reaches neither a
    # later read nor diagnostics: the trajectory keeps its rows only
    traj = _sampled_trajectory(bg)
    before = _series_bytes(diagnostics(traj))
    states, derivs = traj.states, traj.derivs
    for arr in (states, derivs):
        arr[1, 5, 3] += 1e-13j  # one coefficient off Hermitian symmetry
    assert not np.array_equal(traj.states, states)
    assert not np.array_equal(traj.derivs, derivs)
    assert _series_bytes(diagnostics(traj)) == before
    assert diagnostics(traj).modes == traj.lattice.half.stop


@pytest.mark.parametrize("bg", [MINK, KAS], ids=["minkowski", "kasner"])
def test_state_at_builds_only_the_sample_it_returns(bg):
    # tracemalloc peak of state_at above its start, in units of the complex
    # (state, rate) pair it returns (nmax 8, 1.57 MB): measured 1.37, the
    # pair, the kept rows of one array in complex form and the conversion's
    # temporaries; building the complex arrays of all three samples reads
    # above 3
    traj = _sampled_trajectory(bg)
    lat, t = traj.lattice, traj.times[1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        U, Ud = traj.state_at(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    pair = U.nbytes + Ud.nbytes
    assert U.shape == Ud.shape == (lat.num_modes, 10)
    assert peak <= 1.5 * pair, peak / pair
    assert U.tobytes() == traj.states[1].tobytes() and Ud.tobytes() == traj.derivs[1].tobytes()


# ---------------------------------------------------------------------------
# Pure-gauge trajectories and gauge recovery on the sampled rows
# ---------------------------------------------------------------------------


def _full_lattice_lie_trajectory(bg, lattice, times, W0, Wd0, dt):
    """Reference for lie_trajectory: the sampled W read as complex arrays on
    every mode, converted back to real form, lie_of_g and connection_wave
    applied on the full lattice, and the samples kept in lists and
    stacked."""
    times = np.asarray(times, float)
    w = evolution._samples(bg, lattice, ("connection_wave",), evolution._monic_rhs,
                           times[0], (W0, Wd0), times, dt, evolution._harmonic)
    conn, lie0 = (FamilyAction(bg, kind, times[0], lattice.modes)
                  for kind in ("connection_wave", "lie_of_g"))
    states, derivs = [], []
    for tau, W, Wd in zip(times, w.states, w.derivs):
        W, Wd = real_form(W, bg.dim), real_form(Wd, bg.dim)
        Wdd = conn.at(tau).monic_closure(W, Wd)
        lie = lie0.at(tau)
        rate = lie.rate()
        states.append(complex_form(lie.apply(0, W) + lie.apply(1, Wd), bg.dim))
        derivs.append(complex_form(
            rate.apply(0, W) + lie.apply(0, Wd) + rate.apply(1, Wd) + lie.apply(1, Wdd),
            bg.dim))
    return np.array(states), np.array(derivs)


def _full_lattice_deviation(traj, rec):
    """Reference for the deviation of recover_gauge_vector: ||h - Lie_V g||
    per sample from the complex arrays of h and V on every mode."""
    bg, lat = traj.background, traj.lattice
    wsym = component_weights("sym2", bg.dim)
    lie0 = FamilyAction(bg, "lie_of_g", traj.times[0], lat.modes)
    dev = []
    for t, U, V, Vd in zip(traj.times, traj.states, rec.V, rec.Vdot):
        lie = lie0.at(t)
        V, Vd = real_form(V, bg.dim), real_form(Vd, bg.dim)
        dev.append(weighted_norm(real_form(U, bg.dim) - (lie.apply(0, V) + lie.apply(1, Vd)),
                                 wsym))
    return np.array(dev)


def _pure_gauge_cases():
    """(bg, lattice, times, dt) at nmax 3 on the Minkowski torus and on Kasner."""
    return [(MINK, ModeLattice(3, 3), [0.5, 1.2, 3.9], None),
            (KAS, ModeLattice(3, 3), [1.0, 1.013, 1.05], 1e-2)]


@pytest.mark.parametrize("c", [1.0, 1.0 + 0.5j], ids=["real", "complex"])
def test_lie_trajectory_on_the_sampled_rows_equals_the_full_lattice_build(c):
    # real data keep the half lattice, complex data every mode
    rng = np.random.default_rng(50)
    for bg, lat, times, dt in _pure_gauge_cases():
        W0, Wd0 = c * hermitian_pair(lat, rng, 4), c * hermitian_pair(lat, rng, 4)
        lie = lie_trajectory(bg, lat, times, W0, Wd0, dt=dt)
        assert lie._rows[0] == (lat.half if c == 1.0 else slice(None))
        states, derivs = _full_lattice_lie_trajectory(bg, lat, times, W0, Wd0, dt)
        assert np.array_equal(lie.states, states), bg.kind
        assert np.array_equal(lie.derivs, derivs), bg.kind


@pytest.mark.parametrize("c", [1.0, 1.0 + 0.5j], ids=["real", "complex"])
def test_gauge_deviation_on_the_sampled_rows_matches_the_full_lattice(c):
    # h is evolved random data plus a pure-gauge trajectory, so the
    # deviation is of the order of h, well above round-off
    rng = np.random.default_rng(51)
    for bg, lat, times, dt in _pure_gauge_cases():
        U0, Ud0 = c * hermitian_pair(lat, rng, 10), c * hermitian_pair(lat, rng, 10)
        W0, Wd0 = c * hermitian_pair(lat, rng, 4), c * hermitian_pair(lat, rng, 4)
        wave = evolve_state(bg, lat, times[0], U0, Ud0, times[-1], dt, sample_times=times)
        lie = lie_trajectory(bg, lat, times, W0, Wd0, dt=dt)
        traj = Trajectory(bg, lat, wave.times, wave.states + lie.states,
                          wave.derivs + lie.derivs, dt)
        rec = recover_gauge_vector(traj)
        want = _full_lattice_deviation(traj, rec)
        assert np.all(want > 1e-3)
        assert np.max(np.abs(rec.deviation - want) / want) <= 1e-14, bg.kind


def _complex_difference(a, b):
    """Reference for trajectory_difference: the difference of the complex
    arrays, through the public constructor."""
    return Trajectory(a.background, a.lattice, a.times.copy(), a.states - b.states,
                      a.derivs - b.derivs, a.dt or b.dt)


def _wave_and_lie(bg, lat, times, dt, rng, c=1.0):
    """An evolved wave and a pure-gauge trajectory of random data times c."""
    U0, Ud0 = c * hermitian_pair(lat, rng, 10), c * hermitian_pair(lat, rng, 10)
    W0, Wd0 = c * hermitian_pair(lat, rng, 4), c * hermitian_pair(lat, rng, 4)
    return (evolve_state(bg, lat, times[0], U0, Ud0, times[-1], dt, sample_times=times),
            lie_trajectory(bg, lat, times, W0, Wd0, dt=dt))


def test_difference_of_half_row_trajectories_subtracts_their_rows():
    rng = np.random.default_rng(52)
    for bg, lat, times, dt in _pure_gauge_cases():
        wave, lie = _wave_and_lie(bg, lat, times, dt, rng)
        got, want = trajectory_difference(wave, lie), _complex_difference(wave, lie)
        assert got._rows[0] == want._rows[0] == lat.half
        for g, w in zip(got._rows[1:], want._rows[1:]):
            assert np.array_equal(g, w), bg.kind
        assert np.array_equal(got.states, want.states), bg.kind
        assert np.array_equal(got.derivs, want.derivs), bg.kind
        assert got.dt == dt and np.array_equal(got.times, times)


def test_difference_of_other_pairs_keeps_the_rows_of_the_complex_arrays():
    # a pair with a trajectory on every mode takes the difference of the
    # complex arrays: on every mode unless that difference is exactly
    # Hermitian, as the difference of a trajectory with itself is
    rng = np.random.default_rng(53)
    for bg, lat, times, dt in _pure_gauge_cases():
        half, _ = _wave_and_lie(bg, lat, times, dt, rng)
        full, _ = _wave_and_lie(bg, lat, times, dt, rng, 1.0 + 0.5j)
        assert (half._rows[0], full._rows[0]) == (lat.half, slice(None))
        for a, b, rows in ((full, half, slice(None)), (half, full, slice(None)),
                           (full, full, lat.half)):
            got, want = trajectory_difference(a, b), _complex_difference(a, b)
            assert got._rows[0] == want._rows[0] == rows
            for g, w in zip(got._rows[1:], want._rows[1:]):
                assert np.array_equal(g, w), bg.kind


def test_recovery_runs_on_the_rows_of_its_trajectory():
    # the first sample is exactly Hermitian and the later ones are not, so
    # the trajectory keeps every mode, and so does the recovery, though its
    # initial state would allow the half
    rng = np.random.default_rng(54)
    for bg, lat, times, dt in _pure_gauge_cases():
        wave, lie = _wave_and_lie(bg, lat, times, dt, rng)
        states, derivs = wave.states + lie.states, wave.derivs + lie.derivs
        states[1:] *= 1.0 + 0.5j
        traj = Trajectory(bg, lat, wave.times, states, derivs, dt)
        assert traj._rows[0] == slice(None)
        assert evolution._exactly_real(lat, [states[0], derivs[0]])
        rec = recover_gauge_vector(traj)
        assert rec.gauge._rows[0] == slice(None)
        want = _full_lattice_deviation(traj, rec)
        assert np.all(want > 1e-3)
        assert np.array_equal(rec.deviation, want), bg.kind
        # V depends on the first sample alone: the same as on the half, to
        # round-off, where the half mirrors the partner modes
        ref = recover_gauge_vector(Trajectory(bg, lat, wave.times, wave.states + lie.states,
                                              wave.derivs + lie.derivs, dt))
        assert ref.gauge._rows[0] == lat.half
        for a in ("V", "Vdot"):
            want = getattr(ref, a)
            assert np.max(np.abs(getattr(rec, a) - want)) <= 1e-14 * np.max(np.abs(want)), a


def test_half_row_difference_and_recovery_build_no_complex_samples(monkeypatch):
    rng = np.random.default_rng(55)
    calls = []
    build = Trajectory._complex

    def counting(self, X):
        calls.append(len(X))
        return build(self, X)

    monkeypatch.setattr(Trajectory, "_complex", counting)
    for bg, lat, times, dt in _pure_gauge_cases():
        wave, lie = _wave_and_lie(bg, lat, times, dt, rng)
        calls.clear()
        diff = trajectory_difference(wave, lie)
        assert calls == []
        recover_gauge_vector(diff)
        assert calls == [1, 1]  # state_at: the first sample's state and rate


def test_a_trajectory_built_with_a_list_of_times_keeps_them_as_floats():
    rng = np.random.default_rng(56)
    for bg, lat, times, dt in _pure_gauge_cases():
        wave, _ = _wave_and_lie(bg, lat, times, dt, rng)
        traj = Trajectory(bg, lat, list(times), wave.states, wave.derivs, dt)
        assert traj.times.dtype == float and np.array_equal(traj.times, wave.times)
        for got, want in zip(traj.state_at(times[1]), (wave.states[1], wave.derivs[1])):
            assert np.array_equal(got, want)
        got, want = diagnostics(traj), diagnostics(wave)
        assert np.array_equal(got.energies, want.energies)
        assert np.array_equal(got.gauge_residual, want.gauge_residual)
        got, want = recover_gauge_vector(traj), recover_gauge_vector(wave)
        assert np.array_equal(got.deviation, want.deviation)
        assert np.array_equal(got.V, want.V)
        assert not np.any(trajectory_difference(traj, wave).states)
