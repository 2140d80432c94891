"""Cauchy evolution of the gauge-fixed linearised Einstein equation.

Given slice data (h~, m~), the gauge choice

    h(X,Y) = h~(X,Y),  h(nu,X) = 0,  h(nu,nu) = 0,
    nabla_nu h(X,Y)  = 2 m~(X,Y) - (h~ o k~ + k~ o h~)(X,Y),
    nabla_nu h(nu,X) = div(h~ - 1/2 (tr h~) g~)(X),
    nabla_nu h(nu,nu) = -2 tr m~,

produces a jet with vanishing harmonic-gauge residual on the slice; the
wave equation box_L h = 0 then propagates both the gauge condition and the
linearised constraints.  Each Fourier mode evolves independently: in
closed form on the Minkowski torus, and otherwise by one classical
4th-order sampler, _rk4_samples, which integrates the wave equation, the
pure-gauge connection wave equation and the joint (h, V) system of gauge
recovery alike, and re-integrates between samples for dense output.  It
integrates real data (c_{-k} = conj(c_k)) on half the lattice and mirrors
them, with output identical to integrating every mode.  Diagnostics track
the gauge residual, the constraint residuals of the induced data, and
per-mode wave energies; on real trajectories they are evaluated on the
same half, with each +-k pair counted twice in the norms, and on any
other trajectory on the full lattice.  The gauge vector field of a
pure-gauge solution is recovered by solving the connection wave equation
nabla*nabla V = -div(hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import InitialDataPair, dphi_modes
from .fields import (
    SpectralField,
    component_weights,
    sym2_from_full,
    sym2_to_full,
    weighted_norm,
    zero_field,
)
from .spacetime import (
    CauchyJet,
    FamilyAction,
    SpacetimeBackground,
    induced_data_modes,
    induced_data_state,
    nu_jet_conversion,
)

SLICE_MATCH_TOL = 1e-12


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Per-mode solution samples for a whole lattice of modes."""

    background: SpacetimeBackground
    lattice: object
    times: np.ndarray
    states: np.ndarray  # (T, num_modes, ncomp)
    derivs: np.ndarray
    dt: float | None = None  # None marks the exact (Minkowski) propagator

    def state_at(self, tau: float):
        """Dense output: exact formula on Minkowski, re-integration on Kasner."""
        lo, hi = min(self.times[0], self.times[-1]), max(self.times[0], self.times[-1])
        if not lo - 1e-12 <= tau <= hi + 1e-12:
            raise ValueError(f"time {tau} outside trajectory range [{lo}, {hi}]")
        hit = np.nonzero(np.isclose(self.times, tau, rtol=0, atol=1e-12))[0]
        if len(hit):
            i = hit[0]
            return self.states[i].copy(), self.derivs[i].copy()
        if self.dt is None:
            return _minkowski_state(
                self.lattice, self.states[0], self.derivs[0], tau - self.times[0]
            )
        direction = np.sign(self.times[-1] - self.times[0]) or 1.0
        behind = (tau - self.times) * direction >= 0
        i = int(np.argmin(np.where(behind, np.abs(tau - self.times), np.inf)))
        return _rk4_samples(
            self.background, self.lattice, ("lichnerowicz",), _monic_rhs,
            self.times[i], (self.states[i], self.derivs[i]), [tau], self.dt,
        )[0]


@dataclass
class DiagnosticsSeries:
    """Gauge residual, constraint residuals, and energies along a run."""

    times: np.ndarray
    gauge_residual: np.ndarray
    dphi1_residual: np.ndarray
    dphi2_residual: np.ndarray
    energies: np.ndarray  # (T, J+1)
    modes: int  # modes evaluated per sample: the half lattice for real data


@dataclass
class GaugeRecovery:
    """Recovered gauge one-form V and the deviation ||h - Lie_V g||."""

    times: np.ndarray
    V: np.ndarray  # (T, num_modes, dim)
    Vdot: np.ndarray
    deviation: np.ndarray
    relative_deviation: np.ndarray


# ---------------------------------------------------------------------------
# Building the Cauchy jet from slice data
# ---------------------------------------------------------------------------


def build_cauchy_jet(pair: InitialDataPair, background: SpacetimeBackground,
                     t0: float | None = None) -> CauchyJet:
    """Gauge-choice jet for slice data (h~, m~); see the module docstring."""
    geom = pair.geom
    if not geom.is_torus:
        raise ValueError("evolution operates on torus backgrounds")
    if t0 is None:
        t0 = float(geom.params.get("t0", 0.0)) if geom.kind == "kasner" else 0.0
    ref = background.slice_at(t0)
    if (
        np.max(np.abs(ref.metric - geom.metric)) > SLICE_MATCH_TOL
        or np.max(np.abs(ref.extrinsic - geom.extrinsic)) > SLICE_MATCH_TOL
    ):
        raise ValueError("initial-data slice does not match the background slice")
    lat = pair.h.lattice
    n = geom.n
    gi = geom.metric_inv
    K = geom.extrinsic
    h = sym2_to_full(pair.h.coeffs, n)
    m = sym2_to_full(pair.m.coeffs, n)
    tr_h = np.einsum("ab,kab->k", gi, h)
    tr_m = np.einsum("ab,kab->k", gi, m)
    kup = lat.modes.astype(float) @ gi.T
    hbar = h - 0.5 * tr_h[:, None, None] * geom.metric[None]
    div_hbar = 1j * np.einsum("ka,kab->kb", kup, hbar)
    hk = np.einsum("kab,bc,cd->kad", h, gi, K)
    mix = hk + np.transpose(hk, (0, 2, 1))  # h~ o k~ + k~ o h~
    return CauchyJet(
        background,
        t0,
        zero_field(lat, "scalar"),
        zero_field(lat, "one-form"),
        SpectralField(lat, "sym2", pair.h.coeffs.copy()),
        SpectralField(lat, "scalar", -2.0 * tr_m[:, None]),
        SpectralField(lat, "one-form", div_hbar),
        SpectralField(lat, "sym2", sym2_from_full(2.0 * m - mix, n)),
    )


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def _require_finite_time(t):
    if not np.isfinite(t):
        raise ValueError(f"evolution times must be finite, got t = {t}")


def _minkowski_state(lattice, U0, Ud0, s):
    """Closed-form wave propagation: each component is a harmonic oscillator
    with frequency |k| (A + B s on the zero mode)."""
    _require_finite_time(s)
    k = lattice.modes.astype(float)
    w = np.sqrt(np.einsum("ma,ma->m", k, k))
    sn = np.sin(w * s)
    c = np.cos(w * s)[:, None]
    sinc = np.divide(sn, w, out=np.full_like(w, s), where=w > 0)[:, None]
    return c * U0 + sinc * Ud0, c * Ud0 - (w * sn)[:, None] * U0


def _rk4(acc, t0, y, t1, dt):
    """Classical RK4 for y' = acc(t, y), y a tuple of arrays, from t0 to t1
    in ceil(|t1 - t0| / dt) equal steps."""
    span = t1 - t0
    steps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / steps
    t = t0

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


def _exactly_real(lattice, arrays) -> bool:
    """True when every (num_modes, ncomp) array satisfies the Hermitian
    symmetry c_{-k} = conj(c_k) of a real field exactly, with no tolerance."""
    perm = lattice.negation_permutation()
    return all(np.array_equal(x[perm], np.conj(x)) for x in arrays)


def _on_real_half(lattice, y0, run):
    """run(modes, y0) -> list of states, each a tuple of (modes, ncomp)
    arrays, computed on the half of the lattice a real field determines.

    The mode operators have real coefficients, so evolution keeps
    c_{-k} = conj(c_k).  When every array of y0 satisfies it exactly, run
    sees only the modes of lattice.half_indices() and the rest of each
    result is mirrored; otherwise run sees the full lattice.  Each mode
    evolves on its own, so the kept modes match a full-lattice run."""
    if not _exactly_real(lattice, y0):
        return run(lattice.modes, y0)
    perm = lattice.negation_permutation()
    half = lattice.half_indices()

    def mirror(x):
        full = np.empty((lattice.num_modes,) + x.shape[1:], x.dtype)
        # conjugates first, so k = 0 keeps its own value; + 0.0 turns the
        # -0.0 imaginary part that conj gives a real coefficient into +0.0
        full[perm[half]] = np.conj(x) + 0.0
        full[half] = x
        return full

    out = run(lattice.modes[half], tuple(x[half] for x in y0))
    return [tuple(mirror(x) for x in y) for y in out]


def _rk4_samples(bg, lattice, kinds, rhs, t0, y0, times, dt):
    """The one fixed-step integrator of the mode systems: the state at each
    of times of y' = rhs(families, y), y(t0) = y0, where families holds one
    FamilyAction per name in kinds on the modes integrated, re-timed to each
    RK4 stage.  _rk4 steps to the samples in order; a sample within 1e-14 of
    the current time takes no step.  Runs on the real half of the lattice
    when y0 allows it (see _on_real_half)."""
    if dt is None or not (np.isfinite(dt) and dt > 0):
        raise ValueError(
            f"time-dependent backgrounds need a positive finite dt, got dt = {dt}"
        )
    times = np.asarray(times, float)
    for tau in (t0, *times):
        _require_finite_time(tau)

    def run(modes, y):
        families = [FamilyAction(bg, kind, t0, modes) for kind in kinds]

        def acc(t, y):
            return rhs([f.at(t) for f in families], y)

        out, t = [], t0
        for tau in times:
            if not np.isclose(tau, t, rtol=0, atol=1e-14):
                y = _rk4(acc, t, y, tau, dt)
                t = tau
            out.append(y)
        return out

    return _on_real_half(lattice, y0, run)


def _monic_rhs(families, y):
    """(u, u')' of the monic second-order mode system families[0]."""
    return (y[1], families[0].monic_closure(*y))


def evolve_state(bg: SpacetimeBackground, lattice, t0: float, U0, Ud0,
                 t_end: float, dt: float | None = None,
                 sample_times=None) -> Trajectory:
    """Evolve a per-mode state of box_L h = 0 from t0 to t_end."""
    if sample_times is None:
        sample_times = np.linspace(t0, t_end, 11)
    sample_times = np.asarray(sample_times, float)
    if bg.kind == "minkowski-torus" and dt is None:
        states, derivs = [], []
        for tau in sample_times:
            U, Ud = _minkowski_state(lattice, U0, Ud0, tau - t0)
            states.append(U)
            derivs.append(Ud)
        return Trajectory(bg, lattice, sample_times, np.array(states), np.array(derivs))
    if bg.kind == "kasner" and (min(t0, t_end) <= 0 or np.min(sample_times) <= 0):
        raise ValueError("Kasner evolution cannot reach the singularity t <= 0")
    ys = _rk4_samples(bg, lattice, ("lichnerowicz",), _monic_rhs, t0, (U0, Ud0),
                      sample_times, dt)
    return Trajectory(bg, lattice, sample_times, np.array([y[0] for y in ys]),
                      np.array([y[1] for y in ys]), dt=dt)


def evolve(jet: CauchyJet, t_end: float, dt: float | None = None,
           sample_times=None) -> Trajectory:
    """Evolve a Cauchy jet; exact per-mode formula on Minkowski when dt is
    omitted, fixed-step 4th-order integration otherwise."""
    U0, Ud0 = nu_jet_conversion(jet)
    return evolve_state(
        jet.background, jet.lattice, jet.t0, U0, Ud0, t_end, dt, sample_times
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _check_energy_args(sobolev_order: float, J: int):
    if J not in (0, 1):
        raise ValueError("energies are available for J in {0, 1}")
    if not np.isfinite(sobolev_order):
        raise ValueError("Sobolev order must be finite")


def _energy_norms(k2, mult, w, stack, sobolev_order: float) -> np.ndarray:
    """E_j of wave_energies for j = 0..len(stack) - 2, from the per-mode
    stack [u, u', u'', ...] on modes with squared norms k2: each mode's
    term counted mult times, components weighted by w."""
    return np.array([
        float(np.sqrt(np.sum(
            mult * (1.0 + k2) ** (sobolev_order - j)
            * (k2 * (np.abs(u) ** 2 @ w) + np.abs(v) ** 2 @ w)
        )))
        for j, (u, v) in enumerate(zip(stack, stack[1:]))
    ])


def wave_energies(bg: SpacetimeBackground, lattice, t: float, U, Ud,
                  sobolev_order: float = 0.0, J: int = 1) -> np.ndarray:
    """Conserved-type wave energies

        E_j^2 = sum_k (1+|k|^2)^(s-j) sum_c w_c (|k|^2 |u_k^(j)|^2 + |u_k^(j+1)|^2)

    for j = 0..J (J <= 1); on the Minkowski torus each mode term is the
    exact harmonic-oscillator energy and E_j is constant in time.
    """
    _check_energy_args(sobolev_order, J)
    stack = [U, Ud]
    if J >= 1:
        stack.append(FamilyAction(bg, "lichnerowicz", t, lattice.modes).monic_closure(U, Ud))
    k2 = np.sum(lattice.modes ** 2, axis=1)
    return _energy_norms(k2, 1.0, component_weights("sym2", bg.dim), stack, sobolev_order)


def diagnostics(traj: Trajectory, sobolev_order: float = 0.0,
                J: int = 1) -> DiagnosticsSeries:
    """Gauge residual ||div hbar||, the constraint residuals ||DPhi_1||_H0
    and ||DPhi_2||_H1 of the induced data, and wave energies at every
    stored sample time.

    When every state and derivative sample is exactly Hermitian (the test
    of _on_real_half), only the modes of lattice.half_indices() are
    evaluated, and each sum counts k = 0 once and every other mode twice,
    for itself and -k: every operator here has real coefficients, so the
    terms of k and -k are equal.  Any other trajectory is evaluated on the
    full lattice, each mode once."""
    _check_energy_args(sobolev_order, J)
    bg, lat = traj.background, traj.lattice
    if _exactly_real(lat, [*traj.states, *traj.derivs]):
        idx = lat.half_indices()
        mult = np.where(lat.negation_permutation()[idx] == idx, 1.0, 2.0)
    else:
        idx = np.arange(lat.num_modes)
        mult = np.ones(lat.num_modes)
    modes = lat.modes[idx]
    k2 = np.sum(modes ** 2, axis=1)
    div = FamilyAction(bg, "div_trace_reversed", traj.times[0], modes)
    wave = FamilyAction(bg, "lichnerowicz", traj.times[0], modes) if J else None
    w_gauge = component_weights("one-form", bg.dim)
    w_sym = component_weights("sym2", bg.dim)
    w1, w2 = component_weights("scalar", bg.n), component_weights("one-form", bg.n)
    mult1 = mult * (1.0 + k2)  # the H^1 weight of DPhi_2
    gauge, d1, d2, en = [], [], [], []
    for i, t in enumerate(traj.times):
        U, Ud = traj.states[i][idx], traj.derivs[i][idx]
        div_t = div.at(t)
        gauge.append(weighted_norm(div_t.apply(0, U) + div_t.apply(1, Ud), w_gauge, mult))
        h, m = induced_data_modes(bg, t, modes, U, Ud)
        r1, r2 = dphi_modes(bg.slice_at(t), modes, h, m)
        d1.append(weighted_norm(r1[:, None], w1, mult))
        d2.append(weighted_norm(r2, w2, mult1))
        stack = [U, Ud] + ([wave.at(t).monic_closure(U, Ud)] if J else [])
        en.append(_energy_norms(k2, mult, w_sym, stack, sobolev_order))
    return DiagnosticsSeries(
        traj.times.copy(), np.array(gauge), np.array(d1), np.array(d2), np.array(en),
        len(modes),
    )


def extract_induced_data(traj: Trajectory, tau: float) -> InitialDataPair:
    """Induced slice data (h~(tau), m~(tau)) of an evolved solution."""
    U, Ud = traj.state_at(tau)
    bg = traj.background
    htilde, mtilde = induced_data_state(bg, tau, traj.lattice, U, Ud)
    return InitialDataPair(htilde, mtilde, bg.slice_at(tau))


# ---------------------------------------------------------------------------
# Gauge-vector recovery
# ---------------------------------------------------------------------------


def _gauge_initial_state(bg: SpacetimeBackground, U0):
    """V|_Sigma = 0 and nabla_nu V|_Sigma = 1/2 h(nu,nu) nu + h(nu,.)#,
    written as the coordinate one-form state (V, dV/dt)."""
    Vd0 = sym2_to_full(U0, bg.dim)[:, 0].astype(complex)  # h(nu, .)
    Vd0[:, 0] *= 0.5  # (1/2 h(nu,nu) nu)^flat_0 + h_00 = -1/2 h00 + h00
    # V = 0 on the slice, so the Christoffel correction to dV/dt vanishes
    return np.zeros_like(Vd0), Vd0


def recover_gauge_vector(traj: Trajectory) -> GaugeRecovery:
    """Solve nabla*nabla V = -div(hbar), V|_Sigma = 0, with the slice
    velocity above, and report ||h - Lie_V g|| along the trajectory."""
    bg = traj.background
    lat = traj.lattice
    times = traj.times
    V, Vd = _gauge_initial_state(bg, traj.states[0])
    wsym = component_weights("sym2", bg.dim)
    if traj.dt is None:
        Vs, Vds = _recover_minkowski(bg, lat, traj, V, Vd)
    else:
        Vs, Vds = _recover_kasner(bg, lat, traj, V, Vd)
    lie0 = FamilyAction(bg, "lie_of_g", times[0], lat.modes)
    dev, rel = [], []
    for i, t in enumerate(times):
        lie = lie0.at(t)
        diff = traj.states[i] - (lie.apply(0, Vs[i]) + lie.apply(1, Vds[i]))
        d = weighted_norm(diff, wsym)
        s = weighted_norm(traj.states[i], wsym)
        dev.append(d)
        rel.append(d / max(s, 1e-30))
    return GaugeRecovery(
        times.copy(), np.array(Vs), np.array(Vds), np.array(dev), np.array(rel)
    )


def _recover_minkowski(bg, lat, traj, V0, Vd0):
    """Exact solve on Minkowski: the source -div(hbar) per mode is itself a
    frequency-|k| oscillation, so the resonant Duhamel integral is explicit."""
    k = lat.modes.astype(float)
    k2 = np.einsum("ma,ma->m", k, k)
    w = np.sqrt(k2)
    nz = w > 0
    U0, Ud0 = traj.states[0], traj.derivs[0]
    div = FamilyAction(bg, "div_trace_reversed", traj.times[0], lat.modes)
    D0Ud0 = div.apply(0, Ud0)
    # S(t) = A cos(w s) + B sin(w s) with the harmonic evolution of (U, Ud)
    A = -(div.apply(0, U0) + div.apply(1, Ud0))
    B = np.zeros_like(A)
    B[nz] = -(D0Ud0[nz] / w[nz][:, None] - w[nz][:, None] * div.apply(1, U0)[nz])
    S1 = -D0Ud0[~nz]  # zero mode: S = A + S1 s
    Vs, Vds = [], []
    for tau in traj.times:
        s = tau - traj.times[0]
        V, Vd = _minkowski_state(lat, V0, Vd0, s)
        # resonant particular solution with zero initial value and velocity
        c = np.cos(w * s)[:, None]
        sn = np.sin(w * s)[:, None]
        wn = w[nz][:, None]
        V[nz] += A[nz] * s * sn[nz] / (2 * wn) + B[nz] * (sn[nz] - wn * s * c[nz]) / (
            2 * wn ** 2
        )
        Vd[nz] += (
            A[nz] * (sn[nz] + wn * s * c[nz]) / (2 * wn) + B[nz] * s * sn[nz] / 2
        )
        V[~nz] += A[~nz] * s ** 2 / 2 + S1 * s ** 3 / 6
        Vd[~nz] += A[~nz] * s + S1 * s ** 2 / 2
        Vs.append(V)
        Vds.append(Vd)
    return Vs, Vds


def _recover_kasner(bg, lat, traj, V0, Vd0):
    """Joint 4th-order integration of (h, V): the source of the connection
    wave equation is evaluated from the co-evolved h state at every stage."""

    def rhs(families, y):
        wave, div, conn = families
        U, Ud, V, Vd = y
        src = -(div.apply(0, U) + div.apply(1, Ud))
        return (Ud, wave.monic_closure(U, Ud), Vd, src + conn.monic_closure(V, Vd))

    ys = _rk4_samples(
        bg, lat, ("lichnerowicz", "div_trace_reversed", "connection_wave"), rhs,
        traj.times[0], (traj.states[0], traj.derivs[0], V0, Vd0), traj.times, traj.dt,
    )
    return [y[2] for y in ys], [y[3] for y in ys]


# ---------------------------------------------------------------------------
# Pure-gauge trajectories (for recovery tests and end-to-end checks)
# ---------------------------------------------------------------------------


def lie_trajectory(bg: SpacetimeBackground, lattice, times, W0, Wd0,
                   dt: float | None = None) -> Trajectory:
    """The trajectory of h = Lie_W g, where the one-form W solves the
    connection wave equation nabla*nabla W = 0 from the jet (W0, Wd0).

    Such an h solves box_L h = 0, so this produces exact pure-gauge
    solutions to compare against.  The time derivative of the Lie operator
    is exact: each coefficient of its family is a power of t (see
    family_coefficients), differentiated in closed form.
    """
    times = np.asarray(times, float)
    if bg.kind == "minkowski-torus":
        Ws = [_minkowski_state(lattice, W0, Wd0, tau - times[0]) for tau in times]
    else:
        Ws = _rk4_samples(bg, lattice, ("connection_wave",), _monic_rhs, times[0],
                          (W0, Wd0), times, dt)
    conn, lie0 = (FamilyAction(bg, kind, times[0], lattice.modes)
                  for kind in ("connection_wave", "lie_of_g"))
    states, derivs = [], []
    for tau, (W, Wd) in zip(times, Ws):
        Wdd = conn.at(tau).monic_closure(W, Wd)
        lie = lie0.at(tau)
        rate = lie.rate()
        states.append(lie.apply(0, W) + lie.apply(1, Wd))
        derivs.append(
            rate.apply(0, W) + lie.apply(0, Wd) + rate.apply(1, Wd) + lie.apply(1, Wdd)
        )
    return Trajectory(bg, lattice, times, np.array(states), np.array(derivs), dt=dt)


def trajectory_difference(a: Trajectory, b: Trajectory) -> Trajectory:
    """Pointwise difference of two trajectories on the same samples."""
    if a.background != b.background or a.lattice != b.lattice:
        raise ValueError("trajectories live on different backgrounds")
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-12:
        raise ValueError("trajectories have different sample times")
    return Trajectory(
        a.background, a.lattice, a.times.copy(),
        a.states - b.states, a.derivs - b.derivs, dt=a.dt or b.dt,
    )
