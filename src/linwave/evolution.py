"""Cauchy evolution of the gauge-fixed linearised Einstein equation.

Given slice data (h~, m~), the gauge choice

    h(X,Y) = h~(X,Y),  h(nu,X) = 0,  h(nu,nu) = 0,
    nabla_nu h(X,Y)  = 2 m~(X,Y) - (h~ o k~ + k~ o h~)(X,Y),
    nabla_nu h(nu,X) = div(h~ - 1/2 (tr h~) g~)(X),
    nabla_nu h(nu,nu) = -2 tr m~,

produces a jet with vanishing harmonic-gauge residual on the slice; the
wave equation box_L h = 0 then propagates both the gauge condition and the
linearised constraints.  Each Fourier mode evolves independently.  One
sampler, _samples, produces every trajectory of the wave equation, the
pure-gauge connection wave equation and the joint (V, h) system of gauge
recovery; it samples each system's first unknown and its rate, so gauge
recovery keeps V and V' only, as a Trajectory on the rows of the
trajectory it recovers.  The background chooses the method: closed
form on the Minkowski torus (which takes no dt) and classical 4th-order
RK4 at a fixed dt on Kasner.  Real data (c_{-k} = conj(c_k)) run on the
contiguous Hermitian half of the lattice, ModeLattice.half: in the
lattice's C order k -> -k reverses the mode index, so the half is a view
of the first rows, ending with k = 0.  The state is held in the real form
of spacetime.real_form, in which every mode operator is a real matrix per
k-monomial block: [Re; Im] of the parity-rotated components, 2N rows for
N modes, with each component's 2N values contiguous, so a block is one
real matrix product over all modes.  The sampler writes each sample once,
in that form, on the rows it ran on, and a Trajectory keeps its samples
in that form only: its complex (samples, modes, ncomp) arrays, with the
partner rows conjugated and reversed, are built afresh on every read,
identical to sampling every mode.  Every public function of this module
takes and returns complex (N, ncomp) components.  A trajectory holds its
samples only; induced data are extracted at sample times.  Diagnostics
track the gauge residual, the constraint residuals of the induced data,
and the wave energies E_0 and E_1, on the rows the trajectory keeps: on
the half for real trajectories, with each +-k pair counted twice in the
norms.  The gauge vector field of a pure-gauge solution is recovered by
solving the connection wave equation nabla*nabla V = -div(hbar); its
deviation ||h - Lie_V g||, the pure-gauge trajectories and the difference
of two trajectories on the half are computed on the rows as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import InitialDataPair
from .fields import (
    SpectralField,
    component_weights,
    rank_components,
    sym2_congruence_matrix,
    sym2_to_full,
    weighted_norm,
    zero_field,
)
from .slices import apply_slice_operator
from .spacetime import (
    CauchyJet,
    FamilyAction,
    SpacetimeBackground,
    complex_form,
    induced_data_state,
    nu_jet_conversion,
    real_form,
)

SLICE_MATCH_TOL = 1e-12


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


class Trajectory:
    """Per-mode solution samples for a whole lattice of modes, held only as
    the (rows, X, Xd) of _on_real_half: passed as rows= by the sampler, or
    converted once from complex (T, num_modes, ncomp) states and derivs.
    states and derivs build complex (T, num_modes, ncomp) arrays afresh on
    every read: a read is a copy, and no write reaches the trajectory."""

    def __init__(self, background: SpacetimeBackground, lattice, times: np.ndarray,
                 states: np.ndarray, derivs: np.ndarray, dt: float | None = None,
                 *, rows: tuple | None = None):
        self.background, self.lattice = background, lattice
        self.times = _sample_times(times)
        self.dt = dt  # RK4 step on Kasner; None on the Minkowski torus
        self._rows = rows or _real_rows(background, lattice, self.times, states, derivs)

    states = property(lambda self: self._complex(self._rows[1]))
    derivs = property(lambda self: self._complex(self._rows[2]))

    def _complex(self, X):
        """The complex (T, num_modes, ncomp) array of the samples X."""
        rows = self._rows[0]
        out = np.empty((len(X), self.lattice.num_modes, X.shape[1]), complex)
        for u, x in zip(out, X):
            kept = complex_form(x.T, self.background.dim)
            if rows.stop is not None:
                # conjugates first, so k = 0 keeps its own value; + 0.0 turns
                # the -0.0 imaginary part that conj gives a real coefficient
                # into +0.0
                partners = u[rows.stop - 1:]
                np.conjugate(kept[::-1], out=partners)
                partners += 0.0
            u[rows] = kept
            del kept  # freed before the next sample is converted: a lower peak
        return out

    def state_at(self, tau: float):
        """The stored sample (state, time derivative) at tau, to 1e-12, built
        alone; ValueError at any other time."""
        hit = np.nonzero(np.abs(self.times - tau) <= 1e-12)[0]
        if not len(hit):
            raise ValueError(
                f"time {tau} is not a sample time of the trajectory: it holds "
                f"{len(self.times)} samples from {self.times[0]} to {self.times[-1]}"
            )
        i = hit[0]
        return tuple(self._complex(X[i:i + 1])[0] for X in self._rows[1:])


@dataclass
class DiagnosticsSeries:
    """Gauge residual, constraint residuals, and energies along a run."""

    times: np.ndarray
    gauge_residual: np.ndarray
    dphi1_residual: np.ndarray
    dphi2_residual: np.ndarray
    energies: np.ndarray  # (T, 2): E_0 and E_1
    modes: int  # modes evaluated per sample: the half lattice for real data
    # "gauge", "dphi1", "dphi2" -> (T, n): per sample, the integer mode of
    # the largest per-mode term of that residual (see _residual)
    worst_modes: dict


@dataclass
class GaugeRecovery:
    """Recovered gauge one-form V and the deviation ||h - Lie_V g||.  V is
    kept as the Trajectory the sampler returned (its samples V and V', in
    real form on the rows they ran on); V and Vdot build complex
    (T, num_modes, dim) arrays afresh on every read, like Trajectory.states."""

    times: np.ndarray
    gauge: Trajectory
    deviation: np.ndarray
    relative_deviation: np.ndarray

    V = property(lambda self: self.gauge.states)
    Vdot = property(lambda self: self.gauge.derivs)


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
        ref.n != geom.n
        or np.max(np.abs(ref.metric - geom.metric)) > SLICE_MATCH_TOL
        or np.max(np.abs(ref.extrinsic - geom.extrinsic)) > SLICE_MATCH_TOL
    ):
        raise ValueError("initial-data slice does not match the background slice")
    lat = pair.h.lattice
    # h~ o k~ + k~ o h~ is X -> A^T X + X A at X = h~, A = g~^-1 k~, applied
    # to the stored components of h~
    mix = pair.h.coeffs @ sym2_congruence_matrix(geom.metric_inv @ geom.extrinsic)
    return CauchyJet(
        background,
        t0,
        zero_field(lat, "scalar"),
        zero_field(lat, "one-form"),
        SpectralField(lat, "sym2", pair.h.coeffs.copy()),
        apply_slice_operator(geom, "trace", pair.m) * -2.0,
        apply_slice_operator(
            geom, "divergence", apply_slice_operator(geom, "trace_reverse", pair.h)),
        SpectralField(lat, "sym2", 2.0 * pair.m.coeffs - mix),
    )


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def _require_finite_time(t):
    if not np.isfinite(t):
        raise ValueError(f"evolution times must be finite, got t = {t}")


def _sample_times(times) -> np.ndarray:
    times = np.asarray(times, float)
    if not len(times):
        raise ValueError("evolution needs at least one sample time")
    return times


def _step_count(span: float, dt: float) -> int:
    """The number of equal RK4 steps, each at most dt long, that cover span."""
    return max(1, int(np.ceil(abs(span) / dt - 1e-12)))


def _segments(t0, times):
    """Per sample time in order from t0, the (t, tau) interval the sampler
    integrates before it yields tau, or None for a sample within 1e-14 of
    the current time, which takes no step."""
    t = t0
    for tau in times:
        if np.isclose(tau, t, rtol=0, atol=1e-14):
            yield None
        else:
            yield t, tau
            t = tau


def rk4_steps(t0: float, times, dt: float | None) -> int:
    """RK4 steps taken to sample times in order from t0 at step dt: 0 with
    no dt (the Minkowski torus is solved in closed form)."""
    if dt is None:
        return 0
    return sum(_step_count(seg[1] - seg[0], dt) for seg in _segments(t0, times) if seg)


def _rk4(at, rhs, t0, y, t1, dt):
    """Classical RK4 for y' = rhs(at(t), y), y a tuple of arrays, from t0 to
    t1 in _step_count(t1 - t0, dt) equal steps; at(t) re-times the families.

    A step has three distinct stage times, t, t + h/2 and t + h, so at runs
    once per distinct time: k2 and k3 share the midpoint families, and the
    end-of-step families of k4 start the next step as its k1 families.
    This is exact, not a tolerance: t += h yields the same float as the
    t + h of stage 4, so every stage sees the families it would re-time
    itself, and the steps match four re-times per step bit for bit."""
    span = t1 - t0
    steps = _step_count(span, dt)
    h = span / steps
    t = t0
    start = at(t)

    def axpy(y, c, k):
        return tuple(a + c * b for a, b in zip(y, k))

    for _ in range(steps):
        k1 = rhs(start, y)
        mid = at(t + 0.5 * h)
        k2 = rhs(mid, axpy(y, 0.5 * h, k1))
        k3 = rhs(mid, axpy(y, 0.5 * h, k2))
        end = at(t + h)
        k4 = rhs(end, axpy(y, h, k3))
        y = tuple(
            a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        t += h
        start = end
    return y


def _exactly_real(lattice, arrays) -> bool:
    """True when every (num_modes, ncomp) array on lattice satisfies the
    Hermitian symmetry c_{-k} = conj(c_k) of a real field exactly, with no
    tolerance (+-0 equal, NaN unequal).  x[::-1] is x at -k, a view (see
    ModeLattice.half), and the symmetry of a pair holds at both of its
    modes when it holds at one, so the rows lattice.half are tested."""
    half = lattice.half
    return all(np.array_equal(x[::-1][half], np.conj(x[half])) for x in arrays)


def _on_real_half(lattice, y0, count, run, rows=None):
    """run(modes, y0) yields count samples, each the pair of real forms
    (see real_form) of the system's first unknown and its rate on modes;
    returns (rows, X, Xd): the lattice rows run saw, and two
    (count, ncomp, 2 len(rows)) arrays, into which sample i is written
    once, as it is yielded, as the transpose X[i].T of its real form.

    The mode operators have real coefficients, so evolution keeps
    c_{-k} = conj(c_k).  When every array of y0 satisfies it exactly, run
    sees views of the rows lattice.half of y0 and of the modes; on the
    full lattice their partners, rows half.stop - 1 onwards, hold them
    conjugated and reversed (see Trajectory._complex).  Otherwise run sees
    every mode.  Given rows (lattice.half or slice(None)), run sees those
    rows and y0 is not tested.  Each mode evolves on its own, so the kept
    modes match a full-lattice run."""
    if rows is None:
        rows = lattice.half if _exactly_real(lattice, y0) else slice(None)
    modes = lattice.modes[rows]
    out = tuple(np.empty((count, x.shape[1], 2 * len(modes))) for x in y0[:2])
    for i, y in enumerate(run(modes, tuple(x[rows] for x in y0))):
        for stored, x in zip(out, y):
            stored[i] = x.T
    return (rows, *out)


def _real_rows(bg, lattice, times, states, derivs):
    """The (rows, X, Xd) of Trajectory for complex samples, written as the
    sampler writes them, on the half when all of them are exactly Hermitian;
    ValueError unless each array holds the sym2 components of bg per sample
    time and mode."""
    T = len(times)
    want = (T, lattice.num_modes, rank_components("sym2", bg.dim))
    if np.shape(states) != want or np.shape(derivs) != want:
        raise ValueError(f"trajectory samples of shapes {np.shape(states)} and {np.shape(derivs)} "
                         f"do not match the {want} of (sample times, modes, sym2 components)")
    # run sees the kept rows of every sample: the T states, then the T derivs
    return _on_real_half(lattice, [*states, *derivs], T, lambda modes, y: (
        (real_form(u, bg.dim), real_form(ud, bg.dim)) for u, ud in zip(y[:T], y[T:])))


def _samples(bg, lattice, kinds, rhs, t0, y0, times, dt, exact, rows=None):
    """The one sampler of the mode systems: the sampled state (y[0], y[1])
    at each of times of y' = rhs(families, y), y(t0) = y0, with families
    one FamilyAction per name in kinds on the modes sampled, returned as a
    Trajectory whose samples are written once, in real form (see
    _on_real_half).  On the Minkowski torus, which takes no dt,
    exact(families, k2, y0, times - t0) yields them in closed form as
    complex arrays (k2 = |k|^2 per mode), each converted to the real form
    once.  On Kasner y0 is converted to the real form once (see real_form)
    and _rk4 steps it to the samples in order (see _segments), re-timing
    the families once per distinct stage time (see _rk4).  Runs on the
    given rows, or else on the real half of the lattice when y0 allows it
    (see _on_real_half)."""
    closed = bg.kind == "minkowski-torus"
    if closed and dt is not None:
        raise ValueError(
            f"the Minkowski torus is solved exactly and takes no dt, got dt = {dt}")
    if not closed and (dt is None or not (np.isfinite(dt) and dt > 0)):
        raise ValueError(
            f"time-dependent backgrounds need a positive finite dt, got dt = {dt}")
    times = _sample_times(times)
    for tau in (t0, *times):
        _require_finite_time(tau)

    def run(modes, y):
        families = [FamilyAction(bg, kind, t0, modes) for kind in kinds]
        if closed:
            for sample in exact(families, np.sum(modes ** 2, axis=1), y, times - t0):
                yield tuple(real_form(x, bg.dim) for x in sample)
            return

        def at(t):
            return [f.at(t) for f in families]

        y = tuple(real_form(x, bg.dim) for x in y)
        for seg in _segments(t0, times):
            if seg:
                y = _rk4(at, rhs, seg[0], y, seg[1], dt)
            yield y[:2]

    return Trajectory(bg, lattice, times, None, None, dt,
                      rows=_on_real_half(lattice, y0, len(times), run, rows))


def _monic_rhs(families, y):
    """(u, u')' of the monic second-order mode system families[0]."""
    return (y[1], families[0].monic_closure(*y))


def _harmonic(families, k2, y, offsets):
    """_monic_rhs solved on the Minkowski torus at each offset s, with no
    family: each component oscillates at frequency |k| (u + u' s at k = 0)."""
    U0, Ud0 = y
    w = np.sqrt(k2)
    for s in offsets:
        sn = np.sin(w * s)
        c = np.cos(w * s)[:, None]
        sinc = np.divide(sn, w, out=np.full_like(w, s), where=w > 0)[:, None]
        yield c * U0 + sinc * Ud0, c * Ud0 - (w * sn)[:, None] * U0


def evolve_state(bg: SpacetimeBackground, lattice, t0: float, U0, Ud0,
                 t_end: float, dt: float | None = None,
                 sample_times=None) -> Trajectory:
    """Evolve a per-mode state of box_L h = 0 from t0 to t_end."""
    if sample_times is None:
        sample_times = np.linspace(t0, t_end, 11)
    sample_times = np.asarray(sample_times, float)
    if bg.kind == "kasner" and (min(t0, t_end) <= 0 or np.min(sample_times) <= 0):
        raise ValueError("Kasner evolution cannot reach the singularity t <= 0")
    return _samples(bg, lattice, ("lichnerowicz",), _monic_rhs, t0, (U0, Ud0),
                    sample_times, dt, _harmonic)


def evolve(jet: CauchyJet, t_end: float, dt: float | None = None,
           sample_times=None) -> Trajectory:
    """Evolve a Cauchy jet: exact per-mode formula on the Minkowski torus,
    which takes no dt; fixed-step 4th-order integration at dt on Kasner."""
    U0, Ud0 = nu_jet_conversion(jet)
    return evolve_state(
        jet.background, jet.lattice, jet.t0, U0, Ud0, t_end, dt, sample_times
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _check_energy_args(sobolev_order: float):
    if not np.isfinite(sobolev_order):
        raise ValueError("Sobolev order must be finite")


def _energy_norms(k2, mult, w, stack, sobolev_order: float) -> np.ndarray:
    """(E_0, E_1) of wave_energies from the stack [u, u', u''] in real form
    (see real_form), on rows with squared mode norms k2: each row's term
    counted mult times, components weighted by w."""
    return np.array([
        float(np.sqrt(np.sum(
            mult * (1.0 + k2) ** (sobolev_order - j) * (k2 * (u ** 2 @ w) + v ** 2 @ w)
        )))
        for j, (u, v) in enumerate(zip(stack, stack[1:]))
    ])


def wave_energies(bg: SpacetimeBackground, lattice, t: float, U, Ud,
                  sobolev_order: float = 0.0) -> np.ndarray:
    """Conserved-type wave energies (E_0, E_1),

        E_j^2 = sum_k (1+|k|^2)^(s-j) sum_c w_c (|k|^2 |u_k^(j)|^2 + |u_k^(j+1)|^2);

    on the Minkowski torus each mode term is the exact harmonic-oscillator
    energy and E_j is constant in time.
    """
    _check_energy_args(sobolev_order)
    X, Xd = real_form(U, bg.dim), real_form(Ud, bg.dim)
    stack = [X, Xd, FamilyAction(bg, "lichnerowicz", t, lattice.modes).monic_closure(X, Xd)]
    k2 = np.tile(np.sum(lattice.modes ** 2, axis=1), 2)
    return _energy_norms(k2, 1.0, component_weights("sym2", bg.dim), stack, sobolev_order)


def _residual(x: np.ndarray, w: np.ndarray, mult: np.ndarray, sobolev=1.0):
    """weighted_norm(x, w, mult) of the real form x (see real_form) of N
    modes, mult per row, and the row among the N of the largest per-mode
    term sobolev * sum_c w_c |u_c|^2 (the first of tied k and -k)."""
    dens = np.square(x) @ w  # x is real: the |x|^2 of weighted_norm, exactly
    n = len(dens) // 2
    return float(np.sqrt(np.sum(mult * dens))), int(np.argmax(sobolev * (dens[:n] + dens[n:])))


def _row_weights(lattice, rows) -> np.ndarray:
    """Per kept row, how often its term counts in a sum over the whole
    lattice (see diagnostics)."""
    return lattice.half_weights() if rows.stop is not None else np.ones(lattice.num_modes)


def diagnostics(traj: Trajectory, sobolev_order: float = 0.0) -> DiagnosticsSeries:
    """Gauge residual ||div hbar||, the constraint residuals ||DPhi_1||_H0
    and ||DPhi_2||_H1 of the induced data, the wave energies (E_0, E_1),
    and the mode of the largest per-mode term of each residual, at every
    stored sample time.  The residuals are the families div_trace_reversed
    and dphi_induced (DPhi of the induced data) on the sample's real forms.

    The samples are read in real form on the rows the trajectory keeps
    them on (see Trajectory), with no test and no conversion.  On the half
    each sum weights its terms by lattice.half_weights(): k = 0 once and
    every other mode twice, for itself and -k, since every operator here
    has real coefficients, so the terms of k and -k are equal."""
    _check_energy_args(sobolev_order)
    bg, lat = traj.background, traj.lattice
    rows, *samples = traj._rows
    mult = _row_weights(lat, rows)
    modes = lat.modes[rows]
    k2 = np.sum(modes ** 2, axis=1)
    k2r, multr = np.tile(k2, 2), np.tile(mult, 2)  # per row of the real form
    div, wave, con = (FamilyAction(bg, kind, traj.times[0], modes)
                      for kind in ("div_trace_reversed", "lichnerowicz", "dphi_induced"))
    w_gauge = component_weights("one-form", bg.dim)
    w_sym = component_weights("sym2", bg.dim)
    w1, w2 = component_weights("scalar", bg.n), component_weights("one-form", bg.n)
    sob1 = 1.0 + k2  # the H^1 weight of DPhi_2
    mult1 = np.tile(mult * sob1, 2)
    res, en = [], []
    for t, X, Xd in zip(traj.times, *(S.transpose(0, 2, 1) for S in samples)):
        div_t, con_t = div.at(t), con.at(t)
        r = con_t.apply(0, X) + con_t.apply(1, Xd)  # DPhi_1, then DPhi_2
        res.append([_residual(div_t.apply(0, X) + div_t.apply(1, Xd), w_gauge, multr),
                    _residual(r[:, :1], w1, multr), _residual(r[:, 1:], w2, mult1, sob1)])
        del r  # freed before the energies' temporaries: a lower peak heap
        stack = [X, Xd, wave.at(t).monic_closure(X, Xd)]
        en.append(_energy_norms(k2r, multr, w_sym, stack, sobolev_order))
    res = np.array(res)  # (T, residual, (norm, row)); a row index is exact as a float
    worst = modes[res[..., 1].astype(int)]
    return DiagnosticsSeries(
        traj.times.copy(), *res[..., 0].T, np.array(en), len(modes),
        {key: worst[:, j] for j, key in enumerate(("gauge", "dphi1", "dphi2"))},
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


def _recovery_rhs(families, y):
    """Joint system of (V, h): the source -div(hbar) of the connection wave
    equation is evaluated from the co-evolved h state at every stage."""
    wave, div, conn = families
    V, Vd, U, Ud = y
    src = -(div.apply(0, U) + div.apply(1, Ud))
    return (Vd, src + conn.monic_closure(V, Vd), Ud, wave.monic_closure(U, Ud))


def _recovery_exact(families, k2, y, offsets):
    """_recovery_rhs solved on the Minkowski torus: the source -div(hbar)
    per mode is itself a frequency-|k| oscillation, so the resonant Duhamel
    integral is explicit.  Yields (V, V') only: h is the source, not a
    sample."""
    div = families[1]
    dim = div.background.dim
    V0, Vd0, U0, Ud0 = y
    X0, Xd0 = real_form(U0, dim), real_form(Ud0, dim)
    w = np.sqrt(k2)
    # S(s) = A cos(w s) + B sin(w s) with the harmonic evolution of (U, Ud);
    # wB = w B is regular at w = 0, where S = A + wB s
    A = complex_form(-(div.apply(0, X0) + div.apply(1, Xd0)), dim)
    wB = complex_form(-(div.apply(0, Xd0) - np.tile(k2, 2)[:, None] * div.apply(1, X0)), dim)
    for s, (V, Vd) in zip(offsets, _harmonic(families, k2, (V0, Vd0), offsets)):
        # resonant particular solution with zero initial value and velocity,
        # through sin(w s) / w -> s and (sin ws - ws cos ws) / (2 w^3) -> s^3 / 6
        sn, c = np.sin(w * s), np.cos(w * s)
        sinc = np.divide(sn, w, out=np.full_like(w, s), where=w > 0)[:, None]
        cube = np.divide(sn - w * s * c, 2 * w ** 3, out=np.full_like(w, s ** 3 / 6),
                         where=w > 0)[:, None]
        yield (V + 0.5 * s * sinc * A + cube * wB,
               Vd + 0.5 * (sinc + s * c[:, None]) * A + 0.5 * s * sinc * wB)


def recover_gauge_vector(traj: Trajectory) -> GaugeRecovery:
    """Solve nabla*nabla V = -div(hbar), V|_Sigma = 0, with the slice
    velocity above, jointly with h from its first sample, on the rows the
    trajectory keeps (see _on_real_half), and report ||h - Lie_V g|| along
    it from the two sets of rows, weighted as in diagnostics."""
    bg, lat, times = traj.background, traj.lattice, traj.times
    rows, Xs, _ = traj._rows
    U0, Ud0 = traj.state_at(times[0])
    V, Vd = _gauge_initial_state(bg, U0)
    gauge = _samples(
        bg, lat, ("lichnerowicz", "div_trace_reversed", "connection_wave"), _recovery_rhs,
        times[0], (V, Vd, U0, Ud0), times, traj.dt, _recovery_exact, rows,
    )
    mult = np.tile(_row_weights(lat, rows), 2)
    wsym = component_weights("sym2", bg.dim)
    lie0 = FamilyAction(bg, "lie_of_g", times[0], lat.modes[rows])
    dev, rel = [], []
    for t, X, V, Vd in zip(times, Xs, *gauge._rows[1:]):
        lie = lie0.at(t)
        d = weighted_norm(X.T - (lie.apply(0, V.T) + lie.apply(1, Vd.T)), wsym, mult)
        s = weighted_norm(X.T, wsym, mult)
        dev.append(d)
        rel.append(d / max(s, 1e-30))
    return GaugeRecovery(times.copy(), gauge, np.array(dev), np.array(rel))


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
    spacetime._coefficient_table), differentiated in closed form.  h is
    built in real form on the rows W was sampled on (see _on_real_half)
    and kept there."""
    times = _sample_times(times)
    w = _samples(bg, lattice, ("connection_wave",), _monic_rhs, times[0], (W0, Wd0),
                 times, dt, _harmonic)
    rows, Ws, Wds = w._rows
    conn, lie0 = (FamilyAction(bg, kind, times[0], lattice.modes[rows])
                  for kind in ("connection_wave", "lie_of_g"))
    X, Xd = (np.empty((len(times), rank_components("sym2", bg.dim), Ws.shape[2]))
             for _ in range(2))
    for i, tau in enumerate(times):
        W, Wd = Ws[i].T, Wds[i].T
        Wdd = conn.at(tau).monic_closure(W, Wd)
        lie = lie0.at(tau)
        rate = lie.rate()
        X[i] = (lie.apply(0, W) + lie.apply(1, Wd)).T
        Xd[i] = (rate.apply(0, W) + lie.apply(0, Wd) + rate.apply(1, Wd) + lie.apply(1, Wdd)).T
    return Trajectory(bg, lattice, times, None, None, dt, rows=(rows, X, Xd))


def trajectory_difference(a: Trajectory, b: Trajectory) -> Trajectory:
    """Pointwise difference of two trajectories on the same samples.  Two
    trajectories that both keep the half give the difference of their rows,
    which is Hermitian too; any other pair goes through the complex arrays,
    whose difference keeps the rows the constructor chooses for it."""
    if a.background != b.background or a.lattice != b.lattice:
        raise ValueError("trajectories live on different backgrounds")
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-12:
        raise ValueError("trajectories have different sample times")
    if a._rows[0].stop is not None and b._rows[0].stop is not None:
        rows = (a._rows[0], *(x - y for x, y in zip(a._rows[1:], b._rows[1:])))
        return Trajectory(a.background, a.lattice, a.times.copy(), None, None,
                          a.dt or b.dt, rows=rows)
    return Trajectory(
        a.background, a.lattice, a.times.copy(),
        a.states - b.states, a.derivs - b.derivs, dt=a.dt or b.dt,
    )
