"""Acceptance suite: one test per advertised guarantee, each printing a
single PASS/FAIL line with the measured figure of merit."""

import time

import numpy as np
import pytest

import linwave.invariant as inv
from linwave.constraints import (
    InitialDataPair,
    constraint_residual,
    dphi,
    dphi_oracle,
    normal_identities,
)
from linwave.decomposition import (
    gauge_producing_data,
    kernel_basis,
    moncrief_project,
    split_params,
    split_solve,
)
from linwave.evolution import (
    build_cauchy_jet,
    diagnostics,
    evolve,
    extract_induced_data,
    lie_trajectory,
    recover_gauge_vector,
    trajectory_difference,
)
from linwave.fields import (
    ModeLattice,
    SpectralField,
    dirac_partial_sum,
    random_field,
    sobolev_norm,
    zero_field,
)
from linwave.slices import (
    apply_slice_operator,
    slice_geometry,
)
from linwave.spacetime import CauchyJet, spacetime_background

from fd_oracles import synthesize

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
TORUS = slice_geometry("flat-torus", n=3)
BERGER = slice_geometry("berger")
MINK = spacetime_background("minkowski-torus", n=3)
KAS = spacetime_background("kasner", p=KASNER_P)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num: int, name: str, ok: bool, detail: str, t0: float, budget: float):
    wall = time.perf_counter() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} — {detail} ({wall:.1f}s)"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", end="", flush=True)
    else:
        print(line)
    assert ok, line
    assert wall < budget, f"criterion {num} exceeded its {budget:.0f}s budget: {wall:.1f}s"


def hermitian(lat, rng, comps):
    arr = rng.standard_normal((lat.num_modes, comps)) + 1j * rng.standard_normal(
        (lat.num_modes, comps)
    )
    perm = lat.negation_permutation()
    return 0.5 * (arr + np.conj(arr[perm]))


def test_criterion_01_background_validity():
    t0 = time.perf_counter()
    worst = 0.0
    for geom in (TORUS, slice_geometry("kasner", p=KASNER_P, t0=1.0), BERGER):
        r1, r2 = constraint_residual(geom)
        worst = max(worst, abs(r1), abs(r2))
    gi = BERGER.metric_inv
    ric = float(
        np.sqrt(np.einsum("ac,bd,ab,cd->", gi, gi, BERGER.ricci, BERGER.ricci))
    )
    ok = worst <= 1e-12 and ric >= 0.1
    report(1, "background validity", ok,
           f"max Phi residual {worst:.2e} <= 1e-12, Berger ||Ric|| {ric:.2f} >= 0.1",
           t0, 1.0)


def test_criterion_02_linearisation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for kind, kw in [("flat-torus", dict(n=3)), ("kasner", dict(p=KASNER_P, t0=1.3))]:
        geom = slice_geometry(kind, **kw)
        lat = ModeLattice(3, 8)
        for _ in range(10):
            pair = InitialDataPair(
                random_field(lat, "sym2", rng, decay=2.0),
                random_field(lat, "sym2", rng, decay=2.0),
                geom,
            )
            a, b = dphi(pair), dphi_oracle(pair)
            for x, y in ((a.scalar, b.scalar), (a.oneform, b.oneform)):
                worst = max(
                    worst,
                    np.max(np.abs(x.coeffs - y.coeffs)) / np.max(np.abs(x.coeffs)),
                )
    for _ in range(10):
        pair = InitialDataPair(
            inv.InvariantField("sym2", rng.standard_normal(6)),
            inv.InvariantField("sym2", rng.standard_normal(6)),
            BERGER,
        )
        a, b = dphi(pair), dphi_oracle(pair)
        scale = max(abs(a.scalar.components[0]), np.max(np.abs(a.oneform.components)))
        worst = max(
            worst,
            abs(a.scalar.components[0] - b.scalar.components[0]) / scale,
            np.max(np.abs(a.oneform.components - b.oneform.components)) / scale,
        )
    ok = worst <= 1e-6
    report(2, "linearisation vs finite-difference oracle", ok,
           f"max relative deviation {worst:.2e} <= 1e-6 over 10 pairs x 3 slice kinds",
           t0, 30.0)


def test_criterion_03_normal_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    lat = ModeLattice(3, 2)
    worst = 0.0
    for bg, t in ((MINK, 0.0), (KAS, 1.3)):
        for _ in range(10):
            jet = CauchyJet(
                bg, t,
                random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
                random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
                random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
            )
            res = normal_identities(jet)
            worst = max(worst, res["identity4_rel"], res["identity5_rel"])
    ok = worst <= 1e-8
    report(3, "constraint identities of the linearised Ricci tensor", ok,
           f"max relative residual {worst:.2e} <= 1e-8 on 10 jets x 2 backgrounds",
           t0, 30.0)


def test_criterion_04_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    lat = ModeLattice(3, 8)
    worst = 0.0
    for which in ("position", "momentum"):
        src = random_field(lat, "sym2", rng)
        r = split_solve(src, which, TORUS)
        worst = max(worst, max(r.residuals.values()))
        again = split_solve(r.gamma_part, which, TORUS)
        worst = max(worst, np.max(np.abs(again.omega.coeffs)),
                    np.max(np.abs(again.phi.coeffs)), abs(again.C))
        srcb = inv.InvariantField("sym2", rng.standard_normal(6))
        rb = split_solve(srcb, which, BERGER)
        worst = max(worst, max(rb.residuals.values()))
    # uniqueness up to the kernel: adding a pure L xi term leaves gamma fixed
    src = random_field(lat, "sym2", rng)
    xi = random_field(lat, "one-form", rng)
    Lxi = apply_slice_operator(TORUS, "conformal_killing", xi)
    ra = split_solve(src, "position", TORUS)
    rb = split_solve(SpectralField(lat, "sym2", src.coeffs + Lxi.coeffs),
                     "position", TORUS)
    uniq = np.max(np.abs(ra.gamma_part.coeffs - rb.gamma_part.coeffs))
    worst = max(worst, uniq, abs(ra.C - rb.C))
    # alpha = Ric on Berger must come back as C = 1 exactly
    geo = BERGER.invariant_geometry
    rc = split_solve(inv.InvariantField("sym2", geo.ricci_sym6()), "position", BERGER)
    cdev = abs(rc.C - 1.0)
    ok = worst <= 1e-10 and cdev <= 1e-10
    report(4, "generalized TT decomposition", ok,
           f"max residual {worst:.2e} <= 1e-10, Berger C(Ric) = 1 +- {cdev:.1e}",
           t0, 10.0)


def test_criterion_05_kernel_dimensions():
    t0 = time.perf_counter()
    lat = ModeLattice(3, 2)
    dims = {}
    for which in ("position", "momentum"):
        p = split_params(which, 3)
        dims[("torus", which)] = len(kernel_basis(p, TORUS, lat))
        dims[("berger", which)] = len(kernel_basis(p, BERGER))
    ok = (
        dims[("torus", "position")] == dims[("torus", "momentum")] == 4
        and dims[("berger", "position")] == dims[("berger", "momentum")] == 2
    )
    report(5, "kernel dimensions of the defining operator", ok,
           f"flat torus dim {dims[('torus','position')]}/{dims[('torus','momentum')]} = 4, "
           f"Berger dim {dims[('berger','position')]}/{dims[('berger','momentum')]} = 2 "
           "for both parameter pairs",
           t0, 5.0)


def test_criterion_06_moncrief_split():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    lat = ModeLattice(3, 3)
    worst = 0.0
    for _ in range(10):
        pair = InitialDataPair(
            random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), TORUS
        )
        ms = moncrief_project(pair)
        worst = max(worst, ms.report["p_star_oneform"], ms.report["p_star_scalar"],
                    ms.report["orthogonality"])
    gp = gauge_producing_data(
        random_field(lat, "scalar", rng), random_field(lat, "one-form", rng), TORUS
    )
    msg = moncrief_project(gp)
    scale = max(np.max(np.abs(gp.h.coeffs)), np.max(np.abs(gp.m.coeffs)))
    leak = max(np.max(np.abs(msg.gamma_h.coeffs)),
               np.max(np.abs(msg.gamma_m.coeffs))) / scale
    ok = worst <= 1e-10 and leak <= 1e-10
    report(6, "gauge/constraint splitting of initial data", ok,
           f"max P*/orthogonality residual {worst:.2e} <= 1e-10, "
           f"pure-gauge leakage {leak:.2e} <= 1e-10",
           t0, 10.0)


def test_criterion_07_gauge_and_constraint_propagation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(24)
    lat = ModeLattice(3, 8)

    def unit(rank):
        f = random_field(lat, rank, rng, decay=2.0)
        return SpectralField(lat, rank, f.coeffs / sobolev_norm(f, 1.0))

    # Minkowski, exact propagation over [0, 10]
    gp = gauge_producing_data(unit("scalar"), unit("one-form"), TORUS)
    traj = evolve(build_cauchy_jet(gp, MINK), 10.0, sample_times=np.linspace(0, 10, 6))
    dm = diagnostics(traj)
    mink_worst = max(dm.gauge_residual.max(), dm.dphi1_residual.max(),
                     dm.dphi2_residual.max())
    # Kasner, dt = 1e-3 over [1, 2]
    KSL = slice_geometry("kasner", p=KASNER_P, t0=1.0)
    gpk = gauge_producing_data(unit("scalar"), unit("one-form"), KSL)
    trk = evolve(build_cauchy_jet(gpk, KAS), 2.0, dt=1e-3,
                 sample_times=np.linspace(1.0, 2.0, 5))
    dk = diagnostics(trk)
    kas_worst = max(dk.gauge_residual.max(), dk.dphi1_residual.max(),
                    dk.dphi2_residual.max())
    # 4th-order defect check under dt halving (small lattice)
    lat2 = ModeLattice(3, 2)
    pair = InitialDataPair(
        random_field(lat2, "sym2", rng), random_field(lat2, "sym2", rng), KSL
    )
    jet = build_cauchy_jet(pair, KAS)
    ref = evolve(jet, 1.25, dt=1e-3 / 8, sample_times=[1.0, 1.25])
    defect = {
        dt: np.max(np.abs(evolve(jet, 1.25, dt=dt, sample_times=[1.0, 1.25]).states[-1]
                          - ref.states[-1]))
        for dt in (2e-3, 1e-3)
    }
    factor = defect[2e-3] / defect[1e-3]
    ok = mink_worst <= 1e-12 and kas_worst <= 1e-8 and factor >= 14.0
    report(7, "gauge and constraint propagation", ok,
           f"Minkowski residuals {mink_worst:.2e} <= 1e-12, Kasner {kas_worst:.2e} "
           f"<= 1e-8 at dt=1e-3, dt-halving defect factor {factor:.1f} >= 14",
           t0, 120.0)


def test_criterion_08_gauge_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(25)
    lat = ModeLattice(3, 2)
    # evolved gauge data, reduced to vanishing induced data by subtracting the
    # exact Lie_W g trajectory of the co-evolved gauge field W
    W0 = hermitian(lat, rng, 4)
    Wd0 = hermitian(lat, rng, 4)
    N = SpectralField(lat, "scalar", -W0[:, :1])
    beta = SpectralField(lat, "one-form", W0[:, 1:])
    gp = gauge_producing_data(N, beta, TORUS)
    times = np.linspace(0.0, 10.0, 6)
    trh = evolve(build_cauchy_jet(gp, MINK), 10.0, sample_times=times)
    trg = lie_trajectory(MINK, lat, times, W0, Wd0)
    rec = recover_gauge_vector(trajectory_difference(trh, trg))
    gauge_dev = rec.relative_deviation.max()
    # a TT standing wave is certified non-gauge
    h = zero_field(lat, "sym2")
    for i, s in [(lat.mode_index((1, 0, 0)), 0.5), (lat.mode_index((-1, 0, 0)), 0.5)]:
        h.coeffs[i, 3] = s
        h.coeffs[i, 5] = -s
    tt = evolve(build_cauchy_jet(InitialDataPair(h, zero_field(lat, "sym2"), TORUS),
                                 MINK), 2.0, sample_times=[0.0, 1.0, 2.0])
    tt_dev = recover_gauge_vector(tt).relative_deviation.min()
    ok = gauge_dev <= 1e-9 and tt_dev >= 0.5
    report(8, "gauge-vector recovery", ok,
           f"pure-gauge relative deviation {gauge_dev:.2e} <= 1e-9, "
           f"TT-wave deviation {tt_dev:.2f} >= 0.5",
           t0, 60.0)


def test_criterion_09_sobolev_spectrum():
    t0 = time.perf_counter()
    Ks = [64, 128, 256, 512]
    order = 2
    cauchy = [dirac_partial_sum(order, -3.0, K) for K in Ks]  # H^{-n-1} squared
    diverg = [dirac_partial_sum(order, -2.0, K) for K in Ks]  # H^{-n} squared
    diffs = np.diff(cauchy)
    dratios = diffs[1:] / diffs[:-1]  # ~ 1/2 when tails shrink like 1/nmax
    gratios = np.array(diverg[1:]) / np.array(diverg[:-1])  # ~ 2 for linear growth
    ok = (
        np.all(diffs > 0)
        and np.all(np.abs(dratios - 0.5) < 0.1)
        and np.all(np.abs(gratios - 2.0) < 0.2)
    )
    report(9, "Sobolev spectrum of derivative-of-Dirac data", ok,
           f"H^-3 tail ratios {np.round(dratios, 3).tolist()} ~ 1/2 (Cauchy), "
           f"H^-2 growth ratios {np.round(gratios, 3).tolist()} ~ 2 (divergent)",
           t0, 10.0)


def test_criterion_10_finite_speed():
    t0 = time.perf_counter()
    n, nmax, G = 2, 32, 128
    lat = ModeLattice(n, nmax)
    geom = slice_geometry("flat-torus", n=n)
    bg = spacetime_background("minkowski-torus", n=n)
    sigma, center = 0.3, np.array([np.pi, np.pi])
    k = lat.modes.astype(float)
    k2 = np.einsum("ma,ma->m", k, k)
    bump = (sigma ** 2 / (2 * np.pi)) * np.exp(-0.5 * sigma ** 2 * k2) * np.exp(
        -1j * k @ center
    )
    h = zero_field(lat, "sym2")
    h.coeffs[:, 0] = bump  # f(x) dx^1 dx^1
    pair = InitialDataPair(h, zero_field(lat, "sym2"), geom)
    # radius containing 99.9999% of the data's L^2 mass
    r0 = sigma * np.sqrt(np.log(1e6))
    T = 1.0
    traj = evolve(build_cauchy_jet(pair, bg), T, sample_times=[0.0, T])
    hT = extract_induced_data(traj, T).h
    grid = synthesize(hT, G)
    x = 2 * np.pi * np.arange(G) / G
    X, Y = np.meshgrid(x, x, indexing="ij")
    # torus distance to the bump center
    dx = np.minimum(np.abs(X - center[0]), 2 * np.pi - np.abs(X - center[0]))
    dy = np.minimum(np.abs(Y - center[1]), 2 * np.pi - np.abs(Y - center[1]))
    dist = np.sqrt(dx ** 2 + dy ** 2)
    weights = np.array([1.0, 2.0, 1.0])  # sym2 multiplicities in n = 2
    dens = np.einsum("xyc,c->xy", np.abs(grid) ** 2, weights)
    cone = r0 + T + 5 * (2 * np.pi / G)
    frac = float(dens[dist > cone].sum() / dens.sum())
    ok = frac <= 1e-6
    report(10, "finite propagation speed", ok,
           f"mass fraction outside cone radius {cone:.2f} is {frac:.2e} <= 1e-6",
           t0, 30.0)


def test_criterion_11_stable_dependence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(26)
    lat = ModeLattice(3, 4)
    sk = 1.0  # data measured in H^k x H^{k-1} with k = 1
    base = InitialDataPair(
        random_field(lat, "sym2", rng, decay=2.0),
        random_field(lat, "sym2", rng, decay=2.0),
        TORUS,
    )
    dh = random_field(lat, "sym2", rng, decay=2.0)
    dm = random_field(lat, "sym2", rng, decay=2.0)
    ref = evolve(build_cauchy_jet(base, MINK), 1.0, sample_times=[0.0, 1.0])
    href = extract_induced_data(ref, 1.0)
    ratios = []
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        pert = InitialDataPair(
            SpectralField(lat, "sym2", base.h.coeffs + eps * dh.coeffs),
            SpectralField(lat, "sym2", base.m.coeffs + eps * dm.coeffs),
            TORUS,
        )
        d = np.hypot(eps * sobolev_norm(dh, sk), eps * sobolev_norm(dm, sk - 1))
        tr = evolve(build_cauchy_jet(pert, MINK), 1.0, sample_times=[0.0, 1.0])
        out = extract_induced_data(tr, 1.0)
        e = np.hypot(
            sobolev_norm(SpectralField(lat, "sym2", out.h.coeffs - href.h.coeffs), sk),
            sobolev_norm(SpectralField(lat, "sym2", out.m.coeffs - href.m.coeffs),
                         sk - 1),
        )
        dists.append(d)
        ratios.append(e / d)
    ratios = np.array(ratios)
    spread = float(ratios.max() / ratios.min())
    converging = all(
        dists[i + 1] < dists[i] and ratios[i + 1] * dists[i + 1] < ratios[i] * dists[i]
        for i in range(len(dists) - 1)
    )
    ok = converging and spread <= 10.0
    report(11, "stable dependence on initial data", ok,
           f"solution/data error ratios {np.round(ratios, 3).tolist()} "
           f"spread x{spread:.2f} <= 10 along a converging sequence",
           t0, 60.0)
