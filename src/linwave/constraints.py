"""The vacuum constraint map, its linearisation, and their cross-checks.

Nonlinear constraints of a slice (g~, k~):

    Phi_1 = Scal(g~) - g~(k~, k~) + (tr k~)^2,
    Phi_2 = div k~ - d tr k~.

dphi evaluates the full linearisation around the background slice data,
including every extrinsic-curvature term; dphi_oracle re-derives it from
the nonlinear map by central differencing, with the nonlinear scalar
curvature computed pointwise through 4th-order finite differences whose
stencil values come from phase-shifted spectral synthesis (exact offset
grids, no interpolation).  normal_identities checks the two identities
linking the linearised Ricci tensor to dphi on extendable Cauchy jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import invariant as inv
from .fields import (
    SpectralField,
    analyze,
    sobolev_norm,
    sym2_index_pairs,
    synthesize_shifted,
    zero_field,
)
from .slices import SliceGeometry, _full_from_sym2, _sym2_from_full
from .spacetime import (
    CauchyJet,
    FamilyAction,
    induced_data_state,
    nu_jet_conversion,
    st_pairs,
)

ORACLE_EPS = 1e-5
ORACLE_STEP = 1e-3


@dataclass
class InitialDataPair:
    """Linearised first and second fundamental forms on a slice."""

    h: object  # sym2 SpectralField (torus) or InvariantField (berger)
    m: object
    geom: SliceGeometry
    order: float = 2.0  # declared Sobolev regularity of h

    def __post_init__(self):
        if self.h.rank != "sym2" or self.m.rank != "sym2":
            raise ValueError("initial data must be symmetric 2-tensors")
        if self.geom.is_torus:
            if not isinstance(self.h, SpectralField) or self.h.lattice != self.m.lattice:
                raise ValueError("torus data must share one mode lattice")
        elif not isinstance(self.h, inv.InvariantField):
            raise ValueError("invariant slices carry invariant fields")


@dataclass
class ConstraintResidual:
    """DPhi evaluated on a pair: scalar and one-form parts plus norms."""

    scalar: object
    oneform: object
    norms: dict = dc_field(default_factory=dict)

    def max_norm(self) -> float:
        return max(self.norms.values()) if self.norms else 0.0


def _torus_norms(scalar: SpectralField, oneform: SpectralField, orders) -> dict:
    out = {}
    for s in orders:
        out[f"dphi1_H{s:g}"] = sobolev_norm(scalar, s)
        out[f"dphi2_H{s:g}"] = sobolev_norm(oneform, s)
    return out


# ---------------------------------------------------------------------------
# The nonlinear map Phi
# ---------------------------------------------------------------------------


def phi(gdata, kdata, geom: SliceGeometry, npts: int | None = None,
        step: float = ORACLE_STEP):
    """Nonlinear constraints of metric data gdata and extrinsic data kdata.

    Torus backends: both arguments are sym2 SpectralFields holding the FULL
    fields (background constants on the zero mode); returns SpectralFields.
    Invariant backend: both arguments are 3x3 frame matrices (or sym2
    InvariantFields); returns (float, length-3 array).
    """
    if not geom.is_torus:
        G = gdata.components if isinstance(gdata, inv.InvariantField) else gdata
        K = kdata.components if isinstance(kdata, inv.InvariantField) else kdata
        G = inv.sym6_to_mat(G) if np.shape(G) == (6,) else np.asarray(G, float)
        K = inv.sym6_to_mat(K) if np.shape(K) == (6,) else np.asarray(K, float)
        return _phi_invariant(G, K)
    gs = _shifted_samples(gdata, npts, step, second=True)
    ks = _shifted_samples(kdata, npts, step, second=False)
    p1, p2 = _phi_pointwise(gs, ks, gdata.lattice.n, step)
    lat = gdata.lattice
    return (
        analyze(p1, "scalar", lat),
        analyze(p2, "one-form", lat),
    )


def _phi_invariant(G: np.ndarray, K: np.ndarray):
    geo = inv.InvariantGeometry(inv.HomogeneousFrame(metric=G))
    gi = np.linalg.inv(G)
    kk = float(np.einsum("ia,jb,ij,ab->", gi, gi, K, K))
    trk = float(np.einsum("ij,ij->", gi, K))
    phi1 = geo.scal - kk + trk ** 2
    n2 = inv._nabla_twotensor(geo)
    divk = np.einsum("ab,abjpq,pq->j", gi, n2, K)
    # d tr k vanishes on invariant sections (constants)
    return phi1, divk


def _shifted_samples(field: SpectralField, npts: int | None, step: float,
                     second: bool) -> dict:
    """Sample a band-limited sym2 field on the base grid and on the exact
    offset grids a 4th-order stencil needs, as full (..., n, n) matrices."""
    lat = field.lattice
    n = lat.n
    if npts is None:
        npts = max(lat.modes_per_axis, 16)

    def grab(shift):
        arr = synthesize_shifted(field, npts, shift)
        imag = float(np.max(np.abs(arr.imag)))
        if imag > 1e-10 * max(1.0, float(np.max(np.abs(arr.real)))):
            raise ValueError("metric samples came out complex; data not real")
        return _full_from_sym2(arr.real.reshape(npts ** n, -1), n)

    offs = (-2, -1, 1, 2)
    out = {"0": grab(None), "npts": npts}
    for a in range(n):
        for mshift in offs:
            e = np.zeros(n)
            e[a] = mshift * step
            out[f"{a}:{mshift}"] = grab(e)
    if second:
        for a in range(n):
            for b in range(a + 1, n):
                for ma in offs:
                    for mb in offs:
                        e = np.zeros(n)
                        e[a] = ma * step
                        e[b] = mb * step
                        out[f"{a}{b}:{ma}{mb}"] = grab(e)
    return out


def _stencil_first(samp: dict, axis: int, step: float) -> np.ndarray:
    return (
        -samp[f"{axis}:2"] + 8 * samp[f"{axis}:1"]
        - 8 * samp[f"{axis}:-1"] + samp[f"{axis}:-2"]
    ) / (12 * step)


def _stencil_second_diag(samp: dict, axis: int, step: float) -> np.ndarray:
    return (
        -samp[f"{axis}:2"] + 16 * samp[f"{axis}:1"] - 30 * samp["0"]
        + 16 * samp[f"{axis}:-1"] - samp[f"{axis}:-2"]
    ) / (12 * step ** 2)


def _stencil_second_cross(samp: dict, a: int, b: int, step: float) -> np.ndarray:
    w = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}
    acc = 0.0
    for ma, wa in w.items():
        for mb, wb in w.items():
            acc = acc + wa * wb * samp[f"{a}{b}:{ma}{mb}"]
    return acc / (144 * step ** 2)


def _phi_pointwise(gs: dict, ks: dict, n: int, step: float):
    """Pointwise constraints from sampled metric/extrinsic data.

    Axis conventions: p = grid point; dg has axes [a, p, c, d] = d_a g_cd,
    d2g has axes [e, a, p, c, d] = d_e d_a g_cd.
    """
    npts = gs["npts"]
    g = gs["0"]
    k = ks["0"]
    gi = np.linalg.inv(g)
    dg = np.stack([_stencil_first(gs, a, step) for a in range(n)])
    dk = np.stack([_stencil_first(ks, a, step) for a in range(n)])
    d2g = np.zeros((n, n) + g.shape)
    for a in range(n):
        d2g[a, a] = _stencil_second_diag(gs, a, step)
        for b in range(a + 1, n):
            d2g[a, b] = _stencil_second_cross(gs, a, b, step)
            d2g[b, a] = d2g[a, b]
    dgi = -np.einsum("pce,apef,pfd->apcd", gi, dg, gi)
    # Koszul bracket br[a, p, d, b] = d_a g_db + d_b g_da - d_d g_ab
    br = (
        np.einsum("apdb->apdb", dg)
        + np.einsum("bpda->apdb", dg)
        - np.einsum("dpab->apdb", dg)
    )
    dbr = (
        np.einsum("eapdb->eapdb", d2g)
        + np.einsum("ebpda->eapdb", d2g)
        - np.einsum("edpab->eapdb", d2g)
    )
    gam = 0.5 * np.einsum("pcd,apdb->pcab", gi, br)
    dgam = 0.5 * (
        np.einsum("epcd,apdb->epcab", dgi, br)
        + np.einsum("pcd,eapdb->epcab", gi, dbr)
    )
    ric = (
        np.einsum("cpcab->pab", dgam)
        - np.einsum("apccb->pab", dgam)
        + np.einsum("pccm,pmab->pab", gam, gam)
        - np.einsum("pcam,pmcb->pab", gam, gam)
    )
    scal = np.einsum("pab,pab->p", gi, ric)
    kk = np.einsum("pia,pjb,pij,pab->p", gi, gi, k, k)
    trk = np.einsum("pij,pij->p", gi, k)
    phi1 = scal - kk + trk ** 2
    divk = (
        np.einsum("pab,apbx->px", gi, dk)
        - np.einsum("pab,pmab,pmx->px", gi, gam, k)
        - np.einsum("pab,pmax,pbm->px", gi, gam, k)
    )
    dtrk = np.einsum("xpab,pab->px", dgi, k) + np.einsum("pab,xpab->px", gi, dk)
    phi2 = divk - dtrk
    shape = (npts,) * n
    return phi1.reshape(shape), phi2.reshape(shape + (n,))


# ---------------------------------------------------------------------------
# The linearised map DPhi
# ---------------------------------------------------------------------------


def dphi(pair: InitialDataPair, norm_orders=None) -> ConstraintResidual:
    """Full linearisation of Phi around the background slice data."""
    geom = pair.geom
    if geom.is_torus:
        return _dphi_torus(pair, norm_orders)
    return _dphi_invariant(pair)


def _dphi_torus(pair: InitialDataPair, norm_orders=None) -> ConstraintResidual:
    geom = pair.geom
    lat = pair.h.lattice
    n = lat.n
    G = geom.metric
    gi = geom.metric_inv
    K = geom.extrinsic
    modes = lat.modes.astype(float)
    kup = modes @ gi.T
    h = _full_from_sym2(pair.h.coeffs, n)
    m = _full_from_sym2(pair.m.coeffs, n)
    tr_h = np.einsum("ab,kab->k", gi, h)
    tr_m = np.einsum("ab,kab->k", gi, m)
    k2 = np.einsum("ka,ka->k", kup, modes)
    divdivh = -np.einsum("ka,kb,kab->k", kup, kup, h)
    ric = geom.ricci  # identically zero on flat slices; kept in the code path
    ric_up = gi @ ric @ gi
    kok = K @ gi @ K  # (k~ o k~)_ab = g~(k~(a,.), k~(b,.))
    A_up = gi @ (2.0 * (kok - np.trace(gi @ K) * K)) @ gi
    K_up = gi @ K @ gi
    dphi1 = (
        divdivh
        + k2 * tr_h
        - np.einsum("ab,kab->k", ric_up, h)
        + np.einsum("ab,kab->k", A_up, h)
        - 2.0 * (np.einsum("ab,kab->k", K_up, m) - np.trace(gi @ K) * tr_m)
    )
    # DPhi_2: the term g~(h~, nabla k~(., X)) vanishes identically here
    # because the background extrinsic curvature is parallel on a flat slice.
    hbar = h - 0.5 * tr_h[:, None, None] * G[None]
    divhbar = 1j * np.einsum("ka,kab->kb", kup, hbar)
    term2 = -np.einsum("ax,ab,kb->kx", K, gi, divhbar)
    gKh = np.einsum("ab,kab->k", K_up, h)
    term34 = 0.5j * modes * gKh[:, None]
    term5 = 1j * (np.einsum("ka,kax->kx", kup, m) - tr_m[:, None] * modes)
    dphi2 = term2 + term34 + term5
    scalar = SpectralField(lat, "scalar", dphi1[:, None])
    oneform = SpectralField(lat, "one-form", dphi2)
    if norm_orders is None:
        norm_orders = (pair.order - 2.0, pair.order - 1.0)
    return ConstraintResidual(scalar, oneform, _torus_norms(scalar, oneform, norm_orders))


def _dphi_invariant(pair: InitialDataPair) -> ConstraintResidual:
    geom = pair.geom
    geo = geom.invariant_geometry
    gi = geom.metric_inv
    G6 = inv.mat_to_sym6(geom.metric)
    ric = geom.ricci
    h6 = pair.h.components
    m6 = pair.m.components
    hmat = inv.sym6_to_mat(h6)
    mmat = inv.sym6_to_mat(m6)
    # k~ = 0 on the invariant backend: DPhi reduces to
    # (div div h~ - g~(Ric, h~),  div(m~ - (tr m~) g~));  d tr terms are
    # derivatives of invariant scalars and vanish identically.
    div_s = inv.operator_matrix(geo, "div")
    div_1 = inv.operator_matrix(geo, "div_oneform")
    divdivh = div_1(div_s(pair.h)).components[0]
    gRich = float(np.einsum("ac,bd,ab,cd->", gi, gi, ric, hmat))
    phi1 = divdivh - gRich
    tr_m = float(np.einsum("ab,ab->", gi, mmat))
    phi2 = div_s(inv.InvariantField("sym2", m6 - tr_m * G6)).components
    scalar = inv.InvariantField("scalar", np.array([phi1]))
    oneform = inv.InvariantField("one-form", phi2)
    vol = geo.volume
    n1 = abs(phi1) * np.sqrt(vol)
    n2 = float(np.sqrt(max(phi2 @ inv.gram_matrix(geo, "one-form") @ phi2, 0.0)))
    return ConstraintResidual(scalar, oneform, {"dphi1_L2": n1, "dphi2_L2": n2})


def dphi_oracle(pair: InitialDataPair, eps: float = ORACLE_EPS,
                step: float = ORACLE_STEP, npts: int | None = None) -> ConstraintResidual:
    """Central-difference linearisation of the nonlinear map:
    [Phi(g~ + eps h~, k~ + eps m~) - Phi(g~ - eps h~, k~ - eps m~)] / (2 eps)."""
    geom = pair.geom
    if not geom.is_torus:
        G, K = geom.metric, geom.extrinsic
        hmat = inv.sym6_to_mat(pair.h.components)
        mmat = inv.sym6_to_mat(pair.m.components)
        p1p, p2p = _phi_invariant(G + eps * hmat, K + eps * mmat)
        p1m, p2m = _phi_invariant(G - eps * hmat, K - eps * mmat)
        scalar = inv.InvariantField("scalar", np.array([(p1p - p1m) / (2 * eps)]))
        oneform = inv.InvariantField("one-form", (p2p - p2m) / (2 * eps))
        geo = geom.invariant_geometry
        vol = geo.volume
        n1 = abs(scalar.components[0]) * np.sqrt(vol)
        w = oneform.components
        n2 = float(np.sqrt(max(w @ inv.gram_matrix(geo, "one-form") @ w, 0.0)))
        return ConstraintResidual(scalar, oneform, {"dphi1_L2": n1, "dphi2_L2": n2})
    if getattr(pair.h, "dirac", None) is not None or getattr(pair.m, "dirac", None) is not None:
        raise ValueError("oracle needs pointwise values; distributional data rejected")
    lat = pair.h.lattice
    n = lat.n
    hs = _shifted_samples(pair.h, npts, step, second=True)
    ms = _shifted_samples(pair.m, npts, step, second=False)
    G, K = pair.geom.metric, pair.geom.extrinsic

    def with_background(samples, base, scale):
        out = {"npts": samples["npts"]}
        for key, val in samples.items():
            if key == "npts":
                continue
            out[key] = base[None] + scale * val
        return out

    results = []
    for sign in (+1.0, -1.0):
        gs = with_background(hs, G, sign * eps)
        ks = with_background(ms, K, sign * eps)
        results.append(_phi_pointwise(gs, ks, n, step))
    p1 = (results[0][0] - results[1][0]) / (2 * eps)
    p2 = (results[0][1] - results[1][1]) / (2 * eps)
    scalar = analyze(p1, "scalar", lat)
    oneform = analyze(p2, "one-form", lat)
    orders = (pair.order - 2.0, pair.order - 1.0)
    return ConstraintResidual(scalar, oneform, _torus_norms(scalar, oneform, orders))


# ---------------------------------------------------------------------------
# Identities linking DRic to DPhi on extendable Cauchy jets
# ---------------------------------------------------------------------------


def normal_identities(jet: CauchyJet, closure: np.ndarray | None = None) -> dict:
    """Residuals of the two normal identities

        tr_g(DRic h) + 2 DRic(h)(nu, nu) = DPhi_1(h~, m~),
        DRic(h)(nu, .) = DPhi_2(h~, m~),

    with both sides computed independently: the left through the assembled
    linearised-Ricci mode operator, the right through dphi on the induced
    data.  `closure` optionally supplies the second time derivative of the
    per-mode state; by default it comes from the wave equation box_L h = 0.
    """
    bg = jet.background
    t = jet.t0
    lat = jet.lattice
    n = bg.n
    modes = lat.modes
    U, Udot = nu_jet_conversion(jet)
    if closure is None:
        wave = FamilyAction(bg, "lichnerowicz", t, modes)
        if not wave.is_monic():
            raise ValueError("wave operator not monic in d/dt; cannot close the jet")
        Uddot = -(wave.apply(1, Udot) + wave.apply(0, U))
    else:
        Uddot = closure
    dric = FamilyAction(bg, "d_ric", t, modes)
    R = dric.apply(0, U) + dric.apply(1, Udot) + dric.apply(2, Uddot)
    dim = n + 1
    pairs = st_pairs(dim)
    Rfull = np.zeros((len(modes), dim, dim), complex)
    for c, (a, b) in enumerate(pairs):
        Rfull[:, a, b] = R[:, c]
        Rfull[:, b, a] = R[:, c]
    giful = bg.metric_inv_derivs(t, 0)[0]
    lhs1 = np.einsum("ab,kab->k", giful, Rfull) + 2.0 * Rfull[:, 0, 0]
    lhs2 = Rfull[:, 0, 1:]
    htilde, mtilde = induced_data_state(bg, t, lat, U, Udot)
    geom = bg.slice_at(t)
    res = dphi(InitialDataPair(htilde, mtilde, geom))
    rhs1 = res.scalar.coeffs[:, 0]
    rhs2 = res.oneform.coeffs
    scale = max(
        1e-30,
        float(np.max(np.abs(lhs1))), float(np.max(np.abs(rhs1))),
        float(np.max(np.abs(lhs2))), float(np.max(np.abs(rhs2))),
    )
    r4 = float(np.max(np.abs(lhs1 - rhs1)))
    r5 = float(np.max(np.abs(lhs2 - rhs2)))
    return {
        "identity4_abs": r4,
        "identity5_abs": r5,
        "identity4_rel": r4 / scale,
        "identity5_rel": r5 / scale,
        "scale": scale,
    }
