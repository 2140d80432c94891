"""The vacuum constraint map, its linearisation, and their cross-checks.

Nonlinear constraints of a slice (g~, k~):

    Phi_1 = Scal(g~) - g~(k~, k~) + (tr k~)^2,
    Phi_2 = div k~ - d tr k~.

constraint_residual evaluates them on the background itself (its Berger
branch is the invariant Phi).
dphi evaluates the full linearisation around the background slice data,
including every extrinsic-curvature term; dphi_oracle re-derives it from
the nonlinear map by central differencing, with the nonlinear scalar
curvature computed pointwise through 4th-order finite differences.  On a
band-limited field each stencil is an exact Fourier multiplier, so the
grid values and every stencil come from one batched synthesis of the
coefficients times the stencil symbols: the numbers the stencils give on
exact offset grids, with no interpolation and no differencing of grids.
The fields are real and every symbol satisfies s(-k) = conj(s(k)), so the
synthesis reads only the Hermitian half k_n >= 0 of each spectrum,
refused up front when the coefficients are not Hermitian (the samples
would come out complex).  Samples keep the grid axis last and contiguous,
(..., n, n, P), and the pointwise Phi contracts over the tensor axes with
P innermost.
normal_identities checks the two identities linking the linearised Ricci
tensor to dphi on extendable Cauchy jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import invariant as inv
from .fields import SpectralField, analyze, sobolev_norm, sym2_index_pairs, sym2_to_full
from .slices import SliceGeometry, apply_slice_operator, scalar_times, slice_norm
from .spacetime import (
    CauchyJet,
    FamilyAction,
    induced_data_state,
    nu_jet_conversion,
)

ORACLE_EPS = 1e-5
ORACLE_STEP = 1e-3


@dataclass
class InitialDataPair:
    """Linearised first and second fundamental forms on a slice."""

    h: object  # sym2 SpectralField (torus) or InvariantField (berger)
    m: object
    geom: SliceGeometry

    def __post_init__(self):
        if self.h.rank != "sym2" or self.m.rank != "sym2":
            raise ValueError("initial data must be symmetric 2-tensors")
        fields = (self.h, self.m)
        if self.geom.is_torus:
            if (not all(isinstance(f, SpectralField) for f in fields)
                    or self.h.lattice != self.m.lattice):
                raise ValueError("torus data must share one mode lattice")
            if self.h.lattice.n != self.geom.n:
                raise ValueError(
                    f"torus data lattice dimension {self.h.lattice.n} != slice "
                    f"dimension {self.geom.n}"
                )
        elif not all(isinstance(f, inv.InvariantField) for f in fields):
            raise ValueError("invariant slices carry invariant fields")


@dataclass
class ConstraintResidual:
    """DPhi evaluated on a pair: scalar and one-form parts plus norms."""

    scalar: object
    oneform: object
    norms: dict = dc_field(default_factory=dict)

    @classmethod
    def with_norms(cls, geom: SliceGeometry, scalar, oneform):
        """The residual with its norms: the H^0 and H^1 norms on a torus, the
        L^2 norms on Berger."""
        if not geom.is_torus:
            return cls(scalar, oneform, {"dphi1_L2": slice_norm(geom, scalar),
                                         "dphi2_L2": slice_norm(geom, oneform)})
        return cls(scalar, oneform, {f"dphi{i}_H{s:g}": sobolev_norm(f, s) for s in (0.0, 1.0)
                                     for i, f in ((1, scalar), (2, oneform))})


# ---------------------------------------------------------------------------
# The nonlinear map Phi
# ---------------------------------------------------------------------------


def _grid_size(lat) -> int:
    """Grid points per axis of Phi's samples: the larger of 16 and
    2 nmax + 1, the fewest from which `analyze` reads back every mode of
    the lattice."""
    return max(lat.modes_per_axis, 16)


def _phi_invariant(G: np.ndarray, K: np.ndarray):
    geo = inv.InvariantGeometry(G)
    gi = geo.metric_inv
    divk = np.einsum("ab,abj->j", gi, inv.nabla(geo, K))
    # d tr k vanishes on invariant sections (constants)
    return _phi1_constant(geo.scal, gi, K), divk


def _phi1_constant(scal: float, gi: np.ndarray, K: np.ndarray) -> float:
    """Phi_1 = Scal - g~(k~, k~) + (tr k~)^2 of spatially constant data."""
    kk = float(np.einsum("ia,jb,ij,ab->", gi, gi, K, K))
    trk = float(np.einsum("ij,ij->", gi, K))
    return scal - kk + trk ** 2


def constraint_residual(geom: SliceGeometry) -> tuple[float, float]:
    """Residual (|Phi_1|, max |Phi_2|) of the nonlinear vacuum constraints on
    the background.  All supported backgrounds have spatially constant
    data; on a torus Phi_2 = div k~ - d tr k~ = 0."""
    if not geom.is_torus:
        phi1, divk = _phi_invariant(geom.metric, geom.extrinsic)
        return float(abs(phi1)), float(np.max(np.abs(divk)))
    return float(abs(_phi1_constant(geom.scal, geom.metric_inv, geom.extrinsic))), 0.0


def _stencil_symbols(modes: np.ndarray, step: float, second: bool) -> np.ndarray:
    """Fourier symbols of the identity and of the 4th-order stencils at
    `step` on the integer modes (N, n), shape (nsym, N): the identity, D_a
    for each axis, then (with `second`) D_a D_b over the sym2 index pairs
    a <= b.

    On exp(i k.x) a stencil sum_m w_m f(x + m step e_a) is the multiplier
    sum_m w_m exp(i m theta), theta = k_a step.  With the weights
    (-1, 8, -8, 1) at m = (2, 1, -1, -2) over 12 step this is
    i (8 sin theta - sin 2 theta) / (6 step); with (-1, 16, -30, 16, -1) at
    m = (2, 1, 0, -1, -2) over 12 step^2 it is
    (4 sin^2 theta - 64 sin^2(theta / 2)) / (12 step^2), written through
    cos x = 1 - 2 sin^2(x / 2) so the O(1) weights never cancel.  D_a D_b
    for a != b is the product of the two first-derivative symbols.  Every
    symbol but the identity is exactly 0 at k = 0, and every symbol
    satisfies s(-k) = conj(s(k)) exactly (sin is odd).
    """
    n = modes.shape[1]
    theta = modes * step
    first = 1j * (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * step)
    rows = [np.ones(len(modes))] + [first[:, a] for a in range(n)]
    if second:
        diag = (4.0 * np.sin(theta) ** 2 - 64.0 * np.sin(0.5 * theta) ** 2) / (12.0 * step ** 2)
        rows += [diag[:, a] if a == b else first[:, a] * first[:, b]
                 for a, b in sym2_index_pairs(n)]
    return np.stack(rows)


def _stencil_samples(field: SpectralField, npts: int, step: float, second: bool):
    """Values of a band-limited sym2 field on the npts^n grid and its
    4th-order stencil derivatives there, as full (..., n, n, P) matrices
    with the P = npts^n grid points last and contiguous.

    The stencils act as exact Fourier multipliers (`_stencil_symbols`), so
    the values and every stencil come from one batched synthesis: the same
    numbers as differencing exact offset grids, without the differencing.
    The lattice is the whole box [-nmax, nmax]^n, so the Hermitian half
    k_n >= 0 of each multiplied spectrum is a slice of the coefficients.
    It is synthesized one axis at a time by a matrix product with
    E[x, k] = exp(i x k), (npts, 2 nmax + 1), on the first n - 1 axes; on
    the last the samples are the real part against exp(i k x) with weight
    1 at k_n = 0 and 2 otherwise.  That half determines the samples only
    if the coefficients are Hermitian, so they are checked first, in place
    of checking the samples: every symbol satisfies s(-k) = conj(s(k)), so
    the imaginary part of row r is the synthesis of s_r times the
    anti-Hermitian part of the coefficients.  Every row is real when that
    part vanishes, and the identity row (s = 1) is complex when it does not.
    Returns (f, df, d2f): f[c, d, p] = f_cd, df[a, c, d, p] = D_a f_cd and
    d2f[e, a, c, d, p] = D_e D_a f_cd; d2f is None unless `second`.
    """
    lat = field.lattice
    n, nmax, m, ncomp = lat.n, lat.nmax, lat.modes_per_axis, field.ncomp
    try:
        field.check_hermitian(tol=1e-10)
    except ValueError as err:
        raise ValueError(f"metric samples came out complex; data not real: {err}") from None
    half = (slice(None),) * (n - 1) + (slice(nmax, None),)
    modes = lat.modes.reshape((m,) * n + (n,))[half].reshape(-1, n)
    coeffs = field.coeffs.reshape((m,) * n + (ncomp,))[half].reshape(-1, 1, ncomp)
    symbols = _stencil_symbols(modes, step, second)
    rows = symbols.T[:, :, None] * coeffs  # [k, r, c]: symbol r times component c
    k = np.arange(-nmax, nmax + 1)
    E = np.exp(2j * np.pi / npts * (np.outer(np.arange(npts), k) % npts))
    for ax in range(n - 1):  # grid axes ahead, mode axes behind
        rows = E @ rows.reshape((npts,) * ax + (m, -1))
    last = np.where(k[nmax:] == 0, 1.0, 2.0) * E[:, nmax:]
    grids = (last @ rows.reshape(npts ** (n - 1), nmax + 1, -1)).real.reshape(npts ** n, -1)
    grids = np.ascontiguousarray(grids.T).reshape(len(symbols), ncomp, -1)
    full = grids[:, sym2_to_full(np.arange(ncomp), n)]
    f, df = full[0], full[1:n + 1]
    if not second:
        return f, df, None
    # the D_a D_b rows are themselves sym2-ordered in (a, b)
    return f, df, full[sym2_to_full(np.arange(n + 1, len(full)), n)]


def _cofactor_inverse(g):
    """Inverses of the (n, n, P) matrices g, n = 2 or 3, by cofactors:
    C_ij = g[i+1, j+1] g[i+2, j+2] - g[i+1, j+2] g[i+2, j+1] (indices mod 3)
    for n = 3, the adjugate for n = 2, and g^-1 = C^T / det with P last."""
    n = len(g)
    s1 = (np.arange(n) + 1) % n
    if n == 2:
        C = g[s1][:, s1] * np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]
    else:
        s2 = (s1 + 1) % n
        C = g[s1][:, s1] * g[s2][:, s2] - g[s1][:, s2] * g[s2][:, s1]
    return np.swapaxes(C, 0, 1) / np.einsum("jp,jp->p", g[0], C[0])


def _phi_pointwise(g, dg, d2g, k, dk):
    """Pointwise constraints from sampled metric/extrinsic data.

    Axis conventions: p = grid point, the last and contiguous axis of every
    array; g and k have axes [c, d, p]; dg and dk have axes [a, c, d, p] =
    d_a g_cd; d2g has axes [e, a, c, d, p] = d_e d_a g_cd.  Returns Phi_1
    with axes [p] and Phi_2 with axes [x, p].  Each contraction is a plain
    einsum whose innermost loop runs along p.
    """
    gi = _cofactor_inverse(g)
    dgi = -np.einsum("cep,aefp,fdp->acdp", gi, dg, gi)
    # half Koszul bracket br[a, d, b, p] = (d_a g_db + d_b g_da - d_d g_ab) / 2,
    # so Gamma^c_ab = g^cd br[a, d, b] and
    # d_e Gamma^c_ab = d_e g^cd br[a, d, b] + g^cd d_e br[a, d, b]
    br = dg + np.einsum("bdap->adbp", dg) - np.einsum("dabp->adbp", dg)
    br *= 0.5
    dbr = d2g + np.einsum("ebdap->eadbp", d2g) - np.einsum("edabp->eadbp", d2g)
    dbr *= 0.5
    gam = np.einsum("cdp,adbp->cabp", gi, br)
    # Ric_ab = d_c Gamma^c_ab - d_a Gamma^c_cb + Gamma^c_cm Gamma^m_ab
    #          - Gamma^c_am Gamma^m_cb, the two traces of d Gamma taken directly
    ric = np.einsum("ccdp,adbp->abp", dgi, br)
    ric += np.einsum("cdp,cadbp->abp", gi, dbr)
    ric -= np.einsum("acdp,cdbp->abp", dgi, br)
    ric -= np.einsum("cdp,acdbp->abp", gi, dbr)
    ric += np.einsum("ccmp,mabp->abp", gam, gam)
    ric -= np.einsum("camp,mcbp->abp", gam, gam)
    ku = np.einsum("acp,cbp->abp", gi, k)  # k^a_b
    trk = np.einsum("aap->p", ku)
    phi1 = np.einsum("abp,abp->p", gi, ric) - np.einsum("abp,bap->p", ku, ku) + trk ** 2
    phi2 = np.einsum("abp,abxp->xp", gi, dk)
    phi2 -= np.einsum("abp,mabp,mxp->xp", gi, gam, k)
    phi2 -= np.einsum("abp,maxp,bmp->xp", gi, gam, k)
    # minus d_x tr k
    phi2 -= np.einsum("xabp,abp->xp", dgi, k) + np.einsum("abp,xabp->xp", gi, dk)
    return phi1, phi2


def _torus_constraint_fields(p1, p2, lat, npts: int):
    """Analyze pointwise Phi_1 [p] and Phi_2 [x, p] (p the flattened
    npts^n grid) into fields."""
    shape = (npts,) * lat.n
    return (
        analyze(p1.reshape(shape), "scalar", lat),
        analyze(np.moveaxis(p2.reshape((lat.n,) + shape), 0, -1), "one-form", lat),
    )


# ---------------------------------------------------------------------------
# The linearised map DPhi
# ---------------------------------------------------------------------------


def dphi(pair: InitialDataPair) -> ConstraintResidual:
    """Full linearisation of Phi around the background slice data, with its
    H^0 and H^1 norms on a torus."""
    geom = pair.geom
    if not geom.is_torus:
        return _dphi_invariant(pair)
    lat = pair.h.lattice
    dphi1, dphi2 = dphi_modes(geom, lat.modes, pair.h.coeffs, pair.m.coeffs)
    scalar = SpectralField(lat, "scalar", dphi1[:, None])
    oneform = SpectralField(lat, "one-form", dphi2)
    return ConstraintResidual.with_norms(geom, scalar, oneform)


def dphi_modes(geom: SliceGeometry, modes, h: np.ndarray, m: np.ndarray):
    """DPhi of per-mode torus data: the kernel of dphi on any set of modes.

    modes is (N, n) integer; h and m hold the stored sym2 coefficients
    (N, ncomp) of h~ and m~ at those modes.  Returns DPhi_1 (N,) and
    DPhi_2 (N, n).  Every mode is independent, so a subset of the lattice
    gives the same rows as the whole.  Contractions with the constant
    background tensors are one matmul over the flattened (N, n*n) full
    matrices; those with k are batched (1, n) @ (n, n) products per mode.
    """
    n = geom.n
    G = geom.metric
    gi = geom.metric_inv
    K = geom.extrinsic
    k = np.asarray(modes, float)
    kup = k @ gi.T
    H = sym2_to_full(h, n)
    M = sym2_to_full(m, n)
    trK = np.trace(gi @ K)
    kok = K @ gi @ K  # (k~ o k~)_ab = g~(k~(a,.), k~(b,.))
    A_up = gi @ (2.0 * (kok - trK * K)) @ gi
    K_up = gi @ K @ gi
    ric_up = gi @ geom.ricci @ gi  # zero on flat slices; kept in the code path
    # A:h = sum_ab A_ab h_ab for the rows A = g~^-1, K^, A^ - Ric^ (h) and
    # g~^-1, K^ (m)
    tr_h, gKh, Ah = (H.reshape(-1, n * n) @ np.stack(
        [gi.ravel(), K_up.ravel(), (A_up - ric_up).ravel()], axis=1)).T
    tr_m, gKm = (M.reshape(-1, n * n) @ np.stack([gi.ravel(), K_up.ravel()], axis=1)).T
    kk = kup[:, :, None] * kup[:, None, :]
    divdivh = -(kk.reshape(-1, 1, n * n) @ H.reshape(-1, n * n, 1))[:, 0, 0]
    k2 = np.einsum("ka,ka->k", kup, k)
    dphi1 = divdivh + k2 * tr_h + Ah - 2.0 * (gKm - trK * tr_m)
    # DPhi_2: the term g~(h~, nabla k~(., X)) vanishes identically here
    # because the background extrinsic curvature is parallel on a flat slice.
    hbar = H - 0.5 * tr_h[:, None, None] * G
    divhbar = 1j * (kup[:, None, :] @ hbar)[:, 0]
    term2 = -divhbar @ (gi @ K)
    term34 = 0.5j * k * gKh[:, None]
    term5 = 1j * ((kup[:, None, :] @ M)[:, 0] - tr_m[:, None] * k)
    return dphi1, term2 + term34 + term5


def _dphi_invariant(pair: InitialDataPair) -> ConstraintResidual:
    geom = pair.geom
    # k~ = 0 on the invariant backend: DPhi reduces to
    # (div div h~ - g~(Ric, h~),  div(m~ - (tr m~) g~));  d tr terms are
    # derivatives of invariant scalars and vanish identically.
    div_h = apply_slice_operator(geom, "divergence", pair.h)
    scalar = (apply_slice_operator(geom, "divergence", div_h)
              - apply_slice_operator(geom, "ricci_pairing", pair.h))
    tr_m = apply_slice_operator(geom, "trace", pair.m)
    oneform = apply_slice_operator(
        geom, "divergence", pair.m - scalar_times(geom, tr_m, geom.metric))
    return ConstraintResidual.with_norms(geom, scalar, oneform)


def dphi_oracle(pair: InitialDataPair) -> ConstraintResidual:
    """Central-difference linearisation of the nonlinear map:
    [Phi(g~ + eps h~, k~ + eps m~) - Phi(g~ - eps h~, k~ - eps m~)] / (2 eps)
    at eps = ORACLE_EPS.

    On tori Phi is evaluated pointwise on the _grid_size(lat)^n grid, its
    derivatives by 4th-order stencils at ORACLE_STEP applied as exact Fourier
    multipliers (see `_stencil_symbols`); the oracle never calls `dphi`.
    """
    geom = pair.geom
    eps = ORACLE_EPS
    if not geom.is_torus:
        G, K = geom.metric, geom.extrinsic
        hmat = sym2_to_full(pair.h.components, 3)
        mmat = sym2_to_full(pair.m.components, 3)
        p1p, p2p = _phi_invariant(G + eps * hmat, K + eps * mmat)
        p1m, p2m = _phi_invariant(G - eps * hmat, K - eps * mmat)
        return ConstraintResidual.with_norms(
            geom,
            inv.InvariantField("scalar", np.array([(p1p - p1m) / (2 * eps)])),
            inv.InvariantField("one-form", (p2p - p2m) / (2 * eps)),
        )
    if getattr(pair.h, "dirac", None) is not None or getattr(pair.m, "dirac", None) is not None:
        raise ValueError("oracle needs pointwise values; distributional data rejected")
    lat = pair.h.lattice
    npts = _grid_size(lat)
    h, dh, d2h = _stencil_samples(pair.h, npts, ORACLE_STEP, second=True)
    m, dm, _ = _stencil_samples(pair.m, npts, ORACLE_STEP, second=False)
    G, K = pair.geom.metric[..., None], pair.geom.extrinsic[..., None]
    # The stencil symbols vanish at k = 0, so the constant background enters
    # the values only: the stencils of g~ +- eps h~ are +- eps times those
    # of h~, and G never cancels between offset grids.
    p1p, p2p = _phi_pointwise(G + eps * h, eps * dh, eps * d2h, K + eps * m, eps * dm)
    p1m, p2m = _phi_pointwise(G - eps * h, -eps * dh, -eps * d2h, K - eps * m, -eps * dm)
    scalar, oneform = _torus_constraint_fields(
        (p1p - p1m) / (2 * eps), (p2p - p2m) / (2 * eps), lat, npts)
    return ConstraintResidual.with_norms(geom, scalar, oneform)


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
    modes = lat.modes
    U, Udot = nu_jet_conversion(jet)
    if closure is None:
        Uddot = FamilyAction(bg, "lichnerowicz", t, modes).monic_closure(U, Udot)
    else:
        Uddot = closure
    dric = FamilyAction(bg, "d_ric", t, modes)
    R = dric.apply(0, U) + dric.apply(1, Udot) + dric.apply(2, Uddot)
    Rfull = sym2_to_full(R, bg.dim)
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
