"""Generalised transverse-traceless decomposition on closed scalar-flat slices.

On a compact slice with Scal(g~) = 0 and k~ = 0, every symmetric 2-tensor
splits uniquely as

    alpha = gamma + L omega + C Ric(g~) + phi g~,

where gamma solves the linearised-constraint equations for its slot
(position or momentum), L is the conformal Killing operator, C is a real
constant and phi has zero mean.  The solve goes through the elliptic
operator

    P(phi, omega) = (Delta phi + a g~(Ric, L omega),  L*L omega + b d phi),

whose kernel and cokernel consist of constants and Killing one-forms
whenever 0 < ab < 2.  The module also provides the classical splitting of
initial data into a gauge-producing part P(beta, N) and a part in ker(P*),
gauge-producing data on arbitrary slices, and kernel bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import invariant as inv
from .constraints import InitialDataPair
from .errors import InternalError
from .fields import (
    SpectralField,
    component_weights,
    l2_inner,
    sobolev_norm,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    zero_field,
)
from .slices import SliceGeometry, apply_slice_operator

KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class SplitOperatorParams:
    """Coefficients (a, b) of the split operator; requires 0 < a b < 2."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a * self.b < 2.0:
            raise ValueError(
                f"split operator requires 0 < a*b < 2, got a*b = {self.a * self.b}"
            )


def split_params(which: str, n: int) -> SplitOperatorParams:
    """The two parameter pairs in use: position (-1/n, -2), momentum
    (1/n, 2(n-1))."""
    if which == "position":
        return SplitOperatorParams(-1.0 / n, -2.0)
    if which == "momentum":
        return SplitOperatorParams(1.0 / n, 2.0 * (n - 1))
    raise ValueError(f"unknown part {which!r}; expected 'position' or 'momentum'")


@dataclass
class DecompositionResult:
    """One slot of the decomposition: alpha = gamma + L omega + C Ric + phi g~."""

    gamma_part: object
    omega: object
    C: float
    phi: object
    residuals: dict = dc_field(default_factory=dict)


@dataclass
class MoncriefSplit:
    """Splitting of an initial-data pair into P(beta, N) plus ker(P*)."""

    N: object
    beta: object
    gauge_h: object
    gauge_m: object
    gamma_h: object
    gamma_m: object
    report: dict = dc_field(default_factory=dict)


def _require_split_slice(geom: SliceGeometry):
    if not geom.scalar_flat or np.max(np.abs(geom.extrinsic)) > 0:
        raise ValueError(
            "decomposition requires a scalar-flat slice with vanishing "
            f"extrinsic curvature; got kind {geom.kind!r}"
        )


# ---------------------------------------------------------------------------
# The split operator P and its kernel
# ---------------------------------------------------------------------------


def split_operator_apply(params: SplitOperatorParams, phi, omega,
                         geom: SliceGeometry):
    """P(phi, omega) = (Delta phi + a g~(Ric, L omega), L*L omega + b d phi)."""
    _require_split_slice(geom)
    if geom.is_torus:
        # Ric = 0 on the flat torus, so the coupling term in row 1 vanishes.
        row1 = apply_slice_operator(geom, "laplacian", phi)
        lstar = apply_slice_operator(geom, "ckl_normal", omega)
        dphi = apply_slice_operator(geom, "d", phi)
        row2 = SpectralField(
            omega.lattice, "one-form", lstar.coeffs + params.b * dphi.coeffs
        )
        return row1, row2
    op = inv.operator_matrix(
        geom.invariant_geometry, "split_p", (params.a, params.b)
    )
    return op(phi, omega)


def _torus_split_matrices(geom: SliceGeometry, params: SplitOperatorParams,
                          modes: np.ndarray) -> np.ndarray:
    """Per-mode matrices of P acting on (phi, omega_1..omega_n)."""
    n = geom.n
    gi = geom.metric_inv
    k = modes.astype(float)
    kup = k @ gi.T
    k2 = np.einsum("ma,ma->m", kup, k)
    m = len(k)
    M = np.zeros((m, n + 1, n + 1), complex)
    M[:, 0, 0] = k2
    M[:, 1:, 0] = params.b * 1j * k
    M[:, 1:, 1:] = 2.0 * k2[:, None, None] * np.eye(n)[None]
    M[:, 1:, 1:] += (2.0 - 4.0 / n) * np.einsum("ma,mb->mab", k, kup)
    return M


def kernel_basis(params: SplitOperatorParams, geom: SliceGeometry,
                 lattice=None) -> list:
    """Basis of ker(P): pairs (phi, omega) of constants and Killing forms."""
    _require_split_slice(geom)
    if geom.is_torus:
        if lattice is None:
            raise ValueError("torus kernel scan needs a mode lattice")
        M = _torus_split_matrices(geom, params, lattice.modes)
        basis = []
        for i, k in enumerate(lattice.modes):
            _, s, vt = np.linalg.svd(M[i])
            null = vt[s <= KERNEL_TOL * max(1.0, s[0] if len(s) else 0.0)]
            for v in null:
                if np.any(k != 0):
                    # the lemma predicts no nonzero-mode kernel on flat slices
                    raise InternalError(
                        f"decomposition.kernel_basis: unexpected kernel element at mode {k}"
                    )
                phi = zero_field(lattice, "scalar")
                omega = zero_field(lattice, "one-form")
                phi.coeffs[i, 0] = v[0].real
                omega.coeffs[i] = v[1:].real
                basis.append((phi, omega))
        return basis
    geo = geom.invariant_geometry
    op = inv.operator_matrix(geo, "split_p", (params.a, params.b))
    _, s, vt = np.linalg.svd(op.matrix)
    s = np.concatenate([s, np.zeros(4 - len(s))])
    null = vt[s <= KERNEL_TOL * max(1.0, s[0])]
    return [
        (inv.InvariantField("scalar", v[:1]), inv.InvariantField("one-form", v[1:]))
        for v in null
    ]


# ---------------------------------------------------------------------------
# The decomposition solve
# ---------------------------------------------------------------------------


def split_solve(source, which: str, geom: SliceGeometry) -> DecompositionResult:
    """Decompose source = gamma + L omega + C Ric + phi g~ for the given slot.

    Strategy: choose C by the solvability condition (0 when Ric = 0), form
    the right-hand side of the defining elliptic equation, invert P mode by
    mode (torus) or by pseudo-inverse with kernel deflation (invariant),
    normalise phi to zero mean and omega orthogonal to Killing forms.
    """
    _require_split_slice(geom)
    params = split_params(which, geom.n)
    if geom.is_torus:
        return _split_solve_torus(source, which, params, geom)
    return _split_solve_invariant(source, which, params, geom)


def _split_solve_torus(source: SpectralField, which, params,
                       geom: SliceGeometry) -> DecompositionResult:
    lat = source.lattice
    n = geom.n
    gi = geom.metric_inv
    k = lat.modes.astype(float)
    kup = k @ gi.T
    k2 = np.einsum("ma,ma->m", kup, k)
    alpha = sym2_to_full(source.coeffs, n)
    tr = np.einsum("ab,mab->m", gi, alpha)
    div = 1j * np.einsum("ma,mab->mb", kup, alpha)
    # Ric = 0: C = 0 by convention, and the g~(., Ric) source terms vanish.
    C = 0.0
    r1 = (1.0 / n) * k2 * tr
    if which == "position":
        r2 = -2.0 * div
    else:
        r2 = 2.0j * k * tr[:, None] - 2.0 * div
    rhs = np.concatenate([r1[:, None], r2], axis=1)
    M = _torus_split_matrices(geom, params, lat.modes)
    u = np.zeros_like(rhs)
    nz = k2 > 0
    u[nz] = np.linalg.solve(M[nz], rhs[nz][..., None])[..., 0]
    # the zero mode carries the kernel; rhs vanishes there, so phi[1] = 0 and
    # omega is orthogonal to the (parallel) Killing forms by u[~nz] = 0
    phi = SpectralField(lat, "scalar", u[:, :1])
    omega = SpectralField(lat, "one-form", u[:, 1:])
    Lw = apply_slice_operator(geom, "conformal_killing", omega)
    gsym = sym2_from_full(geom.metric, n)
    gamma = SpectralField(
        lat, "sym2", source.coeffs - Lw.coeffs - u[:, :1] * gsym[None]
    )
    res = DecompositionResult(gamma, omega, C, phi)
    res.residuals = _split_report(source, res, which, geom)
    return res


def _split_solve_invariant(source: inv.InvariantField, which, params,
                           geom: SliceGeometry) -> DecompositionResult:
    geo = geom.invariant_geometry
    gi = geom.metric_inv
    ric = geom.ricci
    amat = sym2_to_full(source.components, 3)
    gRR = float(np.einsum("ac,bd,ab,cd->", gi, gi, ric, ric))
    gaR = float(np.einsum("ac,bd,ab,cd->", gi, gi, amat, ric))
    C = gaR / gRR if gRR > KERNEL_TOL else 0.0
    # invariant scalars are constants: Delta tr alpha = 0 and d tr = 0, and
    # the choice of C makes the scalar row of the right-hand side vanish
    sign = -1.0 if which == "position" else 1.0
    r1 = sign * (gaR - C * gRR) / geom.n
    div = inv.operator_matrix(geo, "div")
    r2 = -2.0 * div(source).components
    rhs = np.concatenate([[r1], r2])
    P = inv.operator_matrix(geo, "split_p", (params.a, params.b))
    u, *_ = np.linalg.lstsq(P.matrix, rhs, rcond=KERNEL_TOL)
    # deflate the kernel in the L2 sense: zero-mean phi, omega _|_ Killing
    gram = inv.block_gram(geo, ("scalar", "one-form"))
    for kphi, komega in kernel_basis(params, geom):
        kv = np.concatenate([kphi.components, komega.components])
        u = u - kv * float(kv @ gram @ u) / float(kv @ gram @ kv)
    phi = inv.InvariantField("scalar", u[:1])
    omega = inv.InvariantField("one-form", u[1:])
    Lw = inv.operator_matrix(geo, "conformal_killing")(omega)
    gamma = inv.InvariantField(
        "sym2",
        source.components - Lw.components - C * geo.ricci_sym6()
        - u[0] * sym2_from_full(geom.metric, 3),
    )
    res = DecompositionResult(gamma, omega, C, phi)
    res.residuals = _split_report(source, res, which, geom)
    return res


def _split_report(source, res: DecompositionResult, which, geom) -> dict:
    if geom.is_torus:
        Lw = apply_slice_operator(geom, "conformal_killing", res.omega)
        gsym = sym2_from_full(geom.metric, geom.n)
        recon = res.gamma_part.coeffs + Lw.coeffs + res.phi.coeffs * gsym[None]
        scale = max(np.max(np.abs(source.coeffs)), 1e-30)
        rec = float(np.max(np.abs(recon - source.coeffs)) / scale)
    else:
        geo = geom.invariant_geometry
        Lw = inv.operator_matrix(geo, "conformal_killing")(res.omega)
        recon = (
            res.gamma_part.components + Lw.components
            + res.C * geo.ricci_sym6()
            + res.phi.components[0] * sym2_from_full(geom.metric, 3)
        )
        scale = max(np.max(np.abs(source.components)), 1e-30)
        rec = float(np.max(np.abs(recon - source.components)) / scale)
    gres = gamma_equation_norms(res.gamma_part, which, geom)
    return {"reconstruction_rel": rec, **gres}


# ---------------------------------------------------------------------------
# Membership residuals for the constraint-solution space
# ---------------------------------------------------------------------------


def gamma_equation_norms(field, which: str, geom: SliceGeometry) -> dict:
    """Residual norms of the two defining equations for one slot."""
    _require_split_slice(geom)
    if which not in ("position", "momentum"):
        raise ValueError(f"unknown part {which!r}")
    if geom.is_torus:
        lat = field.lattice
        gi = geom.metric_inv
        k = lat.modes.astype(float)
        kup = k @ gi.T
        k2 = np.einsum("ma,ma->m", kup, k)
        h = sym2_to_full(field.coeffs, geom.n)
        tr = np.einsum("ab,mab->m", gi, h)
        if which == "position":
            scalar = k2 * tr  # Delta tr h - g(Ric, h) with Ric = 0
            vec = 1j * np.einsum("ma,mab->mb", kup, h)
        else:
            scalar = k2 * tr
            vec = 1j * (
                np.einsum("ma,mab->mb", kup, h) - tr[:, None] * k
            )
        sf = SpectralField(lat, "scalar", scalar[:, None])
        vf = SpectralField(lat, "one-form", vec)
        return {
            f"{which}_scalar_eq": sobolev_norm(sf, 0.0),
            f"{which}_divergence_eq": sobolev_norm(vf, 0.0),
        }
    geo = geom.invariant_geometry
    gi = geom.metric_inv
    hmat = sym2_to_full(field.components, 3)
    gRh = float(np.einsum("ac,bd,ab,cd->", gi, gi, geom.ricci, hmat))
    vol = geo.volume
    sign = -1.0 if which == "position" else 1.0
    scalar = sign * gRh  # Delta tr is zero on invariant sections
    if which == "position":
        v = inv.operator_matrix(geo, "div")(field).components
    else:
        tr = float(np.einsum("ab,ab->", gi, hmat))
        shifted = inv.InvariantField(
            "sym2", field.components - tr * sym2_from_full(geom.metric, 3)
        )
        v = inv.operator_matrix(geo, "div")(shifted).components
    gram = inv.gram_matrix(geo, "one-form")
    return {
        f"{which}_scalar_eq": abs(scalar) * np.sqrt(vol),
        f"{which}_divergence_eq": float(np.sqrt(max(v @ gram @ v, 0.0))),
    }


def gamma_residual(pair: InitialDataPair) -> dict:
    """The four membership residuals of a candidate pair (h~, m~)."""
    out = gamma_equation_norms(pair.h, "position", pair.geom)
    out.update(gamma_equation_norms(pair.m, "momentum", pair.geom))
    return out


# ---------------------------------------------------------------------------
# The classical gauge splitting of initial data
# ---------------------------------------------------------------------------


def moncrief_project(pair: InitialDataPair) -> MoncriefSplit:
    """Split a pair into P(beta, N) = (Lie_beta g~, Hess N - Ric N) plus a
    remainder in ker(P*), by a least-squares solve of the normal equations."""
    geom = pair.geom
    _require_split_slice(geom)
    if geom.is_torus:
        return _moncrief_torus(pair, geom)
    return _moncrief_invariant(pair, geom)


def _moncrief_torus(pair: InitialDataPair, geom: SliceGeometry) -> MoncriefSplit:
    lat = pair.h.lattice
    n = geom.n
    w = component_weights("sym2", n)
    sq = np.sqrt(w)
    pairs = sym2_index_pairs(n)
    k = lat.modes.astype(float)
    m = len(k)
    ncomp = len(pairs)
    A = np.zeros((m, 2 * ncomp, n + 1), complex)
    for c, (a, b) in enumerate(pairs):
        # Lie_beta g~ per mode; Hess N = -k_a k_b N, and Ric = 0
        A[:, c, a] += 1j * k[:, b]
        A[:, c, b] += 1j * k[:, a]
        A[:, ncomp + c, n] = -k[:, a] * k[:, b]
    x = np.concatenate([pair.h.coeffs, pair.m.coeffs], axis=1)
    wsq = np.concatenate([sq, sq])
    # minimum-norm least squares for every mode at once; singular values at
    # or below KERNEL_TOL times the largest are dropped, as lstsq's rcond does
    pinv = np.linalg.pinv(wsq[:, None] * A, rcond=KERNEL_TOL)
    u = np.einsum("mic,mc->mi", pinv, wsq * x)
    gauge = np.einsum("mci,mi->mc", A, u)
    beta = SpectralField(lat, "one-form", u[:, :n])
    N = SpectralField(lat, "scalar", u[:, n:])
    gauge_h = SpectralField(lat, "sym2", gauge[:, :ncomp])
    gauge_m = SpectralField(lat, "sym2", gauge[:, ncomp:])
    gamma_h = SpectralField(lat, "sym2", pair.h.coeffs - gauge_h.coeffs)
    gamma_m = SpectralField(lat, "sym2", pair.m.coeffs - gauge_m.coeffs)
    out = MoncriefSplit(N, beta, gauge_h, gauge_m, gamma_h, gamma_m)
    out.report = _moncrief_report(out, geom)
    return out


def _moncrief_invariant(pair: InitialDataPair, geom: SliceGeometry) -> MoncriefSplit:
    geo = geom.invariant_geometry
    P = inv.operator_matrix(geo, "moncrief_p")
    gram = inv.block_gram(geo, ("sym2", "sym2"))
    R = np.linalg.cholesky(gram)
    x = np.concatenate([pair.h.components, pair.m.components])
    u, *_ = np.linalg.lstsq(R.T @ P.matrix, R.T @ x, rcond=KERNEL_TOL)
    # deflate ker(P): Killing beta plus lapses with Hess N = Ric N
    _, s, vt = np.linalg.svd(P.matrix)
    s = np.concatenate([s, np.zeros(4 - len(s))])
    dgram = inv.block_gram(geo, ("one-form", "scalar"))
    for kv in vt[s <= KERNEL_TOL * max(1.0, s[0])]:
        u = u - kv * float(kv @ dgram @ u) / float(kv @ dgram @ kv)
    gh, gm = P(
        inv.InvariantField("one-form", u[:3]), inv.InvariantField("scalar", u[3:])
    )
    beta = inv.InvariantField("one-form", u[:3])
    N = inv.InvariantField("scalar", u[3:])
    gamma_h = inv.InvariantField("sym2", pair.h.components - gh.components)
    gamma_m = inv.InvariantField("sym2", pair.m.components - gm.components)
    out = MoncriefSplit(N, beta, gh, gm, gamma_h, gamma_m)
    out.report = _moncrief_report(out, geom)
    return out


def moncrief_p_star(h, m, geom: SliceGeometry):
    """P*(h~, m~) = (-2 div h~, div div m~ - g~(Ric, m~))."""
    _require_split_slice(geom)
    if geom.is_torus:
        lat = h.lattice
        gi = geom.metric_inv
        kup = lat.modes.astype(float) @ gi.T
        hf = sym2_to_full(h.coeffs, geom.n)
        mf = sym2_to_full(m.coeffs, geom.n)
        row1 = -2j * np.einsum("ma,mab->mb", kup, hf)
        row2 = -np.einsum("ma,mb,mab->m", kup, kup, mf)
        return (
            SpectralField(lat, "one-form", row1),
            SpectralField(lat, "scalar", row2[:, None]),
        )
    op = inv.operator_matrix(geom.invariant_geometry, "moncrief_p_star")
    return op(h, m)


def _moncrief_report(split: MoncriefSplit, geom: SliceGeometry) -> dict:
    r1, r2 = moncrief_p_star(split.gamma_h, split.gamma_m, geom)
    if geom.is_torus:
        ortho = l2_inner(split.gauge_h, split.gamma_h) + l2_inner(
            split.gauge_m, split.gamma_m
        )
        return {
            "p_star_oneform": sobolev_norm(r1, 0.0),
            "p_star_scalar": sobolev_norm(r2, 0.0),
            "orthogonality": abs(ortho),
        }
    geo = geom.invariant_geometry
    g1 = inv.gram_matrix(geo, "one-form")
    g6 = inv.gram_matrix(geo, "sym2")
    ortho = float(
        split.gauge_h.components @ g6 @ split.gamma_h.components
        + split.gauge_m.components @ g6 @ split.gamma_m.components
    )
    return {
        "p_star_oneform": float(
            np.sqrt(max(r1.components @ g1 @ r1.components, 0.0))
        ),
        "p_star_scalar": abs(r2.components[0]) * np.sqrt(geo.volume),
        "orthogonality": abs(ortho),
    }


# ---------------------------------------------------------------------------
# Gauge-producing initial data
# ---------------------------------------------------------------------------


def gauge_producing_data(N, beta, geom: SliceGeometry) -> InitialDataPair:
    """The pair (h~, m~) induced on the slice by the gauge vector N nu + beta:

        h~ = Lie_beta g~ + 2 k~ N,
        m~ = Lie_beta k~ + Hess N + (2 k~ o k~ - Ric - (tr k~) k~) N.
    """
    if geom.is_torus:
        lat = N.lattice
        n = geom.n
        gi = geom.metric_inv
        K = geom.extrinsic
        k = lat.modes.astype(float)
        bup = beta.coeffs @ gi.T
        Ncol = N.coeffs[:, 0]
        lie_g = 1j * (
            np.einsum("ma,mb->mab", k, beta.coeffs)
            + np.einsum("mb,ma->mab", k, beta.coeffs)
        )
        h = lie_g + 2.0 * K[None] * Ncol[:, None, None]
        lie_k = 1j * (
            np.einsum("ma,mc,cb->mab", k, bup, K)
            + np.einsum("mb,mc,ca->mab", k, bup, K)
        )
        hess = -np.einsum("ma,mb->mab", k, k) * Ncol[:, None, None]
        pot = 2.0 * K @ gi @ K - geom.ricci - np.trace(gi @ K) * K
        m = lie_k + hess + pot[None] * Ncol[:, None, None]
        return InitialDataPair(
            SpectralField(lat, "sym2", sym2_from_full(h, n)),
            SpectralField(lat, "sym2", sym2_from_full(m, n)),
            geom,
        )
    if not isinstance(N, inv.InvariantField):
        raise ValueError("invariant slices carry invariant fields")
    geo = geom.invariant_geometry
    # k~ = 0 here: h~ = Lie_beta g~ and m~ = Hess N - Ric N (Hess of an
    # invariant lapse vanishes)
    h = inv.operator_matrix(geo, "lie_metric")(beta)
    m = inv.InvariantField("sym2", -geo.ricci_sym6() * N.components[0])
    return InitialDataPair(h, m, geom)
