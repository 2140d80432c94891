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

Each backend inverts P its own way (per-mode solves on a torus, least
squares with kernel deflation on Berger), but the defining equations, P*
and the residual reports are written once, for both, with the operators,
norms and inner products of slices.py.
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
    sym2_from_full,
    sym2_index_pairs,
    zero_field,
)
from .slices import SliceGeometry, apply_slice_operator, slice_inner, slice_norm

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
    tr = apply_slice_operator(geom, "trace", source)
    # Ric = 0: C = 0 by convention, and the g~(., Ric) source terms vanish.
    C = 0.0
    r1 = apply_slice_operator(geom, "laplacian", tr) * (1.0 / geom.n)
    r2 = apply_slice_operator(geom, "divergence", source) * -2.0
    if which == "momentum":
        r2 = r2 + apply_slice_operator(geom, "d", tr) * 2.0
    rhs = np.concatenate([r1.coeffs, r2.coeffs], axis=1)
    M = _torus_split_matrices(geom, params, lat.modes)
    u = np.zeros_like(rhs)
    nz = np.any(lat.modes != 0, axis=1)
    u[nz] = np.linalg.solve(M[nz], rhs[nz][..., None])[..., 0]
    # the zero mode carries the kernel; rhs vanishes there, so phi[1] = 0 and
    # omega is orthogonal to the (parallel) Killing forms by u[~nz] = 0
    phi = SpectralField(lat, "scalar", u[:, :1])
    omega = SpectralField(lat, "one-form", u[:, 1:])
    Lw = apply_slice_operator(geom, "conformal_killing", omega)
    gsym = sym2_from_full(geom.metric, geom.n)
    gamma = SpectralField(
        lat, "sym2", source.coeffs - Lw.coeffs - u[:, :1] * gsym[None]
    )
    res = DecompositionResult(gamma, omega, C, phi)
    res.residuals = _split_report(source, res, which, geom)
    return res


def _split_solve_invariant(source: inv.InvariantField, which, params,
                           geom: SliceGeometry) -> DecompositionResult:
    geo = geom.invariant_geometry
    ric = inv.InvariantField("sym2", geo.ricci_sym6())
    gRR, gaR = (
        float(apply_slice_operator(geom, "ricci_pairing", f).components[0]) for f in (ric, source)
    )
    C = gaR / gRR if gRR > KERNEL_TOL else 0.0
    # invariant scalars are constants: Delta tr alpha = 0 and d tr = 0, and
    # the choice of C makes the scalar row of the right-hand side vanish
    sign = -1.0 if which == "position" else 1.0
    r1 = sign * (gaR - C * gRR) / geom.n
    r2 = -2.0 * apply_slice_operator(geom, "divergence", source).components
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
    Lw = apply_slice_operator(geom, "conformal_killing", omega)
    gamma = inv.InvariantField(
        "sym2",
        source.components - Lw.components - C * ric.components
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
    """Residual norms of the two defining equations for one slot:
    Delta tr h -+ g~(Ric, h) (- for position, + for momentum), and div h
    for position, div h - d tr h for momentum."""
    _require_split_slice(geom)
    if which not in ("position", "momentum"):
        raise ValueError(f"unknown part {which!r}")
    sign = -1.0 if which == "position" else 1.0
    tr = apply_slice_operator(geom, "trace", field)
    scalar = (apply_slice_operator(geom, "laplacian", tr)
              + apply_slice_operator(geom, "ricci_pairing", field) * sign)
    vec = apply_slice_operator(geom, "divergence", field)
    if which == "momentum":
        vec = vec - apply_slice_operator(geom, "d", tr)
    return {
        f"{which}_scalar_eq": slice_norm(geom, scalar),
        f"{which}_divergence_eq": slice_norm(geom, vec),
    }


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

    def div(f):
        return apply_slice_operator(geom, "divergence", f)

    return (div(h) * -2.0,
            div(div(m)) - apply_slice_operator(geom, "ricci_pairing", m))


def _moncrief_report(split: MoncriefSplit, geom: SliceGeometry) -> dict:
    r1, r2 = moncrief_p_star(split.gamma_h, split.gamma_m, geom)
    ortho = slice_inner(geom, split.gauge_h, split.gamma_h) + slice_inner(
        geom, split.gauge_m, split.gamma_m
    )
    return {
        "p_star_oneform": slice_norm(geom, r1),
        "p_star_scalar": slice_norm(geom, r2),
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
    lie_g = apply_slice_operator(geom, "lie_metric", beta)
    if geom.is_torus:
        lat = N.lattice
        n = geom.n
        gi = geom.metric_inv
        K = geom.extrinsic
        k = lat.modes.astype(float)
        bup = beta.coeffs @ gi.T
        Ncol = N.coeffs[:, :1]
        h = lie_g.coeffs + sym2_from_full(2.0 * K, n)[None] * Ncol
        lie_k = 1j * (
            np.einsum("ma,mc,cb->mab", k, bup, K)
            + np.einsum("mb,mc,ca->mab", k, bup, K)
        )
        hess = apply_slice_operator(geom, "hessian", N)
        pot = 2.0 * K @ gi @ K - geom.ricci - np.trace(gi @ K) * K
        m = sym2_from_full(lie_k, n) + hess.coeffs + sym2_from_full(pot, n)[None] * Ncol
        return InitialDataPair(
            SpectralField(lat, "sym2", h), SpectralField(lat, "sym2", m), geom
        )
    if not isinstance(N, inv.InvariantField):
        raise ValueError("invariant slices carry invariant fields")
    # k~ = 0 here: h~ = Lie_beta g~ and m~ = Hess N - Ric N (Hess of an
    # invariant lapse vanishes)
    m = inv.InvariantField("sym2", -geom.invariant_geometry.ricci_sym6() * N.components[0])
    return InitialDataPair(lie_g, m, geom)
