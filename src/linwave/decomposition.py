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

Each backend keeps only its solve: the torus inverts P and the Moncrief
normal equations mode by mode, Berger by least squares with kernel
deflation.  Everything around the solves (the defining equations, P*,
gauge-producing data, forming gamma from the solved parts and the residual
reports) is written once, for both, with the operators, scalar_times,
norms and inner products of slices.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import invariant as inv
from .constraints import InitialDataPair
from .errors import InternalError
from .fields import SpectralField, component_weights, sym2_index_pairs, zero_field
from .slices import (
    SliceGeometry,
    apply_slice_operator,
    scalar_times,
    slice_inner,
    slice_max_abs,
    slice_norm,
)

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


def _null_space(M: np.ndarray) -> np.ndarray:
    """Rows of vt spanning the null space of a square or tall matrix M:
    singular values at or below KERNEL_TOL times the largest (or 1)."""
    _, s, vt = np.linalg.svd(M)
    return vt[s <= KERNEL_TOL * max(1.0, s[0])]


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
            for v in _null_space(M[i]):
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
    return [
        (inv.InvariantField("scalar", v[:1]), inv.InvariantField("one-form", v[1:]))
        for v in _null_space(op.matrix)
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
    solve = _split_solve_torus if geom.is_torus else _split_solve_invariant
    C, phi, omega = solve(source, which, params, geom)
    parts = [apply_slice_operator(geom, "conformal_killing", omega)]
    if C:  # C = 0 unless Ric != 0, so only on Berger
        parts.append(scalar_times(geom, inv.InvariantField("scalar", [C]), geom.ricci))
    parts.append(scalar_times(geom, phi, geom.metric))
    gamma = source
    for part in parts:
        gamma = gamma - part
    recon = gamma
    for part in parts:
        recon = recon + part
    rec = slice_max_abs(geom, recon - source) / max(slice_max_abs(geom, source), 1e-30)
    res = DecompositionResult(gamma, omega, C, phi)
    res.residuals = {"reconstruction_rel": rec, **gamma_equation_norms(gamma, which, geom)}
    return res


def _split_solve_torus(source: SpectralField, which, params, geom: SliceGeometry):
    lat = source.lattice
    tr = apply_slice_operator(geom, "trace", source)
    # Ric = 0: C = 0 by convention, and the g~(., Ric) source terms vanish.
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
    return 0.0, SpectralField(lat, "scalar", u[:, :1]), SpectralField(lat, "one-form", u[:, 1:])


def _split_solve_invariant(source: inv.InvariantField, which, params, geom: SliceGeometry):
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
    return C, inv.InvariantField("scalar", u[:1]), inv.InvariantField("one-form", u[1:])


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
    solve = _moncrief_torus if geom.is_torus else _moncrief_invariant
    N, beta, gauge_h, gauge_m = solve(pair, geom)
    out = MoncriefSplit(N, beta, gauge_h, gauge_m, pair.h - gauge_h, pair.m - gauge_m)
    out.report = _moncrief_report(out, geom)
    return out


def _moncrief_torus(pair: InitialDataPair, geom: SliceGeometry):
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
    return (SpectralField(lat, "scalar", u[:, n:]), SpectralField(lat, "one-form", u[:, :n]),
            SpectralField(lat, "sym2", gauge[:, :ncomp]),
            SpectralField(lat, "sym2", gauge[:, ncomp:]))


def _moncrief_invariant(pair: InitialDataPair, geom: SliceGeometry):
    geo = geom.invariant_geometry
    P = inv.operator_matrix(geo, "moncrief_p")
    gram = inv.block_gram(geo, ("sym2", "sym2"))
    R = np.linalg.cholesky(gram)
    x = np.concatenate([pair.h.components, pair.m.components])
    u, *_ = np.linalg.lstsq(R.T @ P.matrix, R.T @ x, rcond=KERNEL_TOL)
    # deflate ker(P): Killing beta plus lapses with Hess N = Ric N
    dgram = inv.block_gram(geo, ("one-form", "scalar"))
    for kv in _null_space(P.matrix):
        u = u - kv * float(kv @ dgram @ u) / float(kv @ dgram @ kv)
    beta = inv.InvariantField("one-form", u[:3])
    N = inv.InvariantField("scalar", u[3:])
    return (N, beta, *P(beta, N))


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
    gi, K = geom.metric_inv, geom.extrinsic
    h = apply_slice_operator(geom, "lie_metric", beta) + scalar_times(geom, N, 2.0 * K)
    pot = 2.0 * K @ gi @ K - geom.ricci - np.trace(gi @ K) * K
    m = (apply_slice_operator(geom, "lie_extrinsic", beta)
         + apply_slice_operator(geom, "hessian", N) + scalar_times(geom, N, pot))
    return InitialDataPair(h, m, geom)
