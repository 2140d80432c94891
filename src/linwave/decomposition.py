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

P and P(beta, N) are written once, as maps of slice fields (P(beta, N) is
gauge_producing_data on a slice with k~ = 0), and slices.operator_matrices
reads their per-mode matrices off them on either backend (with i k kept
symbolic on a torus).  Only the split solve is per backend: the torus
inverts P mode by mode, Berger takes the least-norm least-squares solution,
as the one Moncrief solve does on both.  Everything else (the defining
equations, P*, forming gamma from the solved parts and the residual
reports) is written once too, with the operators, scalar_times, norms and
inner products of slices.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from . import invariant as inv
from .constraints import InitialDataPair
from .errors import InternalError
from .fields import SpectralField, component_gram
from .slices import (
    SliceGeometry,
    apply_slice_operator,
    operator_matrices,
    scalar_times,
    slice_inner,
    slice_max_abs,
    slice_norm,
    slice_stack,
    slice_unstack,
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

SPLIT_RANKS = ("scalar", "one-form")  # (phi, omega)
MONCRIEF_RANKS = ("one-form", "scalar")  # (beta, N)


def split_operator(params: SplitOperatorParams, geom: SliceGeometry, phi, omega) -> tuple:
    """P(phi, omega) = (Delta phi + a g~(Ric, L omega),  L*L omega + b d phi)."""
    Lw = apply_slice_operator(geom, "conformal_killing", omega)
    return (apply_slice_operator(geom, "laplacian", phi)
            + apply_slice_operator(geom, "ricci_pairing", Lw) * params.a,
            apply_slice_operator(geom, "ckl_normal", omega)
            + apply_slice_operator(geom, "d", phi) * params.b)


def split_matrices(params: SplitOperatorParams, geom: SliceGeometry, lattice=None):
    """Per-mode matrices of P on (phi, omega), (modes, n+1, n+1); Berger is one mode."""
    return operator_matrices(geom, partial(split_operator, params, geom), SPLIT_RANKS, lattice)


def kernel_basis(params: SplitOperatorParams, geom: SliceGeometry,
                 lattice=None) -> list:
    """Basis of ker(P): pairs (phi, omega) of constants and Killing forms, from
    singular values at or below KERNEL_TOL times the mode's largest (or 1)."""
    _require_split_slice(geom)
    M = split_matrices(params, geom, lattice)
    _, s, vt = np.linalg.svd(M)
    basis = []
    for i, j in zip(*np.nonzero(s <= KERNEL_TOL * np.maximum(1.0, s[:, :1]))):
        if geom.is_torus and np.any(lattice.modes[i] != 0):
            # the lemma predicts no nonzero-mode kernel on flat slices
            raise InternalError(
                f"decomposition.kernel_basis: unexpected kernel element at mode "
                f"{lattice.modes[i]}"
            )
        u = np.zeros(M.shape[:2])
        u[i] = vt[i, j].real
        basis.append(slice_unstack(geom, SPLIT_RANKS, u, lattice))
    return basis


def _least_squares(geom: SliceGeometry, A: np.ndarray, y: np.ndarray, rows, cols,
                   lattice=None):
    """Per mode, the least-squares solution of A u = y in the L^2 metric of
    the ranks `rows` with least L^2 norm in the ranks `cols`: the pinv at
    rcond KERNEL_TOL in u = Rd^-1 pinv(Rc A Rd^-1) Rc y, where R^T R is the
    pointwise Gram matrix of a rank tuple (the volume factor cancels).
    Slice operators have real coefficients, so on a torus A(-k) = conj A(k)
    and the fit runs on the rows lattice.half only, read as views, each of
    those modes also fitting its -k partner's data with the conjugate pinv,
    for real and complex y alike: the partners of the half are its rows of
    y[::-1], and k = 0 is its last row (see ModeLattice.half).

    On a torus A must be injective at every k != 0, as P(beta, N) is on the
    flat torus: there the fit solves the normal equations, one small Gram
    matrix B^H B per mode, and the rank-revealing pinv runs at k = 0 only."""
    Rc, Rd = (_gram_factor(geom, ranks) for ranks in (rows, cols))
    Rd_inv = np.linalg.inv(Rd)
    m, r, c = A.shape
    # Rc A Rd^-1 as one GEMM: X -> Rc X Rd^-1 is kron(Rc, Rd^-T) on rows of X
    B = (A.reshape(m, r * c) @ np.kron(Rc, Rd_inv.T).T).reshape(m, r, c)
    ry = y @ Rc.T
    if lattice is None:
        z = np.einsum("mcr,mr->mc", np.linalg.pinv(B, rcond=KERNEL_TOL), ry)
    else:
        half = lattice.half
        zero = half.stop - 1
        B_half = B[half]
        # each half mode fits its own data and, as pinv(-k) = conj pinv(k),
        # the conjugate of its partner's: two right-hand sides per mode
        rhs = np.stack([ry[half], np.conj(ry[::-1][half])], axis=-1)
        adj = np.conj(np.swapaxes(B_half, 1, 2))
        gram = adj @ B_half
        gram[zero] = np.eye(c)  # singular at k = 0, whose fit is the pinv below
        w = np.linalg.solve(gram, adj @ rhs)
        w[zero] = np.linalg.pinv(B_half[zero], rcond=KERNEL_TOL) @ rhs[zero]
        z = np.empty((m, c), w.dtype)
        z[zero:] = np.conj(w[::-1, :, 1])  # partners: row zero + j is at -k of row zero - j
        z[half] = w[..., 0]  # last, so k = 0, its own partner, keeps its own
    return z @ Rd_inv.T


def _gram_factor(geom: SliceGeometry, ranks) -> np.ndarray:
    """Upper Cholesky factor R, R^T R = G, of the block-diagonal pointwise
    Gram matrix G of the stacked components of `ranks`."""
    blocks = [np.linalg.cholesky(component_gram(r, geom.n, geom.metric_inv)).T for r in ranks]
    R = np.zeros((sum(map(len, blocks)),) * 2)
    for b, i in zip(blocks, np.cumsum([0] + [len(b) for b in blocks])):
        R[i:i + len(b), i:i + len(b)] = b
    return R


# ---------------------------------------------------------------------------
# The decomposition solve
# ---------------------------------------------------------------------------


def split_solve(source, which: str, geom: SliceGeometry) -> DecompositionResult:
    """Decompose source = gamma + L omega + C Ric + phi g~ for the given slot.

    Strategy: choose C by the solvability condition (0 when Ric = 0), form
    the right-hand side of the defining elliptic equation, invert P mode by
    mode (torus) or by the least-norm least-squares solve (invariant), so
    phi has zero mean and omega is orthogonal to Killing forms.
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
    rhs = slice_stack(geom, (r1, r2))
    M = split_matrices(params, geom, lat)
    u = np.zeros_like(rhs)
    nz = np.any(lat.modes != 0, axis=1)
    u[nz] = np.linalg.solve(M[nz], rhs[nz][..., None])[..., 0]
    # the zero mode carries the kernel; rhs vanishes there, so phi[1] = 0 and
    # omega is orthogonal to the (parallel) Killing forms by u[~nz] = 0
    return (0.0, *slice_unstack(geom, SPLIT_RANKS, u, lat))


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
    rhs = np.concatenate([[r1], r2])[None]
    u = _least_squares(geom, split_matrices(params, geom), rhs, SPLIT_RANKS, SPLIT_RANKS)
    return (C, *slice_unstack(geom, SPLIT_RANKS, u))


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
    remainder in ker(P*).  P(beta, N) is gauge_producing_data, as k~ = 0;
    (beta, N) is its least-squares fit to the pair in the L^2 metric, of
    least L^2 norm, so it is orthogonal to ker P (Killing beta plus lapses
    with Hess N = Ric N)."""
    geom = pair.geom
    _require_split_slice(geom)
    lat = pair.h.lattice if geom.is_torus else None

    def P(beta, N):
        gauge = gauge_producing_data(N, beta, geom)
        return gauge.h, gauge.m

    A = operator_matrices(geom, P, MONCRIEF_RANKS, lat)
    u = _least_squares(geom, A, slice_stack(geom, (pair.h, pair.m)), ("sym2", "sym2"),
                       MONCRIEF_RANKS, lat)
    beta, N = slice_unstack(geom, MONCRIEF_RANKS, u, lat)
    gauge_h, gauge_m = slice_unstack(geom, ("sym2", "sym2"), np.einsum("mri,mi->mr", A, u), lat)
    out = MoncriefSplit(N, beta, gauge_h, gauge_m, pair.h - gauge_h, pair.m - gauge_m)
    out.report = _moncrief_report(out, pair)
    return out


def moncrief_p_star(h, m, geom: SliceGeometry):
    """P*(h~, m~) = (-2 div h~, div div m~ - g~(Ric, m~))."""
    _require_split_slice(geom)

    def div(f):
        return apply_slice_operator(geom, "divergence", f)

    return (div(h) * -2.0,
            div(div(m)) - apply_slice_operator(geom, "ricci_pairing", m))


def _moncrief_report(split: MoncriefSplit, pair: InitialDataPair) -> dict:
    """P* of the remainder, and |<gauge, gamma>| / (||h~||^2 + ||m~||^2): its
    round-off grows with the data (on pure-gauge data gamma is round-off)."""
    geom = pair.geom
    r1, r2 = moncrief_p_star(split.gamma_h, split.gamma_m, geom)
    ortho = (slice_inner(geom, split.gauge_h, split.gamma_h)
             + slice_inner(geom, split.gauge_m, split.gamma_m))
    scale = slice_inner(geom, pair.h, pair.h) + slice_inner(geom, pair.m, pair.m)
    return {
        "p_star_oneform": slice_norm(geom, r1),
        "p_star_scalar": slice_norm(geom, r2),
        "orthogonality": abs(ortho) / scale if scale else 0.0,
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
