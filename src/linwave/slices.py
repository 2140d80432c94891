"""Background Cauchy slices and the differential operators acting on them.

Three slice kinds are supported:

  * FlatTorus{n}:       g = identity, k = 0, flat; n = 2 or 3.
  * KasnerSlice{p, t0}: g = diag(t0^{2 p_i}), k = diag(p_i t0^{2 p_i - 1});
                        spatially constant, hence still a flat metric.
  * BergerInvariant:    invariant sector of a Berger sphere (invariant.py).

slice_operator is the one implementation of every slice operator on both
backends, on stored coefficients at any set of torus modes, and
apply_slice_operator its front for fields.  Each operator is written once,
in _full_operator, as contractions with g~^-1 of one covariant derivative
nabla, and a backend supplies only that nabla: i k_a per mode on a torus,
or the shift fields.times_ik with i k symbolic, invariant.nabla on Berger.
nabla also takes the tensor its derivative index is contracted against,
so the torus divergence never forms nabla T.  The ranks each operator
takes and returns are one table, _RANKS, checked once.  With a constant
symmetric tensor T of the slice (g~, k~, Ric), scalar_times is the sym2
field f T of a scalar f and slice_pairing the scalar g~(T, h), so
zeroth-order terms are written once too.
dphi_modes is the linearised constraint map DPhi, written once over them.
slice_norm, slice_inner and slice_max_abs are the matching L^2 norm, inner
product and largest coefficient modulus.  symbolic_coefficients reads the
k-polynomial coefficients of a linear map built from these (P, P(beta, N),
DPhi, DPhi of induced spacetime data) off one application on all its unit
columns with i k symbolic; operator_matrices evaluates them on a lattice.
Sign conventions: Delta = delta d + d delta (positive), delta = -div,
Hess(phi)_{ij} = -k_i k_j phi per mode, L* h = -2 div h + (2/n) d tr h,
trace reversal h - (1/2)(tr h) g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import invariant as inv
from .fields import (
    SpectralField,
    ik_phase,
    l2_inner,
    monomial_basis,
    rank_components,
    sobolev_norm,
    sym2_from_full,
    sym2_to_full,
    times_ik,
)


@dataclass(frozen=True)
class SliceGeometry:
    """A background Cauchy slice: metric, extrinsic curvature, curvature."""

    kind: str  # "flat-torus" | "kasner" | "berger"
    n: int
    metric: np.ndarray            # torus: constant (n, n); berger: frame metric
    extrinsic: np.ndarray         # same layout as metric
    params: dict

    @property
    def is_torus(self) -> bool:
        return self.kind in ("flat-torus", "kasner")

    @cached_property
    def metric_inv(self) -> np.ndarray:
        gi = np.linalg.inv(self.metric)
        gi.setflags(write=False)
        return gi

    @property
    def ricci(self) -> np.ndarray:
        if self.is_torus:
            return np.zeros((self.n, self.n))
        return self.invariant_geometry.ricci

    @property
    def scal(self) -> float:
        if self.is_torus:
            return 0.0
        return self.invariant_geometry.scal

    @property
    def invariant_geometry(self) -> inv.InvariantGeometry:
        if self.is_torus:
            raise ValueError("torus slices have no invariant frame")
        return self.params["geometry"]

    @property
    def scalar_flat(self) -> bool:
        return abs(self.scal) <= 1e-10 and np.max(np.abs(self.extrinsic)) <= 1e-13


def kasner_exponents(p) -> np.ndarray:
    """The Kasner exponents as a float triple; ValueError unless
    sum p = sum p^2 = 1 (to 1e-12)."""
    p = np.asarray(p, float)
    if p.shape != (3,):
        raise ValueError("Kasner exponents must be a triple")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"Kasner exponents p must be finite, got {p.tolist()}")
    s1, s2 = float(np.sum(p)), float(np.sum(p ** 2))
    if abs(s1 - 1.0) > 1e-12 or abs(s2 - 1.0) > 1e-12:
        raise ValueError(
            f"Kasner exponents must satisfy sum p = sum p^2 = 1; "
            f"got sum p = {s1!r}, sum p^2 = {s2!r}"
        )
    return p


def slice_geometry(kind: str, **params) -> SliceGeometry:
    """Construct and validate a background slice.

    flat-torus: n (2 or 3).
    kasner:     p (exponent triple with sum p = sum p^2 = 1), t0 > 0.
    berger:     lam (squashing; default the scalar-flat value
                inv.SCALAR_FLAT_LAMBDA = 4).
    """
    if kind == "flat-torus":
        n = int(params.get("n", 3))
        if n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got n = {n}")
        return SliceGeometry(kind, n, np.eye(n), np.zeros((n, n)), {})
    if kind == "kasner":
        if "p" not in params:
            raise ValueError("Kasner slice needs its exponent triple p")
        p = kasner_exponents(params["p"])
        t0 = float(params.get("t0", 1.0))
        if not np.isfinite(t0):
            raise ValueError(f"Kasner slice time t0 must be finite, got {t0}")
        if t0 <= 0:
            raise ValueError("Kasner slice time must be positive (t = 0 is singular)")
        with np.errstate(all="ignore"):  # refused below, not warned about
            g, k = t0 ** (2 * p), p * t0 ** (2 * p - 1)
            if not np.all(np.isfinite([g, 1.0 / g, k])):
                raise ValueError(f"Kasner slice time t0 must be finite with g~, g~^-1 and k~ "
                                 f"finite at it, got {t0!r}")
        return SliceGeometry(kind, 3, np.diag(g), np.diag(k), {"p": p, "t0": t0})
    if kind == "berger":
        lam = params.get("lam")
        lam = float(inv.SCALAR_FLAT_LAMBDA if lam is None else lam)
        if not np.isfinite(lam):
            raise ValueError(f"Berger squashing lam must be finite, got {lam}")
        geo = inv.InvariantGeometry(np.diag([lam, 1.0, 1.0]))
        return SliceGeometry(kind, 3, geo.metric, np.zeros((3, 3)), {"lam": lam, "geometry": geo})
    raise ValueError(f"unknown slice kind {kind!r}")


# ---------------------------------------------------------------------------
# Slice operators, norms and inner products on both backends
# ---------------------------------------------------------------------------


def slice_norm(geom: SliceGeometry, f) -> float:
    """L^2 norm of a slice field: sobolev_norm(f, 0) on a torus, the
    volume-weighted invariant norm sqrt(c . gram . c) on Berger."""
    if geom.is_torus:
        return sobolev_norm(f, 0.0)
    c = f.components
    gram = inv.gram_matrix(geom.invariant_geometry, f.rank)
    return float(np.sqrt(max(c @ gram @ c, 0.0)))


def slice_inner(geom: SliceGeometry, a, b) -> float:
    """L^2 inner product with the slice metric contraction."""
    if geom.is_torus:
        return l2_inner(a, b, metric=geom.metric)
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    gram = inv.gram_matrix(geom.invariant_geometry, a.rank)
    return float(a.components @ gram @ b.components)


def slice_max_abs(geom: SliceGeometry, f) -> float:
    """Largest coefficient modulus of a slice field."""
    return float(np.max(np.abs(f.coeffs if geom.is_torus else f.components)))


# kind -> {input rank: output rank}: the rank map of every slice operator,
# read by both backends.  laplacian is the Hodge Laplacian, on scalars and
# one-forms.
_RANKS = {
    "trace": {"sym2": "scalar"},
    "trace_reverse": {"sym2": "sym2"},
    "divergence": {"sym2": "one-form", "one-form": "scalar"},
    "laplacian": {"scalar": "scalar", "one-form": "one-form"},
    "d": {"scalar": "one-form"},
    "hessian": {"scalar": "sym2"},
    "lie_metric": {"one-form": "sym2"},
    "lie_extrinsic": {"one-form": "sym2"},
    "conformal_killing": {"one-form": "sym2"},
    "ckl_adjoint": {"sym2": "one-form"},
    "ckl_normal": {"one-form": "one-form"},
    "ricci_pairing": {"sym2": "scalar"},
}


def scalar_times(geom: SliceGeometry, f, T: np.ndarray) -> "SpectralField | inv.InvariantField":
    """The sym2 field f T of a scalar field f and a constant symmetric
    tensor T of the slice (its metric, k~ or Ric), given as a full matrix."""
    _check_field(geom, f)
    _need(f.rank, ("scalar",), "scalar_times")
    T = sym2_from_full(T, geom.n)
    if geom.is_torus:
        return SpectralField(f.lattice, "sym2", f.coeffs[:, :1] * T)
    return inv.InvariantField("sym2", f.components[0] * T)


def slice_pairing(geom: SliceGeometry, T: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g~(T, h) = g^ip g^jq T_ij h_pq (B, 1) of a constant symmetric tensor T
    (full (n, n)) and stored sym2 coefficients h (B, ncomp)."""
    gi = geom.metric_inv
    return _contract(gi @ T @ gi, _full_tensors(h, "sym2", geom.n))[:, None]


def apply_slice_operator(
    geom: SliceGeometry, kind: str, field
) -> "SpectralField | inv.InvariantField":
    """slice_operator on a field's stored coefficients (and lattice modes)."""
    _check_field(geom, field)
    if geom.is_torus:
        out = slice_operator(geom, kind, field.rank, field.coeffs, field.lattice.modes)
        return SpectralField(field.lattice, _RANKS[kind][field.rank], out)
    out = slice_operator(geom, kind, field.rank, field.components[None])
    return inv.InvariantField(_RANKS[kind][field.rank], out[0])


def slice_operator(geom: SliceGeometry, kind: str, rank: str, c: np.ndarray,
                   modes=None) -> np.ndarray:
    """A slice differential operator on the stored coefficients c (B, ncomp)
    of a field of `rank`, at the integer modes (B, n) of a torus (any set:
    each mode is independent) or with modes None and B = 1 on Berger.
    Returns the stored coefficients of the result.

    Kinds: trace, trace_reverse, divergence (of a one-form or a sym2
    tensor), laplacian, d, hessian, lie_metric (beta -> Lie_beta g~),
    lie_extrinsic (beta -> Lie_beta k~), conformal_killing, its adjoint
    ckl_adjoint and ckl_normal = L*L, and ricci_pairing, slice_pairing
    with Ric.  The ranks each takes and returns are _RANKS; an unknown kind
    or a rank not there is a ValueError.
    """
    if kind not in _RANKS:
        raise ValueError(f"unknown slice operator kind {kind!r}")
    _need(rank, _RANKS[kind], kind)
    if kind == "ricci_pairing":
        return slice_pairing(geom, geom.ricci, c)
    n = geom.n
    out = _full_operator(geom, kind, _covariant_derivative(geom, modes), _full_tensors(c, rank, n))
    out = out.reshape(-1, out.shape[-1])
    if _RANKS[kind][rank] == "sym2":  # the rows of the stored upper triangle
        out = out[sym2_from_full(np.arange(n * n).reshape(n, n), n)]
    return np.ascontiguousarray(out.T)


def _full_tensors(c: np.ndarray, rank: str, n: int) -> np.ndarray:
    """Stored coefficients (B, ncomp) -> full tensors (n, ..., n, B)."""
    c = c.T
    if rank == "sym2":
        c = c[sym2_to_full(np.arange(len(c)), n)]
    return np.ascontiguousarray(c[0] if rank == "scalar" else c)


def _contract(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A^{ab} X_{ab...} over the first two slots of X."""
    return (A.ravel() @ X.reshape(A.size, -1)).reshape(X.shape[2:])


def _need(rank: str, ranks, kind: str):
    if rank not in ranks:
        raise ValueError(f"operator {kind!r} expects rank {' or '.join(ranks)}, got {rank}")


def _check_field(geom: SliceGeometry, field):
    """Refuse a field of the other backend, or of another torus dimension."""
    if not geom.is_torus:
        if not isinstance(field, inv.InvariantField):
            raise ValueError("invariant slice operators act on InvariantField values")
        return
    if not isinstance(field, SpectralField):
        raise ValueError("torus slice operators act on SpectralField values")
    if field.lattice.n != geom.n:
        raise ValueError(f"field dimension {field.lattice.n} != slice dimension {geom.n}")


def _covariant_derivative(geom: SliceGeometry, modes):
    """The backend's nabla on full tensors (n, ..., n, B) with the batch axis
    last: nabla(T) is nabla T (n, n, ..., n, B), derivative index first, and
    nabla(T, A) is A^{ab} nabla_a T_b... for a constant (n, n) tensor A, the
    derivative index contracted with T's first slot.  On a torus nabla is
    i k_a at the integer modes (B, n), where nabla(T, A) never forms nabla T,
    or with modes None the shift times_ik on B rows that are groups of the
    monomials (i k)^e, each group one symbolic field; on Berger, whose
    invariant frame components are constant, it is inv.nabla."""
    if geom.is_torus and modes is not None:
        ik = np.ascontiguousarray(1j * modes.T)

        def nabla(T, A=None):
            if A is None:
                return ik.reshape((geom.n,) + (1,) * (T.ndim - 1) + ik.shape[1:]) * T
            w = A.T @ ik  # w_b = A^{ab} i k_a, one row per slot b of T
            out = w[0] * T[0]
            for b in range(1, geom.n):
                out += w[b] * T[b]
            return out
        return nabla

    def derivative(T):
        if not geom.is_torus:
            return inv.nabla(geom.invariant_geometry, T[..., 0])[..., None]
        groups = T.reshape(T.shape[:-1] + (-1, len(ik_phase(geom.n))))  # (..., group, e)
        return times_ik(groups, geom.n, "slices.slice_operator").reshape((geom.n,) + T.shape)

    def nabla(T, A=None):
        DT = derivative(T)
        return DT if A is None else _contract(A, DT)
    return nabla


def _full_operator(geom: SliceGeometry, kind: str, nabla, T: np.ndarray) -> np.ndarray:
    """The slice operator `kind` on full tensors T (n, ..., n, B), written
    once for both backends from their covariant derivative nabla.  With
    the batch axis last every broadcast runs along it, and a contraction
    is a matrix product over the leading slots."""
    n, g, gi = geom.n, geom.metric, geom.metric_inv

    def div(X):
        return nabla(X, gi)

    def sym(A):
        return A + np.swapaxes(A, 0, 1)

    def conformal_killing(w):
        Dw = nabla(w)
        return sym(Dw) - (2.0 / n) * g[..., None] * _contract(gi, Dw)

    def ckl_adjoint(h):
        return -2.0 * div(h) + (2.0 / n) * nabla(_contract(gi, h))

    if kind == "trace":
        return _contract(gi, T)
    if kind == "trace_reverse":
        return T - g[..., None] * _contract(gi, T) * 0.5
    if kind == "divergence":
        return div(T)
    if kind == "d":
        return nabla(T)
    if kind == "hessian":
        return nabla(nabla(T))
    if kind == "laplacian":
        # Delta = delta d + d delta with delta = -div: -div d f on scalars,
        # -div(d w) - d div w on one-forms, (d w)_ab = nabla_a w_b - nabla_b w_a
        Df = nabla(T)
        if T.ndim == 1:
            return -div(Df)
        return -div(Df - np.swapaxes(Df, 0, 1)) - nabla(_contract(gi, Df))
    if kind == "lie_metric":
        return sym(nabla(T))
    if kind == "lie_extrinsic":
        # Lie_beta k~ = beta^c nabla_c k~ + k~_cb (nabla_a beta)^c + (a <-> b);
        # the first term is dropped, as nabla k~ = 0 on every supported slice
        # (constant on a flat torus, zero on Berger)
        return sym((geom.extrinsic @ gi) @ nabla(T))
    if kind == "conformal_killing":
        return conformal_killing(T)
    if kind == "ckl_adjoint":
        return ckl_adjoint(T)
    return ckl_adjoint(conformal_killing(T))  # ckl_normal


def dphi_modes(geom: SliceGeometry, modes, h: np.ndarray, m: np.ndarray):
    """The linearised constraint map, written once:

        DPhi_1 = div div h + Delta tr h - g~(Ric, h) + g~(A, h)
                 - 2 (g~(k~, m) - tr k~ tr m),   A = 2 (k~ o k~ - tr k~ k~),
        DPhi_2 = -(div hbar) . (g~^-1 k~) + (1/2) d g~(k~, h) + div m - d tr m,

    (k~ o k~)_ab = k~_ac g^cd k~_db, Delta the positive Laplacian; the term
    g~(h, nabla k~(., X)) is dropped, as nabla k~ = 0 on every supported
    slice.  h and m are stored sym2 coefficients (B, ncomp) at the modes of
    slice_operator (symbolic rows with modes None on a torus); returns
    DPhi_1 (B, 1) and DPhi_2 (B, n).
    """
    gi, K = geom.metric_inv, geom.extrinsic

    def op(kind, rank, c):
        return slice_operator(geom, kind, rank, c, modes)

    trK = np.trace(gi @ K)
    A = 2.0 * (K @ gi @ K - trK * K)
    tr_h, tr_m = op("trace", "sym2", h), op("trace", "sym2", m)
    div_h = op("divergence", "sym2", h)
    dphi1 = (op("divergence", "one-form", div_h)
             + op("laplacian", "scalar", tr_h)
             - slice_pairing(geom, geom.ricci, h) + slice_pairing(geom, A, h)
             - 2.0 * (slice_pairing(geom, K, m) - trK * tr_m))
    div_hbar = div_h - 0.5 * op("d", "scalar", tr_h)  # g~ is parallel
    dphi2 = (-div_hbar @ (gi @ K) + 0.5 * op("d", "scalar", slice_pairing(geom, K, h))
             + op("divergence", "sym2", m) - op("d", "scalar", tr_m))
    return dphi1, dphi2


# ---------------------------------------------------------------------------
# Per-mode matrices of a linear map of slice fields
# ---------------------------------------------------------------------------


def slice_stack(geom: SliceGeometry, fields) -> np.ndarray:
    """(modes, components) of a tuple of fields side by side; Berger is one mode."""
    if geom.is_torus:
        return np.concatenate([f.coeffs for f in fields], axis=1)
    return np.concatenate([f.components for f in fields])[None]


def slice_unstack(geom: SliceGeometry, ranks, u: np.ndarray, lattice=None) -> tuple:
    """The fields of `ranks` (on `lattice`, for a torus) whose slice_stack is u."""
    ends = np.cumsum([rank_components(r, geom.n) for r in ranks])
    return tuple(SpectralField(lattice, r, b) if geom.is_torus else inv.InvariantField(r, b[0])
                 for r, b in zip(ranks, np.split(u, ends[:-1], axis=1)))


def symbolic_coefficients(n: int, ncols: int, apply) -> np.ndarray:
    """The coefficients C (npoly, rows, ncols) of k^e of a linear map acting
    mode by mode on a torus, read off one application with i k symbolic
    (see _covariant_derivative): apply maps stored rows (ncols * npoly,
    ncols), a group of npoly monomial rows per column with its unit at the
    constant monomial, to output rows whose groups hold the coefficients
    C'_e of (i k)^e; C_e = i^deg(e) C'_e (InternalError at k-degree 3)."""
    phase = ik_phase(n)
    units = np.zeros((ncols, len(phase), ncols))
    units[:, 0] = np.eye(ncols)
    out = apply(units.reshape(-1, ncols)).reshape(ncols, len(phase), -1)
    return phase[:, None, None] * np.moveaxis(out, 0, -1)


def operator_matrices(geom: SliceGeometry, F, ranks, lattice=None) -> np.ndarray:
    """Per-mode matrices (modes, rows, cols) of a linear map F from fields of
    `ranks` to a tuple of fields, in slice_stack order.  Slice operators act
    mode by mode, so F of the unit field of one input component (the same
    at every mode) is that column.  On a torus F runs once, on the symbolic
    rows of symbolic_coefficients, and the matrices on `lattice` are
    monomial_basis @ C; on Berger, one mode, it runs once per column."""
    n = geom.n
    if geom.is_torus and (lattice is None or lattice.n != n):
        raise ValueError(f"torus operator matrices need a mode lattice of dimension {n}")
    ncols = sum(rank_components(r, n) for r in ranks)
    if not geom.is_torus:
        return np.stack([slice_stack(geom, F(*slice_unstack(geom, ranks, u[None])))
                         for u in np.eye(ncols)], axis=-1)
    rows = SimpleNamespace(n=n, num_modes=ncols * len(ik_phase(n)), modes=None)  # symbolic
    C = symbolic_coefficients(
        n, ncols, lambda u: slice_stack(geom, F(*slice_unstack(geom, ranks, u, rows))))
    return (monomial_basis(lattice.modes) @ C.reshape(len(C), -1)).reshape(
        (lattice.num_modes,) + C.shape[1:])
