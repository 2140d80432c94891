"""Background Cauchy slices and the differential operators acting on them.

Three slice kinds are supported:

  * FlatTorus{n}:       g = identity, k = 0, flat; n = 2 or 3.
  * KasnerSlice{p, t0}: g = diag(t0^{2 p_i}), k = diag(p_i t0^{2 p_i - 1});
                        spatially constant, hence still a flat metric.
  * BergerInvariant:    invariant sector of a Berger sphere (invariant.py).

apply_slice_operator is the one implementation of every slice operator
(trace, trace reversal, divergence, Laplacian, d, Hessian, the Lie
derivatives of the metric and of the extrinsic curvature, the conformal
Killing operator L, L* and L*L, and the Ricci pairing g~(Ric, h)) on both
backends, so an equation written with it holds for either.  Each operator
is written once, in _full_operator, as contractions with g~^-1 of one
covariant derivative nabla, and a backend supplies only that nabla: i k_a
per mode on a torus, invariant.nabla on Berger.  The ranks each operator
takes and returns are one table, _RANKS, checked once.  scalar_times
multiplies a scalar field by a constant tensor of the slice (g~, k~ or
Ric), so the zeroth-order terms of an equation are written once too.
slice_norm, slice_inner and slice_max_abs are the matching L^2 norm, inner
product and largest coefficient modulus.  operator_matrices reads the
per-mode matrices of a linear map built from these (P, P(beta, N), DPhi)
off unit fields.
Sign conventions: Delta = delta d + d delta (positive), delta = -div,
Hess(phi)_{ij} = -k_i k_j phi per mode, L* h = -2 div h + (2/n) d tr h,
trace reversal h - (1/2)(tr h) g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import invariant as inv
from .errors import InternalError
from .fields import (
    ModeLattice,
    SpectralField,
    l2_inner,
    monomial_basis,
    quadratic_coefficients,
    quadratic_probes,
    rank_components,
    sobolev_norm,
    sym2_from_full,
    sym2_to_full,
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
        g = np.diag(t0 ** (2 * p))
        k = np.diag(p * t0 ** (2 * p - 1))
        return SliceGeometry(kind, 3, g, k, {"p": p, "t0": t0})
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
    _need(f, ("scalar",), "scalar_times")
    T = sym2_from_full(T, geom.n)
    if geom.is_torus:
        return SpectralField(f.lattice, "sym2", f.coeffs[:, :1] * T)
    return inv.InvariantField("sym2", f.components[0] * T)


def apply_slice_operator(
    geom: SliceGeometry, kind: str, field
) -> "SpectralField | inv.InvariantField":
    """Apply a slice differential operator.

    Kinds: trace, trace_reverse, divergence (of a one-form or a sym2
    tensor), laplacian, d, hessian, lie_metric (beta -> Lie_beta g~),
    lie_extrinsic (beta -> Lie_beta k~), conformal_killing, its adjoint
    ckl_adjoint and ckl_normal = L*L, and ricci_pairing, the scalar
    g~(Ric, h) of a sym2 tensor h.  The ranks each takes and returns are
    _RANKS; an unknown kind or a rank not there is a ValueError.
    """
    _check_field(geom, field)
    if kind not in _RANKS:
        raise ValueError(f"unknown slice operator kind {kind!r}")
    _need(field, _RANKS[kind], kind)
    if kind == "trace_reverse":
        tr = apply_slice_operator(geom, "trace", field)
        return field - scalar_times(geom, tr, geom.metric) * 0.5
    # stored components (B, ncomp) -> full tensors (n, ..., n, B) with the
    # batch axis last, B the modes of a torus field and 1 on Berger, and back
    n = geom.n
    c = (field.coeffs if geom.is_torus else field.components[None]).T
    if field.rank == "sym2":
        c = c[sym2_to_full(np.arange(len(c)), n)]
    T = np.ascontiguousarray(c[0] if field.rank == "scalar" else c)
    rank = _RANKS[kind][field.rank]
    out = _full_operator(geom, kind, _covariant_derivative(geom, field), T)
    out = out.reshape(-1, out.shape[-1])
    if rank == "sym2":  # the rows of the stored upper triangle
        out = out[sym2_from_full(np.arange(n * n).reshape(n, n), n)]
    out = np.ascontiguousarray(out.T)
    if geom.is_torus:
        return SpectralField(field.lattice, rank, out)
    return inv.InvariantField(rank, out[0])


def _need(field, ranks, kind: str):
    if field.rank not in ranks:
        raise ValueError(f"operator {kind!r} expects rank {' or '.join(ranks)}, got {field.rank}")


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


def _covariant_derivative(geom: SliceGeometry, field):
    """The backend's nabla on full tensors (n, ..., n, B) with the batch axis
    last: nabla T (n, n, ..., n, B), derivative index first.  On a torus it
    is i k_a per mode; on Berger, whose invariant frame components are
    constant, inv.nabla."""
    if geom.is_torus:
        ik = np.ascontiguousarray(1j * field.lattice.modes.T)
        return lambda T: ik.reshape((geom.n,) + (1,) * (T.ndim - 1) + ik.shape[1:]) * T
    geo = geom.invariant_geometry
    return lambda T: inv.nabla(geo, T[..., 0])[..., None]


def _full_operator(geom: SliceGeometry, kind: str, nabla, T: np.ndarray) -> np.ndarray:
    """The slice operator `kind` on full tensors T (n, ..., n, B), written
    once for both backends from their covariant derivative nabla.  With
    the batch axis last every broadcast runs along it, and a contraction
    is a matrix product over the leading slots."""
    n, g, gi = geom.n, geom.metric, geom.metric_inv

    def contract(A, X):
        # A^{ab} X_{ab...} over the first two slots of X
        return (A.ravel() @ X.reshape(n * n, -1)).reshape(X.shape[2:])

    def div(X):
        return contract(gi, nabla(X))

    def sym(A):
        return A + np.swapaxes(A, 0, 1)

    def conformal_killing(w):
        Dw = nabla(w)
        return sym(Dw) - (2.0 / n) * g[..., None] * contract(gi, Dw)

    def ckl_adjoint(h):
        return -2.0 * div(h) + (2.0 / n) * nabla(contract(gi, h))

    if kind == "trace":
        return contract(gi, T)
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
        return -div(Df - np.swapaxes(Df, 0, 1)) - nabla(contract(gi, Df))
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
    if kind == "ckl_normal":
        return ckl_adjoint(conformal_killing(T))
    # ricci_pairing: g^ip g^jq Ric_ij h_pq
    return contract(gi @ geom.ricci @ gi, T)


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


def operator_matrices(geom: SliceGeometry, F, ranks, lattice=None) -> np.ndarray:
    """Per-mode matrices (modes, rows, cols) of a linear map F from fields of
    `ranks` to a tuple of fields, in slice_stack order.  Slice operators act
    mode by mode, so F of the unit field of one input component (the same
    at every mode) is that column.  On a torus F, of order at most 2, runs
    on ModeLattice(n, 1) only: its quadratic coefficients are read off the
    probes, checked on the other modes there (InternalError if F is not
    quadratic) and evaluated on `lattice`."""
    n = geom.n
    if geom.is_torus and (lattice is None or lattice.n != n):
        raise ValueError(f"torus operator matrices need a mode lattice of dimension {n}")
    probe = ModeLattice(n, 1)
    eye = np.eye(sum(rank_components(r, n) for r in ranks))
    nmodes = probe.num_modes if geom.is_torus else 1
    M = np.stack([slice_stack(geom, F(*slice_unstack(geom, ranks, np.tile(e, (nmodes, 1)), probe)))
                  for e in eye], axis=-1)
    if not geom.is_torus:
        return M
    idx = [probe.mode_index(k) for k in quadratic_probes(n).astype(int)]
    C = quadratic_coefficients(M[idx], n).reshape(len(idx), -1)
    dev = np.max(np.abs(monomial_basis(probe.modes) @ C - M.reshape(nmodes, -1)))
    if dev > 1e-12 * max(1.0, np.max(np.abs(M))):  # probe round-off
        raise InternalError(f"slices.operator_matrices: the map is not quadratic in k "
                            f"(deviation {dev:.3e} from its probe fit)")
    return (monomial_basis(lattice.modes) @ C).reshape((lattice.num_modes,) + M.shape[1:])
