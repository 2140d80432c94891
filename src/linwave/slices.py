"""Background Cauchy slices and the differential operators acting on them.

Three slice kinds are supported:

  * FlatTorus{n}:       g = identity, k = 0, flat.
  * KasnerSlice{p, t0}: g = diag(t0^{2 p_i}), k = diag(p_i t0^{2 p_i - 1});
                        spatially constant, hence still a flat metric.
  * BergerInvariant:    invariant sector of a Berger sphere (matrix backend).

On the torus backends every operator is an exact per-mode multiplier.
Sign conventions: Delta = delta d + d delta (positive), delta = -div,
Hess(phi)_{ij} = -k_i k_j phi per mode, trace reversal h - (1/2)(tr h) g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import invariant as inv
from .fields import SpectralField, sym2_from_full, sym2_to_full


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

    @property
    def metric_inv(self) -> np.ndarray:
        return np.linalg.inv(self.metric)

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
    berger:     lam (squashing; default the scalar-flat parameter).
    """
    if kind == "flat-torus":
        n = int(params.get("n", 3))
        return SliceGeometry(kind, n, np.eye(n), np.zeros((n, n)), {})
    if kind == "kasner":
        if "p" not in params:
            raise ValueError("Kasner slice needs its exponent triple p")
        p = kasner_exponents(params["p"])
        t0 = float(params.get("t0", 1.0))
        if t0 <= 0:
            raise ValueError("Kasner slice time must be positive (t = 0 is singular)")
        g = np.diag(t0 ** (2 * p))
        k = np.diag(p * t0 ** (2 * p - 1))
        return SliceGeometry(kind, 3, g, k, {"p": p, "t0": t0})
    if kind == "berger":
        lam = params.get("lam")
        if lam is None:
            lam = inv.scalar_flat_parameter()
        frame = inv.berger_frame(float(lam))
        geo = inv.InvariantGeometry(frame)
        return SliceGeometry(
            kind, 3, frame.metric, np.zeros((3, 3)), {"lam": float(lam), "geometry": geo}
        )
    raise ValueError(f"unknown slice kind {kind!r}")


def constraint_residual(geom: SliceGeometry) -> tuple[float, float]:
    """Residual of the nonlinear vacuum constraints on the background.

    All supported backgrounds have spatially constant data, so
    Phi_1 = Scal - g(k, k) + (tr k)^2 and Phi_2 = div k - d tr k = 0."""
    g, k = geom.metric, geom.extrinsic
    gi = geom.metric_inv
    kk = float(np.einsum("ia,jb,ij,ab->", gi, gi, k, k))
    trk = float(np.einsum("ij,ij->", gi, k))
    phi1 = geom.scal - kk + trk ** 2
    if geom.is_torus:
        phi2 = 0.0  # constant fields on a flat slice
    else:
        geo = geom.invariant_geometry
        n2 = inv._nabla_twotensor(geo)
        divk = np.einsum("ab,abjpq,pq->j", gi, n2, k)
        phi2 = float(np.max(np.abs(divk)))
    return float(abs(phi1)), phi2


# ---------------------------------------------------------------------------
# Per-mode torus operators
# ---------------------------------------------------------------------------


def apply_slice_operator(
    geom: SliceGeometry, kind: str, field
) -> "SpectralField | inv.InvariantField":
    """Apply a slice differential operator (exact multiplier or matrix)."""
    if geom.is_torus:
        if not isinstance(field, SpectralField):
            raise ValueError("torus slice operators act on SpectralField values")
        return _apply_torus(geom, kind, field)
    if not isinstance(field, inv.InvariantField):
        raise ValueError("invariant slice operators act on InvariantField values")
    return _apply_invariant(geom, kind, field)


def _apply_torus(geom: SliceGeometry, kind: str, field: SpectralField) -> SpectralField:
    n = geom.n
    if field.lattice.n != n:
        raise ValueError(f"field dimension {field.lattice.n} != slice dimension {n}")
    g = geom.metric
    gi = geom.metric_inv
    modes = field.lattice.modes.astype(float)  # (m, n)
    c = field.coeffs
    lat = field.lattice
    kup = modes @ gi.T  # raised mode covector, (m, n)
    k2 = np.einsum("ma,ma->m", kup, modes)  # |k|_g^2

    def out(rank, arr):
        if rank == "scalar" and arr.ndim == 1:
            arr = arr[:, None]
        return SpectralField(lat, rank, arr)

    if kind == "divergence":
        if field.rank == "sym2":
            h = sym2_to_full(c, n)
            return out("one-form", 1j * np.einsum("ma,maj->mj", kup, h))
        if field.rank == "one-form":
            return out("scalar", 1j * np.einsum("ma,ma->m", kup, c))
        raise ValueError("divergence acts on one-forms or sym2 tensors")
    if kind == "trace":
        _need(field, "sym2", kind)
        h = sym2_to_full(c, n)
        return out("scalar", np.einsum("ij,mij->m", gi, h))
    if kind == "trace_reverse":
        _need(field, "sym2", kind)
        h = sym2_to_full(c, n)
        tr = np.einsum("ij,mij->m", gi, h)
        hbar = h - 0.5 * tr[:, None, None] * g[None]
        return out("sym2", sym2_from_full(hbar, n))
    if kind == "hessian":
        _need(field, "scalar", kind)
        hess = -np.einsum("mi,mj,m->mij", modes, modes, c[:, 0])
        return out("sym2", sym2_from_full(hess, n))
    if kind == "d":
        _need(field, "scalar", kind)
        return out("one-form", 1j * modes * c[:, :1])
    if kind == "laplacian" or kind == "connection_laplacian":
        # flat slice: Hodge and connection Laplacians agree, multiplier |k|_g^2
        return SpectralField(lat, field.rank, k2[:, None] * c)
    if kind == "lie_metric":
        _need(field, "one-form", kind)
        lie = 1j * (np.einsum("mi,mj->mij", modes, c) + np.einsum("mj,mi->mij", modes, c))
        return out("sym2", sym2_from_full(lie, n))
    if kind == "conformal_killing":
        _need(field, "one-form", kind)
        lie = 1j * (np.einsum("mi,mj->mij", modes, c) + np.einsum("mj,mi->mij", modes, c))
        div = 1j * np.einsum("ma,ma->m", kup, c)
        ck = lie - (2.0 / n) * div[:, None, None] * g[None]
        return out("sym2", sym2_from_full(ck, n))
    if kind == "ckl_adjoint":
        # L* h = -2 div h + (2/n) d tr h
        _need(field, "sym2", kind)
        h = sym2_to_full(c, n)
        div = 1j * np.einsum("ma,maj->mj", kup, h)
        tr = np.einsum("ij,mij->m", gi, h)
        return out("one-form", -2.0 * div + (2.0 / n) * 1j * modes * tr[:, None])
    if kind == "ckl_normal":
        _need(field, "one-form", kind)
        return _apply_torus(geom, "ckl_adjoint", _apply_torus(geom, "conformal_killing", field))
    raise ValueError(f"unknown torus operator kind {kind!r}")


def _need(field: SpectralField, rank: str, kind: str):
    if field.rank != rank:
        raise ValueError(f"operator {kind!r} expects rank {rank}, got {field.rank}")


def _apply_invariant(geom: SliceGeometry, kind: str, field: inv.InvariantField):
    geo = geom.invariant_geometry
    if kind == "divergence":
        op = inv.operator_matrix(geo, "div" if field.rank == "sym2" else "div_oneform")
    elif kind == "trace_reverse":
        tr = inv.operator_matrix(geo, "trace")(field).components[0]
        gsym = sym2_from_full(geom.metric, 3)
        return inv.InvariantField("sym2", field.components - 0.5 * tr * gsym)
    elif kind == "laplacian":
        op = inv.operator_matrix(
            geo, "laplacian" if field.rank == "scalar" else "laplacian_oneform"
        )
    elif kind == "ckl_adjoint":
        op = inv.adjoint_matrix(geo, inv.operator_matrix(geo, "conformal_killing"))
    elif kind in ("trace", "hessian", "d", "lie_metric", "conformal_killing", "ckl_normal"):
        op = inv.operator_matrix(geo, kind)
    else:
        raise ValueError(f"unknown invariant operator kind {kind!r}")
    return op(field)
