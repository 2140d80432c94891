"""Vacuum spacetime backgrounds and per-mode spacetime tensor operators.

Both supported backgrounds,

  * MinkowskiTorus{n}:  g = -dt^2 + delta  on  R x T^n,
  * Kasner{p}:          g = -dt^2 + sum_i t^{2 p_i} (dx^i)^2  on  (0,oo) x T^3,

are spatially homogeneous with unit lapse and zero shift, so every
spacetime differential operator acts mode-by-mode: on the Fourier mode
e^{i k.x} a covariant operator becomes a time-dependent matrix in the
stored tensor components.  Spacetime fields are never placed on 4D
grids; they exist only through these per-mode matrices.

The assembly works with "jets": a JetTensor stores, for a tensor field
T linear in an unknown mode function u(t) and its time derivatives,
the coefficient of u^{(j)} in every component of T, together with
enough precomputed time derivatives of those coefficients that further
covariant derivatives can be taken exactly.

Sign conventions: nabla*nabla = -tr nabla^2 (positive),
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
RingR h(X,Y) = tr_g h(R(.,X)Y, .), box_L h = nabla*nabla h - 2 RingR h.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InternalError
from .fields import SpectralField, sym2_from_full, sym2_to_full
from .slices import SliceGeometry, kasner_exponents, slice_geometry


def _pow_derivs(coef: float, expo: float, t: float, depth: int) -> np.ndarray:
    """Time derivatives (order 0..depth) of coef * t**expo."""
    out = np.empty(depth + 1)
    c = coef
    e = expo
    for d in range(depth + 1):
        out[d] = c * t ** e
        c *= e
        e -= 1.0
    return out


def _leib(A: np.ndarray, B: np.ndarray, sub: str) -> np.ndarray:
    """Leibniz rule for derivative stacks: A, B are (depth+1, ...) arrays of
    successive time derivatives; returns the derivative stack of the
    contraction described by `sub` (einsum over the trailing axes)."""
    depth = min(A.shape[0], B.shape[0]) - 1
    pieces = []
    for d in range(depth + 1):
        acc = 0.0
        for m in range(d + 1):
            acc = acc + comb(d, m) * np.einsum(sub, A[m], B[d - m])
        pieces.append(acc)
    return np.array(pieces)


@dataclass(frozen=True)
class SpacetimeBackground:
    """Vacuum background with unit lapse: g = -dt^2 + g~_t."""

    kind: str  # "minkowski-torus" | "kasner"
    n: int
    p: tuple | None = None

    def __post_init__(self):
        if self.kind == "minkowski-torus":
            if self.n not in (2, 3):
                raise ValueError("spatial dimension must be 2 or 3")
        elif self.kind == "kasner":
            kasner_exponents(self.p)
        else:
            raise ValueError(f"unknown spacetime kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.n + 1

    def _check_time(self, t: float):
        if self.kind == "kasner" and t <= 0:
            raise ValueError("Kasner time must be positive (t = 0 is singular)")

    def _diagonal_derivs(self, t: float, depth: int, sign: int) -> np.ndarray:
        """Time derivatives of diag(-1, t^(2 sign p_i)): the metric for
        sign = 1, its inverse for sign = -1."""
        self._check_time(t)
        dim = self.dim
        out = np.zeros((depth + 1, dim, dim))
        out[0, 0, 0] = -1.0
        if self.kind == "minkowski-torus":
            out[0, 1:, 1:] = np.eye(self.n)
            return out
        for i, pi in enumerate(self.p):
            out[:, 1 + i, 1 + i] = _pow_derivs(1.0, sign * 2 * pi, t, depth)
        return out

    def metric_derivs(self, t: float, depth: int) -> np.ndarray:
        return self._diagonal_derivs(t, depth, 1)

    def metric_inv_derivs(self, t: float, depth: int) -> np.ndarray:
        return self._diagonal_derivs(t, depth, -1)

    def gamma_derivs(self, t: float, depth: int) -> np.ndarray:
        """gamma[d, c, a, b] = d-th time derivative of Gamma^c_{ab}."""
        self._check_time(t)
        dim = self.dim
        out = np.zeros((depth + 1, dim, dim, dim))
        if self.kind == "minkowski-torus":
            return out
        for i, pi in enumerate(self.p):
            out[:, 0, 1 + i, 1 + i] = _pow_derivs(pi, 2 * pi - 1, t, depth)
            stretch = _pow_derivs(pi, -1.0, t, depth)
            out[:, 1 + i, 0, 1 + i] = stretch
            out[:, 1 + i, 1 + i, 0] = stretch
        return out

    def riemann_up_derivs(self, t: float, depth: int) -> np.ndarray:
        """R[d, a, b, c, e]: derivatives of R^a_{bce} with
        R(d_c, d_e) d_b = R^a_{bce} d_a (coordinate frame)."""
        gam = self.gamma_derivs(t, depth + 1)
        dim = self.dim
        out = np.zeros((depth + 1, dim, dim, dim, dim))
        # derivative terms: only the time direction differentiates anything
        out[:, :, :, 0, :] += np.transpose(gam[1:depth + 2], (0, 1, 3, 2))
        out[:, :, :, :, 0] -= np.transpose(gam[1:depth + 2], (0, 1, 3, 2))
        quad = _leib(gam[: depth + 1], gam[: depth + 1], "acz,zeb->abce")
        out += quad - np.transpose(quad, (0, 1, 2, 4, 3))
        return out

    def ricci(self, t: float) -> np.ndarray:
        rup = self.riemann_up_derivs(t, 0)[0]
        return np.einsum("abae->be", rup)

    def slice_at(self, t: float) -> SliceGeometry:
        if self.kind == "minkowski-torus":
            return slice_geometry("flat-torus", n=self.n)
        return slice_geometry("kasner", p=self.p, t0=t)


def spacetime_background(kind: str, **params) -> SpacetimeBackground:
    if kind == "minkowski-torus":
        return SpacetimeBackground(kind, int(params.get("n", 3)))
    if kind == "kasner":
        if params.get("p") is None:
            raise ValueError("Kasner background needs its exponent triple p")
        return SpacetimeBackground(kind, 3, tuple(np.asarray(params["p"], float)))
    raise ValueError(f"unknown spacetime kind {kind!r}")


# ---------------------------------------------------------------------------
# Jets: mode tensor fields linear in an unknown u(t) and its derivatives
# ---------------------------------------------------------------------------


@dataclass
class JetTensor:
    """Tensor field on a single spatial mode, linear in (u, u', u'', ...).

    data[d, j, i_1..i_r, c] is the d-th time derivative of the coefficient
    multiplying u^{(j)}_c in the tensor component T_{i_1..i_r}.  All lower
    indices; raising happens through explicit metric contractions.
    """

    bg: SpacetimeBackground
    t: float
    k: np.ndarray  # spatial wave covector, length n
    data: np.ndarray

    @property
    def depth(self) -> int:
        return self.data.shape[0] - 1

    @property
    def order(self) -> int:
        return self.data.shape[1] - 1

    @property
    def rank(self) -> int:
        return self.data.ndim - 3

    @property
    def ncomp(self) -> int:
        return self.data.shape[-1]

    def k_ext(self) -> np.ndarray:
        out = np.zeros(self.bg.dim)
        out[1:] = self.k
        return out


def unknown_jet(bg: SpacetimeBackground, t: float, k, rank: str, depth: int) -> JetTensor:
    """The identity jet of the unknown itself (sym2 or one-form)."""
    k = np.asarray(k, float)
    dim = bg.dim
    if rank == "sym2":
        ncomp = dim * (dim + 1) // 2
        data = np.zeros((depth + 1, 1, dim, dim, ncomp), complex)
        data[0, 0] = np.moveaxis(sym2_to_full(np.eye(ncomp), dim), 0, -1)
    elif rank == "one-form":
        data = np.zeros((depth + 1, 1, dim, dim), complex)
        data[0, 0] = np.eye(dim)
    else:
        raise ValueError(f"unsupported unknown rank {rank!r}")
    return JetTensor(bg, t, k, data)


def jet_add(a: JetTensor, b: JetTensor, ca: float = 1.0, cb: float = 1.0) -> JetTensor:
    depth = min(a.depth, b.depth)
    order = max(a.order, b.order)
    shape = (depth + 1, order + 1) + a.data.shape[2:]
    if a.data.shape[2:] != b.data.shape[2:]:
        raise ValueError("jet shape mismatch")
    data = np.zeros(shape, complex)
    data[:, : a.order + 1] += ca * a.data[: depth + 1]
    data[:, : b.order + 1] += cb * b.data[: depth + 1]
    return JetTensor(a.bg, a.t, a.k, data)


def jet_scale(a: JetTensor, c: float) -> JetTensor:
    return JetTensor(a.bg, a.t, a.k, c * a.data)


def jet_apply(F_derivs: np.ndarray, J: JetTensor, sub: str) -> JetTensor:
    """Contract a background derivative stack against a jet.

    `sub` names the background indices and the jet's index axes, e.g.
    "pq,pqab->ab"; the hidden order and component axes are carried along.
    Leibniz rule couples the depth axes.
    """
    fin, rest = sub.split(",")
    jin, jout = rest.split("->")
    # hidden axes: O = u-derivative order, Y = unknown component
    ss = f"{fin},O{jin}Y->O{jout}Y"
    return JetTensor(J.bg, J.t, J.k, _leib(F_derivs, J.data, ss))


def jet_nabla(J: JetTensor) -> JetTensor:
    """Covariant derivative; the new (lower) index comes first."""
    if J.depth < 1:
        raise ValueError("jet depth exhausted; start with a deeper unknown jet")
    bg, t = J.bg, J.t
    dim = bg.dim
    depth = J.depth - 1
    order = J.order + 1
    r = J.rank
    pad = np.zeros((J.depth + 1, order + 1) + J.data.shape[2:], complex)
    pad[:, : J.order + 1] = J.data
    out = np.zeros((depth + 1, order + 1) + (dim,) * (r + 1) + (J.ncomp,), complex)
    # time direction: d/dt acts on the coefficients and shifts u-derivatives
    out[:, :, 0] = pad[1 : depth + 2]
    out[:, 1:, 0] += pad[: depth + 1, :-1]
    # spatial directions: multiplication by i k_a on the mode
    kx = J.k_ext()
    for a in range(1, dim):
        out[:, :, a] = 1j * kx[a] * pad[: depth + 1]
    # Christoffel corrections, one per original index slot
    gam = bg.gamma_derivs(t, depth)
    letters = "abcdef"[:r]
    for s in range(r):
        jin = letters[:s] + "z" + letters[s + 1 :]
        out -= _leib(gam, pad, f"zn{letters[s]},O{jin}Y->On{letters}Y")
    return JetTensor(bg, t, J.k, out)


def jet_trace(J: JetTensor) -> JetTensor:
    gi = J.bg.metric_inv_derivs(J.t, J.depth)
    return jet_apply(gi, J, "pq,pq->")


def jet_trace_reverse(J: JetTensor) -> JetTensor:
    tr = jet_trace(J)
    g = J.bg.metric_derivs(J.t, J.depth)
    trg = jet_apply(g, tr, "ab,->ab")
    return jet_add(J, trg, 1.0, -0.5)


def jet_div(J: JetTensor) -> JetTensor:
    """(div T)_rest = g^{pq} (nabla T)_{p q rest}."""
    D = jet_nabla(J)
    gi = J.bg.metric_inv_derivs(J.t, D.depth)
    rest = "abcdef"[: D.rank - 2]
    return jet_apply(gi, D, f"pq,pq{rest}->{rest}")


def jet_connection_laplacian(J: JetTensor) -> JetTensor:
    """nabla*nabla = -g^{pq} nabla_p nabla_q (positive operator)."""
    DD = jet_nabla(jet_nabla(J))
    gi = J.bg.metric_inv_derivs(J.t, DD.depth)
    rest = "abcdef"[: J.rank]
    return jet_scale(jet_apply(gi, DD, f"pq,pq{rest}->{rest}"), -1.0)


def _ring_r_derivs(bg: SpacetimeBackground, t: float, depth: int) -> np.ndarray:
    """W[x, y, m, b] with (RingR h)_{xy} = W[x,y,m,b] h_{mb}."""
    gi = bg.metric_inv_derivs(t, depth)
    rup = bg.riemann_up_derivs(t, depth)
    # (RingR h)_{xy} = g^{ab} R^m_{y a x} h_{mb}
    return _leib(gi, rup, "ab,myax->xymb")


def jet_lichnerowicz(J: JetTensor) -> JetTensor:
    """box_L h = nabla*nabla h - 2 RingR h."""
    lap = jet_connection_laplacian(J)
    W = _ring_r_derivs(J.bg, J.t, J.depth)
    ring = jet_apply(W, J, "xymb,mb->xy")
    return jet_add(lap, ring, 1.0, -2.0)


def jet_div_trace_reversed(J: JetTensor) -> JetTensor:
    return jet_div(jet_trace_reverse(J))


def jet_d_ric(J: JetTensor) -> JetTensor:
    """Linearised Ricci via the Christoffel variation:
    DRic_ab = nabla_c dGamma^c_{ab} - nabla_a dGamma^c_{cb}."""
    Dh = jet_nabla(J)  # (nabla h)_{e a b}
    A = Dh.data
    # dGamma lowered: C_{xab} = (1/2)(nabla_a h_xb + nabla_b h_xa - nabla_x h_ab)
    C = 0.5 * (
        np.einsum("doaxby->doxaby", A)
        + np.einsum("dobxay->doxaby", A)
        - A
    )
    K = jet_nabla(JetTensor(J.bg, J.t, J.k, C))  # K_{e x a b} = nabla_e C_{xab}
    gi = J.bg.metric_inv_derivs(J.t, K.depth)
    term1 = jet_apply(gi, K, "ex,exab->ab")
    term2 = jet_apply(gi, K, "cx,axcb->ab")
    return jet_add(term1, term2, 1.0, -1.0)


def jet_lie_of_g(J: JetTensor) -> JetTensor:
    """V one-form jet -> (Lie_{V#} g)_{ab} = nabla_a V_b + nabla_b V_a."""
    D = jet_nabla(J)
    sym = D.data + np.einsum("dobay->doaby", D.data)
    return JetTensor(J.bg, J.t, J.k, sym)


def jet_killing_wave(J: JetTensor) -> JetTensor:
    """Residual of the Killing-wave identity on a one-form jet:
    div(trace-reverse(Lie_V g)) + nabla*nabla V - Ric(V, .)."""
    lie = jet_lie_of_g(J)
    t1 = jet_div_trace_reversed(lie)
    t2 = jet_connection_laplacian(J)
    gi = J.bg.metric_inv_derivs(J.t, J.depth)
    # both backgrounds are vacuum, so the Ricci derivative stack is constant 0;
    # the term is kept in the code path regardless
    ric = np.zeros((J.depth + 1,) + (J.bg.dim,) * 2)
    ric[0] = J.bg.ricci(J.t)
    mixed = _leib(gi, ric, "ac,ab->cb")
    t3 = jet_apply(mixed, J, "cb,c->b")
    return jet_add(jet_add(t1, t2), t3, 1.0, -1.0)


_JET_FUNCS = {
    "lichnerowicz": ("sym2", jet_lichnerowicz, 2),
    "div_trace_reversed": ("sym2", jet_div_trace_reversed, 1),
    "d_ric": ("sym2", jet_d_ric, 2),
    "lie_of_g": ("one-form", jet_lie_of_g, 1),
    "connection_wave": ("one-form", jet_connection_laplacian, 2),
    "killing_wave": ("one-form", jet_killing_wave, 2),
}
OPERATOR_KINDS = tuple(_JET_FUNCS)


def jet_matrices(J: JetTensor) -> list[np.ndarray]:
    """Read the depth-0 slice off a rank-1 or rank-2 jet as component
    matrices [M_0, M_1, ...] with (T)_comp = sum_j M_j u^{(j)}."""
    if J.rank == 1:
        return [J.data[0, j] for j in range(J.order + 1)]
    if J.rank == 2:
        out = []
        for full in np.moveaxis(J.data[0], -1, 1):  # (ncomp_in, dim, dim) per order
            asym = float(np.max(np.abs(full - np.transpose(full, (0, 2, 1)))))
            scale = max(1.0, float(np.max(np.abs(full))))
            if asym > 1e-10 * scale:
                raise InternalError(
                    f"spacetime.jet_matrices: rank-2 jet output not symmetric "
                    f"(defect {asym:.2e})"
                )
            # row-major (ncomp_out, ncomp_in), so M @ u keeps BLAS's row-major path
            out.append(np.ascontiguousarray(sym2_from_full(full, J.bg.dim).T))
        return out
    raise ValueError("only rank-1/rank-2 jets convert to mode matrices")


@dataclass(frozen=True)
class ModeOperator:
    """Per-mode symbol of a spacetime operator: time -> coefficient matrices."""

    background: SpacetimeBackground
    kind: str
    k: tuple

    def matrices(self, t: float) -> list[np.ndarray]:
        rank, func, depth = _JET_FUNCS[self.kind]
        J = unknown_jet(self.background, t, np.asarray(self.k, float), rank, depth)
        return jet_matrices(func(J))


def assemble_mode_operator(background: SpacetimeBackground, kind: str, k) -> ModeOperator:
    if kind not in _JET_FUNCS:
        raise ValueError(f"unsupported operator kind {kind!r}; known: {OPERATOR_KINDS}")
    return ModeOperator(background, kind, tuple(np.asarray(k, float)))


def _probe_coefficients(background: SpacetimeBackground, kind: str, t: float) -> list:
    """Polynomial coefficient matrices of a mode operator at one time, by
    ten probe assemblies (k = 0, +-e_a, e_a + e_b); see family_coefficients."""
    n = background.n

    def mats(k):
        return assemble_mode_operator(background, kind, k).matrices(t)

    c0 = mats(np.zeros(n))
    norder = len(c0)
    lin = []
    diag = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        plus, minus = mats(e), mats(-e)
        lin.append([(p - m) / 2.0 for p, m in zip(plus, minus)])
        diag.append([(p + m) / 2.0 - c for p, m, c in zip(plus, minus, c0)])
    cross = []
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros(n)
            e[a] = 1.0
            e[b] = 1.0
            cross.append([
                m - c - la - lb - da - db
                for m, c, la, lb, da, db in zip(
                    mats(e), c0, lin[a], lin[b], diag[a], diag[b]
                )
            ])
    out = []
    for j in range(norder):
        polys = [c0[j]] + [lin[a][j] for a in range(n)]
        polys += [diag[a][j] for a in range(n)] + [cr[j] for cr in cross]
        out.append(np.stack(polys))
    return out


def _component_weights(w: np.ndarray, ncomp: int) -> np.ndarray:
    """Weight of each stored component: w_a for a one-form, w_a + w_b for
    the symmetric pair (a, b)."""
    if ncomp == len(w):
        return w
    wt = w.T  # (weight rows, index)
    return sym2_from_full(wt[:, :, None] + wt[:, None, :], len(w)).T


def _homothety_exponents(background: SpacetimeBackground, kind: str, shapes) -> list:
    """Exponent tables E_j with C_j(t) = C_j(1) * t**E_j on Kasner.

    Weights are integer rows over (1, p_1, ..., p_n), so an exponent in
    which the p_i cancel is an exact integer (0 for a constant entry)."""
    n = background.n
    w = np.zeros((n + 1, n + 1), int)  # w_t = 1, w_i = 1 - p_i
    w[:, 0] = 1
    w[1:, 1:] = -np.eye(n, dtype=int)
    ws = w[1:]
    mono = np.concatenate([
        np.zeros((1, n + 1), int), ws, 2 * ws,
        [ws[a] + ws[b] for a in range(n) for b in range(a + 1, n)],
    ])
    # every kind but lie_of_g contracts once with g^{-1}, which scales by lam^-2
    c = 0 if kind == "lie_of_g" else -2
    p1 = np.concatenate([[1.0], np.asarray(background.p, float)])
    out = []
    for j, (_, ncomp_out, ncomp_in) in enumerate(shapes):
        w_out = _component_weights(w, ncomp_out)
        w_in = _component_weights(w, ncomp_in)
        N = mono[:, None, None] - w_out[None, :, None] + w_in[None, None, :]
        N[..., 0] += j + c
        out.append(N @ p1)
    return out


# (background kind, n, p, operator kind) -> (C_j(1) list, E_j list, layout_j list)
_TABLES: dict = {}

# Probe entries (real and imaginary parts apart) at or below this many units
# in the last place of the table's scale (its largest entry, at least 1) are
# round-off and are set to exactly zero.  At t = 1 every metric and
# Christoffel entry of both backgrounds is O(1), and each probe coefficient
# is a difference of at most six assembled matrices, so its round-off is a
# few ulp: at most 3.3 on the identically zero killing_wave, under 1 on the
# k_a k_b blocks of lichnerowicz on a diagonal metric.  Zeroing a true entry
# this small would move the operator by less than the probes' own error;
# the smallest true entry seen is 3e-2 of the scale.
_ROUNDOFF_ULPS = 64


class _OrderLayout(NamedTuple):
    """One order j of a family's table in the layout FamilyAction.apply reads.

    `coeffs` and `exponents` are the triples (constant block as a
    (ncomp_in, ncomp_out) matrix, the `live` blocks as one
    (len(live) * ncomp_in, ncomp_out) matrix, one coefficient per `scal`
    block), so M_j's part at time t is coeffs * t**exponents, term by term.
    `live` lists the monomials p >= 1 whose block is nonzero and not a
    multiple of the identity; `scal` those whose block is one."""

    live: np.ndarray
    scal: np.ndarray
    coeffs: tuple
    exponents: tuple


def _identity_multiple(block: np.ndarray, expo: np.ndarray, bound: float):
    """s with block = s I, or None.  The off-diagonal entries must be exactly
    zero, the diagonal equal to within `bound` and its exponents exactly
    equal, so the block stays s t**e I at every t.  A component's own weight
    cancels in its diagonal exponent (w_out = w_in), so the last condition
    holds on every diagonal block."""
    if block.shape[0] != block.shape[1]:
        return None
    d = np.diagonal(block)
    if np.any(block - np.diag(d)) or np.any(np.diagonal(expo) != expo[0, 0]):
        return None
    s = d.mean()
    return s if np.max(np.abs(d - s)) <= bound else None


def _order_layout(C: np.ndarray, E: np.ndarray, bound: float) -> _OrderLayout:
    live, scal, scal_c, scal_e = [], [], [], []
    for p in range(1, len(C)):
        if not np.any(C[p]):
            continue
        s = _identity_multiple(C[p], E[p], bound)
        if s is None:
            live.append(p)
        else:
            scal.append(p)
            scal_c.append(s)
            scal_e.append(E[p, 0, 0])
    ncomp_out = C.shape[1]

    def flat(X):
        return np.ascontiguousarray(X[live].transpose(0, 2, 1).reshape(-1, ncomp_out))

    return _OrderLayout(
        np.array(live, int), np.array(scal, int),
        (np.ascontiguousarray(C[0].T), flat(C), np.array(scal_c, complex)),
        (np.ascontiguousarray(E[0].T), flat(E), np.array(scal_e, float)),
    )


def family_coefficients(background: SpacetimeBackground, kind: str, t: float) -> list:
    """Polynomial coefficient matrices of a mode operator.

    The per-mode matrices are quadratic polynomials in k (each spatial
    derivative contributes one factor i k), so ten probe assemblies
    (k = 0, +-e_a, e_a + e_b) recover the exact coefficients in the
    monomial basis [1, k_a..., k_a^2..., k_a k_b (a < b)...].

    Returns [C_0, C_1, ...] with C_j of shape (npoly, ncomp_out, ncomp_in).

    The probes run once per (background, kind), at t = 1, on first use;
    entries at the level of their round-off are set to exactly zero (see
    _ROUNDOFF_ULPS).  Kasner is self-similar, so every entry of C_j(t) is a
    single power of t and C_j(t) = C_j(1) * t**E_j holds exactly, with

        e = j + W(in component) + W(k-monomial) - W(out component) + c,

    where w_t = 1 and w_i = 1 - p_i are the weights of the Kasner homothety
    t -> lam t, x^i -> lam^(1 - p_i) x^i (which scales g by lam^2), W of a
    component or k-monomial is the sum of its index weights, and c = -2 for
    every kind except lie_of_g (c = 0), which is the one kind without a
    g^{-1} contraction.  On the Minkowski torus E = 0.
    """
    A, E, _ = _coefficient_table(background, kind, t)
    return [C * t ** e for C, e in zip(A, E)]


def _coefficient_table(background: SpacetimeBackground, kind: str, t: float):
    """(C_j(1), E_j, layout_j) lists for a (background, kind), assembled on
    first use; layout_j is order j in the layout of FamilyAction (see
    _OrderLayout), whose live and scalar blocks are the same at every t.  A
    leading coefficient that is the identity at t = 1 must have exponent 0
    on every nonzero entry, so it is the identity at every t.  Refuses
    t <= 0 on Kasner."""
    background._check_time(t)
    p = background.p
    key = (
        background.kind, background.n,
        tuple(float(x) for x in p) if p is not None else None, kind,
    )
    table = _TABLES.get(key)
    if table is None:
        A = _probe_coefficients(background, kind, 1.0)
        scale = max(1.0, max(float(np.max(np.abs(C))) for C in A))
        bound = _ROUNDOFF_ULPS * np.finfo(float).eps * scale
        for C in A:
            for part in (C.real, C.imag):
                part[np.abs(part) <= bound] = 0.0
        if background.kind == "minkowski-torus":
            E = [np.zeros(C.shape) for C in A]
        else:
            E = _homothety_exponents(background, kind, [C.shape for C in A])
        layout = [_order_layout(C, e, bound) for C, e in zip(A, E)]
        if _lead_is_identity(layout[-1].coeffs) and np.any(E[-1][A[-1] != 0]):
            raise InternalError(
                f"spacetime.family_coefficients: the monic leading coefficient of "
                f"{kind} has a nonzero exponent of t"
            )
        table = _TABLES[key] = (A, E, layout)
    return table


def _lead_is_identity(lead: tuple, tol: float = 1e-12) -> bool:
    """True when a leading coefficient, given as the coefficient triple of
    an _OrderLayout, is the identity matrix: its constant block is I and
    every k-monomial block 0."""
    const, flat, scal = lead
    if const.shape[0] != const.shape[1]:
        return False
    dev = np.max(np.abs(const - np.eye(len(const))))
    return max(dev, np.max(np.abs(flat), initial=0.0), np.max(np.abs(scal), initial=0.0)) <= tol


def monomial_basis(modes) -> np.ndarray:
    """Values of [1, k_a, k_a^2, k_a k_b (a < b)] per mode: (num_modes, npoly)."""
    modes = np.asarray(modes, float)
    n = modes.shape[1]
    cols = [np.ones(len(modes))]
    cols += [modes[:, a] for a in range(n)]
    cols += [modes[:, a] ** 2 for a in range(n)]
    cols += [modes[:, a] * modes[:, b] for a in range(n) for b in range(a + 1, n)]
    return np.stack(cols, axis=1)


class FamilyAction:
    """Matrix-free evaluation of a mode-operator family on state vectors:
    the one per-mode operator evaluator.  M_j(t, k) is never materialised.
    Per order j, apply reads the table of family_coefficients in the layout
    of _OrderLayout, re-timed to t:

        M_j(t, k) u = u @ const + (b_live(k) x u) @ flat + (b_scal(k) . s) u,

    where b(k) is the monomial basis of the mode, const the constant block,
    flat the live k-monomial blocks stacked for one matmul and s the
    coefficients of the blocks that are multiples of the identity (on both
    backgrounds the k_a^2 blocks of lichnerowicz and connection_wave, whose
    sum is the one per-mode scalar g^{ab} k_a k_b).  Blocks that are exactly
    zero (the k_a k_b blocks on a diagonal metric) are skipped.  at() and
    rate() re-time the three terms of each order as C * t**E, or its exact
    t-derivative, and re-pack nothing.

    The families returned by at() and rate() share the monomial basis and
    apply's scratch buffers with this one, so one family must not be applied
    from two threads at once.  is_monic runs once per family: the leading
    coefficient does not depend on t (see _coefficient_table), so at()
    keeps the answer."""

    def __init__(self, background, kind, t, modes):
        self.background, self.kind = background, kind
        self.basis = monomial_basis(modes)
        self._layout = _coefficient_table(background, kind, t)[2]
        self._scratch = {}  # order j -> (live basis, scalar basis, buffers)
        self._retime(t)
        self._monic = self.is_monic()

    def at(self, t: float) -> FamilyAction:
        """The same family on the same modes at time t."""
        out = copy.copy(self)
        out._retime(t)
        return out

    def _retime(self, t: float):
        self.background._check_time(t)
        self.t = t
        self._terms = [
            tuple(C * t ** E for C, E in zip(lay.coeffs, lay.exponents))
            for lay in self._layout
        ]

    def order(self) -> int:
        return len(self._terms) - 1

    def is_monic(self, tol: float = 1e-12) -> bool:
        """True when the leading d/dt coefficient is the identity matrix."""
        return _lead_is_identity(self._terms[-1], tol)

    def monic_closure(self, u: np.ndarray, ud: np.ndarray) -> np.ndarray:
        """u'' = -(M_1 u' + M_0 u): the second time derivative that the
        equation M_2 u'' + M_1 u' + M_0 u = 0 fixes when M_2 = identity."""
        if not self._monic:
            raise InternalError(
                f"spacetime.FamilyAction: {self.kind} operator is not monic in "
                f"d/dt at t = {self.t:g}; cannot solve for the second derivative"
            )
        # accumulated in place: apply returns a fresh array, and the sum
        # is the same as apply(1, ud) + apply(0, u) because + commutes
        out = self.apply(0, u)
        out += self.apply(1, ud)
        return np.negative(out, out=out)

    def apply(self, j: int, u: np.ndarray) -> np.ndarray:
        """M_j(k) u_k for all modes, without materializing the matrices."""
        const, flat, scal = self._terms[j]
        out = u @ const
        if not (flat.size or scal.size):
            return out
        if j not in self._scratch:
            lay = self._layout[j]
            # the buffers are kept across calls: fresh ones per call are
            # paged in anew whenever glibc has trimmed the heap top under
            # them, which at nmax 2 was some 20k page faults and a quarter
            # of the time of a short Kasner run; the scalar basis is stored
            # complex so its product with the coefficients casts nothing
            self._scratch[j] = (
                np.ascontiguousarray(self.basis[:, lay.live]),
                self.basis[:, lay.scal].astype(complex),
                np.empty((len(u), len(lay.live), u.shape[1]), complex),
                np.empty_like(out),
            )
        basis, basis_scal, W, term = self._scratch[j]
        if flat.size:
            np.multiply(basis[:, :, None], u[:, None, :], out=W)
            np.matmul(W.reshape(len(u), -1), flat, out=term)
            out += term
        if scal.size:
            # the identity blocks, as one per-mode scalar times u
            np.multiply(u, (basis_scal @ scal)[:, None], out=term)
            out += term
        return out

    def rate(self) -> FamilyAction:
        """The family of exact time derivatives d/dt M_j(t, k) on the same
        modes (zero on the Minkowski torus): E * C * t**(E - 1), term by
        term, and identically zero where E = 0."""
        out = copy.copy(self)
        t = self.t
        out._terms = [
            tuple(C * E * t ** np.where(E == 0, 0.0, E - 1.0)
                  for C, E in zip(lay.coeffs, lay.exponents))
            for lay in self._layout
        ]
        out._monic = out.is_monic()
        return out


# ---------------------------------------------------------------------------
# Cauchy jets and the nu <-> d/dt conversion
# ---------------------------------------------------------------------------


@dataclass
class CauchyJet:
    """Spacetime sym2 tensor h and nabla_nu h on a slice, in blocks
    (h(nu,nu), h(nu,.), h(.,.)) — with unit lapse nu = d/dt on the slice."""

    background: SpacetimeBackground
    t0: float
    h_nn: SpectralField
    h_n: SpectralField
    h_sp: SpectralField
    dh_nn: SpectralField
    dh_n: SpectralField
    dh_sp: SpectralField

    def __post_init__(self):
        lat = self.h_nn.lattice
        blocks = [self.h_nn, self.h_n, self.h_sp, self.dh_nn, self.dh_n, self.dh_sp]
        ranks = ["scalar", "one-form", "sym2"] * 2
        for f, r in zip(blocks, ranks):
            if f.lattice != lat or f.rank != r:
                raise ValueError("Cauchy jet blocks must share one lattice and ranks")

    @property
    def lattice(self):
        return self.h_nn.lattice


def _stored_from_blocks(nn: SpectralField, nf: SpectralField, sp: SpectralField):
    """Stored spacetime components (num_modes, ncomp) of the tensor with
    blocks h(nu,nu), h(nu,.) and h(.,.)."""
    n = sp.lattice.n
    full = np.zeros((sp.lattice.num_modes, n + 1, n + 1), complex)
    full[:, 0, 0] = nn.coeffs[:, 0]
    full[:, 0, 1:] = full[:, 1:, 0] = nf.coeffs
    full[:, 1:, 1:] = sym2_to_full(sp.coeffs, n)
    return sym2_from_full(full, n + 1)


def _time_connection_terms(background: SpacetimeBackground, t: float, U: np.ndarray):
    """Gamma^m_{0a} h_mb + Gamma^m_{0b} h_am in stored components, which is
    d/dt h_ab - (nabla_nu h)_ab at unit lapse."""
    gam0 = background.gamma_derivs(t, 0)[0][:, 0, :]  # Gamma^m_{0 a}
    full = sym2_to_full(U, background.dim)
    corr = np.einsum("ma,kmb->kab", gam0, full) + np.einsum("mb,kam->kab", gam0, full)
    return sym2_from_full(corr, background.dim)


def nu_jet_conversion(jet: CauchyJet) -> tuple[np.ndarray, np.ndarray]:
    """CauchyJet -> per-mode state (U, dU/dt), each (num_modes, ncomp).

    With unit lapse, nu = d/dt on the slice and
    (nabla_nu h)_ab = d/dt h_ab - Gamma^m_{0a} h_mb - Gamma^m_{0b} h_am.
    """
    H = _stored_from_blocks(jet.h_nn, jet.h_n, jet.h_sp)
    Nu = _stored_from_blocks(jet.dh_nn, jet.dh_n, jet.dh_sp)
    return H, Nu + _time_connection_terms(jet.background, jet.t0, H)


def induced_data_state(
    background: SpacetimeBackground, t: float, lattice, U: np.ndarray, Udot: np.ndarray
) -> tuple[SpectralField, SpectralField]:
    """Induced slice data (h~, m~) from the per-mode state (h_ab, d/dt h_ab).

    h~(X,Y) = h(X,Y) and
    m~(X,Y) = -1/2 h(nu,nu) k~(X,Y) - 1/2 (nabla_X h)(nu,Y)
              - 1/2 (nabla_Y h)(nu,X) + 1/2 (nabla_nu h)(X,Y).
    """
    h, m = induced_data_modes(background, t, lattice.modes, U, Udot)
    return SpectralField(lattice, "sym2", h), SpectralField(lattice, "sym2", m)


def induced_data_modes(background: SpacetimeBackground, t: float, modes,
                       U: np.ndarray, Udot: np.ndarray):
    """Stored sym2 coefficients (h~, m~), each (N, ncomp), of the per-mode
    state (U, dU/dt) at the integer modes (N, n): the kernel of
    induced_data_state on any set of modes."""
    # With unit lapse and zero shift Gamma^0_ij = k~_ij, Gamma^i_0j = k~^i_j
    # and Gamma^i_jk = 0, so every k~^i_j h term cancels between the three
    # covariant derivatives and, per mode,
    # m~_ij = 1/2 (d/dt h_ij + h_00 k~_ij - i (k_i h_0j + k_j h_0i)).
    n = background.n
    slot = sym2_to_full(np.arange(U.shape[1]), n + 1)  # stored index of h_mu nu
    sp = sym2_from_full(slot[1:, 1:], n)
    i, j = (sym2_from_full(ix, n) for ix in np.indices((n, n)))  # (i, j) per component
    ktilde = background.slice_at(t).extrinsic

    def cols(x, idx):  # np.take keeps the result C-contiguous
        return np.take(x, idx, axis=1)

    h0 = cols(U, slot[0, 1:])  # h_0i
    kh = 1j * cols(modes, i) * cols(h0, j) + 1j * cols(modes, j) * cols(h0, i)
    m = 0.5 * (cols(Udot, sp) + U[:, slot[0, 0], None] * ktilde[i, j] - kh)
    return cols(U, sp), m
