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
covariant derivatives can be taken exactly.  The wave covector k stays
symbolic: each coefficient is a polynomial in i k, held as one real
coefficient per monomial of fields.k_monomials, and a spatial derivative
multiplies by i k_a, a fixed shift of the monomials (fields.times_ik).
Every operator is at most quadratic in k, so one real assembly gives its
whole coefficient table (see _coefficient_table).  Six operator kinds
have tables (OPERATOR_KINDS): lichnerowicz (box_L h), div_trace_reversed
(div hbar), d_ric (DRic h), lie_of_g (Lie_V g) and connection_wave
(nabla*nabla V) from jets, and dphi_induced (DPhi of the induced slice
data) off the slice code with i k symbolic (slices.symbolic_coefficients);
each has a reader in the evolution or constraint code.

Sign conventions: nabla*nabla = -tr nabla^2 (positive),
R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
RingR h(X,Y) = tr_g h(R(.,X)Y, .), box_L h = nabla*nabla h - 2 RingR h.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InternalError
from .fields import (
    SpectralField,
    ik_phase,
    k_monomials,
    k_shift,
    monomial_basis,
    rank_components,
    sym2_congruence_matrix,
    sym2_from_full,
    sym2_index_pairs,
    sym2_to_full,
    times_ik,
)
from .slices import (SliceGeometry, dphi_modes, kasner_exponents, slice_geometry,
                     slice_operator, symbolic_coefficients)


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
    contraction described by `sub` (einsum over the trailing axes).  A
    derivative of A of order >= 1 that is exactly zero is skipped."""
    depth = min(A.shape[0], B.shape[0]) - 1
    out = None
    for d in range(depth + 1):
        for m in range(d + 1):
            if m and not np.any(A[m]):
                continue
            term = np.einsum(sub, A[m], B[d - m])
            if out is None:
                out = np.zeros((depth + 1,) + term.shape, term.dtype)
            out[d] += comb(d, m) * term
    return out


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
    """Tensor field on a single spatial mode k, linear in (u, u', u'', ...),
    with k kept symbolic.

    data[d, j, i_1..i_r, Y] is the d-th time derivative of the coefficient
    multiplying (i k)^e u^{(j)}_c in the tensor component T_{i_1..i_r}: the
    hidden axis Y runs over the pairs (monomial e, component c), monomial
    major, with the monomials of fields.k_monomials(n, degree).  Every
    coefficient is real.  All lower indices; raising happens through
    explicit metric contractions.
    """

    bg: SpacetimeBackground
    t: float
    data: np.ndarray
    degree: int = 2  # the highest power of k the jet holds

    @property
    def depth(self) -> int:
        return self.data.shape[0] - 1

    @property
    def order(self) -> int:
        return self.data.shape[1] - 1

    @property
    def rank(self) -> int:
        return self.data.ndim - 3


def unknown_jet(bg: SpacetimeBackground, t: float, rank: str, depth: int,
                degree: int = 2) -> JetTensor:
    """The identity jet of the unknown itself (sym2 or one-form): the
    constant monomial of every component."""
    dim = bg.dim
    if rank == "sym2":
        eye = np.moveaxis(sym2_to_full(np.eye(dim * (dim + 1) // 2), dim), 0, -1)
    elif rank == "one-form":
        eye = np.eye(dim)
    else:
        raise ValueError(f"unsupported unknown rank {rank!r}")
    ncomp = eye.shape[-1]
    data = np.zeros((depth + 1, 1) + eye.shape[:-1] + (len(k_monomials(bg.n, degree)) * ncomp,))
    data[0, 0, ..., :ncomp] = eye
    return JetTensor(bg, t, data, degree)


def jet_add(a: JetTensor, b: JetTensor, ca: float = 1.0, cb: float = 1.0) -> JetTensor:
    depth = min(a.depth, b.depth)
    order = max(a.order, b.order)
    shape = (depth + 1, order + 1) + a.data.shape[2:]
    if a.data.shape[2:] != b.data.shape[2:]:
        raise ValueError("jet shape mismatch")
    data = np.zeros(shape, np.result_type(a.data, b.data))
    data[:, : a.order + 1] += ca * a.data[: depth + 1]
    data[:, : b.order + 1] += cb * b.data[: depth + 1]
    return replace(a, data=data)


def jet_scale(a: JetTensor, c: float) -> JetTensor:
    return replace(a, data=c * a.data)


def jet_apply(F_derivs: np.ndarray, J: JetTensor, sub: str) -> JetTensor:
    """Contract a background derivative stack against a jet.

    `sub` names the background indices and the jet's index axes, e.g.
    "pq,pqab->ab"; the hidden order and component axes are carried along.
    Leibniz rule couples the depth axes.
    """
    fin, rest = sub.split(",")
    jin, jout = rest.split("->")
    # hidden axes: O = u-derivative order, Y = (k-monomial, unknown component)
    ss = f"{fin},O{jin}Y->O{jout}Y"
    return replace(J, data=_leib(F_derivs, J.data, ss))


def jet_nabla(J: JetTensor) -> JetTensor:
    """Covariant derivative; the new (lower) index comes first."""
    if J.depth < 1:
        raise ValueError("jet depth exhausted; start with a deeper unknown jet")
    bg, dim, r = J.bg, J.bg.dim, J.rank
    depth = J.depth - 1
    npoly = len(k_monomials(bg.n, J.degree))
    low = k_shift(bg.n, J.degree)[0]
    data = J.data[: depth + 1]
    src = data.reshape(data.shape[:-1] + (npoly, -1))  # (..., monomial, component)
    out = np.zeros((depth + 1, J.order + 2) + (dim,) * (r + 1) + J.data.shape[-1:],
                   J.data.dtype)
    # time direction: d/dt acts on the coefficients and shifts u-derivatives
    out[:, : J.order + 1, 0] = J.data[1:]
    out[:, 1:, 0] += data
    # spatial directions: i k_a raises each monomial of Y by one degree
    dst = out.reshape(out.shape[:-1] + (npoly, -1))[:, : J.order + 1, 1:]
    times_ik(np.swapaxes(src, -1, -2), bg.n, "spacetime.jet_nabla", J.degree,
             out=np.swapaxes(np.moveaxis(dst, 2, 0), -1, -2))
    # Christoffel corrections, one per original index slot: each is one
    # GEMM of Gamma^z_{n s} against the jet with slot s moved to the front.
    # The top-degree monomials are zero (times_ik checks), so only the
    # leading `low` monomials of Y take part
    gam = bg.gamma_derivs(J.t, depth)
    ylow = low * (J.data.shape[-1] // npoly)
    for d in range(depth + 1):
        acc = out[d, : J.order + 1, ..., :ylow]
        for m in range(d + 1):
            if not np.any(gam[m]):
                continue  # every stack on the Minkowski torus
            G = comb(d, m) * gam[m].reshape(dim, dim * dim).T  # (n s, z)
            for s in range(r):
                X = np.moveaxis(data[d - m, ..., :ylow], 1 + s, 0)
                T = (G @ X.reshape(dim, -1)).reshape((dim, dim) + X.shape[1:])
                # T[n, s, O, ...] -> acc[O, n, ..., s at its slot, ...]
                np.subtract(acc, np.moveaxis(T, (0, 1, 2), (1, 2 + s, 0)), out=acc)
    return replace(J, data=out)


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
    K = jet_nabla(replace(J, data=C))  # K_{e x a b} = nabla_e C_{xab}
    gi = J.bg.metric_inv_derivs(J.t, K.depth)
    term1 = jet_apply(gi, K, "ex,exab->ab")
    term2 = jet_apply(gi, K, "cx,axcb->ab")
    return jet_add(term1, term2, 1.0, -1.0)


def jet_lie_of_g(J: JetTensor) -> JetTensor:
    """V one-form jet -> (Lie_{V#} g)_{ab} = nabla_a V_b + nabla_b V_a."""
    D = jet_nabla(J)
    return replace(D, data=D.data + np.einsum("dobay->doaby", D.data))


_JET_FUNCS = {
    "lichnerowicz": ("sym2", jet_lichnerowicz, 2),
    "div_trace_reversed": ("sym2", jet_div_trace_reversed, 1),
    "d_ric": ("sym2", jet_d_ric, 2),
    "lie_of_g": ("one-form", jet_lie_of_g, 1),
    "connection_wave": ("one-form", jet_connection_laplacian, 2),
}
OPERATOR_KINDS = (*_JET_FUNCS, "dphi_induced")  # the last off the slice route


def jet_matrices(J: JetTensor) -> list[np.ndarray]:
    """Read the depth-0 slice off a rank-1 or rank-2 jet as its polynomial
    coefficient matrices [C_0, C_1, ...], each (npoly, ncomp_out, ncomp_in),
    with (T)_comp = sum_j sum_p k^p (C_j)_p u^{(j)} over the monomials p of
    the jet (fields.k_monomials order).  The jet holds the coefficient
    C'_p of (i k)^p, so C_p = i^deg(p) C'_p, exactly (fields.ik_phase)."""
    phase = ik_phase(J.bg.n, J.degree)
    data = J.data[0]
    data = data.reshape(data.shape[:-1] + (len(phase), -1))  # (O, idx..., p, c)
    if J.rank == 1:
        tables = np.moveaxis(data, 1, 2)
    elif J.rank == 2:
        for full in data:
            asym = float(np.max(np.abs(full - np.swapaxes(full, 0, 1))))
            scale = max(1.0, float(np.max(np.abs(full))))
            if asym > 1e-10 * scale:
                raise InternalError(
                    f"spacetime.jet_matrices: rank-2 jet output not symmetric "
                    f"(defect {asym:.2e})"
                )
        tables = np.swapaxes(sym2_from_full(np.moveaxis(data, (1, 2), (3, 4)), J.bg.dim),
                             -1, -2)
    else:
        raise ValueError("only rank-1/rank-2 jets convert to mode matrices")
    return [phase[:, None, None] * C for C in tables]


def _assembled_coefficients(background: SpacetimeBackground, kind: str, t: float) -> list:
    """The coefficient matrices [C_0, C_1, ...] of a mode operator at time
    t, each (npoly, ncomp_out, ncomp_in) in the monomial basis of
    fields.monomial_basis: one assembly with k kept symbolic."""
    if kind == "dphi_induced":
        return _dphi_induced_coefficients(background, t)
    rank, func, depth = _JET_FUNCS[kind]
    return jet_matrices(func(unknown_jet(background, t, rank, depth)))


def _dphi_induced_coefficients(background: SpacetimeBackground, t: float) -> list:
    """[C_0, C_1] of the map (U, U') -> (DPhi_1, DPhi_2) of the induced data
    (induced_data_modes, then slices.dphi_modes), each (npoly, dim, ncomp),
    the rows DPhi_1, DPhi_2 read as a spacetime one-form: one application of
    slices.symbolic_coefficients, its columns U (order 0), then U'."""
    ncomp = rank_components("sym2", background.dim)

    def apply(units):
        h, m = induced_data_modes(background, t, None, units[:, :ncomp], units[:, ncomp:])
        return np.concatenate(dphi_modes(background.slice_at(t), None, h, m), axis=1)

    C = symbolic_coefficients(background.n, 2 * ncomp, apply)
    return [C[..., :ncomp], C[..., ncomp:]]


@dataclass(frozen=True)
class ModeOperator:
    """Per-mode symbol of a spacetime operator: time -> coefficient matrices."""

    background: SpacetimeBackground
    kind: str
    k: tuple

    def matrices(self, t: float) -> list[np.ndarray]:
        """[M_0, M_1, ...] at time t: sum_p k^p C_p from a fresh symbolic
        assembly at t itself (one per call), so it does not go through the
        homothety law of the family tables."""
        basis = monomial_basis(np.array([self.k]))[0]
        return [np.tensordot(basis, C, 1)
                for C in _assembled_coefficients(self.background, self.kind, t)]


def assemble_mode_operator(background: SpacetimeBackground, kind: str, k) -> ModeOperator:
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unsupported operator kind {kind!r}; known: {OPERATOR_KINDS}")
    return ModeOperator(background, kind, tuple(np.asarray(k, float)))


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
    mono = k_monomials(n, 2) @ w[1:]  # W of each k-monomial
    # every kind but lie_of_g contracts once with g^{-1} (lam^-2); DPhi_1 = 2 G(nu,nu)
    # and DPhi_2 = G(nu,.) carry one more time index than their one-form layout
    c = {"lie_of_g": 0, "dphi_induced": -3}.get(kind, -2)
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

# Table entries (real and imaginary parts apart) at or below this many units
# in the last place of the table's scale (its largest entry, at least 1) are
# round-off and are set to exactly zero.  The table is one assembly at
# t = 1, where every metric and Christoffel entry of both backgrounds is
# O(1), and every entry that the k-structure makes zero comes out exactly
# zero.  The round-off left sits in the constant block of order 0 of d_ric
# and connection_wave on Kasner: entries that vanish only through the
# Kasner conditions sum p = sum p^2 = 1, which floating-point exponents meet
# to round-off.  There are 16 such entries on the three named Kasner triples
# of the tests and 6 on the generic one, at most 0.75 ulp (none on the
# Minkowski torus or on (1, 0, 0)), and at most 3.4 ulp on 50 random
# triples.  Zeroing a true entry this small would move the operator by
# less than its own round-off; the smallest true entry seen is 3e-2 of the
# scale (7e-5 on the random triples).
_ROUNDOFF_ULPS = 64


class _OrderLayout(NamedTuple):
    """One order j of a family's table in the real form FamilyAction.apply
    reads.

    `coeffs` and `exponents` are the pairs (the constant block when `const`
    and then the `live` blocks, stacked as one (const + len(live),
    ncomp_out, ncomp_in) array; one coefficient per `scal` block), so the
    real form of M_j's part at time t is coeffs * t**exponents, term by
    term.  Every block is real: it is conj(D_out) C_p D_in, with D the
    parity phase of parity_phase.  `const` says whether the constant block
    is nonzero, `live` lists the monomials p >= 1 whose block is nonzero
    and not a multiple of the identity, and `scal` those whose block is
    one; no block kept is exactly zero."""

    const: bool
    live: np.ndarray
    scal: np.ndarray
    coeffs: tuple
    exponents: tuple


def parity_phase(ncomp: int, dim: int) -> np.ndarray:
    """D, the phase of each stored component of a one-form (ncomp = dim) or
    a symmetric 2-tensor: i on a component with an odd number of spatial
    indices (h_0a, V_a), 1 on every other.

    Each spatial derivative brings a factor i k_a and flips the parity of
    the number of spatial indices, so under spatial inversion x -> -x the
    k_a blocks of a table are imaginary and join components of opposite
    parity, and every other block is real and joins components of the same
    parity: conj(D_out) C_p D_in is real for every block."""
    slots = [(a,) for a in range(dim)] if ncomp == dim else sym2_index_pairs(dim)
    return np.array([1j if sum(i > 0 for i in slot) % 2 else 1.0 for slot in slots])


def real_form(u: np.ndarray, dim: int) -> np.ndarray:
    """The real form of a complex (N, ncomp) array of stored components:
    the (2N, ncomp) array [Re(u / D); Im(u / D)], with D = parity_phase,
    stored so that its transpose is C-contiguous (each component's 2N
    values in a row).  |D_c| = 1, so weighted_norm reads the norm of u off
    it with each per-mode factor repeated for both halves.  Exact: dividing
    by i only swaps the parts and negates one."""
    n, ncomp = u.shape
    odd = parity_phase(ncomp, dim) == 1j
    out = np.empty((ncomp, 2 * n))
    np.copyto(out[:, :n], u.real.T)
    np.copyto(out[:, n:], u.imag.T)
    rows = out[odd]
    out[odd, :n] = rows[:, n:]
    out[odd, n:] = -rows[:, :n]
    return out.T


def complex_form(x: np.ndarray, dim: int) -> np.ndarray:
    """The complex (N, ncomp) array whose real_form is x: u = D (x[:N] + i x[N:])."""
    n, ncomp = len(x) // 2, x.shape[1]
    odd = parity_phase(ncomp, dim) == 1j
    out = np.empty((n, ncomp), complex)
    out.real = x[:n]
    out.imag = x[n:]
    cols = out[:, odd]
    out.real[:, odd] = -cols.imag
    out.imag[:, odd] = cols.real
    return out


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


def _order_layout(C: np.ndarray, E: np.ndarray, bound: float, dim: int,
                  kind: str) -> _OrderLayout:
    """Order j of a table in the layout of _OrderLayout: C rotated to its
    real form conj(D_out) C D_in, which must be exactly real (the phases
    are 1 and +-i, so the rotation is exact and a nonzero imaginary part is
    a block of the wrong parity)."""
    _, ncomp_out, ncomp_in = C.shape
    R = (np.conj(parity_phase(ncomp_out, dim))[:, None] * parity_phase(ncomp_in, dim)) * C
    if np.any(R.imag):
        raise InternalError(
            f"spacetime._coefficient_table: {kind} is not real in the parity "
            f"phase (imaginary part up to {np.max(np.abs(R.imag)):.2e})"
        )
    R = R.real
    const = bool(np.any(R[0]))
    live, scal, scal_c, scal_e = [], [], [], []
    for p in range(1, len(R)):
        if not np.any(R[p]):
            continue
        s = _identity_multiple(R[p], E[p], bound)
        if s is None:
            live.append(p)
        else:
            scal.append(p)
            scal_c.append(s)
            scal_e.append(E[p, 0, 0])
    kept = [0] * const + live
    return _OrderLayout(
        const, np.array(live, int), np.array(scal, int),
        (R[kept], np.array(scal_c, float)), (E[kept], np.array(scal_e, float)),
    )


def family_coefficients(background: SpacetimeBackground, kind: str, t: float) -> list:
    """Polynomial coefficient matrices of a mode operator.

    The per-mode matrices are quadratic polynomials in k (each spatial
    derivative contributes one factor i k), with coefficients on the
    monomials of fields.k_monomials: one jet assembly with k kept symbolic
    gives the coefficient C'_p of (i k)^p, and C_p = i^deg(p) C'_p.

    Returns [C_0, C_1, ...] with C_j of shape (npoly, ncomp_out, ncomp_in).

    The assembly runs once per (background, kind), at t = 1, on first use;
    entries at the level of its round-off are set to exactly zero (see
    _ROUNDOFF_ULPS).  Kasner is self-similar, so every entry of C_j(t) is a
    single power of t and C_j(t) = C_j(1) * t**E_j holds exactly, with

        e = j + W(in component) + W(k-monomial) - W(out component) + c,

    where w_t = 1 and w_i = 1 - p_i are the weights of the Kasner homothety
    t -> lam t, x^i -> lam^(1 - p_i) x^i (which scales g by lam^2), W of a
    component or k-monomial is the sum of its index weights, and c = -2 for
    every kind except lie_of_g (c = 0), which is the one kind without a
    g^{-1} contraction, and dphi_induced (c = -3), whose output is laid out
    as a one-form but carries one more time index.  On the Minkowski torus
    E = 0.
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
        A = _assembled_coefficients(background, kind, 1.0)
        scale = max(1.0, max(float(np.max(np.abs(C))) for C in A))
        bound = _ROUNDOFF_ULPS * np.finfo(float).eps * scale
        for C in A:
            for part in (C.real, C.imag):
                part[np.abs(part) <= bound] = 0.0
        if background.kind == "minkowski-torus":
            E = [np.zeros(C.shape) for C in A]
        else:
            E = _homothety_exponents(background, kind, [C.shape for C in A])
        layout = [_order_layout(C, e, bound, background.dim, kind)
                  for C, e in zip(A, E)]
        if _lead_is_identity(layout[-1].const, layout[-1].coeffs) and np.any(E[-1][A[-1] != 0]):
            raise InternalError(
                f"spacetime._coefficient_table: the monic leading coefficient of "
                f"{kind} has a nonzero exponent of t"
            )
        table = _TABLES[key] = (A, E, layout)
    return table


def _lead_is_identity(const: bool, lead: tuple) -> bool:
    """True when a leading coefficient, given as the coefficient pair of
    an _OrderLayout and its `const` flag, is the identity matrix: its
    constant block is I and every k-monomial block 0, to 1e-12."""
    blocks, scal = lead
    if not const or blocks.shape[1] != blocks.shape[2]:
        return False
    dev = max(np.max(np.abs(blocks[0] - np.eye(blocks.shape[1]))),
              np.max(np.abs(blocks[1:]), initial=0.0), np.max(np.abs(scal), initial=0.0))
    return dev <= 1e-12


class FamilyAction:
    """Matrix-free evaluation of a mode-operator family on state vectors:
    the one per-mode operator evaluator.  M_j(t, k) is never materialised.

    States are in real form (see real_form): a complex (N, ncomp) array u
    of stored components is passed as the (2N, ncomp) real array
    x = [Re(u / D); Im(u / D)], whose transpose is C-contiguous, so each
    component's 2N values are one contiguous row.  The monomials b_p(k) are
    real and every block R_p = conj(D_out) C_p D_in of the table is real
    (see parity_phase), so M_j(t, k) u = D_out y with

        y^T = R_0 x^T + sum_live (R_p x^T) * b_p + (sum_scal s_p b_p) * x^T,

    one real matrix product per block (one batched matmul over the stacked
    blocks) and a product along the contiguous mode axis, with b_p repeated
    for both halves, summed over the blocks elementwise.  R_0 is the
    constant block, the live blocks are the k-monomial blocks that are
    nonzero and not multiples of the identity, and s the coefficients of
    those that are (on both backgrounds the k_a^2 blocks of lichnerowicz
    and connection_wave, whose sum is the one per-mode scalar
    g^{ab} k_a k_b), also summed elementwise.  Blocks that are exactly zero
    (the k_a k_b blocks on a diagonal metric, the constant block of most
    Minkowski orders) are skipped, and an order with no block left returns
    zero without a product.  Each block is its own product and every sum
    is elementwise, so a mode's result does not depend on where it sits in
    the array, and Hermitian data stay exactly Hermitian; one product of
    all blocks stacked on the output axis would not.  at() and rate()
    re-time the two arrays of each order (the stacked blocks, the scalar
    coefficients) as R * t**E, or its exact t-derivative, and re-pack
    nothing.

    The families returned by at() and rate() share the monomial basis and
    apply's scratch buffers with this one, so one family must not be applied
    from two threads at once.  is_monic runs once per family: the leading
    coefficient does not depend on t (see _coefficient_table), so at()
    keeps the answer."""

    def __init__(self, background, kind, t, modes):
        self.background, self.kind = background, kind
        self.basis = monomial_basis(modes)
        self._layout = _coefficient_table(background, kind, t)[2]
        self._scratch = {}  # order j -> (bases, buffers); "terms" -> shared buffer
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

    def is_monic(self) -> bool:
        """True when the leading d/dt coefficient is the identity matrix."""
        return _lead_is_identity(self._layout[-1].const, self._terms[-1])

    def monic_closure(self, u: np.ndarray, ud: np.ndarray) -> np.ndarray:
        """u'' = -(M_1 u' + M_0 u) in real form: the second time derivative
        that the equation M_2 u'' + M_1 u' + M_0 u = 0 fixes when
        M_2 = identity."""
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

    def apply(self, j: int, x: np.ndarray) -> np.ndarray:
        """The real form of M_j(k) u_k for all modes from the real form x of
        u, (2N, ncomp_in) -> (2N, ncomp_out), both with C-contiguous
        transposes; the matrices are never materialised."""
        if x.dtype != float or len(x) != 2 * len(self.basis):
            raise ValueError(
                f"FamilyAction.apply takes the real form of {len(self.basis)} modes, "
                f"a ({2 * len(self.basis)}, ncomp) float array, got {x.dtype} {x.shape}"
            )
        blocks, scal = self._terms[j]
        lay = self._layout[j]
        xt = x.T
        if len(blocks) == lay.const and not scal.size:
            # the constant block alone, or an order that is zero altogether
            return (blocks[0] @ xt if lay.const else np.zeros((blocks.shape[1], len(x)))).T
        if j not in self._scratch:
            # the buffers are kept across calls: fresh ones are paged in
            # anew whenever glibc has trimmed the heap top under them; a
            # first Kasner evolve at nmax 8 (2457 modes, 172 applies) in a
            # new process took 9355 minor page faults with fresh buffers per
            # call and 8116 with these.  All orders share one stacked-product
            # buffer: each apply has summed it into its result on return
            if "terms" not in self._scratch:
                most = max(len(t[0]) for t in self._terms)
                self._scratch["terms"] = np.empty((most, blocks.shape[1], len(x)))
            twice = np.concatenate([self.basis, self.basis]).T
            self._scratch[j] = (
                np.ascontiguousarray(twice[lay.live])[:, None, :],
                np.ascontiguousarray(twice[lay.scal]),
                self._scratch["terms"][: len(blocks)],
                np.empty((len(scal), len(x))),
            )
        basis, basis_scal, terms, scalars = self._scratch[j]
        out = None
        if len(blocks):
            # one matrix product per block, each k-monomial one scaled by
            # its monomial
            np.matmul(blocks, xt, out=terms)
            terms[lay.const:] *= basis
            out = np.sum(terms, axis=0)
        if scal.size:
            # the identity blocks, as one per-mode scalar times x
            np.multiply(basis_scal, scal[:, None], out=scalars)
            if out is None:
                return (xt * np.sum(scalars, axis=0)).T
            out += np.multiply(xt, np.sum(scalars, axis=0), out=terms[0])
        return out.T

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
    blocks h(nu,nu), h(nu,.) and h(.,.), each gathered into its columns."""
    n = sp.lattice.n
    ncomp = rank_components("sym2", n + 1)
    slot = sym2_to_full(np.arange(ncomp), n + 1)  # stored index of h_mu nu
    out = np.empty((sp.lattice.num_modes, ncomp), complex)
    out[:, slot[0, 0]] = nn.coeffs[:, 0]
    out[:, slot[0, 1:]] = nf.coeffs
    out[:, sym2_from_full(slot[1:, 1:], n)] = sp.coeffs
    return out


def _time_connection_terms(background: SpacetimeBackground, t: float, U: np.ndarray):
    """Gamma^m_{0a} h_mb + Gamma^m_{0b} h_am in stored components, which is
    d/dt h_ab - (nabla_nu h)_ab at unit lapse: X -> A^T X + X A at
    A = Gamma^m_{0a}."""
    return U @ sym2_congruence_matrix(background.gamma_derivs(t, 0)[0][:, 0, :])


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
    state (U, dU/dt) at the integer modes (N, n), or on symbolic rows with
    modes None (see slices.slice_operator): the kernel of induced_data_state
    on any set of modes."""
    # With unit lapse and zero shift Gamma^0_ij = k~_ij, Gamma^i_0j = k~^i_j
    # and Gamma^i_jk = 0, so every k~^i_j h term cancels between the three
    # covariant derivatives and
    # m~ = 1/2 (d/dt h_ij + h_00 k~_ij - Lie_{h_0.} g~), where on the torus
    # slice Lie_{h_0.} g~ = i (k_i h_0j + k_j h_0i) per mode.
    n = background.n
    geom = background.slice_at(t)
    slot = sym2_to_full(np.arange(U.shape[1]), n + 1)  # stored index of h_mu nu
    sp = sym2_from_full(slot[1:, 1:], n)

    def cols(x, idx):  # np.take keeps the result C-contiguous
        return np.take(x, idx, axis=1)

    lie = slice_operator(geom, "lie_metric", "one-form", cols(U, slot[0, 1:]), modes)
    m = 0.5 * (cols(Udot, sp) + U[:, slot[0, 0], None] * sym2_from_full(geom.extrinsic, n)
               - lie)
    return cols(U, sp), m
