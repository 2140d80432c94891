"""Left-invariant tensor calculus on SU(2) (Berger spheres).

Everything is restricted to the left-invariant sector, where a scalar is a
single number, a one-form has 3 frame components and a symmetric 2-tensor
has 6.  InvariantGeometry takes any left-invariant metric as its 3x3
frame matrix.  operator_matrix gives each slice operator on each rank it
takes as a plain small matrix (the rank map itself is slices._RANKS);
slices.apply_slice_operator multiplies by it, and slices.operator_matrices
reads the matrix of a composite map (such as the split operator P of
decomposition.py) off its action on unit fields.

Conventions:
  * frame bracket [e_i, e_j] = 2 eps_{ijk} e_k (SU(2)),
  * Berger metric G = diag(lambda, 1, 1) in this frame,
  * inner products carry the volume factor vol(G) = 2 pi^2 sqrt(det G),
    the round-unit-frame volume scaled by the metric determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import component_gram, rank_components, sym2_from_full, sym2_to_full

# The scalar-flat Berger squashing.  By Milnor's formula for this bracket,
# Scal(diag(a, b, c)) = 2 (2 (ab + bc + ca) - a^2 - b^2 - c^2) / (abc), which
# vanishes exactly when one of sqrt(a), sqrt(b), sqrt(c) is the sum of the
# other two; on the Berger axis Scal(diag(lam, 1, 1)) = 8 - 2 lam.  Both are
# checked against the assembled curvature in tests/test_invariant.py.
SCALAR_FLAT_LAMBDA = 4.0


def su2_structure_constants() -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k = 2 eps_{ijk} e_k."""
    c = np.zeros((3, 3, 3))
    for i, j, k, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]:
        c[k, i, j] = 2.0 * s
        c[k, j, i] = -2.0 * s
    return c


@dataclass
class InvariantField:
    """Invariant tensor: constant frame components (1, 3 or 6 numbers)."""

    rank: str
    components: np.ndarray

    def __post_init__(self):
        self.components = np.atleast_1d(np.asarray(self.components, float))
        dim = rank_components(self.rank, 3)
        if self.components.shape != (dim,):
            raise ValueError(
                f"rank {self.rank} needs {dim} components, got shape {self.components.shape}"
            )

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return InvariantField(self.rank, self.components + other.components)

    def __sub__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return InvariantField(self.rank, self.components - other.components)

    def __mul__(self, c):
        return InvariantField(self.rank, self.components * c)

    __rmul__ = __mul__


class InvariantGeometry:
    """Connection and curvature of a left-invariant metric (Koszul formula),
    given as its 3x3 components in the frame [e_i, e_j] = 2 eps_{ijk} e_k."""

    def __init__(self, metric):
        g = np.asarray(metric, float)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"metric must be finite, got {g.tolist()}")
        if g.shape != (3, 3) or np.max(np.abs(g - g.T)) > 1e-13:
            raise ValueError("metric must be a symmetric 3x3 matrix")
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            raise ValueError("metric must be positive definite")
        if abs(np.linalg.det(g)) < 1e-14:
            raise ValueError("singular metric")
        c = su2_structure_constants()
        ginv = np.linalg.inv(g)
        # 2 g(nabla_i e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j)
        br = np.einsum("mij,mk->ijk", c, g)  # g([e_i,e_j], e_k)
        gamma_low = 0.5 * (br - np.einsum("jki->ijk", br) + np.einsum("kij->ijk", br))
        # nabla_{e_i} e_j = Gamma[k, i, j] e_k
        self.gamma = np.einsum("km,ijm->kij", ginv, gamma_low)
        self.metric = g
        self.metric_inv = ginv
        # R(e_i, e_j) e_k = Riem[l, k, i, j] e_l
        gg = self.gamma
        riem = (
            np.einsum("lim,mjk->lkij", gg, gg)
            - np.einsum("ljm,mik->lkij", gg, gg)
            - np.einsum("mij,lmk->lkij", c, gg)
        )
        self.riemann = riem
        # Ric(Y, Z) = sum_a  (R(e_a, Y) Z)^a  =>  Ric_{jk} = Riem[a, k, a, j]
        self.ricci = np.einsum("akaj->jk", riem)
        self.scal = float(np.einsum("jk,jk->", ginv, self.ricci))
        self.volume = 2.0 * np.pi ** 2 * np.sqrt(np.linalg.det(g))

    def ricci_sym6(self) -> np.ndarray:
        return sym2_from_full(self.ricci, 3)


# ---------------------------------------------------------------------------
# Operator matrices on the invariant sector
# ---------------------------------------------------------------------------

def _nabla_oneform(geo: InvariantGeometry) -> np.ndarray:
    """(nabla_a omega)_j = N[a, j, m] omega_m  with  N = -Gamma[m, a, j]."""
    return -np.einsum("maj->ajm", geo.gamma)


def nabla_twotensor(geo: InvariantGeometry) -> np.ndarray:
    """(nabla_a T)_{ij} = N[a, i, j, p, q] T_{pq} on full 3x3 components."""
    g = geo.gamma
    eye = np.eye(3)
    return -(
        np.einsum("pai,qj->aijpq", g, eye) + np.einsum("qaj,pi->aijpq", g, eye)
    )


# E[a, i, j]: the full 3x3 symmetric tensor of the a-th stored component
_EXPAND = sym2_to_full(np.eye(6), 3)
_EXPAND.setflags(write=False)


def gram_matrix(geo: InvariantGeometry, rank: str) -> np.ndarray:
    """Gram matrix of the volume-weighted invariant inner product."""
    return geo.volume * component_gram(rank, 3, geo.metric_inv)


def operator_matrix(geo: InvariantGeometry, kind: str, rank: str) -> np.ndarray:
    """Matrix of the slice operator `kind` (a slices.apply_slice_operator
    kind) on invariant sections of `rank`; ValueError for any other pair.

    Invariant scalars are constants, so d, Hess and Laplace on scalars
    induce the zero map, and so does Lie_beta k~ (k~ = 0 on Berger); the
    remaining operators act through the connection coefficients.  L* is
    the adjoint of L in the invariant inner products of gram_matrix.
    """
    g = geo.metric
    gi = geo.metric_inv
    n1 = _nabla_oneform(geo)

    def divergence_sym2() -> np.ndarray:
        return np.einsum("ab,abjpq,cpq->jc", gi, nabla_twotensor(geo), _EXPAND)

    def lie_metric() -> np.ndarray:
        # (L_{omega#} g)_{ij} = (nabla_i omega)_j + (nabla_j omega)_i
        full = n1 + np.einsum("ajm->jam", n1)
        return np.ascontiguousarray(sym2_from_full(np.moveaxis(full, -1, 0), 3).T)

    def divergence_oneform() -> np.ndarray:
        return np.einsum("ab,abm->m", gi, n1)[None, :]

    def conformal_killing() -> np.ndarray:
        gsym = sym2_from_full(g, 3)
        return lie_metric() - (2.0 / 3.0) * np.outer(gsym, divergence_oneform()[0])

    def ckl_adjoint(L: np.ndarray) -> np.ndarray:
        return np.linalg.solve(gram_matrix(geo, "one-form"), L.T @ gram_matrix(geo, "sym2"))

    def ckl_normal() -> np.ndarray:
        L = conformal_killing()
        return ckl_adjoint(L) @ L

    def hodge_laplacian() -> np.ndarray:
        # d omega (e_i, e_j) = -omega([e_i, e_j]); delta on 2-forms via -div;
        # d(delta omega) = 0 since invariant scalars are constant.
        d1 = -np.einsum("mij->ijm", su2_structure_constants())  # (d omega)_{ij, m}
        # (nabla_a beta)_{bj} for a 2-form beta (same formula as (0,2) tensors)
        return -np.einsum("ab,abjpq,pqm->jm", gi, nabla_twotensor(geo), d1)

    blocks = {
        ("trace", "sym2"): lambda: np.einsum("ij,aij->a", gi, _EXPAND)[None, :],
        ("divergence", "sym2"): divergence_sym2,
        ("divergence", "one-form"): divergence_oneform,
        ("laplacian", "scalar"): lambda: np.zeros((1, 1)),
        ("laplacian", "one-form"): hodge_laplacian,
        ("d", "scalar"): lambda: np.zeros((3, 1)),
        ("hessian", "scalar"): lambda: np.zeros((6, 1)),
        ("lie_metric", "one-form"): lie_metric,
        ("lie_extrinsic", "one-form"): lambda: np.zeros((6, 3)),
        ("conformal_killing", "one-form"): conformal_killing,
        ("ckl_adjoint", "sym2"): lambda: ckl_adjoint(conformal_killing()),
        ("ckl_normal", "one-form"): ckl_normal,
        # g(Ric, h) = g^ip g^jq Ric_ij h_pq on stored components
        ("ricci_pairing", "sym2"):
            lambda: np.einsum("ij,ip,jq,apq->a", geo.ricci, gi, gi, _EXPAND)[None, :],
    }
    if (kind, rank) not in blocks:
        raise ValueError(f"no invariant operator {kind!r} on rank {rank}")
    return blocks[kind, rank]()
