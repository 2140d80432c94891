"""Left-invariant tensor calculus on SU(2) (Berger spheres).

Everything is restricted to the left-invariant sector, where a scalar is a
single number, a one-form has 3 frame components and a symmetric 2-tensor
has 6.  InvariantGeometry takes any left-invariant metric as its 3x3
frame matrix.  nabla is its covariant derivative on full frame components:
these are constant, so only the connection terms remain.  It is all the
Berger backend of slices.apply_slice_operator needs, which writes every
slice operator from it, and slices.operator_matrices reads the matrix of a
map (such as the split operator P of decomposition.py) off its action on
unit invariant fields.  gram_matrix gives the volume-weighted inner products.

Conventions:
  * frame bracket [e_i, e_j] = 2 eps_{ijk} e_k (SU(2)),
  * Berger metric G = diag(lambda, 1, 1) in this frame,
  * inner products carry the volume factor vol(G) = 2 pi^2 sqrt(det G),
    the round-unit-frame volume scaled by the metric determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import component_gram, rank_components, sym2_from_full

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
# Covariant derivative and inner products on the invariant sector
# ---------------------------------------------------------------------------

def nabla(geo: InvariantGeometry, T) -> np.ndarray:
    """Covariant derivative (nabla_a T)_{ij...} of an invariant tensor given by
    its full frame components T_{ij...}, derivative index first.  The
    components are constant, so only the connection term
    -Gamma^p_{a i} T_{p j...} of each slot remains."""
    T = np.asarray(T)
    idx = "ijkl"[:T.ndim]
    out = np.zeros((3,) + T.shape)
    for s, i in enumerate(idx):
        out -= np.einsum(f"pa{i},{idx[:s]}p{idx[s + 1:]}->a{idx}", geo.gamma, T)
    return out


def gram_matrix(geo: InvariantGeometry, rank: str) -> np.ndarray:
    """Gram matrix of the volume-weighted invariant inner product."""
    return geo.volume * component_gram(rank, 3, geo.metric_inv)
