"""Left-invariant tensor calculus on SU(2) (Berger spheres).

Everything is restricted to the left-invariant sector, where a scalar is a
single number, a one-form has 3 frame components and a symmetric 2-tensor
has 6.  Differential operators then become small dense matrices, one per
operator between two ranks; slices.apply_slice_operator composes them, and
slices.operator_matrices reads the matrix of a composite map (such as the
split operator P of decomposition.py) off its action on unit fields.

Conventions:
  * frame bracket [e_i, e_j] = 2 eps_{ijk} e_k (SU(2)),
  * Berger metric G = diag(lambda, 1, 1) in this frame,
  * inner products carry the volume factor vol(G) = 2 pi^2 sqrt(det G),
    the round-unit-frame volume scaled by the metric determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import component_gram, sym2_from_full, sym2_to_full

RANK_DIMS = {"scalar": 1, "one-form": 3, "sym2": 6}

# The scalar-flat Berger squashing: by Milnor's formula for this bracket,
# Scal(diag(lam, 1, 1)) = 8 - 2 lam (checked against the assembled
# curvature in tests/test_invariant.py).
SCALAR_FLAT_LAMBDA = 4.0


def su2_structure_constants() -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k = 2 eps_{ijk} e_k."""
    c = np.zeros((3, 3, 3))
    for i, j, k, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]:
        c[k, i, j] = 2.0 * s
        c[k, j, i] = -2.0 * s
    return c


@dataclass(frozen=True)
class HomogeneousFrame:
    """Left-invariant SU(2) frame data: the metric components in the frame
    with [e_i, e_j] = 2 eps_{ijk} e_k."""

    metric: np.ndarray = dc_field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        g = np.asarray(self.metric, float)
        object.__setattr__(self, "metric", g)
        if g.shape != (3, 3) or np.max(np.abs(g - g.T)) > 1e-13:
            raise ValueError("metric must be a symmetric 3x3 matrix")
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            raise ValueError("metric must be positive definite")


def berger_frame(lam: float) -> HomogeneousFrame:
    return HomogeneousFrame(metric=np.diag([lam, 1.0, 1.0]))


@dataclass
class InvariantField:
    """Invariant tensor: constant frame components (1, 3 or 6 numbers)."""

    rank: str
    components: np.ndarray

    def __post_init__(self):
        self.components = np.atleast_1d(np.asarray(self.components, float))
        if self.rank not in RANK_DIMS:
            raise ValueError(f"unknown rank {self.rank!r}")
        if self.components.shape != (RANK_DIMS[self.rank],):
            raise ValueError(
                f"rank {self.rank} needs {RANK_DIMS[self.rank]} components, "
                f"got shape {self.components.shape}"
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix avatar of an operator between invariant tensor ranks."""

    domain: str
    codomain: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (RANK_DIMS[self.codomain], RANK_DIMS[self.domain]):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"{self.domain} -> {self.codomain}"
            )

    def __call__(self, f: InvariantField) -> InvariantField:
        if f.rank != self.domain:
            raise ValueError(f"operator expects rank {self.domain}, got {f.rank}")
        return InvariantField(self.codomain, self.matrix @ f.components)

    def compose(self, inner: "OperatorMatrix") -> "OperatorMatrix":
        if inner.codomain != self.domain:
            raise ValueError("composition rank mismatch")
        return OperatorMatrix(inner.domain, self.codomain, self.matrix @ inner.matrix)


class InvariantGeometry:
    """Connection and curvature of a left-invariant metric (Koszul formula)."""

    def __init__(self, frame: HomogeneousFrame):
        self.frame = frame
        c = su2_structure_constants()
        g = frame.metric
        if abs(np.linalg.det(g)) < 1e-14:
            raise ValueError("singular metric")
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


def _nabla_twotensor(geo: InvariantGeometry) -> np.ndarray:
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


def adjoint_matrix(geo: InvariantGeometry, op: OperatorMatrix) -> OperatorMatrix:
    """Formal adjoint with respect to the invariant inner products."""
    mdom = gram_matrix(geo, op.domain)
    mcod = gram_matrix(geo, op.codomain)
    mat = np.linalg.solve(mdom, op.matrix.T @ mcod)
    return OperatorMatrix(op.codomain, op.domain, mat)


def operator_matrix(frame: HomogeneousFrame, kind: str) -> OperatorMatrix:
    """Matrix of a differential operator restricted to invariant sections.

    Invariant scalars are constants, so d, Hess and Laplace on scalars
    induce the zero map; the remaining operators act through the
    connection coefficients.
    """
    geo = frame if isinstance(frame, InvariantGeometry) else InvariantGeometry(frame)
    g = geo.metric
    gi = geo.metric_inv
    n1 = _nabla_oneform(geo)

    def div_sym2() -> np.ndarray:
        n2 = _nabla_twotensor(geo)
        return np.einsum("ab,abjpq,cpq->jc", gi, n2, _EXPAND)

    def lie_metric() -> np.ndarray:
        # (L_{omega#} g)_{ij} = (nabla_i omega)_j + (nabla_j omega)_i
        full = n1 + np.einsum("ajm->jam", n1)
        return np.ascontiguousarray(sym2_from_full(np.moveaxis(full, -1, 0), 3).T)

    def div_oneform() -> np.ndarray:
        return np.einsum("ab,abm->m", gi, n1)[None, :]

    def conformal_killing() -> np.ndarray:
        gsym = sym2_from_full(g, 3)
        return lie_metric() - (2.0 / 3.0) * np.outer(gsym, div_oneform()[0])

    def trace() -> np.ndarray:
        return np.einsum("ij,aij->a", gi, _EXPAND)[None, :]

    def hodge_laplacian_oneform() -> np.ndarray:
        # d omega (e_i, e_j) = -omega([e_i, e_j]); delta on 2-forms via -div;
        # d(delta omega) = 0 since invariant scalars are constant.
        d1 = -np.einsum("mij->ijm", su2_structure_constants())  # (d omega)_{ij, m}
        # (nabla_a beta)_{bj} for a 2-form beta (same formula as (0,2) tensors)
        n2 = _nabla_twotensor(geo)
        delta_d = -np.einsum("ab,abjpq,pqm->jm", gi, n2, d1)
        return delta_d

    if kind == "div":
        return OperatorMatrix("sym2", "one-form", div_sym2())
    if kind == "div_oneform":
        return OperatorMatrix("one-form", "scalar", div_oneform())
    if kind == "trace":
        return OperatorMatrix("sym2", "scalar", trace())
    if kind == "d":
        return OperatorMatrix("scalar", "one-form", np.zeros((3, 1)))
    if kind == "hessian":
        return OperatorMatrix("scalar", "sym2", np.zeros((6, 1)))
    if kind == "laplacian":
        return OperatorMatrix("scalar", "scalar", np.zeros((1, 1)))
    if kind == "laplacian_oneform":
        return OperatorMatrix("one-form", "one-form", hodge_laplacian_oneform())
    if kind == "lie_metric":
        return OperatorMatrix("one-form", "sym2", lie_metric())
    if kind == "conformal_killing":
        return OperatorMatrix("one-form", "sym2", conformal_killing())
    if kind == "ckl_normal":
        ck = OperatorMatrix("one-form", "sym2", conformal_killing())
        return adjoint_matrix(geo, ck).compose(ck)
    if kind == "ricci_pairing":
        # g(Ric, h) = g^ip g^jq Ric_ij h_pq on stored components
        row = np.einsum("ij,ip,jq,apq->a", geo.ricci, gi, gi, _EXPAND)
        return OperatorMatrix("sym2", "scalar", row[None, :])
    raise ValueError(f"unknown operator kind {kind!r}")
