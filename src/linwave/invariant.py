"""Left-invariant tensor calculus on SU(2) (Berger spheres).

Everything is restricted to the left-invariant sector, where a scalar is a
single number, a one-form has 3 frame components and a symmetric 2-tensor
has 6.  Differential operators then become small dense matrices.

Conventions:
  * frame bracket [e_i, e_j] = 2 eps_{ijk} e_k by default,
  * Berger metric G = diag(lambda, 1, 1) in this frame,
  * inner products carry the volume factor vol(G) = 2 pi^2 sqrt(det G),
    the round-unit-frame volume scaled by the metric determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InternalError
from .fields import component_gram, sym2_from_full, sym2_to_full

RANK_DIMS = {"scalar": 1, "one-form": 3, "sym2": 6}


def su2_structure_constants() -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k = 2 eps_{ijk} e_k."""
    c = np.zeros((3, 3, 3))
    for i, j, k, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]:
        c[k, i, j] = 2.0 * s
        c[k, j, i] = -2.0 * s
    return c


@dataclass(frozen=True)
class HomogeneousFrame:
    """Left-invariant frame data: bracket constants and metric components."""

    structure: np.ndarray = dc_field(default_factory=su2_structure_constants)
    metric: np.ndarray = dc_field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        c = np.asarray(self.structure, float)
        g = np.asarray(self.metric, float)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "metric", g)
        if c.shape != (3, 3, 3):
            raise ValueError("structure constants must have shape (3, 3, 3)")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 1e-13:
            raise ValueError("structure constants must be antisymmetric in lower indices")
        # Jacobi: sum over cyclic permutations of (i, j, k)
        jacobi = (
            np.einsum("mij,lmk->lijk", c, c)
            + np.einsum("mjk,lmi->lijk", c, c)
            + np.einsum("mki,lmj->lijk", c, c)
        )
        if np.max(np.abs(jacobi)) > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")
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
        c = frame.structure
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


def scalar_flat_parameter(bracket_scale: float = 2.0) -> float:
    """Squashing parameter lambda* with Scal(diag(lambda*, 1, 1)) = 0,
    found by bisection on the assembled scalar curvature."""
    def scal(lam):
        return InvariantGeometry(berger_frame(lam)).scal

    lo, hi = None, None
    lam_grid = np.linspace(0.1, 10.0, 100)
    vals = [scal(l) for l in lam_grid]
    for a, b, va, vb in zip(lam_grid, lam_grid[1:], vals, vals[1:]):
        if va == 0.0:
            return float(a)
        if va * vb < 0:
            lo, hi, flo = a, b, va
            break
    if lo is None:
        raise InternalError(
            "invariant.scalar_flat_parameter: no scalar-flat Berger parameter "
            "found in (0.1, 10)"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = scal(mid)
        if fm == 0.0:
            return float(mid)
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return float(0.5 * (lo + hi))


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


def operator_matrix(frame: HomogeneousFrame, kind: str, params=None) -> OperatorMatrix:
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
        c = geo.frame.structure
        d1 = -np.einsum("mij->ijm", c)  # (d omega)_{ij, m}
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
    if kind in ("moncrief_p", "moncrief_p_star", "split_p", "split_p_star"):
        return _block_operator(geo, kind, params)
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class BlockOperator:
    """Operator between products of invariant ranks, as one dense matrix."""

    domain: tuple[str, ...]
    codomain: tuple[str, ...]
    matrix: np.ndarray

    def __call__(self, *fields: InvariantField):
        vec = np.concatenate([f.components for f in fields])
        out = self.matrix @ vec
        result, pos = [], 0
        for r in self.codomain:
            d = RANK_DIMS[r]
            result.append(InvariantField(r, out[pos : pos + d]))
            pos += d
        return tuple(result)


def block_gram(geo: InvariantGeometry, ranks) -> np.ndarray:
    blocks = [gram_matrix(geo, r) for r in ranks]
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size))
    pos = 0
    for b in blocks:
        d = b.shape[0]
        out[pos : pos + d, pos : pos + d] = b
        pos += d
    return out


def block_adjoint(geo: InvariantGeometry, op: BlockOperator) -> BlockOperator:
    mdom = block_gram(geo, op.domain)
    mcod = block_gram(geo, op.codomain)
    mat = np.linalg.solve(mdom, op.matrix.T @ mcod)
    return BlockOperator(op.codomain, op.domain, mat)


def _block_operator(geo: InvariantGeometry, kind: str, params) -> BlockOperator:
    gi = geo.metric_inv
    ric6 = geo.ricci_sym6()

    if kind in ("moncrief_p", "moncrief_p_star"):
        # P(beta, N) = (Lie_beta g, Hess N - Ric N); Hess of a constant is 0.
        lie = operator_matrix(geo, "lie_metric").matrix
        mat = np.zeros((12, 4))
        mat[0:6, 0:3] = lie
        mat[6:12, 3] = -ric6
        p = BlockOperator(("one-form", "scalar"), ("sym2", "sym2"), mat)
        if kind == "moncrief_p":
            return p
        # P*(h, m) = (-2 div h, div div m - g(Ric, m)); assembled directly.
        div = operator_matrix(geo, "div").matrix
        div1 = operator_matrix(geo, "div_oneform").matrix
        ric_pair = np.einsum("ij,ip,jq,apq->a", geo.ricci, gi, gi, _EXPAND)
        mat = np.zeros((4, 12))
        mat[0:3, 0:6] = -2.0 * div
        mat[3, 6:12] = (div1 @ div) - ric_pair
        return BlockOperator(("sym2", "sym2"), ("one-form", "scalar"), mat)

    a, b = params
    if not 0 < a * b < 2:
        raise ValueError(f"split operator requires 0 < a*b < 2, got a*b = {a * b}")
    ck = operator_matrix(geo, "conformal_killing").matrix
    ric_pair_sym = np.einsum("ij,ip,jq,apq->a", geo.ricci, gi, gi, _EXPAND)
    if kind == "split_p":
        # P(phi, omega) = (Delta phi + a g(Ric, L omega), L*L omega + b d phi);
        # invariant scalars kill the Delta phi and d phi terms.
        ckl = operator_matrix(geo, "ckl_normal").matrix
        mat = np.zeros((4, 4))
        mat[0, 1:4] = a * (ric_pair_sym @ ck)
        mat[1:4, 1:4] = ckl
        return BlockOperator(("scalar", "one-form"), ("scalar", "one-form"), mat)
    # split_p_star: formal adjoint of split_p
    p = _block_operator(geo, "split_p", params)
    return block_adjoint(geo, p)
