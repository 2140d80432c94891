"""Truncated Fourier representation of real tensor fields on flat tori.

The torus is T^n = R^n / (2 pi Z)^n with n = 2 or 3.  A field is stored
through its Fourier coefficients in the convention

    f(x) = sum_k  c_k  exp(i k.x),       k in Z^n, |k_i| <= nmax,

so a real field satisfies the Hermitian symmetry c_{-k} = conj(c_k).

Stored components: a symmetric 2-tensor, on a slice (n = 2, 3) or in
spacetime (n + 1, with index 0 the time direction), keeps its upper
triangle (i <= j) in lexicographic order, `sym2_index_pairs`; each
off-diagonal component is stored once and counted twice in metric
contractions.  Snapshots write the components in this order.  This module
is the one place that knows the layout: every other module converts
between stored components and full matrices with `sym2_to_full` and
`sym2_from_full`.

Polynomials in k keep one coefficient per monomial of `k_monomials`, the one
monomial order: `times_ik` multiplies them by i k_a, `ik_phase` turns those
of (i k)^e into those of k^e and `monomial_basis` evaluates k^e per mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property

import numpy as np

from .errors import InternalError

RANKS = ("scalar", "one-form", "sym2")

HERMITIAN_TOL = 1e-12


def rank_components(rank: str, n: int) -> int:
    """Number of stored components for a tensor rank in dimension n."""
    if rank == "scalar":
        return 1
    if rank == "one-form":
        return n
    if rank == "sym2":
        return n * (n + 1) // 2
    raise ValueError(f"unknown rank {rank!r}, expected one of {RANKS}")


def sym2_index_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle (i, j) pairs, i <= j, lexicographic."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym2_to_full(comp, n: int) -> np.ndarray:
    """Stored components (..., ncomp) -> symmetric matrices (..., n, n)."""
    slots = np.empty((n, n), int)
    i, j = np.array(sym2_index_pairs(n)).T
    slots[i, j] = slots[j, i] = np.arange(len(i))
    return np.take(comp, slots, axis=-1)


def sym2_from_full(full, n: int) -> np.ndarray:
    """Matrices (..., n, n) -> their stored upper-triangle components
    (..., ncomp); the lower triangle is not read."""
    i, j = np.array(sym2_index_pairs(n)).T
    full = np.asarray(full)
    return np.take(full.reshape(full.shape[:-2] + (n * n,)), i * n + j, axis=-1)


def sym2_congruence_matrix(a) -> np.ndarray:
    """The (ncomp, ncomp) matrix M of the map X -> A^T X + X A on stored
    sym2 components, for any (n, n) matrix A, symmetric or not: for
    symmetric X with stored components x, sym2_from_full(A^T X + X A)
    == x @ M.  Row c is the image of the c-th unit component; M is real
    when A is."""
    a = np.asarray(a)
    n = a.shape[0]
    xa = sym2_to_full(np.eye(rank_components("sym2", n)), n) @ a  # X A per unit X
    return sym2_from_full(xa + np.swapaxes(xa, -1, -2), n)  # A^T X = (X A)^T


def component_weights(rank: str, n: int) -> np.ndarray:
    """Multiplicity of each stored component in a full index contraction."""
    if rank == "sym2":
        return np.array([1.0 if i == j else 2.0 for i, j in sym2_index_pairs(n)])
    return np.ones(rank_components(rank, n))


@dataclass(frozen=True)
class ModeLattice:
    """Symmetric mode set {k : |k_i| <= nmax} in lexicographic order."""

    n: int
    nmax: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.nmax < 1:
            raise ValueError(f"nmax must be >= 1, got {self.nmax}")

    @property
    def modes_per_axis(self) -> int:
        return 2 * self.nmax + 1

    @property
    def num_modes(self) -> int:
        return self.modes_per_axis ** self.n

    @cached_property
    def modes(self) -> np.ndarray:
        """(num_modes, n) integer array; axis-0 order is lexicographic in
        (k_1, ..., k_n) with each k_i running -nmax..nmax.  Built once per
        lattice and read-only, so an in-place write raises."""
        r = np.arange(-self.nmax, self.nmax + 1)
        grids = np.meshgrid(*([r] * self.n), indexing="ij")
        modes = np.stack([g.ravel() for g in grids], axis=-1)
        modes.setflags(write=False)
        return modes

    def mode_index(self, k) -> int:
        k = np.asarray(k, dtype=int)
        if k.shape != (self.n,) or np.any(np.abs(k) > self.nmax):
            raise ValueError(f"mode {k} outside lattice (n={self.n}, nmax={self.nmax})")
        idx = 0
        for ki in k:
            idx = idx * self.modes_per_axis + (int(ki) + self.nmax)
        return idx

    def negation_permutation(self) -> np.ndarray:
        """Index permutation implementing k -> -k.  Each axis runs over the
        symmetric range -nmax..nmax in C order, so negating k reverses the
        flat index: row i's partner is num_modes - 1 - i, and x[::-1] is
        x at -k as a view."""
        return np.arange(self.num_modes - 1, -1, -1)

    @property
    def half(self) -> slice:
        """The Hermitian half, rows 0..(num_modes - 1) / 2: one mode of each
        +-k pair, then k = 0 as its last row, whose coefficients determine a
        real field's.  The partners of x[half] are x[::-1][half]."""
        return slice(0, (self.num_modes + 1) // 2)

    def half_weights(self) -> np.ndarray:
        """Per row of `half`, how often its term counts in a sum over the
        whole lattice whose terms at k and -k are equal: 2 for itself and
        its partner, 1 for k = 0 (the last row)."""
        w = np.full(self.half.stop, 2.0)
        w[-1] = 1.0
        return w


@dataclass
class SpectralField:
    """Tensor field on the torus held as truncated Fourier coefficients.

    coeffs has shape (num_modes, ncomp) and must satisfy the Hermitian
    symmetry for real-valued fields.  `dirac` optionally records that the
    field is the truncation of a Dirac-derivative line distribution
    (order, axis, component index), which has no pointwise values, so
    dphi_oracle refuses it.
    """

    lattice: ModeLattice
    rank: str
    coeffs: np.ndarray
    dirac: tuple[int, int, int] | None = dc_field(default=None)

    def __post_init__(self):
        ncomp = rank_components(self.rank, self.lattice.n)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.lattice.num_modes, ncomp):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected "
                f"({self.lattice.num_modes}, {ncomp})"
            )

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "SpectralField":
        return SpectralField(self.lattice, self.rank, self.coeffs.copy(), self.dirac)

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))

    def check_hermitian(self, tol: float = HERMITIAN_TOL):
        defect = self.hermitian_defect()
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        if defect > tol * scale:
            raise ValueError(
                f"coefficients violate Hermitian symmetry (defect {defect:.3e})"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same(self, other)
        return SpectralField(self.lattice, self.rank, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same(self, other)
        return SpectralField(self.lattice, self.rank, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        return SpectralField(self.lattice, self.rank, self.coeffs * c)

    __rmul__ = __mul__


def _check_same(a: SpectralField, b: SpectralField):
    if a.lattice != b.lattice or a.rank != b.rank:
        raise ValueError(
            f"field mismatch: ({a.lattice}, {a.rank}) vs ({b.lattice}, {b.rank})"
        )


def zero_field(lattice: ModeLattice, rank: str) -> SpectralField:
    return SpectralField(
        lattice, rank, np.zeros((lattice.num_modes, rank_components(rank, lattice.n)), complex)
    )


def analyze(samples: np.ndarray, rank: str, lattice: ModeLattice) -> SpectralField:
    """Forward transform of uniform-grid samples.

    samples: real array of shape grid_shape (scalar) or grid_shape + (ncomp,),
    sampled at x_j = 2 pi j / N.  Each axis needs N >= 2 nmax + 1.
    """
    samples = np.asarray(samples, dtype=float)
    n = lattice.n
    ncomp = rank_components(rank, n)
    if rank == "scalar" and samples.ndim == n:
        samples = samples[..., None]
    if samples.ndim != n + 1 or samples.shape[-1] != ncomp:
        raise ValueError(
            f"sample array has shape {samples.shape}, expected {n} grid axes "
            f"plus {ncomp} components"
        )
    for ax in range(n):
        if samples.shape[ax] < lattice.modes_per_axis:
            raise ValueError(
                f"grid axis {ax} has {samples.shape[ax]} points; lattice with "
                f"nmax={lattice.nmax} needs at least {lattice.modes_per_axis}"
            )
    npts = np.prod(samples.shape[:n])
    spec = np.fft.fftn(samples, axes=tuple(range(n))) / npts
    coeffs = np.empty((lattice.num_modes, ncomp), complex)
    modes = lattice.modes
    idx = tuple((modes[:, ax] % samples.shape[ax]) for ax in range(n))
    coeffs[:] = spec[idx]
    return SpectralField(lattice, rank, coeffs)


def synthesize_shifted(field: SpectralField, grid_size: int, shift=None) -> np.ndarray:
    """Complex synthesis on the grid translated by `shift` (length-n vector)."""
    lattice = field.lattice
    n = lattice.n
    if grid_size < lattice.modes_per_axis:
        raise ValueError(
            f"grid size {grid_size} too small; lattice needs >= {lattice.modes_per_axis}"
        )
    coeffs = field.coeffs
    if shift is not None:
        phase = np.exp(1j * lattice.modes @ np.asarray(shift, float))
        coeffs = coeffs * phase[:, None]
    spec = np.zeros((grid_size,) * n + (field.ncomp,), complex)
    modes = lattice.modes
    idx = tuple((modes[:, ax] % grid_size) for ax in range(n))
    spec[idx] = coeffs
    return np.fft.ifftn(spec, axes=tuple(range(n))) * grid_size ** n


def l2_inner(a: SpectralField, b: SpectralField, metric: np.ndarray) -> float:
    """L^2 pairing (2 pi)^n sum_k conj(a).b with the component contraction
    of a constant SPD metric G, whose inverse raises the indices.
    Parseval-consistent with grid quadrature of the pointwise contraction.
    """
    _check_same(a, b)
    n = a.lattice.n
    vol = (2 * np.pi) ** n
    gram = component_gram(a.rank, n, np.linalg.inv(np.asarray(metric, float)))
    return float(np.real(np.sum(np.conj(a.coeffs) * (b.coeffs @ gram))) * vol)


def component_gram(rank: str, n: int, metric_inv: np.ndarray) -> np.ndarray:
    """Gram matrix of the pointwise tensor inner product on stored components,
    given the inverse metric g^{-1}."""
    if rank == "scalar":
        return np.ones((1, 1))
    if rank == "one-form":
        return metric_inv
    # Contract full tensors T_ij S_pq g^ip g^jq: E^T (g^-1 x g^-1) E, where
    # E[a] is the full symmetric matrix of the a-th stored component.
    E = sym2_to_full(np.eye(rank_components(rank, n)), n)
    return np.einsum("aij,ip,jq,bpq->ab", E, metric_inv, metric_inv, E)


def monomial_basis(modes) -> np.ndarray:
    """Values of the monomials k^e of k_monomials(n, 2), in its order, per
    mode: (num_modes, npoly).  Built by degree from the table of k_shift:
    monomial 0 is 1, the k_a follow it, and each monomial of degree 2 is
    k_a times one of degree 1 (a cross term is written twice, with the
    same product)."""
    modes = np.asarray(modes, float)
    n = modes.shape[1]
    low, targets = k_shift(n, 2)
    rows = np.empty((len(k_monomials(n, 2)), len(modes)))  # one per monomial
    rows[0] = 1.0
    for a, target in enumerate(targets):
        rows[target[0]] = modes[:, a]
    for a, target in enumerate(targets):
        rows[target[1:]] = rows[1:low] * modes[:, a]
    return rows.T.copy()


@cache
def k_monomials(n: int, degree: int) -> np.ndarray:
    """Exponent rows e of the monomials (i k)^e of degree <= `degree` in n
    variables, by degree, the squares (one distinct index) before the cross
    terms: [1, i k_a, (i k_a)^2, i k_a i k_b (a < b)] through degree 2."""
    eye = np.eye(n, dtype=int)
    rows = [np.zeros(n, int)]
    for d in range(1, degree + 1):
        combos = sorted(itertools.combinations_with_replacement(range(n), d),
                        key=lambda c: len(set(c)))
        rows += [eye[list(c)].sum(axis=0) for c in combos]
    out = np.array(rows)
    out.flags.writeable = False
    return out


@cache
def k_shift(n: int, degree: int) -> tuple:
    """Multiplication by i k_a on k_monomials(n, degree): (low, targets), where
    the monomials 0..low-1 are those below the top degree and targets[a]
    lists the monomial that (i k_a) times each of them is."""
    mono = k_monomials(n, degree)
    index = {tuple(e): m for m, e in enumerate(mono)}
    low = int(np.sum(mono.sum(axis=1) < degree))
    targets = tuple(np.array([index[tuple(e)] for e in mono[:low] + np.eye(n, dtype=int)[a]])
                    for a in range(n))
    return low, targets


def times_ik(c: np.ndarray, n: int, layer: str, degree: int = 2, out=None) -> np.ndarray:
    """i k_a c, a = 1..n on a new leading axis, of coefficients c (..., npoly)
    of k_monomials(n, degree) on the last axis, written into `out` (zeros of
    shape (n,) + c.shape) if given.  A term of the top degree would leave
    the table: InternalError, naming `layer`."""
    low, targets = k_shift(n, degree)
    if np.any(c[..., low:]):
        raise InternalError(f"{layer}: a term of k-degree {degree + 1}; the monomials "
                            f"run up to degree {degree}")
    out = np.zeros((n,) + c.shape, c.dtype) if out is None else out
    for a, target in enumerate(targets):
        out[a][..., target] = c[..., :low]
    return out


def ik_phase(n: int, degree: int = 2) -> np.ndarray:
    """i^deg(e) per monomial of k_monomials(n, degree): the coefficient of
    k^e is i^deg(e) times that of (i k)^e, exactly."""
    return np.array([1.0, 1j, -1.0, -1j])[k_monomials(n, degree).sum(axis=1) % 4]


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Sobolev norm ||f||_s = sqrt( sum_k (1+|k|^2)^s sum_c w_c |c_k|^2 )
    over the stored lattice.

    Normalization: the H^0 norm squared equals l2_inner(f, f, I) / (2 pi)^n,
    so the constant field 1 has norm exactly 1.
    """
    if not np.isfinite(s):
        raise ValueError("Sobolev order must be finite")
    lattice = field.lattice
    mult = (1.0 + np.sum(lattice.modes ** 2, axis=1)) ** s
    return weighted_norm(field.coeffs, component_weights(field.rank, lattice.n), mult)


def weighted_norm(coeffs: np.ndarray, weights: np.ndarray, mult=None) -> float:
    """sqrt( sum_k mult_k sum_c weights_c |coeffs_kc|^2 ) over the modes
    (rows) of coeffs: component multiplicities `weights`, and per-mode
    factors `mult` (1 when omitted), such as a Sobolev weight (1+|k|^2)^s
    times a mode's multiplicity on the half lattice.  np.sum uses pairwise
    summation, which keeps the reduction deterministic."""
    dens = np.abs(coeffs) ** 2 @ weights
    return float(np.sqrt(np.sum(dens if mult is None else mult * dens)))


def dirac_partial_sum(order: int, s: float, truncation: int) -> float:
    """Partial sum  sum_{|m| <= K} (1 + m^2)^s m^(2 order) / (2 pi)^2
    for the line distribution delta^(order) placed on one torus axis;
    ValueError if it is not finite in double precision."""
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    m = np.arange(-truncation, truncation + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum((1.0 + m ** 2) ** s * m ** (2 * order)) / (2 * np.pi) ** 2)
    if not np.isfinite(total):
        raise ValueError(f"the H^{s:g} norm of delta^({order}) at truncation K={truncation} "
                         "is not finite in double precision")
    return total


def random_field(
    lattice: ModeLattice,
    rank: str,
    rng: np.random.Generator,
    decay: float = 0.0,
) -> SpectralField:
    """Random real band-limited field; Hermitian symmetry enforced.

    decay > 0 applies a Gaussian spectral envelope exp(-|k|^2 / (2 decay^2)),
    useful when a finite-difference oracle needs smooth data.
    """
    ncomp = rank_components(rank, lattice.n)
    raw = rng.standard_normal((lattice.num_modes, ncomp)) + 1j * rng.standard_normal(
        (lattice.num_modes, ncomp)
    )
    coeffs = 0.5 * (raw + np.conj(raw[::-1]))  # raw at -k, see ModeLattice.half
    if decay > 0:
        k2 = np.sum(lattice.modes ** 2, axis=1)
        coeffs *= np.exp(-k2 / (2.0 * decay ** 2))[:, None]
    return SpectralField(lattice, rank, coeffs)
