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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

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

    @property
    def modes(self) -> np.ndarray:
        """(num_modes, n) integer array; axis-0 order is lexicographic in
        (k_1, ..., k_n) with each k_i running -nmax..nmax."""
        r = np.arange(-self.nmax, self.nmax + 1)
        grids = np.meshgrid(*([r] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def mode_index(self, k) -> int:
        k = np.asarray(k, dtype=int)
        if k.shape != (self.n,) or np.any(np.abs(k) > self.nmax):
            raise ValueError(f"mode {k} outside lattice (n={self.n}, nmax={self.nmax})")
        idx = 0
        for ki in k:
            idx = idx * self.modes_per_axis + (int(ki) + self.nmax)
        return idx

    def negation_permutation(self) -> np.ndarray:
        """Index permutation implementing k -> -k."""
        m = self.modes_per_axis
        rev = np.arange(m)[::-1]
        perm = np.arange(self.num_modes).reshape((m,) * self.n)
        for ax in range(self.n):
            perm = np.take(perm, rev, axis=ax)
        return perm.ravel()

    def half_indices(self) -> np.ndarray:
        """Indices idx <= negation_permutation()[idx]: k = 0 and one mode of
        each +-k pair, whose coefficients determine a real field's."""
        perm = self.negation_permutation()
        return np.flatnonzero(np.arange(self.num_modes) <= perm)


@dataclass
class SpectralField:
    """Tensor field on the torus held as truncated Fourier coefficients.

    coeffs has shape (num_modes, ncomp) and must satisfy the Hermitian
    symmetry for real-valued fields.  `dirac` optionally records that the
    field is the truncation of a Dirac-derivative line distribution
    (order, axis, component index); Sobolev norms can then be extended
    past the stored truncation.
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
        perm = self.lattice.negation_permutation()
        return float(np.max(np.abs(self.coeffs[perm] - np.conj(self.coeffs))))

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


def synthesize(field: SpectralField, grid_size: int) -> np.ndarray:
    """Evaluate the truncated series on the uniform grid x_j = 2 pi j / N.

    Returns a real array of shape (N,)*n + (ncomp,) (component axis dropped
    for scalars).  Grid offsets are supported via `synthesize_shifted`.
    """
    field.check_hermitian()
    out = synthesize_shifted(field, grid_size, None)
    imag = float(np.max(np.abs(out.imag))) if out.size else 0.0
    scale = max(1.0, float(np.max(np.abs(out.real))))
    if imag > 1e-12 * scale:
        raise ValueError(f"synthesis produced imaginary part {imag:.3e}")
    out = out.real
    if field.rank == "scalar":
        out = out[..., 0]
    return out


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


def l2_inner(a: SpectralField, b: SpectralField, metric: np.ndarray | None = None) -> float:
    """L^2 pairing (2 pi)^n sum_k conj(a).b with component contraction.

    With metric=None the contraction is flat (identity); otherwise `metric`
    is a constant SPD matrix G and indices are raised with G^{-1}.
    Parseval-consistent with grid quadrature of the pointwise contraction.
    """
    _check_same(a, b)
    n = a.lattice.n
    vol = (2 * np.pi) ** n
    if metric is None:
        w = component_weights(a.rank, n)
        return float(np.real(np.sum(np.conj(a.coeffs) * b.coeffs @ w)) * vol)
    gram = component_gram(a.rank, n, np.linalg.inv(np.asarray(metric, float)))
    return float(np.real(np.einsum("kc,cd,kd->", np.conj(a.coeffs), gram, b.coeffs)) * vol)


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


def sobolev_norm(field: SpectralField, s: float, truncation: int | None = None) -> float:
    """Sobolev norm ||f||_s = sqrt( sum_k (1+|k|^2)^s sum_c w_c |c_k|^2 ).

    Normalization: the H^0 norm squared equals l2_inner(f, f) / (2 pi)^n,
    so the constant field 1 has norm exactly 1.  `truncation` restricts the
    sum to |k_i| <= truncation; a truncation beyond the stored lattice is
    only allowed for fields with a declared Dirac generator, whose exact
    coefficients extend the partial sum.
    """
    if not np.isfinite(s):
        raise ValueError("Sobolev order must be finite")
    lattice = field.lattice
    if truncation is None:
        truncation = lattice.nmax
    if truncation > lattice.nmax:
        if field.dirac is None:
            raise ValueError(
                f"truncation {truncation} exceeds stored nmax {lattice.nmax} and "
                "the field declares no distributional generator"
            )
        order, axis, comp = field.dirac
        w = component_weights(field.rank, lattice.n)[comp]
        return float(np.sqrt(w * dirac_partial_sum(order, s, truncation)))
    modes = lattice.modes
    keep = np.all(np.abs(modes) <= truncation, axis=1)
    mult = (1.0 + np.sum(modes[keep] ** 2, axis=1)) ** s
    w = component_weights(field.rank, lattice.n)
    return weighted_norm(field.coeffs[keep], w, mult)


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
    for the line distribution delta^(order) placed on one torus axis."""
    m = np.arange(-truncation, truncation + 1, dtype=float)
    return float(np.sum((1.0 + m ** 2) ** s * m ** (2 * order)) / (2 * np.pi) ** 2)


def distributional_coefficients(
    lattice: ModeLattice, order: int, axis: int, components, rank: str = "sym2"
) -> SpectralField:
    """Truncation of delta^(order)(x_axis) placed on the given components.

    The Dirac comb on the circle has coefficients 1/(2 pi); its order-th
    derivative carries the multiplier (i k_axis)^order.  `components` is a
    component index or list of indices of the target rank.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    if not 0 <= axis < lattice.n:
        raise ValueError(f"axis {axis} out of range for n={lattice.n}")
    ncomp = rank_components(rank, lattice.n)
    comps = [components] if np.isscalar(components) else list(components)
    for c in comps:
        if not 0 <= c < ncomp:
            raise ValueError(f"component {c} out of range for rank {rank}")
    modes = lattice.modes
    online = np.all(np.delete(modes, axis, axis=1) == 0, axis=1)
    line = np.where(online, (1j * modes[:, axis]) ** order / (2 * np.pi), 0.0)
    coeffs = np.zeros((lattice.num_modes, ncomp), complex)
    for c in comps:
        coeffs[:, c] = line
    dirac = (order, axis, comps[0]) if len(comps) == 1 else None
    return SpectralField(lattice, rank, coeffs, dirac=dirac)


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
    perm = lattice.negation_permutation()
    coeffs = 0.5 * (raw + np.conj(raw[perm]))
    if decay > 0:
        k2 = np.sum(lattice.modes ** 2, axis=1)
        coeffs *= np.exp(-k2 / (2.0 * decay ** 2))[:, None]
    return SpectralField(lattice, rank, coeffs)
