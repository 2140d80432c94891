"""Independent finite-difference tensor calculus for the spacetime jet tests.

The symbolic jet assembly in `linwave.spacetime` is checked against these
pointwise oracles: Christoffel symbols, curvature and the operators
box_L and DRic by nested 4th-order central differences (eps = 1e-3) of a
callable metric x = (t, x^i) -> g(x).  Sign conventions are those of
`linwave.spacetime`.

`phi_pointwise_reference` is the pointwise constraint kernel of the slice
oracle written with the grid axis in the middle of every array, the
reference for the grid-last kernel in `linwave.constraints`.

`berger_matrix` reads the matrix of one slice operator on an invariant
slice, `direct_mode_matrices` the per-mode matrices of a linear map of
torus slice fields at the modes of a lattice, and `milnor_slice` is a
scalar-flat invariant slice off the Berger axis.  `kasner_triples` are
the Kasner exponents the spacetime and constraint tests sweep.

`reference_dphi_modes` and `reference_dphi_invariant` are DPhi written out
separately on each backend, per torus mode by hand and on Berger through
the k~ = 0 reduction: the references for the one formula
`linwave.slices.dphi_modes`.

`synthesize` evaluates a real field on a uniform grid, and
`distributional_coefficients` truncates a Dirac-derivative line
distribution: test inputs and pointwise references for the field
transforms, the slice oracle and the split.

`reference_mode_matrices` assembles a spacetime mode operator at one
concrete wave covector k, with complex jets on which each spatial
derivative multiplies by i k_a: the per-k reference for the coefficient
tables that `linwave.spacetime` assembles once with k kept symbolic.  For
dphi_induced it runs the numeric slice route at k instead.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np

import linwave.invariant as inv
from linwave import spacetime
from linwave.fields import (
    ModeLattice,
    SpectralField,
    rank_components,
    sym2_from_full,
    sym2_to_full,
    synthesize_shifted,
)
from linwave.slices import (
    SliceGeometry,
    apply_slice_operator,
    dphi_modes,
    operator_matrices,
    scalar_times,
    slice_stack,
    slice_unstack,
)

FD_EPS = 1e-3


def metric_fn(bg):
    """Pointwise metric of a SpacetimeBackground as a callable of x = (t, x^i)."""
    return lambda x: bg.metric_derivs(float(x[0]), 0)[0]


def mode_apply(op, t: float, u_derivs) -> np.ndarray:
    """Evaluate a ModeOperator on a list of unknown derivative vectors [u, u', ...]."""
    mats = op.matrices(t)
    if len(u_derivs) < len(mats):
        raise ValueError(f"operator {op.kind} needs {len(mats) - 1} derivatives of u")
    out = 0.0
    for M, u in zip(mats, u_derivs):
        out = out + M @ u
    return out


def fd_partial(fn, x: np.ndarray, axis: int, eps: float = FD_EPS):
    """4th-order central difference of a (possibly tensor-valued) callable."""
    e = np.zeros(len(x))
    e[axis] = eps
    return (
        -fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e) + fn(x - 2 * e)
    ) / (12 * eps)


def fd_christoffel(metric_fn, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    dim = len(x)
    g = metric_fn(x)
    gi = np.linalg.inv(g)
    dg = np.stack([fd_partial(metric_fn, x, a, eps) for a in range(dim)])
    return 0.5 * np.einsum(
        "cd,adb->cab", gi, dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2))
    )


def fd_covariant_derivative(metric_fn, tensor_fn, rank: int, eps: float = FD_EPS):
    """Return a callable for nabla T (new lower index first); T all-lower."""

    def out(x):
        dim = len(x)
        T = np.asarray(tensor_fn(x))
        gam = fd_christoffel(metric_fn, x, eps)
        dT = np.stack([fd_partial(tensor_fn, x, a, eps) for a in range(dim)])
        res = dT.astype(complex)
        for s in range(rank):
            # -Gamma^z_{a i_s} T_{.. z ..}
            Tm = np.moveaxis(T, s, 0)
            corr = np.einsum("zas,z...->as...", gam, Tm)
            res -= np.moveaxis(corr, 1, s + 1)
        return res

    return out


def fd_riemann_up(metric_fn, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """R^a_{bce} with R(d_c, d_e) d_b = R^a_{bce} d_a, by differencing Gamma."""
    dim = len(x)
    gfun = lambda y: fd_christoffel(metric_fn, y, eps)
    gam = gfun(x)
    dgam = np.stack([fd_partial(gfun, x, c, eps) for c in range(dim)])
    out = (
        np.einsum("caeb->abce", dgam)
        - np.einsum("eacb->abce", dgam)
        + np.einsum("acz,zeb->abce", gam, gam)
        - np.einsum("aez,zcb->abce", gam, gam)
    )
    return out


def fd_ricci(metric_fn, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    return np.einsum("abae->be", fd_riemann_up(metric_fn, x, eps))


def fd_lichnerowicz(metric_fn, h_fn, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """box_L h = nabla*nabla h - 2 RingR h at a point, by nested stencils."""
    gi = np.linalg.inv(metric_fn(x))
    grad1 = fd_covariant_derivative(metric_fn, h_fn, 2, eps)
    grad2 = fd_covariant_derivative(metric_fn, grad1, 3, eps)
    lap = -np.einsum("pq,pqab->ab", gi, grad2(x))
    rup = fd_riemann_up(metric_fn, x, eps)
    h = np.asarray(h_fn(x))
    ring = np.einsum("ab,myax,mb->xy", gi, rup, h)
    return lap - 2 * ring


def fd_d_ric(metric_fn, h_fn, x: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """Linearised Ricci by nested stencils (same Christoffel-variation form)."""
    gi_x = np.linalg.inv(metric_fn(x))
    grad1 = fd_covariant_derivative(metric_fn, h_fn, 2, eps)

    def c_low(y):
        D = grad1(y)
        return 0.5 * (
            np.einsum("axb->xab", D) + np.einsum("bxa->xab", D) - np.einsum("xab->xab", D)
        )

    K = fd_covariant_derivative(metric_fn, c_low, 3, eps)(x)
    return np.einsum("ex,exab->ab", gi_x, K) - np.einsum("cx,axcb->ab", gi_x, K)


def phi_pointwise_reference(g, dg, d2g, k, dk):
    """Pointwise constraints Phi_1, Phi_2 from sampled slice data, with the
    grid axis p in the middle of every array: the reference kernel for
    `linwave.constraints._phi_pointwise`, which keeps p last.

    Axis conventions: g and k have axes [p, c, d]; dg and dk have axes
    [a, p, c, d] = d_a g_cd; d2g has axes [e, a, p, c, d] = d_e d_a g_cd.
    Returns Phi_1 with axes [p] and Phi_2 with axes [p, x].
    """
    gi = np.linalg.inv(g)
    dgi = -np.einsum("pce,apef,pfd->apcd", gi, dg, gi, optimize=True)
    # Koszul bracket br[a, p, d, b] = d_a g_db + d_b g_da - d_d g_ab
    br = (
        np.einsum("apdb->apdb", dg)
        + np.einsum("bpda->apdb", dg)
        - np.einsum("dpab->apdb", dg)
    )
    dbr = (
        np.einsum("eapdb->eapdb", d2g)
        + np.einsum("ebpda->eapdb", d2g)
        - np.einsum("edpab->eapdb", d2g)
    )
    gam = 0.5 * np.einsum("pcd,apdb->pcab", gi, br, optimize=True)
    dgam = 0.5 * (
        np.einsum("epcd,apdb->epcab", dgi, br, optimize=True)
        + np.einsum("pcd,eapdb->epcab", gi, dbr, optimize=True)
    )
    ric = (
        np.einsum("cpcab->pab", dgam)
        - np.einsum("apccb->pab", dgam)
        + np.einsum("pccm,pmab->pab", gam, gam, optimize=True)
        - np.einsum("pcam,pmcb->pab", gam, gam, optimize=True)
    )
    scal = np.einsum("pab,pab->p", gi, ric)
    kk = np.einsum("pia,pjb,pij,pab->p", gi, gi, k, k, optimize=True)
    trk = np.einsum("pij,pij->p", gi, k)
    phi1 = scal - kk + trk ** 2
    divk = (
        np.einsum("pab,apbx->px", gi, dk, optimize=True)
        - np.einsum("pab,pmab,pmx->px", gi, gam, k, optimize=True)
        - np.einsum("pab,pmax,pbm->px", gi, gam, k, optimize=True)
    )
    dtrk = np.einsum("xpab,pab->px", dgi, k) + np.einsum("pab,xpab->px", gi, dk)
    return phi1, divk - dtrk


def berger_matrix(geom, kind: str, rank: str) -> np.ndarray:
    """Matrix of the slice operator `kind` on invariant fields of `rank`,
    read off apply_slice_operator by slices.operator_matrices."""
    return operator_matrices(geom, lambda f: (apply_slice_operator(geom, kind, f),), (rank,))[0]


def direct_mode_matrices(geom, F, ranks, lattice) -> np.ndarray:
    """Per-mode matrices (modes, rows, cols) of a linear map F of torus slice
    fields, F run on the unit fields of `lattice` itself (i k numeric at
    every mode), with no fit: the exact reference for slices.operator_matrices,
    which keeps i k symbolic."""
    ncols = sum(rank_components(r, geom.n) for r in ranks)
    return np.stack([
        slice_stack(geom, F(*slice_unstack(geom, ranks, np.tile(e, (lattice.num_modes, 1)),
                                           lattice)))
        for e in np.eye(ncols)], axis=-1)


def milnor_slice(b):
    """A scalar-flat left-invariant slice off the Berger axis: diag(a, b, 1)
    with sqrt(a) = sqrt(b) + 1, where Milnor's Scal vanishes (the closed form
    at invariant.SCALAR_FLAT_LAMBDA)."""
    geo = inv.InvariantGeometry(np.diag([(np.sqrt(b) + 1.0) ** 2, b, 1.0]))
    return SliceGeometry("berger", 3, geo.metric, np.zeros((3, 3)), {"geometry": geo})


def kasner_triples():
    # the generic triple is p_i = 1/3 + 2/3 cos(0.7 + 2 pi i / 3)
    generic = tuple(1 / 3 + 2 / 3 * np.cos(0.7 + 2 * np.pi * i / 3) for i in range(3))
    return ((2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0), (1.0, 0.0, 0.0), generic)


def reference_dphi_modes(geom, modes, h, m):
    """DPhi_1 (N,) and DPhi_2 (N, n) of torus data: the stored sym2
    coefficients h and m (N, ncomp) at the integer modes (N, n), contracted
    by hand per mode (d -> i k, g~^-1 k written kup)."""
    n = geom.n
    G = geom.metric
    gi = geom.metric_inv
    K = geom.extrinsic
    k = np.asarray(modes, float)
    kup = k @ gi.T
    H = sym2_to_full(h, n)
    M = sym2_to_full(m, n)
    trK = np.trace(gi @ K)
    kok = K @ gi @ K  # (k~ o k~)_ab = g~(k~(a,.), k~(b,.))
    A_up = gi @ (2.0 * (kok - trK * K)) @ gi
    K_up = gi @ K @ gi
    ric_up = gi @ geom.ricci @ gi
    tr_h, gKh, Ah = (H.reshape(-1, n * n) @ np.stack(
        [gi.ravel(), K_up.ravel(), (A_up - ric_up).ravel()], axis=1)).T
    tr_m, gKm = (M.reshape(-1, n * n) @ np.stack([gi.ravel(), K_up.ravel()], axis=1)).T
    kk = kup[:, :, None] * kup[:, None, :]
    divdivh = -(kk.reshape(-1, 1, n * n) @ H.reshape(-1, n * n, 1))[:, 0, 0]
    k2 = np.einsum("ka,ka->k", kup, k)
    dphi1 = divdivh + k2 * tr_h + Ah - 2.0 * (gKm - trK * tr_m)
    hbar = H - 0.5 * tr_h[:, None, None] * G
    divhbar = 1j * (kup[:, None, :] @ hbar)[:, 0]
    term2 = -divhbar @ (gi @ K)
    term34 = 0.5j * k * gKh[:, None]
    term5 = 1j * ((kup[:, None, :] @ M)[:, 0] - tr_m[:, None] * k)
    return dphi1, term2 + term34 + term5


def reference_dphi_invariant(geom, h, m):
    """(DPhi_1, DPhi_2) of invariant fields on a slice with k~ = 0:
    (div div h~ - g~(Ric, h~), div(m~ - (tr m~) g~)); the d tr terms are
    derivatives of invariant scalars and vanish identically."""
    div_h = apply_slice_operator(geom, "divergence", h)
    scalar = (apply_slice_operator(geom, "divergence", div_h)
              - apply_slice_operator(geom, "ricci_pairing", h))
    tr_m = apply_slice_operator(geom, "trace", m)
    oneform = apply_slice_operator(geom, "divergence", m - scalar_times(geom, tr_m, geom.metric))
    return scalar, oneform


@dataclass
class ConcreteJet(spacetime.JetTensor):
    """A jet at one concrete mode k: data[d, j, i_1..i_r, c] is complex, with
    the hidden axis the unknown's components alone."""

    k: np.ndarray | None = None


def concrete_unknown_jet(bg, t, k, rank, depth):
    """The identity jet of the unknown (sym2 or one-form) at the mode k."""
    dim = bg.dim
    if rank == "sym2":
        ncomp = dim * (dim + 1) // 2
        data = np.zeros((depth + 1, 1, dim, dim, ncomp), complex)
        data[0, 0] = np.moveaxis(sym2_to_full(np.eye(ncomp), dim), 0, -1)
    else:
        data = np.zeros((depth + 1, 1, dim, dim), complex)
        data[0, 0] = np.eye(dim)
    return ConcreteJet(bg, t, data, k=np.asarray(k, float))


def concrete_jet_nabla(J):
    """Covariant derivative of a ConcreteJet (new index first): the spatial
    directions multiply by i k_a, the Christoffel terms by one Leibniz
    einsum per index slot."""
    bg, t = J.bg, J.t
    dim = bg.dim
    depth = J.depth - 1
    order = J.order + 1
    r = J.rank
    pad = np.zeros((J.depth + 1, order + 1) + J.data.shape[2:], complex)
    pad[:, : J.order + 1] = J.data
    out = np.zeros((depth + 1, order + 1) + (dim,) * (r + 1) + J.data.shape[-1:], complex)
    out[:, :, 0] = pad[1 : depth + 2]
    out[:, 1:, 0] += pad[: depth + 1, :-1]
    for a in range(1, dim):
        out[:, :, a] = 1j * J.k[a - 1] * pad[: depth + 1]
    gam = bg.gamma_derivs(t, depth)
    letters = "abcdef"[:r]
    for s in range(r):
        jin = letters[:s] + "z" + letters[s + 1 :]
        out -= spacetime._leib(gam, pad, f"zn{letters[s]},O{jin}Y->On{letters}Y")
    return ConcreteJet(bg, t, out, k=J.k)


def reference_mode_matrices(bg, kind, t, k):
    """[M_0, M_1, ...] of the operator `kind` at time t and mode k: the
    library's operator formulas run on concrete-k jets, with
    concrete_jet_nabla in place of the symbolic jet_nabla.  For
    dphi_induced, which has no jet, the numeric slice route at k:
    induced_data_modes and then dphi_modes on each unit column of U (M_0)
    and of U' (M_1), the output rows (DPhi_1, DPhi_2)."""
    if kind == "dphi_induced":
        ncomp = rank_components("sym2", bg.dim)
        modes = np.tile(np.asarray(k, float), (ncomp, 1))
        units = (np.eye(ncomp), np.zeros((ncomp, ncomp)))
        out = []
        for U, Udot in (units, units[::-1]):
            h, m = spacetime.induced_data_modes(bg, t, modes, U, Udot)
            out.append(np.concatenate(dphi_modes(bg.slice_at(t), modes, h, m), axis=1).T)
        return out
    rank, func, depth = spacetime._JET_FUNCS[kind]
    with mock.patch.object(spacetime, "jet_nabla", concrete_jet_nabla):
        out = func(concrete_unknown_jet(bg, t, k, rank, depth)).data[0]
    if out.ndim == 3:  # one-form output: (order, dim, ncomp_in)
        return list(out)
    # sym2 output: (order, dim, dim, ncomp_in) -> (order, ncomp_out, ncomp_in)
    return list(np.swapaxes(sym2_from_full(np.moveaxis(out, -1, 1), bg.dim), 1, 2))


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
