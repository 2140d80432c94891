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
slice, and `milnor_slice` is a scalar-flat invariant slice off the Berger
axis.
"""

import numpy as np

import linwave.invariant as inv
from linwave.slices import SliceGeometry, apply_slice_operator, operator_matrices

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


def milnor_slice(b):
    """A scalar-flat left-invariant slice off the Berger axis: diag(a, b, 1)
    with sqrt(a) = sqrt(b) + 1, where Milnor's Scal vanishes (the closed form
    at invariant.SCALAR_FLAT_LAMBDA)."""
    geo = inv.InvariantGeometry(np.diag([(np.sqrt(b) + 1.0) ** 2, b, 1.0]))
    return SliceGeometry("berger", 3, geo.metric, np.zeros((3, 3)), {"geometry": geo})
