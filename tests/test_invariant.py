import numpy as np
import pytest

import linwave.invariant as inv


def geo(lam):
    return inv.InvariantGeometry(inv.berger_frame(lam))


def milnor_ricci(diag_metric: np.ndarray) -> tuple[np.ndarray, float]:
    """Independent oracle: Milnor's curvature formula for a diagonal
    left-invariant metric on SU(2) with bracket [e_i, e_j] = 2 eps e_k.

    Returns (Ric frame components as a diagonal 3x3 matrix, Scal).
    """
    lam = np.asarray(diag_metric, float)
    det = np.prod(lam)
    cs = 2.0 * lam / np.sqrt(det)  # structure constants of the orthonormal frame
    mu = np.array([0.5 * (cs[(i + 1) % 3] + cs[(i + 2) % 3] - cs[i]) for i in range(3)])
    r = np.array([2.0 * mu[(i + 1) % 3] * mu[(i + 2) % 3] for i in range(3)])
    ric = np.diag(lam * r)  # back to the unnormalized frame
    return ric, float(np.sum(r))


def test_round_sphere_curvature():
    g = geo(1.0)
    assert np.max(np.abs(g.ricci - 2 * np.eye(3))) < 1e-12
    assert abs(g.scal - 6.0) < 1e-12


def test_ricci_matches_milnor_oracle():
    for lam in (0.3, 1.0, 2.5, 4.0, 7.0):
        g = geo(lam)
        ric, scal = milnor_ricci(np.array([lam, 1.0, 1.0]))
        assert np.max(np.abs(g.ricci - ric)) < 1e-10
        assert abs(g.scal - scal) < 1e-10


def test_scalar_flat_parameter_found_by_solve():
    lam = inv.scalar_flat_parameter()
    g = geo(lam)
    assert abs(g.scal) < 1e-12
    # curvature does not vanish there
    assert np.linalg.norm(g.ricci) > 0.1


def test_metric_is_parallel():
    g = geo(3.7)
    n2 = inv._nabla_twotensor(g)
    nabla_g = np.einsum("iabpq,pq->iab", n2, g.frame.metric)
    assert np.max(np.abs(nabla_g)) < 1e-13


def test_contracted_bianchi():
    g = geo(2.2)
    gi = np.linalg.inv(g.frame.metric)
    n2 = inv._nabla_twotensor(g)
    div_ric = np.einsum("ab,abjpq,pq->j", gi, n2, g.ricci)
    assert np.max(np.abs(div_ric)) < 1e-12


def test_killing_dimensions():
    # invariant Killing one-forms are the null space of w -> Lie_w g
    def killing_count(g):
        s = np.linalg.svd(inv.operator_matrix(g, "lie_metric").matrix, compute_uv=False)
        return 3 - int(np.sum(s > 1e-10 * max(1.0, s[0])))

    assert killing_count(geo(1.0)) == 3  # round sphere
    assert killing_count(geo(4.0)) == 1  # squashed


def test_adjoint_matrix_is_gram_transpose():
    g = geo(4.0)
    op = inv.operator_matrix(g, "conformal_killing")
    ops = inv.adjoint_matrix(g, op)
    rng = np.random.default_rng(5)
    w = inv.InvariantField("one-form", rng.standard_normal(3))
    h = inv.InvariantField("sym2", rng.standard_normal(6))
    gram_h = inv.gram_matrix(g, "sym2")
    gram_w = inv.gram_matrix(g, "one-form")
    lhs = op(w).components @ gram_h @ h.components
    rhs = w.components @ gram_w @ ops(h).components
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_ckl_normal_identity():
    # L*L w = 2 Delta w - 4 Ric(w^sharp) on an invariant one-form
    g = geo(4.0)
    rng = np.random.default_rng(8)
    w = inv.InvariantField("one-form", rng.standard_normal(3))
    lhs = inv.operator_matrix(g, "ckl_normal")(w).components
    lap = inv.operator_matrix(g, "laplacian_oneform")(w).components
    gi = np.linalg.inv(g.frame.metric)
    rhs = 2 * lap - 4 * (g.ricci @ gi @ w.components)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conformal_killing_is_trace_free():
    g = geo(4.0)
    w = inv.InvariantField("one-form", np.array([1.0, -2.0, 0.5]))
    h = inv.operator_matrix(g, "conformal_killing")(w)
    tr = inv.operator_matrix(g, "trace")(h).components[0]
    assert abs(tr) < 1e-13


def test_frame_validation():
    with pytest.raises(ValueError):
        inv.berger_frame(-1.0)
