import numpy as np
import pytest

import linwave.invariant as inv
from linwave.slices import slice_geometry

from fd_oracles import berger_matrix


def geo(lam):
    return inv.InvariantGeometry(np.diag([lam, 1.0, 1.0]))


def berger(lam):
    return slice_geometry("berger", lam=lam)


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


def test_scalar_flat_parameter_is_the_closed_form():
    # Milnor: Scal(diag(lam, 1, 1)) = 8 - 2 lam for this bracket, so lam* = 4
    for lam in (0.3, 1.0, 2.5, 4.0, 7.0):
        assert abs(geo(lam).scal - (8.0 - 2.0 * lam)) < 1e-12
    g = geo(inv.SCALAR_FLAT_LAMBDA)
    assert abs(g.scal) < 1e-12
    # curvature does not vanish there
    assert np.linalg.norm(g.ricci) > 0.1


def test_scalar_flat_closed_form_off_the_berger_axis():
    # Milnor: Scal(diag(a, b, c)) = 2 (2 (ab + bc + ca) - a^2 - b^2 - c^2) / (abc),
    # zero when sqrt(a) = sqrt(b) + sqrt(c)
    for a, b, c in [(2.0, 3.0, 0.5), (0.7, 1.9, 4.2), ((np.sqrt(1.5) + 1) ** 2, 1.5, 1.0),
                    (9.0, 4.0, 1.0)]:
        g = inv.InvariantGeometry(np.diag([a, b, c]))
        closed = 2 * (2 * (a * b + b * c + c * a) - a * a - b * b - c * c) / (a * b * c)
        ric, scal = milnor_ricci(np.array([a, b, c]))
        assert abs(g.scal - closed) < 1e-12 and abs(scal - closed) < 1e-12
        assert np.max(np.abs(g.ricci - ric)) < 1e-10
    assert abs(closed) < 1e-12


def test_metric_is_parallel():
    g = geo(3.7)
    assert np.max(np.abs(inv.nabla(g, g.metric))) < 1e-13


def test_contracted_bianchi():
    g = geo(2.2)
    div_ric = np.einsum("ab,abj->j", g.metric_inv, inv.nabla(g, g.ricci))
    assert np.max(np.abs(div_ric)) < 1e-12


def test_nabla_is_the_connection_on_each_slot():
    # nabla_a w_j = -Gamma^m_{aj} w_m, and on a tensor product each slot
    # takes its own connection term (Leibniz)
    g = geo(2.7)
    rng = np.random.default_rng(3)
    u, w = rng.standard_normal(3), rng.standard_normal(3)
    assert np.max(np.abs(inv.nabla(g, w) + np.einsum("maj,m->aj", g.gamma, w))) < 1e-15
    leibniz = (np.einsum("ai,j->aij", inv.nabla(g, u), w)
               + np.einsum("i,aj->aij", u, inv.nabla(g, w)))
    assert np.max(np.abs(inv.nabla(g, np.outer(u, w)) - leibniz)) < 1e-14
    assert np.array_equal(inv.nabla(g, 0.7), np.zeros(3))


def test_killing_dimensions():
    # invariant Killing one-forms are the null space of w -> Lie_w g
    def killing_count(geom):
        s = np.linalg.svd(berger_matrix(geom, "lie_metric", "one-form"), compute_uv=False)
        return 3 - int(np.sum(s > 1e-10 * max(1.0, s[0])))

    assert killing_count(berger(1.0)) == 3  # round sphere
    assert killing_count(berger(4.0)) == 1  # squashed


def test_adjoint_matrix_is_gram_transpose():
    # L* is written as -2 div h + (2/n) d tr h; check it against the Gram
    # adjoint of L
    geom = berger(4.0)
    g = geom.invariant_geometry
    op = berger_matrix(geom, "conformal_killing", "one-form")
    ops = berger_matrix(geom, "ckl_adjoint", "sym2")
    gram_h = inv.gram_matrix(g, "sym2")
    gram_w = inv.gram_matrix(g, "one-form")
    want = np.linalg.solve(gram_w, op.T @ gram_h)
    assert np.max(np.abs(ops - want)) < 1e-13 * np.max(np.abs(want))
    rng = np.random.default_rng(5)
    w = inv.InvariantField("one-form", rng.standard_normal(3))
    h = inv.InvariantField("sym2", rng.standard_normal(6))
    lhs = (op @ w.components) @ gram_h @ h.components
    rhs = w.components @ gram_w @ (ops @ h.components)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_ckl_normal_identity():
    # L*L w = 2 Delta w - 4 Ric(w^sharp) on an invariant one-form
    geom = berger(4.0)
    g = geom.invariant_geometry
    rng = np.random.default_rng(8)
    w = inv.InvariantField("one-form", rng.standard_normal(3))
    lhs = berger_matrix(geom, "ckl_normal", "one-form") @ w.components
    lap = berger_matrix(geom, "laplacian", "one-form") @ w.components
    gi = np.linalg.inv(g.metric)
    rhs = 2 * lap - 4 * (g.ricci @ gi @ w.components)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conformal_killing_is_trace_free():
    geom = berger(4.0)
    w = inv.InvariantField("one-form", np.array([1.0, -2.0, 0.5]))
    h = berger_matrix(geom, "conformal_killing", "one-form") @ w.components
    tr = (berger_matrix(geom, "trace", "sym2") @ h)[0]
    assert abs(tr) < 1e-13


def test_frame_validation():
    with pytest.raises(ValueError):
        inv.InvariantGeometry(np.diag([-1.0, 1.0, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="metric must be finite"):
            inv.InvariantGeometry(np.diag([bad, 1.0, 1.0]))
