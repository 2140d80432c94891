import numpy as np
import pytest

import linwave.invariant as inv
from linwave.fields import ModeLattice, l2_inner, random_field, sym2_from_full
from linwave.slices import apply_slice_operator, constraint_residual, slice_geometry

KASNER_P = [2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0]


def slice_inner(geom, a, b) -> float:
    """L^2 inner product with the slice metric contraction."""
    if geom.is_torus:
        return l2_inner(a, b, metric=geom.metric)
    assert a.rank == b.rank
    gram = inv.gram_matrix(geom.invariant_geometry, a.rank)
    return float(a.components @ gram @ b.components)


def test_kasner_exponent_validation():
    with pytest.raises(ValueError) as err:
        slice_geometry("kasner", p=[0.5, 0.5, 0.5])
    assert "sum p" in str(err.value)
    with pytest.raises(ValueError):
        slice_geometry("kasner", p=KASNER_P, t0=0.0)


def test_background_constraints_vanish():
    for kind, kw in [
        ("flat-torus", dict(n=3)),
        ("kasner", dict(p=KASNER_P, t0=1.7)),
        ("berger", {}),
    ]:
        r1, r2 = constraint_residual(slice_geometry(kind, **kw))
        assert r1 < 1e-12 and r2 < 1e-12


def test_torus_operator_adjoints():
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    rng = np.random.default_rng(2)
    lat = ModeLattice(3, 3)
    w = random_field(lat, "one-form", rng)
    h = random_field(lat, "sym2", rng)
    phi = random_field(lat, "scalar", rng)
    # <L w, h> = <w, L* h>
    a = slice_inner(geom, apply_slice_operator(geom, "conformal_killing", w), h)
    b = slice_inner(geom, w, apply_slice_operator(geom, "ckl_adjoint", h))
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))
    # <d phi, w> = -<phi, div w>
    a = slice_inner(geom, apply_slice_operator(geom, "d", phi), w)
    b = slice_inner(geom, phi, apply_slice_operator(geom, "divergence", w))
    assert abs(a + b) < 1e-10 * max(1.0, abs(a))


def test_torus_laplacian_positive_and_consistent():
    geom = slice_geometry("flat-torus", n=3)
    rng = np.random.default_rng(4)
    lat = ModeLattice(3, 3)
    phi = random_field(lat, "scalar", rng)
    lap = apply_slice_operator(geom, "laplacian", phi)
    dphi = apply_slice_operator(geom, "d", phi)
    assert slice_inner(geom, lap, phi) > 0
    ip = slice_inner(geom, lap, phi)
    assert abs(ip - slice_inner(geom, dphi, dphi)) < 1e-12 * abs(ip)
    # trace of Hessian is minus the (positive) Laplacian
    hess = apply_slice_operator(geom, "hessian", phi)
    tr = apply_slice_operator(geom, "trace", hess)
    assert np.max(np.abs(tr.coeffs + lap.coeffs)) < 1e-13


def test_flat_ckl_normal_formula():
    # mode formula: (L*L w)_k = 2|k|^2 w + (2 - 4/n)(k.w) k on the unit torus
    geom = slice_geometry("flat-torus", n=3)
    rng = np.random.default_rng(9)
    lat = ModeLattice(3, 2)
    w = random_field(lat, "one-form", rng)
    got = apply_slice_operator(geom, "ckl_normal", w).coeffs
    k = lat.modes.astype(float)
    k2 = np.einsum("ma,ma->m", k, k)
    kv = np.einsum("ma,ma->m", k, w.coeffs)
    want = 2 * k2[:, None] * w.coeffs + (2 - 4 / 3) * kv[:, None] * k
    assert np.max(np.abs(got - want)) < 1e-12


def test_trace_reverse_inverts_cleanly():
    # on a 3-slice: tr(bar h) = -(1/2) tr h, and h = bar h - tr(bar h) g
    geom = slice_geometry("kasner", p=KASNER_P, t0=0.8)
    rng = np.random.default_rng(1)
    h = random_field(ModeLattice(3, 2), "sym2", rng)
    hbar = apply_slice_operator(geom, "trace_reverse", h)
    tr = apply_slice_operator(geom, "trace", h)
    trbar = apply_slice_operator(geom, "trace", hbar)
    assert np.max(np.abs(trbar.coeffs + 0.5 * tr.coeffs)) < 1e-13
    gsym = sym2_from_full(geom.metric, 3)
    rec = hbar.coeffs - trbar.coeffs * gsym[None]
    assert np.max(np.abs(rec - h.coeffs)) < 1e-13


def test_invariant_backend_dispatch():
    geom = slice_geometry("berger")
    w = inv.InvariantField("one-form", np.array([0.3, -0.2, 0.5]))
    h = inv.InvariantField("sym2", np.array([0.1, 0.2, -0.3, 0.4, 0.5, -0.6]))
    a = slice_inner(geom, apply_slice_operator(geom, "conformal_killing", w), h)
    b = slice_inner(geom, w, apply_slice_operator(geom, "ckl_adjoint", h))
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))
    with pytest.raises(ValueError):
        apply_slice_operator(geom, "divergence", random_field(ModeLattice(3, 1), "sym2", np.random.default_rng(0)))
