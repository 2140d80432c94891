from functools import partial

import numpy as np
import pytest

import linwave.invariant as inv
from linwave.constraints import constraint_residual, dphi_modes
from linwave.decomposition import (
    MONCRIEF_RANKS,
    SPLIT_RANKS,
    gauge_producing_data,
    split_operator,
    split_params,
)
from linwave.errors import InternalError
from linwave.fields import (
    ModeLattice,
    SpectralField,
    random_field,
    rank_components,
    sobolev_norm,
    sym2_index_pairs,
    sym2_to_full,
)
from linwave.slices import (
    _RANKS,
    apply_slice_operator,
    operator_matrices,
    scalar_times,
    slice_geometry,
    slice_inner,
    slice_max_abs,
    slice_norm,
    slice_stack,
)

from fd_oracles import berger_matrix, direct_mode_matrices, milnor_slice

KASNER_P = [2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0]


def test_kasner_exponent_validation():
    with pytest.raises(ValueError) as err:
        slice_geometry("kasner", p=[0.5, 0.5, 0.5])
    assert "sum p" in str(err.value)
    with pytest.raises(ValueError):
        slice_geometry("kasner", p=KASNER_P, t0=0.0)


@pytest.mark.parametrize("kind, params, name", [
    ("kasner", dict(p=[np.nan, 0.0, 1.0]), "exponents p"),
    ("kasner", dict(p=[np.inf, -np.inf, 1.0]), "exponents p"),
    ("kasner", dict(p=KASNER_P, t0=np.nan), "t0"),
    ("kasner", dict(p=KASNER_P, t0=np.inf), "t0"),
    ("berger", dict(lam=np.inf), "lam"),
    ("berger", dict(lam=np.nan), "lam"),
    # finite t0 at which g~ (1e600), k~ (1e333) or g~^-1 (1e600) overflows
    ("kasner", dict(p=[1.0, 0.0, 0.0], t0=1e300), "t0"),
    ("kasner", dict(p=KASNER_P, t0=1e-200), "t0"),
    ("kasner", dict(p=[1.0, 0.0, 0.0], t0=1e-300), "t0"),
])
def test_geometry_refuses_parameters_that_are_not_finite(kind, params, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        slice_geometry(kind, **params)


def test_metric_inverse_is_computed_once_and_read_only():
    for geom in (slice_geometry("kasner", p=KASNER_P, t0=1.3), slice_geometry("berger")):
        gi = geom.metric_inv
        assert geom.metric_inv is gi and not gi.flags.writeable
        assert np.array_equal(gi, np.linalg.inv(geom.metric))


def test_background_constraints_vanish():
    for kind, kw in [
        ("flat-torus", dict(n=3)),
        ("kasner", dict(p=KASNER_P, t0=1.7)),
        ("berger", {}),
    ]:
        r1, r2 = constraint_residual(slice_geometry(kind, **kw))
        assert r1 < 1e-12 and r2 < 1e-12


def test_torus_operator_adjoints():
    # on Kasner and on invariant slices (Berger at lam 4 and 2.7, and off the
    # Berger axis): <L w, h> = <w, L* h>, <d phi, w> = -<phi, div w>, and the
    # one-form Laplacian is symmetric
    rng = np.random.default_rng(2)
    lat = ModeLattice(3, 3)
    for geom in (slice_geometry("kasner", p=KASNER_P, t0=1.3), slice_geometry("berger"),
                 slice_geometry("berger", lam=2.7), milnor_slice(1.5)):
        if geom.is_torus:
            w, v, h, phi = (random_field(lat, r, rng)
                            for r in ("one-form", "one-form", "sym2", "scalar"))
        else:
            w, v, h, phi = (inv.InvariantField(r, rng.standard_normal(rank_components(r, 3)))
                            for r in ("one-form", "one-form", "sym2", "scalar"))
        a = slice_inner(geom, apply_slice_operator(geom, "conformal_killing", w), h)
        b = slice_inner(geom, w, apply_slice_operator(geom, "ckl_adjoint", h))
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))
        a = slice_inner(geom, apply_slice_operator(geom, "d", phi), w)
        b = slice_inner(geom, phi, apply_slice_operator(geom, "divergence", w))
        assert abs(a + b) < 1e-10 * max(1.0, abs(a))
        a = slice_inner(geom, apply_slice_operator(geom, "laplacian", w), v)
        b = slice_inner(geom, w, apply_slice_operator(geom, "laplacian", v))
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))
        if not geom.is_torus:
            lap = berger_matrix(geom, "laplacian", "one-form")
            gram = inv.gram_matrix(geom.invariant_geometry, "one-form")
            assert np.max(np.abs(gram @ lap - (gram @ lap).T)) < 1e-12 * np.max(np.abs(lap))


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
    # tr(bar h) = (1 - n/2) tr h on every slice, and on a 3-slice
    # h = bar h - tr(bar h) g
    rng = np.random.default_rng(1)
    for geom in (slice_geometry("flat-torus", n=2), slice_geometry("flat-torus", n=3),
                 slice_geometry("kasner", p=KASNER_P, t0=0.8),
                 slice_geometry("berger", lam=2.7)):
        if geom.is_torus:
            h = random_field(ModeLattice(geom.n, 2), "sym2", rng)
        else:
            h = inv.InvariantField("sym2", rng.standard_normal(6))
        hbar = apply_slice_operator(geom, "trace_reverse", h)
        tr = apply_slice_operator(geom, "trace", h)
        trbar = apply_slice_operator(geom, "trace", hbar)
        assert slice_max_abs(geom, trbar - tr * (1.0 - geom.n / 2.0)) < 1e-13
        if geom.n == 3:
            rec = hbar - scalar_times(geom, trbar, geom.metric)
            assert slice_max_abs(geom, rec - h) < 1e-13


def test_lie_extrinsic_on_kasner_and_berger():
    # (Lie_beta k~)_ab = i (k_a beta^c k~_cb + k_b beta^c k~_ca) per mode
    rng = np.random.default_rng(13)
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    lat = ModeLattice(3, 2)
    beta = random_field(lat, "one-form", rng)
    K, gi = geom.extrinsic, geom.metric_inv
    want = np.zeros((lat.num_modes, 6), complex)
    for m, k in enumerate(lat.modes):
        bup = gi @ beta.coeffs[m]
        for c, (a, b) in enumerate(sym2_index_pairs(3)):
            want[m, c] = 1j * (k[a] * (bup @ K[:, b]) + k[b] * (bup @ K[:, a]))
    got = apply_slice_operator(geom, "lie_extrinsic", beta)
    assert got.rank == "sym2"
    assert np.max(np.abs(got.coeffs - want)) <= 1e-14 * np.max(np.abs(want))
    # k~ = 0 on every Berger slice
    berger = slice_geometry("berger", lam=2.7)
    got = apply_slice_operator(
        berger, "lie_extrinsic", inv.InvariantField("one-form", rng.standard_normal(3)))
    assert got.rank == "sym2" and np.all(got.components == 0)


def test_scalar_times_on_both_backends():
    rng = np.random.default_rng(14)
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.3)
    lat = ModeLattice(3, 2)
    f = random_field(lat, "scalar", rng)
    got = scalar_times(geom, f, geom.extrinsic)
    assert isinstance(got, SpectralField) and got.rank == "sym2"
    assert np.array_equal(sym2_to_full(got.coeffs, 3),
                          f.coeffs[:, 0, None, None] * geom.extrinsic)
    berger = slice_geometry("berger", lam=2.7)
    got = scalar_times(berger, inv.InvariantField("scalar", [0.7]), berger.ricci)
    assert isinstance(got, inv.InvariantField) and got.rank == "sym2"
    assert np.max(np.abs(sym2_to_full(got.components, 3) - 0.7 * berger.ricci)) < 1e-14
    with pytest.raises(ValueError, match="SpectralField"):
        scalar_times(geom, inv.InvariantField("scalar", [0.7]), geom.metric)
    with pytest.raises(ValueError, match="InvariantField"):
        scalar_times(berger, f, berger.metric)
    with pytest.raises(ValueError, match="expects rank scalar"):
        scalar_times(geom, random_field(lat, "one-form", rng), geom.metric)


def test_invariant_backend_dispatch():
    geom = slice_geometry("berger")
    w = inv.InvariantField("one-form", np.array([0.3, -0.2, 0.5]))
    h = inv.InvariantField("sym2", np.array([0.1, 0.2, -0.3, 0.4, 0.5, -0.6]))
    a = slice_inner(geom, apply_slice_operator(geom, "conformal_killing", w), h)
    b = slice_inner(geom, w, apply_slice_operator(geom, "ckl_adjoint", h))
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))
    with pytest.raises(ValueError):
        apply_slice_operator(geom, "divergence", random_field(ModeLattice(3, 1), "sym2", np.random.default_rng(0)))


@pytest.mark.parametrize("kind", sorted(_RANKS))
def test_rank_table_is_what_both_backends_do(kind):
    # an accepted rank returns the rank the table names (on Berger through a
    # matrix of that shape); any other rank is refused on both backends
    rng = np.random.default_rng(15)
    lat = ModeLattice(3, 2)
    for geom in (slice_geometry("flat-torus", n=3), slice_geometry("berger", lam=2.7)):
        for rank in ("scalar", "one-form", "sym2"):
            if geom.is_torus:
                f = random_field(lat, rank, rng)
            else:
                f = inv.InvariantField(rank, rng.standard_normal(rank_components(rank, 3)))
            if rank not in _RANKS[kind]:
                with pytest.raises(ValueError, match="expects rank"):
                    apply_slice_operator(geom, kind, f)
                continue
            got = apply_slice_operator(geom, kind, f)
            assert got.rank == _RANKS[kind][rank]
            if not geom.is_torus:
                M = berger_matrix(geom, kind, rank)
                assert M.shape == (rank_components(got.rank, 3), rank_components(rank, 3))


def test_unknown_operator_kind_is_refused_on_both_backends():
    torus, berger = slice_geometry("flat-torus", n=3), slice_geometry("berger")
    for geom, f in ((torus, random_field(ModeLattice(3, 1), "sym2", np.random.default_rng(0))),
                    (berger, inv.InvariantField("sym2", np.ones(6)))):
        with pytest.raises(ValueError, match="unknown slice operator kind 'div'"):
            apply_slice_operator(geom, "div", f)
    with pytest.raises(ValueError, match="expects rank sym2, got scalar"):
        apply_slice_operator(berger, "trace", inv.InvariantField("scalar", [1.0]))
    with pytest.raises(ValueError, match="expects rank scalar or one-form, got sym2"):
        apply_slice_operator(berger, "laplacian", inv.InvariantField("sym2", np.ones(6)))


def test_ricci_pairing_on_both_backends():
    rng = np.random.default_rng(11)
    lat = ModeLattice(3, 2)
    for geom in (slice_geometry("flat-torus", n=3), slice_geometry("kasner", p=KASNER_P, t0=1.3)):
        pairing = apply_slice_operator(geom, "ricci_pairing", random_field(lat, "sym2", rng))
        assert pairing.rank == "scalar" and np.all(pairing.coeffs == 0)
    geom = slice_geometry("berger", lam=2.7)
    gi, ric = geom.metric_inv, geom.ricci
    for _ in range(3):
        h = inv.InvariantField("sym2", rng.standard_normal(6))
        H = sym2_to_full(h.components, 3)
        want = sum(gi[i, p] * gi[j, q] * ric[i, j] * H[p, q]
                   for i in range(3) for j in range(3) for p in range(3) for q in range(3))
        got = apply_slice_operator(geom, "ricci_pairing", h)
        assert got.rank == "scalar"
        assert abs(got.components[0] - want) <= 1e-13 * max(1.0, abs(want))


def test_slice_norm_on_both_backends():
    rng = np.random.default_rng(12)
    lat = ModeLattice(3, 2)
    for geom in (slice_geometry("flat-torus", n=3), slice_geometry("kasner", p=KASNER_P, t0=0.7)):
        for rank in ("scalar", "one-form", "sym2"):
            f = random_field(lat, rank, rng)
            assert slice_norm(geom, f) == sobolev_norm(f, 0.0)
    geom = slice_geometry("berger")
    geo = geom.invariant_geometry
    for rank, dim in (("scalar", 1), ("one-form", 3), ("sym2", 6)):
        f = inv.InvariantField(rank, rng.standard_normal(dim))
        want = np.sqrt(f.components @ inv.gram_matrix(geo, rank) @ f.components)
        assert abs(slice_norm(geom, f) - want) <= 1e-14 * want
        assert abs(slice_inner(geom, f, f) - want ** 2) <= 1e-13 * want ** 2


def _linear_map(name: str, geom):
    """(F, input ranks) of a linear map of slice fields: one slice operator
    (kind-rank), the split operator P of a slot, the Moncrief P(beta, N) or
    DPhi."""
    if name in ("position", "momentum"):
        return partial(split_operator, split_params(name, geom.n), geom), SPLIT_RANKS
    if name == "moncrief":
        def P(beta, N):
            gauge = gauge_producing_data(N, beta, geom)
            return gauge.h, gauge.m
        return P, MONCRIEF_RANKS
    if name == "dphi":
        def D(h, m):
            d1, d2 = dphi_modes(geom, h.lattice.modes, h.coeffs, m.coeffs)
            return SpectralField(h.lattice, "scalar", d1), SpectralField(h.lattice, "one-form", d2)
        return D, ("sym2", "sym2")
    kind, rank = name.split("-", 1)
    return (lambda f: (apply_slice_operator(geom, kind, f),)), (rank,)


@pytest.mark.parametrize("name", [
    "divergence-sym2", "hessian-scalar", "lie_extrinsic-one-form", "ckl_normal-one-form",
    "trace_reverse-sym2", "position", "momentum", "moncrief", "dphi",
])
def test_operator_matrices_act_as_the_operator_on_every_mode(name):
    """operator_matrices, read off one symbolic-k application per column,
    equals the map run on the unit fields of the lattice itself, to 1e-15
    of its largest entry, and acts as the map on random fields."""
    rng = np.random.default_rng(7)
    cases = [(slice_geometry("flat-torus", n=3), nmax) for nmax in (1, 2, 3)]
    cases += [(slice_geometry("flat-torus", n=2), 4),
              (slice_geometry("kasner", p=KASNER_P, t0=1.3), 3),
              (slice_geometry("kasner", p=(1.0, 0.0, 0.0), t0=0.7), 3)]
    for geom, nmax in cases:
        lat = ModeLattice(geom.n, nmax)
        F, ranks = _linear_map(name, geom)
        M = operator_matrices(geom, F, ranks, lat)
        ref = direct_mode_matrices(geom, F, ranks, lat)
        assert np.max(np.abs(M - ref)) <= 1e-15 * np.max(np.abs(ref)), (geom.kind, nmax)
        fields = [random_field(lat, r, rng) for r in ranks]
        want = slice_stack(geom, F(*fields))
        got = np.einsum("mij,mj->mi", M, slice_stack(geom, fields))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_operator_matrices_refuse_a_map_of_order_three():
    geom = slice_geometry("flat-torus", n=3)

    def div_hess(N):
        return (apply_slice_operator(geom, "divergence",
                                     apply_slice_operator(geom, "hessian", N)),)

    with pytest.raises(InternalError, match="a term of k-degree 3"):
        operator_matrices(geom, div_hess, ("scalar",), ModeLattice(3, 2))
    with pytest.raises(ValueError, match="mode lattice"):
        operator_matrices(geom, div_hess, ("scalar",))
