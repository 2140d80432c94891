import json

import numpy as np
import pytest

from linwave.cli import run_cli
from linwave.config import ConfigError, load_config, parse_config
from linwave.constraints import InitialDataPair
from linwave.fields import ModeLattice, random_field, zero_field
from linwave.slices import slice_geometry
from linwave.snapshots import (
    SnapshotError,
    load_field,
    load_pair,
    save_field,
    save_pair,
)

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    lat = ModeLattice(3, 2)
    for rank in ("scalar", "one-form", "sym2"):
        f = random_field(lat, rank, rng)
        p = tmp_path / f"{rank}.lwf"
        save_field(f, p)
        back = load_field(p)
        assert back.rank == rank
        assert back.lattice == lat
        assert np.array_equal(back.coeffs, f.coeffs)  # bit-exact
        # and the files themselves round trip byte-identically
        save_field(back, tmp_path / "again.lwf")
        assert (tmp_path / "again.lwf").read_bytes() == p.read_bytes()


def test_zero_field_round_trip(tmp_path):
    f = zero_field(ModeLattice(2, 1), "sym2")
    save_field(f, tmp_path / "z.lwf")
    assert np.array_equal(load_field(tmp_path / "z.lwf").coeffs, f.coeffs)


def test_snapshot_errors(tmp_path):
    rng = np.random.default_rng(1)
    f = random_field(ModeLattice(3, 1), "sym2", rng)
    p = tmp_path / "f.lwf"
    save_field(f, p)
    raw = p.read_bytes()
    bad = tmp_path / "bad.lwf"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(SnapshotError, match="magic"):
        load_field(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(SnapshotError, match="payload"):
        load_field(bad)
    # header claiming the wrong component count for the rank
    import struct

    hdr = raw[:4] + struct.pack("<4I", 2, 3, 1, 5) + raw[20:]
    bad.write_bytes(hdr)
    with pytest.raises(SnapshotError, match="component count"):
        load_field(bad)


def test_pair_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    lat = ModeLattice(3, 2)
    geom = slice_geometry("kasner", p=KASNER_P, t0=1.25)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
    )
    save_pair(pair, tmp_path / "data")
    back = load_pair(tmp_path / "data")
    assert np.array_equal(back.h.coeffs, pair.h.coeffs)
    assert np.array_equal(back.m.coeffs, pair.m.coeffs)
    assert back.geom.kind == "kasner"
    assert np.max(np.abs(back.geom.metric - geom.metric)) == 0.0


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

MINIMAL = "background.kind = minkowski-torus\n"


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("lattice.nmax") == 8
    assert cfg.get("evolve.dt") is None  # exact propagator


def test_config_rejects_bad_kasner_exponents():
    text = "background.kind = kasner\nbackground.p = 0.5, 0.5, 0.5\nevolve.dt = 1e-3\n"
    with pytest.raises(ConfigError, match="sum p"):
        parse_config(text)


def test_config_refuses_kasner_exponents_that_are_not_finite(tmp_path, capsys):
    text = ("background.kind = kasner\nbackground.p = nan, 0, 1\nlattice.nmax = 1\n"
            "evolve.t0 = 1.0\nevolve.t1 = 1.1\nevolve.dt = 1e-2\n")
    with pytest.raises(ConfigError, match="background.p must be finite"):
        parse_config(text)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(text)
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "background.p must be finite" in err and "internal error" not in err


def test_config_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=":2:.*unknown key"):
        parse_config(MINIMAL + "background.bogus = 1\n")
    # every run reports E_0 and E_1, so there is no energy order to set
    with pytest.raises(ConfigError, match=":2: unknown key 'evolve.J'"):
        parse_config(MINIMAL + "evolve.J = 1\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config("this is not a key value line\n")


def test_load_config_parses_rational_exponents_exactly(tmp_path):
    (tmp_path / "a.cfg").write_text(
        "background.kind = kasner\n"
        "background.p = 2/3, 2/3, -1/3\n"
        "evolve.t0 = 1.0\n"
        "evolve.dt = 1e-3\n"
    )
    cfg = load_config(tmp_path / "a.cfg")
    assert cfg.get("background.p") == (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
    assert cfg.get("evolve.t0") == 1.0 and cfg.get("evolve.dt") == 1e-3


def test_config_missing_snapshot_path(tmp_path):
    (tmp_path / "c.cfg").write_text(
        MINIMAL + "initial.generator = snapshot\ninitial.snapshot = nope\n"
    )
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "c.cfg")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_check_identities_exit_zero(capsys):
    rc = run_cli(["check", "--suite", "identities", "--background", "minkowski-torus"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"] is True
    assert out["suite"] == "identities"
    assert all(r["value"] <= 1e-10 for r in out["results"])


def test_background_subcommand(capsys):
    assert run_cli(["background", "--kind", "berger"]) == 0
    out = json.loads(capsys.readouterr().out)
    names = {r["name"] for r in out["results"]}
    assert {"phi1_residual", "phi2_residual", "ricci_norm"} <= names


@pytest.mark.parametrize("n", [0, 1, 4, -2])
def test_unsupported_torus_dimension_is_refused(n, capsys):
    message = f"spatial dimension must be 2 or 3, got n = {n}"
    with pytest.raises(ValueError, match=message):
        slice_geometry("flat-torus", n=n)
    assert run_cli(["background", "--kind", "flat-torus", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, name", [
    (["--kind", "kasner", "--p", "nan,0,1"], "p"),
    (["--kind", "kasner", "--p", "inf,-inf,1"], "p"),
    (["--kind", "kasner", "--p", "2/3,2/3,-1/3", "--t0", "nan"], "t0"),
    (["--kind", "kasner", "--p", "2/3,2/3,-1/3", "--t0", "inf"], "t0"),
    (["--kind", "berger", "--lam", "inf"], "lam"),
    (["--kind", "berger", "--lam", "nan"], "lam"),
])
def test_background_refuses_parameters_that_are_not_finite(capsys, argv, name):
    rc = run_cli(["background", *argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f" {name} must be finite" in captured.err


@pytest.mark.parametrize("command", ["background", "gauge-data"])
def test_kasner_exponents_with_a_zero_denominator_exit_two(command, capsys):
    # the config refuses the same value through the same rational parser
    rc = run_cli([command, "--kind", "kasner", "--p", "1/0,0,1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "zero denominator in '1/0,0,1'" in captured.err
    with pytest.raises(ConfigError, match="bad value for 'background.p'"):
        parse_config("background.kind = kasner\nbackground.p = 1/0, 0, 1\n")


def test_decompose_and_moncrief_subcommands(capsys):
    assert run_cli(["decompose", "--kind", "berger"]) == 0
    assert run_cli(["decompose", "--kind", "flat-torus", "--slot", "momentum",
                    "--nmax", "2"]) == 0
    assert run_cli(["moncrief", "--kind", "flat-torus", "--nmax", "2"]) == 0
    capsys.readouterr()


def test_spectrum_reproduces_membership_pattern(capsys):
    rc = run_cli([
        "spectrum", "--order", "2",
        "--sobolev", "-3,-2", "--truncations", "64,128,256",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    verdicts = {r["name"]: r["verdict"] for r in payload["results"]}
    assert verdicts["sobolev_-3"] == "convergent"
    assert verdicts["sobolev_-2"] == "divergent"
    assert payload["generator"] == "dirac-derivative"


@pytest.mark.parametrize("argv", [
    ["decompose", "--kind", "flat-torus", "--p", "1,0,0", "--t0", "5"],
    ["moncrief", "--kind", "berger", "--p", "1,0,0", "--t0", "-3"],
    ["spectrum", "--generator", "dirac-derivative"],
])
def test_flags_that_nothing_reads_are_usage_errors(argv, capsys):
    # --p and --t0 exist only where kasner is a --kind choice, and spectrum
    # has a single generator
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--order", "-1"], "derivative order must be >= 0, got -1"),
    (["--sobolev", "nan"], "--sobolev orders must be finite, got nan"),
    (["--sobolev", "-3,inf"], "--sobolev orders must be finite, got -3,inf"),
    # norms that overflow double precision, not printed or written as Infinity
    (["--sobolev", "200"], "the H^200 norm of delta^(2) at truncation K=64 is not finite"),
    (["--sobolev", "-3,200"], "the H^200 norm of delta^(2) at truncation K=64 is not finite"),
    (["--sobolev", "-300", "--order", "200"],
     "the H^-300 norm of delta^(200) at truncation K=64 is not finite"),
    (["--truncations=-3,-2,-1"], "truncations must be >= 1, got -3,-2,-1"),
    (["--truncations=0,1,2"], "truncations must be >= 1, got 0,1,2"),
])
def test_spectrum_refuses_a_negative_order_and_non_finite_sobolev_orders(
        tmp_path, capsys, argv, message):
    rc = run_cli(["spectrum", *argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not list(tmp_path.iterdir())
    assert message in captured.err


def test_unknown_flag_exits_two(capsys):
    assert run_cli(["--definitely-not-a-flag"]) == 2
    assert run_cli(["evolve"]) == 2  # missing required --config
    capsys.readouterr()


def test_evolve_run_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        "lattice.nmax = 2\n"
        "initial.generator = gauge-producing\n"
        "initial.seed = 3\n"
        "evolve.t1 = 2.0\n"
        "evolve.samples = 4\n"
        "tolerance.gauge = 1e-12\n"
        "tolerance.constraint = 1e-12\n"
    )
    rc1 = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r1")])
    rc2 = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    csv1 = (tmp_path / "r1" / "diagnostics.csv").read_text()
    assert csv1 == (tmp_path / "r2" / "diagnostics.csv").read_text()
    header = csv1.splitlines()[0]
    assert header == "t,gauge_res,dphi1_res,dphi2_res,energy_j0,energy_j1"
    # snapshots and a manifest sufficient to re-run are written
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    assert manifest["pass"] is True
    assert manifest["config"]["initial.seed"] == 3
    # real data: diagnostics evaluate k = 0 and one mode of each +-k pair
    assert manifest["diagnostics_modes"] == len(ModeLattice(3, 2).half_indices())
    timings = manifest["timings"]
    assert 0.0 < timings["diagnostics_seconds"] <= timings["evolve_seconds"]
    assert (tmp_path / "r1" / "initial.h.lwf").exists()
    assert (tmp_path / "r1" / "final.m.lwf").exists()
    assert (tmp_path / "r1" / "initial.h.lwf").read_bytes() == (
        tmp_path / "r2" / "initial.h.lwf"
    ).read_bytes()


@pytest.mark.parametrize("key, value", [
    ("evolve.t0", "nan"), ("evolve.t0", "-inf"), ("evolve.t1", "nan"), ("evolve.t1", "inf"),
    ("evolve.dt", "inf"), ("evolve.dt", "nan"), ("evolve.sobolev", "nan"),
    ("evolve.sobolev", "inf"),
])
def test_evolve_refuses_non_finite_times_and_orders(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    values = {"background.kind": "minkowski-torus", "lattice.nmax": "1",
              "evolve.t1": "1.0", "evolve.samples": "3", key: value}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"{key} must be finite" in err
    assert not (tmp_path / "r" / "diagnostics.csv").exists()


def test_evolve_refuses_dt_on_the_minkowski_torus(tmp_path, capsys):
    cfg = tmp_path / "dt.cfg"
    cfg.write_text("background.kind = minkowski-torus\nlattice.nmax = 1\n"
                   "evolve.t1 = 1.0\nevolve.dt = 1e-2\n")
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "evolve.dt" in err
    assert not (tmp_path / "r" / "diagnostics.csv").exists()
    assert not (tmp_path / "r").exists()


def test_evolve_failing_tolerance_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        "lattice.nmax = 1\n"
        "initial.generator = random-smooth\n"
        "evolve.t1 = 1.0\n"
        "evolve.samples = 3\n"
        "tolerance.constraint = 1e-14\n"
    )
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert rc == 1  # random data violate the constraints


@pytest.mark.parametrize("n, polarization", [
    (3, [0.0, 0.0, 0.0, 0.5, 0.0, -0.5]),  # (dx^2 dx^2 - dx^3 dx^3) / 2
    (2, [0.0, 0.0, 0.5]),  # dx^2 dx^2 / 2
])
def test_standing_wave_generator(tmp_path, capsys, n, polarization):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        f"background.n = {n}\n"
        "lattice.nmax = 1\n"
        "initial.generator = standing-wave\n"
        "evolve.samples = 2\n"
    )
    assert run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    init = load_pair(tmp_path / "r" / "initial")
    lat = ModeLattice(n, 1)
    want = np.zeros((lat.num_modes, len(polarization)), complex)
    for k1 in (1, -1):
        want[lat.mode_index((k1,) + (0,) * (n - 1))] = polarization
    assert np.array_equal(init.h.coeffs, want)
    assert not np.any(init.m.coeffs)


def test_internal_failure_exits_one_not_two(tmp_path, capsys, monkeypatch):
    # a broken invariant of the computation is not a usage error
    from linwave.spacetime import FamilyAction

    cfg = tmp_path / "kasner.cfg"
    cfg.write_text(
        "background.kind = kasner\n"
        "background.p = 2/3, 2/3, -1/3\n"
        "lattice.nmax = 1\n"
        "evolve.t1 = 1.02\n"
        "evolve.dt = 1e-2\n"
        "evolve.samples = 2\n"
    )
    monkeypatch.setattr(FamilyAction, "is_monic", lambda self: False)
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("internal error: spacetime.FamilyAction: lichnerowicz operator")
    assert "not monic in d/dt" in err


def test_plain_runtime_error_is_not_an_internal_error(capsys, monkeypatch):
    # only InternalError names a broken invariant; a RuntimeError from numpy
    # or the standard library propagates with its traceback
    import linwave.cli

    def boom(geom):
        raise RuntimeError("boom")

    monkeypatch.setattr(linwave.cli, "constraint_residual", boom)
    with pytest.raises(RuntimeError, match="boom"):
        run_cli(["background", "--kind", "berger"])
    assert "internal error" not in capsys.readouterr().err


def test_evolve_from_snapshot(tmp_path, capsys):
    rng = np.random.default_rng(4)
    lat = ModeLattice(3, 1)
    geom = slice_geometry("flat-torus", n=3)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
    )
    save_pair(pair, tmp_path / "seed")
    cfg = tmp_path / "snap.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        "lattice.nmax = 1\n"
        "initial.generator = snapshot\n"
        "initial.snapshot = seed\n"
        "evolve.t1 = 1.0\n"
        "evolve.samples = 3\n"
    )
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert rc == 0
    init = load_pair(tmp_path / "r" / "initial")
    assert np.array_equal(init.h.coeffs, pair.h.coeffs)


def test_evolve_from_malformed_sidecar_is_a_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(5)
    lat = ModeLattice(3, 1)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng),
        slice_geometry("flat-torus", n=3),
    )
    save_pair(pair, tmp_path / "seed")
    side = tmp_path / "seed.json"
    meta = json.loads(side.read_text())
    cfg = tmp_path / "snap.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        "lattice.nmax = 1\n"
        "initial.generator = snapshot\n"
        "initial.snapshot = seed\n"
    )
    for bad in (
        {k: v for k, v in meta.items() if k != "geometry"},
        dict(meta, parameters=[3]),
    ):
        side.write_text(json.dumps(bad))
        rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "seed.json" in err
        with pytest.raises(SnapshotError):
            load_pair(tmp_path / "seed")



def test_evolve_from_kasner_sidecar_without_exponents_is_a_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(6)
    lat = ModeLattice(3, 1)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng),
        slice_geometry("kasner", p=KASNER_P, t0=1.0),
    )
    save_pair(pair, tmp_path / "seed")
    side = tmp_path / "seed.json"
    meta = json.loads(side.read_text())
    side.write_text(json.dumps(dict(meta, parameters={"t0": 1.0})))
    cfg = tmp_path / "snap.cfg"
    cfg.write_text(
        "background.kind = kasner\n"
        "background.p = 2/3, 2/3, -1/3\n"
        "lattice.nmax = 1\n"
        "initial.generator = snapshot\n"
        "initial.snapshot = seed\n"
        "evolve.t1 = 1.02\n"
        "evolve.dt = 1e-2\n"
    )
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Kasner slice needs its exponent triple p" in err


def test_evolve_from_snapshot_of_another_dimension_is_a_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(7)
    lat = ModeLattice(2, 1)
    geom = slice_geometry("flat-torus", n=2)
    pair = InitialDataPair(
        random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
    )
    with pytest.raises(ValueError, match="dimension 2 != slice dimension 3"):
        InitialDataPair(pair.h, pair.m, slice_geometry("flat-torus", n=3))
    save_pair(pair, tmp_path / "seed")
    side = tmp_path / "seed.json"
    meta = json.loads(side.read_text())
    side.write_text(json.dumps(dict(meta, parameters={"n": 3})))
    cfg = tmp_path / "snap.cfg"
    cfg.write_text(
        "background.kind = minkowski-torus\n"
        "lattice.nmax = 1\n"
        "initial.generator = snapshot\n"
        "initial.snapshot = seed\n"
    )
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "seed.json" in err and "slice dimension 3" in err
    # consistent 2-torus data under the configured 3-dimensional background
    save_pair(pair, tmp_path / "seed")
    rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "does not match the background slice" in err


def test_sidecar_parameter_of_the_wrong_type_is_a_snapshot_error(tmp_path, capsys):
    rng = np.random.default_rng(8)
    lat = ModeLattice(3, 1)
    cases = (
        ("kasner", slice_geometry("kasner", p=KASNER_P, t0=1.0), "t0", None,
         "background.kind = kasner\nbackground.p = 2/3, 2/3, -1/3\n"
         "evolve.t1 = 1.02\nevolve.dt = 1e-2\n"),
        ("flat-torus", slice_geometry("flat-torus", n=3), "n", [2],
         "background.kind = minkowski-torus\n"),
    )
    for name, geom, key, value, background in cases:
        pair = InitialDataPair(
            random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
        )
        prefix = tmp_path / name
        save_pair(pair, prefix)
        side = tmp_path / f"{name}.json"
        meta = json.loads(side.read_text())
        meta["parameters"][key] = value
        side.write_text(json.dumps(meta))
        with pytest.raises(SnapshotError, match=f"{name}.json"):
            load_pair(prefix)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            background + "lattice.nmax = 1\n"
            "initial.generator = snapshot\n"
            f"initial.snapshot = {name}\n"
        )
        rc = run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{name}.json" in err
