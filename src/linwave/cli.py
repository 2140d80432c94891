"""Command-line interface.

Subcommands: background, decompose, moncrief, gauge-data, evolve, check,
spectrum.  Exit codes: 0 success with all checks passing, 1 check failure
or internal error (an InternalError: a broken invariant of the computation,
printed as "internal error: ..." naming the layer), 2 usage or configuration
error.  Any other exception propagates with its traceback.
JSON reports share the top-level shape {"suite": ..., "background": ...,
"results": [...], "pass": ...} and are serialized with sorted keys; CSV
floats use 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import invariant as inv
from .config import ConfigError, load_config, parse_float
from .constraints import InitialDataPair, constraint_residual, dphi, normal_identities
from .decomposition import gauge_producing_data, moncrief_project, split_solve
from .errors import InternalError
from .evolution import build_cauchy_jet, diagnostics, evolve, extract_induced_data
from .fields import (
    ModeLattice,
    dirac_partial_sum,
    random_field,
    sym2_from_full,
    zero_field,
)
from .slices import apply_slice_operator, slice_geometry
from .snapshots import SnapshotError, load_pair, save_pair
from .spacetime import CauchyJet, spacetime_background


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _result(name: str, value: float, tol: float | None) -> dict:
    entry = {"name": name, "value": float(value)}
    if tol is not None:
        entry["tolerance"] = tol
        entry["pass"] = bool(value <= tol)
    return entry


def _emit_report(suite: str, background: str, results: list, out: str | None,
                 extra: dict | None = None) -> int:
    ok = all(r.get("pass", True) for r in results)
    report = {"suite": suite, "background": background, "results": results, "pass": ok}
    if extra:
        report.update(extra)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{suite}.json").write_text(text)
    return 0 if ok else 1


def _parse_triple(text: str) -> tuple:
    try:
        vals = tuple(parse_float(p) for p in text.split(","))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    if len(vals) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return vals


def _geometry_from_args(args):
    if args.kind == "flat-torus":
        return slice_geometry("flat-torus", n=args.n)
    if args.kind == "kasner":
        if args.p is None:
            raise ConfigError("kasner requires --p")
        return slice_geometry("kasner", p=args.p, t0=args.t0)
    kw = {} if args.lam is None else {"lam": args.lam}
    return slice_geometry("berger", **kw)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_background(args) -> int:
    geom = _geometry_from_args(args)
    r1, r2 = constraint_residual(geom)
    results = [
        _result("phi1_residual", abs(r1), 1e-12),
        _result("phi2_residual", r2, 1e-12),
        {"name": "scal", "value": float(geom.scal)},
    ]
    if geom.kind == "berger":
        ric = inv.InvariantField("sym2", geom.invariant_geometry.ricci_sym6())
        ric2 = float(apply_slice_operator(geom, "ricci_pairing", ric).components[0])
        results.append(
            {"name": "ricci_norm", "value": float(np.sqrt(ric2)),
             "tolerance": 0.1, "pass": bool(np.sqrt(ric2) >= 0.1)}
        )
    return _emit_report("background", geom.kind, results, args.out)


def _random_pair(geom, nmax: int, seed: int) -> InitialDataPair:
    rng = np.random.default_rng(seed)
    if geom.is_torus:
        lat = ModeLattice(geom.n, nmax)
        return InitialDataPair(
            random_field(lat, "sym2", rng), random_field(lat, "sym2", rng), geom
        )
    return InitialDataPair(
        inv.InvariantField("sym2", rng.standard_normal(6)),
        inv.InvariantField("sym2", rng.standard_normal(6)),
        geom,
    )


def cmd_decompose(args) -> int:
    geom = _geometry_from_args(args)
    pair = _random_pair(geom, args.nmax, args.seed)
    source = pair.h if args.slot == "position" else pair.m
    res = split_solve(source, args.slot, geom)
    results = [
        _result(name, value, 1e-10) for name, value in sorted(res.residuals.items())
    ]
    results.append({"name": "C", "value": float(res.C)})
    return _emit_report("decompose", geom.kind, results, args.out,
                        extra={"slot": args.slot})


def cmd_moncrief(args) -> int:
    geom = _geometry_from_args(args)
    split = moncrief_project(_random_pair(geom, args.nmax, args.seed))
    results = [
        _result(name, value, 1e-10) for name, value in sorted(split.report.items())
    ]
    return _emit_report("moncrief", geom.kind, results, args.out)


def cmd_gauge_data(args) -> int:
    geom = _geometry_from_args(args)
    rng = np.random.default_rng(args.seed)
    if geom.is_torus:
        lat = ModeLattice(geom.n, args.nmax)
        N = random_field(lat, "scalar", rng)
        beta = random_field(lat, "one-form", rng)
    else:
        N = inv.InvariantField("scalar", rng.standard_normal(1))
        beta = inv.InvariantField("one-form", rng.standard_normal(3))
    pair = gauge_producing_data(N, beta, geom)
    res = dphi(pair)
    results = [
        _result(name, value, 1e-10) for name, value in sorted(res.norms.items())
    ]
    if args.out and geom.is_torus:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        save_pair(pair, outdir / "gauge-data")
    return _emit_report("gauge-data", geom.kind, results, args.out)


def _initial_pair(cfg, geom):
    gen = cfg.get("initial.generator")
    seed = cfg.get("initial.seed")
    rng = np.random.default_rng(seed)
    lat = ModeLattice(geom.n, cfg.get("lattice.nmax"))
    if gen == "snapshot":
        return load_pair(cfg.get("initial.snapshot"))
    if gen == "random-smooth":
        return InitialDataPair(
            random_field(lat, "sym2", rng, decay=2.0),
            random_field(lat, "sym2", rng, decay=2.0),
            geom,
        )
    if gen == "gauge-producing":
        return gauge_producing_data(
            random_field(lat, "scalar", rng), random_field(lat, "one-form", rng), geom
        )
    # standing-wave: cos(x^1) times the polarization diag(0, 1/2, -1/2),
    # transverse-traceless; on the 2-torus its block diag(0, 1/2)
    pol = sym2_from_full(np.diag([0.0, 0.5, -0.5])[:geom.n, :geom.n], geom.n)
    h = zero_field(lat, "sym2")
    for k in [(1,) + (0,) * (geom.n - 1), (-1,) + (0,) * (geom.n - 1)]:
        h.coeffs[lat.mode_index(k)] = pol
    return InitialDataPair(h, zero_field(lat, "sym2"), geom)


def cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    kind = cfg.get("background.kind")
    bg = spacetime_background(kind, n=cfg.get("background.n"), p=cfg.get("background.p"))
    t0 = cfg.get("evolve.t0") or (1.0 if kind == "kasner" else 0.0)
    geom = bg.slice_at(t0)
    t1 = cfg.get("evolve.t1")
    if t1 is None:
        t1 = t0 + 1.0
    outdir = Path(args.out or cfg.get("output.dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    pair = _initial_pair(cfg, geom)
    tic = time.perf_counter()
    jet = build_cauchy_jet(pair, bg, t0=t0)
    samples = np.linspace(t0, t1, cfg.get("evolve.samples"))
    traj = evolve(jet, t1, dt=cfg.get("evolve.dt"), sample_times=samples)
    tic_diag = time.perf_counter()
    diag = diagnostics(traj, cfg.get("evolve.sobolev"))
    toc = time.perf_counter()

    rows = ["t,gauge_res,dphi1_res,dphi2_res,energy_j0,energy_j1"]
    for i, t in enumerate(diag.times):
        cells = [t, diag.gauge_residual[i], diag.dphi1_residual[i],
                 diag.dphi2_residual[i], *diag.energies[i]]
        rows.append(",".join(_fmt(c) for c in cells))
    (outdir / "diagnostics.csv").write_text("\n".join(rows) + "\n")

    save_pair(pair, outdir / "initial")
    save_pair(extract_induced_data(traj, t1), outdir / "final")

    checks = {}
    tol_g = cfg.get("tolerance.gauge")
    if tol_g is not None:
        checks["gauge"] = {"value": float(diag.gauge_residual.max()),
                           "tolerance": tol_g,
                           "pass": bool(diag.gauge_residual.max() <= tol_g)}
    tol_c = cfg.get("tolerance.constraint")
    if tol_c is not None:
        worst = float(max(diag.dphi1_residual.max(), diag.dphi2_residual.max()))
        checks["constraint"] = {"value": worst, "tolerance": tol_c,
                                "pass": bool(worst <= tol_c)}
    ok = all(c["pass"] for c in checks.values())
    manifest = {
        "background": kind,
        "checks": checks,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in sorted(cfg.values.items())},
        "diagnostics_modes": diag.modes,
        "dt": cfg.get("evolve.dt"),
        "lattice": {"n": geom.n, "nmax": cfg.get("lattice.nmax")},
        "pass": ok,
        "seed": cfg.get("initial.seed"),
        "timings": {"evolve_seconds": toc - tic, "diagnostics_seconds": toc - tic_diag},
        "version": __version__,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    sys.stdout.write(f"evolve: wrote {outdir}/diagnostics.csv ({len(diag.times)} samples)\n")
    return 0 if ok else 1


def cmd_check(args) -> int:
    if args.background == "minkowski-torus":
        bg = spacetime_background("minkowski-torus", n=3)
        t = 0.0
    else:
        bg = spacetime_background("kasner", p=(2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0))
        t = 1.3
    rng = np.random.default_rng(args.seed)
    lat = ModeLattice(3, args.nmax)
    results = []
    if args.suite == "identities":
        for trial in range(args.trials):
            jet = CauchyJet(
                bg, t,
                random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
                random_field(lat, "sym2", rng), random_field(lat, "scalar", rng),
                random_field(lat, "one-form", rng), random_field(lat, "sym2", rng),
            )
            res = normal_identities(jet)
            results.append(
                _result(f"identity4_rel_{trial}", res["identity4_rel"], 1e-10)
            )
            results.append(
                _result(f"identity5_rel_{trial}", res["identity5_rel"], 1e-10)
            )
    else:  # constraints: dphi of gauge-producing data
        geom = bg.slice_at(t)
        for trial in range(args.trials):
            pair = gauge_producing_data(
                random_field(lat, "scalar", rng), random_field(lat, "one-form", rng),
                geom,
            )
            res = dphi(pair)
            for name, value in sorted(res.norms.items()):
                results.append(_result(f"{name}_{trial}", value, 1e-10))
    return _emit_report(args.suite, args.background, results, args.out)


def cmd_spectrum(args) -> int:
    orders = [float(s) for s in args.sobolev.split(",")]
    if not np.all(np.isfinite(orders)):
        raise ConfigError(f"--sobolev orders must be finite, got {args.sobolev}")
    truncations = [int(s) for s in args.truncations.split(",")]
    if sorted(truncations) != truncations or len(set(truncations)) != len(truncations):
        raise ConfigError("truncations must be strictly increasing")
    if truncations[0] < 1:
        raise ConfigError(f"truncations must be >= 1, got {args.truncations}")
    rows = []
    for s in orders:
        norms = [float(np.sqrt(dirac_partial_sum(args.order, s, K)))
                 for K in truncations]
        diffs = [norms[i + 1] - norms[i] for i in range(len(norms) - 1)]
        if len(diffs) >= 2 and all(
            diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1)
        ) and diffs[-1] < 0.1 * norms[-1]:
            verdict = "convergent"
        elif all(d > 0 for d in diffs) and norms[-1] > 1.5 * norms[0]:
            verdict = "divergent"
        else:
            verdict = "inconclusive"
        rows.append({"sobolev": s, "norms": norms, "verdict": verdict})

    width = 14
    head = "s".ljust(6) + "".join(f"K={K}".rjust(width) for K in truncations) + "  verdict"
    lines = [head]
    for row in rows:
        cells = "".join(f"{v:{width}.6g}" for v in row["norms"])
        lines.append(f"{row['sobolev']:<6g}{cells}  {row['verdict']}")
    sys.stdout.write("\n".join(lines) + "\n")
    results = [
        {"name": f"sobolev_{row['sobolev']:g}", "norms": row["norms"],
         "verdict": row["verdict"]}
        for row in rows
    ]
    return _emit_report(
        "spectrum", "flat-torus", results, args.out,
        extra={"generator": "dirac-derivative", "order": args.order,
               "truncations": truncations},
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linwave",
        description="Linearised-gravity toolkit: backgrounds, decompositions, "
        "constraint checks, and wave evolution on torus and Berger slices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(p, kinds):
        p.add_argument("--kind", "--background", dest="kind", choices=kinds,
                       default=kinds[0])
        p.add_argument("--n", type=int, default=3, help="torus dimension")
        if "kasner" in kinds:
            p.add_argument("--p", type=_parse_triple, default=None,
                           help="Kasner exponents, e.g. '2/3,2/3,-1/3'")
            p.add_argument("--t0", type=float, default=1.0)
        p.add_argument("--lam", type=float, default=None, help="Berger squashing")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("background", help="validate a background slice")
    add_geometry(p, ("flat-torus", "kasner", "berger"))
    p.set_defaults(func=cmd_background)

    p = sub.add_parser("decompose", help="run the generalized TT decomposition")
    add_geometry(p, ("flat-torus", "berger"))
    p.add_argument("--slot", choices=("position", "momentum"), default="position")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("moncrief", help="split data into gauge part + ker P*")
    add_geometry(p, ("flat-torus", "berger"))
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moncrief)

    p = sub.add_parser("gauge-data", help="generate constraint-satisfying gauge data")
    add_geometry(p, ("flat-torus", "kasner", "berger"))
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gauge_data)

    p = sub.add_parser("evolve", help="evolve initial data per a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output.dir")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", choices=("identities", "constraints"),
                   default="identities")
    p.add_argument("--background", choices=("minkowski-torus", "kasner"),
                   default="minkowski-torus")
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="truncated Sobolev norms of singular data")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--sobolev", default="-3,-2")
    p.add_argument("--truncations", default="64,128,256")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    return parser


def _join_dash_values(argv):
    """Glue values like '-3,-2' onto their option so argparse does not
    mistake them for flags."""
    joined = []
    it = iter(argv)
    for tok in it:
        if tok in ("--sobolev", "--p"):
            nxt = next(it, None)
            if nxt is None:
                joined.append(tok)
            else:
                joined.append(f"{tok}={nxt}")
        else:
            joined.append(tok)
    return joined


def run_cli(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_dash_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SnapshotError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())
