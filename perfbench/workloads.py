"""The four benchmark workloads and their correctness gates.

Each workload has three parts, timed separately by ``rep.py``:

* ``setup(seed, size, workdir)`` builds every input from the seed (setup_s);
* ``run(state, phase)`` does the work a linwave user waits for (wall_s);
  ``phase`` accumulates the time of the workload's main compute phase, the
  denominator of mode_steps_per_s;
* ``figures(state, out)`` reduces the outputs to figures of merit, which
  ``check`` compares against the tolerances fixed in ``GATES``.

Inputs depend only on the seed, so every repetition of a run does the same
work.  ``size`` is "full" for the benchmark and "small" for the self-test.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import linwave.invariant as inv
from linwave import cli, constraints, decomposition, evolution, fields, slices, spacetime
from tracing import rk4_steps

KASNER_P = (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)

# figure name -> (comparison, tolerance).  Each tolerance passes the figures
# of seeds 0-9 (their maximum is given) with a margin of 5x or more, except
# the dt-halving factor, whose gate is the acceptance suite's; a wrong answer
# misses by orders of magnitude.  Relative residuals are residual norms over
# the initial wave energy E_0 of the same run, so the random amplitude of the
# data cancels.
GATES = {
    "kasner-roundtrip": {
        "recovery_rel_deviation": ("<=", 5e-8),  # 5.9e-09, ~ dt^4 at dt = 1e-2
        "gauge_rel_residual": ("<=", 1e-8),  # 1.4e-09
        "constraint_rel_residual": ("<=", 5e-8),  # 5.4e-09
        # 15.6 to 16.4; 16 for a 4th-order method, 4 for a 2nd-order one
        "dt_halving_factor": (">=", 14.0),
    },
    "kasner-wide": {
        "evolve_exit_code": ("==", 0),
        "gauge_rel_residual": ("<=", 5e-8),  # 5.9e-09, ~ dt^4 at dt = 5e-3
        "constraint_rel_residual": ("<=", 3e-6),  # 2.8e-07
    },
    "minkowski-exact": {
        "evolve_exit_code": ("==", 0),
        # round-off of the exact propagator
        "gauge_rel_residual": ("<=", 1e-15),  # 5.8e-17
        "constraint_rel_residual": ("<=", 5e-14),  # 3.0e-15
        # E_j is exactly conserved on the Minkowski torus
        "energy_rel_drift": ("<=", 1e-13),  # 1.4e-16
    },
    "slice-oracle": {
        # the acceptance suite's tolerance: 4th-order stencils at step 1e-3
        # and central differences at eps = 1e-5
        "torus_oracle_rel_deviation": ("<=", 1e-6),
        "berger_oracle_rel_deviation": ("<=", 1e-6),  # 5.2e-09
        # unit-norm sources
        "split_residual": ("<=", 5e-13),  # 2.2e-14
        "moncrief_residual": ("<=", 5e-13),  # 2.5e-14
    },
}


def check(workload: str, figures: dict) -> list[dict]:
    """One entry per gate; a missing or NaN figure fails its gate."""
    out = []
    for name, (op, tol) in GATES[workload].items():
        value = figures.get(name, math.nan)
        ok = (value <= tol if op == "<=" else value >= tol if op == ">=" else value == tol)
        out.append({"name": name, "value": value, "op": op, "tolerance": tol,
                    "pass": bool(ok)})
    return out


def _unit(field):
    """The field scaled to unit H^0 norm."""
    return fields.SpectralField(field.lattice, field.rank,
                                field.coeffs / fields.sobolev_norm(field, 0.0))


def _hermitian(lat, rng, ncomp):
    raw = rng.standard_normal((lat.num_modes, ncomp)) + 1j * rng.standard_normal(
        (lat.num_modes, ncomp)
    )
    return 0.5 * (raw + np.conj(raw[lat.negation_permutation()]))


# ---------------------------------------------------------------------------
# kasner-roundtrip
# ---------------------------------------------------------------------------


class KasnerRoundtrip:
    """Pure-gauge round trip on Kasner: evolve gauge-producing data, subtract
    the exact Lie_W g trajectory, recover the gauge vector, take diagnostics,
    then check the integrator's order by dt halving."""

    def setup(self, seed, size, workdir):
        nmax = 2 if size == "full" else 1
        bg = spacetime.spacetime_background("kasner", p=KASNER_P)
        geom = slices.slice_geometry("kasner", p=KASNER_P, t0=1.0)
        lat = fields.ModeLattice(3, nmax)
        rng = np.random.default_rng(seed)
        W0, Wd0 = _hermitian(lat, rng, 4), _hermitian(lat, rng, 4)
        gauge = decomposition.gauge_producing_data(
            fields.SpectralField(lat, "scalar", -W0[:, :1]),
            fields.SpectralField(lat, "one-form", W0[:, 1:]), geom,
        )
        order_pair = constraints.InitialDataPair(
            fields.random_field(lat, "sym2", rng), fields.random_field(lat, "sym2", rng), geom
        )
        span = 0.2 if size == "full" else 0.1
        return {
            "bg": bg, "lat": lat, "W0": W0, "Wd0": Wd0, "gauge": gauge,
            "order_pair": order_pair, "dt": 1e-2,
            "times": np.linspace(1.0, 1.0 + span, 3),
            # dt-halving check on [1, 1.1]: coarse dt pair and a dt/4 reference
            "order_t1": 1.1, "order_dts": (2e-2, 1e-2), "order_ref_dt": 2.5e-3,
        }

    def mode_steps(self, s):
        times, dt = s["times"], s["dt"]
        steps = 3 * rk4_steps(times[0], times, dt)  # evolve, lie_trajectory, recovery
        order_times = (1.0, s["order_t1"])
        for d in (*s["order_dts"], s["order_ref_dt"]):
            steps += rk4_steps(1.0, order_times, d)
        return s["lat"].num_modes * steps

    def run(self, s, phase):
        bg, lat, times, dt = s["bg"], s["lat"], s["times"], s["dt"]
        with phase:
            trh = evolution.evolve(evolution.build_cauchy_jet(s["gauge"], bg), times[-1],
                                   dt=dt, sample_times=times)
            trg = evolution.lie_trajectory(bg, lat, times, s["W0"], s["Wd0"], dt=dt)
        diff = evolution.trajectory_difference(trh, trg)
        with phase:
            rec = evolution.recover_gauge_vector(diff)
        diag = evolution.diagnostics(trh)
        jet = evolution.build_cauchy_jet(s["order_pair"], bg)
        finals = {}
        with phase:
            for d in (s["order_ref_dt"], *s["order_dts"]):
                finals[d] = evolution.evolve(jet, s["order_t1"], dt=d,
                                             sample_times=[1.0, s["order_t1"]]).states[-1]
        return {"rec": rec, "diag": diag, "finals": finals}

    def figures(self, s, out):
        diag, finals = out["diag"], out["finals"]
        e0 = diag.energies[0, 0]
        ref = finals[s["order_ref_dt"]]
        coarse, fine = (np.max(np.abs(finals[d] - ref)) for d in s["order_dts"])
        return {
            "recovery_rel_deviation": float(out["rec"].relative_deviation.max()),
            "gauge_rel_residual": float(diag.gauge_residual.max() / e0),
            "constraint_rel_residual": float(
                max(diag.dphi1_residual.max(), diag.dphi2_residual.max()) / e0),
            "dt_halving_factor": float(coarse / fine),
        }


# ---------------------------------------------------------------------------
# kasner-wide and minkowski-exact: `linwave evolve`, in process
# ---------------------------------------------------------------------------


class EvolveCli:
    """`linwave evolve` on a config written at set-up, run in process through
    ``linwave.cli.run_cli``: parsing, evolution, diagnostics, CSV, snapshots
    and manifest are all in wall_s.  ``phase_names`` are the evolution
    functions whose time is the compute phase."""

    def __init__(self, config: str, nmax: dict, phase_names: tuple):
        self.config = config
        self.nmax = nmax
        self.phase_names = phase_names

    def setup(self, seed, size, workdir):
        nmax = self.nmax[size]
        text = self.config.format(nmax=nmax, seed=seed)
        cfg = Path(workdir) / "run.cfg"
        cfg.write_text(text)
        values = {key.strip(): value.strip()
                  for key, _, value in (line.partition("=") for line in text.splitlines())}
        return {"cfg": cfg, "out": Path(workdir) / "out", "values": values,
                "modes": (2 * nmax + 1) ** 3}

    def mode_steps(self, s):
        v = s["values"]
        samples = int(v["evolve.samples"])
        if "evolve.dt" not in v:  # exact propagator: one unit per mode and sample
            return s["modes"] * samples
        t0, t1 = float(v["evolve.t0"]), float(v["evolve.t1"])
        return s["modes"] * rk4_steps(t0, np.linspace(t0, t1, samples),
                                      float(v["evolve.dt"]))

    def run(self, s, phase):
        phase.watch("linwave.evolution", self.phase_names)
        return {"rc": cli.run_cli(["evolve", "--config", str(s["cfg"]), "--out", str(s["out"])])}

    def figures(self, s, out):
        figs = {"evolve_exit_code": out["rc"]}
        if not (s["out"] / "diagnostics.csv").exists():  # gates on missing figures fail
            return figs
        with open(s["out"] / "diagnostics.csv") as f:
            rows = list(csv.DictReader(f))
        col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        e0 = col["energy_j0"][0]
        figs["gauge_rel_residual"] = float(col["gauge_res"].max() / e0)
        figs["constraint_rel_residual"] = float(
            max(col["dphi1_res"].max(), col["dphi2_res"].max()) / e0)
        energies = [col[k] for k in col if k.startswith("energy_j")]
        figs["energy_rel_drift"] = float(
            max(np.max(np.abs(e - e[0])) / e[0] for e in energies))
        return figs


KASNER_WIDE = EvolveCli(
    "background.kind = kasner\n"
    "background.p = 2/3, 2/3, -1/3\n"
    "lattice.nmax = {nmax}\n"
    "initial.generator = gauge-producing\n"
    "initial.seed = {seed}\n"
    "evolve.t0 = 1.0\n"
    "evolve.t1 = 1.1\n"
    "evolve.dt = 5e-3\n"
    "evolve.samples = 3\n"
    "tolerance.gauge = 0.1\n"
    "tolerance.constraint = 0.1\n",
    {"full": 8, "small": 3},
    ("evolve",),
)

MINKOWSKI_EXACT = EvolveCli(
    "background.kind = minkowski-torus\n"
    "lattice.nmax = {nmax}\n"
    "initial.generator = gauge-producing\n"
    "initial.seed = {seed}\n"
    "evolve.t1 = 10.0\n"
    "evolve.samples = 15\n"
    "tolerance.gauge = 1e-8\n"
    "tolerance.constraint = 1e-8\n",
    {"full": 8, "small": 3},
    ("evolve", "diagnostics"),
)


# ---------------------------------------------------------------------------
# slice-oracle
# ---------------------------------------------------------------------------


class SliceOracle:
    """dphi against its finite-difference oracle on flat-torus, Kasner and
    Berger slices, the TT split of both slots, and the Moncrief split."""

    def setup(self, seed, size, workdir):
        nmax = 8 if size == "full" else 3
        lat = fields.ModeLattice(3, nmax)
        rng = np.random.default_rng(seed)
        torus = slices.slice_geometry("flat-torus", n=3)
        kasner = slices.slice_geometry("kasner", p=KASNER_P, t0=1.3)
        berger = slices.slice_geometry("berger")

        def smooth_pair(geom):
            # unscaled, as in the acceptance suite: scaling h~ down shrinks
            # the oracle's eps * h~ towards round-off
            return constraints.InitialDataPair(
                fields.random_field(lat, "sym2", rng, decay=2.0),
                fields.random_field(lat, "sym2", rng, decay=2.0), geom,
            )

        def berger_pair():
            return constraints.InitialDataPair(
                inv.InvariantField("sym2", rng.standard_normal(6)),
                inv.InvariantField("sym2", rng.standard_normal(6)), berger,
            )

        return {
            "torus_pairs": [smooth_pair(g) for g in (torus, torus, kasner, kasner)],
            "berger_pairs": [berger_pair() for _ in range(4)],
            "splits": [(_unit(fields.random_field(lat, "sym2", rng)), which, torus)
                       for which in ("position", "momentum")]
                      + [(inv.InvariantField("sym2", rng.standard_normal(6)), which, berger)
                         for which in ("position", "momentum")],
            "moncrief": [
                constraints.InitialDataPair(_unit(fields.random_field(lat, "sym2", rng)),
                                            _unit(fields.random_field(lat, "sym2", rng)),
                                            torus),
                berger_pair(),
            ],
        }

    def mode_steps(self, s):
        # one unit per mode through one dphi, dphi_oracle, split_solve or
        # moncrief_project call; an invariant (Berger) field is one mode
        def modes(field):
            return field.lattice.num_modes if hasattr(field, "lattice") else 1

        return (sum(2 * modes(p.h) for p in s["torus_pairs"] + s["berger_pairs"])
                + sum(modes(source) for source, _, _ in s["splits"])
                + sum(modes(p.h) for p in s["moncrief"]))

    def run(self, s, phase):
        with phase:
            oracle = [(constraints.dphi(p), constraints.dphi_oracle(p))
                      for p in s["torus_pairs"] + s["berger_pairs"]]
            splits = [decomposition.split_solve(*args) for args in s["splits"]]
            moncrief = [decomposition.moncrief_project(p) for p in s["moncrief"]]
        return {"oracle": oracle, "splits": splits, "moncrief": moncrief}

    def figures(self, s, out):
        ntorus = len(s["torus_pairs"])
        torus_dev = 0.0
        for a, b in out["oracle"][:ntorus]:
            for x, y in ((a.scalar, b.scalar), (a.oneform, b.oneform)):
                torus_dev = max(torus_dev, float(
                    np.max(np.abs(x.coeffs - y.coeffs)) / np.max(np.abs(x.coeffs))))
        berger_dev = 0.0
        for a, b in out["oracle"][ntorus:]:
            xa = np.concatenate([a.scalar.components, a.oneform.components])
            xb = np.concatenate([b.scalar.components, b.oneform.components])
            berger_dev = max(berger_dev, float(np.max(np.abs(xa - xb)) / np.max(np.abs(xa))))
        return {
            "torus_oracle_rel_deviation": torus_dev,
            "berger_oracle_rel_deviation": berger_dev,
            "split_residual": float(max(max(r.residuals.values()) for r in out["splits"])),
            "moncrief_residual": float(max(max(m.report.values()) for m in out["moncrief"])),
        }


WORKLOADS = {
    "kasner-roundtrip": KasnerRoundtrip(),
    "kasner-wide": KASNER_WIDE,
    "minkowski-exact": MINKOWSKI_EXACT,
    "slice-oracle": SliceOracle(),
}
