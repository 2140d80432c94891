"""Binary snapshot persistence for spectral fields.

Format (file extension ``.lwf``): magic bytes ``LWF1``; four little-endian
u32 header fields (rank code 0=scalar / 1=one-form / 2=sym2, dimension n,
truncation nmax, component count); then the complex coefficients as
little-endian float64 (re, im) pairs in lexicographic mode order times
component order.  A JSON sidecar (same path + ``.json``) carries metadata.

Initial-data pairs are stored as two snapshots ``<prefix>.h.lwf`` and
``<prefix>.m.lwf`` sharing one sidecar ``<prefix>.json``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .constraints import InitialDataPair
from .fields import ModeLattice, SpectralField, rank_components
from .slices import slice_geometry

MAGIC = b"LWF1"
RANK_CODES = {"scalar": 0, "one-form": 1, "sym2": 2}
RANK_NAMES = {v: k for k, v in RANK_CODES.items()}


class SnapshotError(ValueError):
    """Raised on malformed snapshot files."""


def save_field(field: SpectralField, path, metadata: dict | None = None) -> None:
    """Write a spectral field; coefficients round-trip bit-exactly."""
    path = Path(path)
    lat = field.lattice
    ncomp = field.coeffs.shape[1]
    header = MAGIC + struct.pack("<4I", RANK_CODES[field.rank], lat.n, lat.nmax, ncomp)
    flat = np.ascontiguousarray(field.coeffs, dtype="<c16")
    path.write_bytes(header + flat.tobytes())
    sidecar = dict(metadata or {})
    sidecar.setdefault("rank", field.rank)
    sidecar.setdefault("n", lat.n)
    sidecar.setdefault("nmax", lat.nmax)
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_field(path) -> SpectralField:
    """Read a spectral field written by :func:`save_field`."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise SnapshotError(f"{path}: bad magic bytes (expected {MAGIC!r})")
    if len(raw) < 20:
        raise SnapshotError(f"{path}: truncated header")
    code, n, nmax, ncomp = struct.unpack("<4I", raw[4:20])
    if code not in RANK_NAMES:
        raise SnapshotError(f"{path}: unknown rank code {code}")
    rank = RANK_NAMES[code]
    lat = ModeLattice(n, nmax)
    expected = rank_components(rank, n)
    if ncomp != expected:
        raise SnapshotError(
            f"{path}: component count {ncomp} does not match rank "
            f"{rank!r} in dimension {n} (expected {expected})"
        )
    body = raw[20:]
    need = lat.num_modes * ncomp * 16
    if len(body) != need:
        raise SnapshotError(
            f"{path}: coefficient payload has {len(body)} bytes, expected {need}"
        )
    coeffs = np.frombuffer(body, dtype="<c16").reshape(lat.num_modes, ncomp)
    return SpectralField(lat, rank, coeffs.astype(complex))


def save_pair(pair: InitialDataPair, prefix) -> None:
    """Write an initial-data pair as <prefix>.h.lwf / <prefix>.m.lwf with a
    shared sidecar <prefix>.json recording the slice geometry."""
    geom = pair.geom
    if not geom.is_torus:
        raise SnapshotError("pair snapshots are defined for torus slices only")
    if geom.kind == "flat-torus":
        params = {"n": geom.n}
    else:
        params = {"p": [float(x) for x in geom.params["p"]],
                  "t0": float(geom.params["t0"])}
    meta = {"geometry": geom.kind, "parameters": params}
    save_field(pair.h, f"{prefix}.h.lwf", dict(meta, slot="h"))
    save_field(pair.m, f"{prefix}.m.lwf", dict(meta, slot="m"))
    with open(f"{prefix}.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_pair(prefix) -> InitialDataPair:
    side = f"{prefix}.json"
    with open(side) as f:
        meta = json.load(f)
    if not isinstance(meta, dict) or not isinstance(meta.get("geometry"), str):
        raise SnapshotError(f"{side}: sidecar needs a string 'geometry'")
    params = meta.get("parameters", {})
    if not isinstance(params, dict):
        raise SnapshotError(f"{side}: sidecar 'parameters' must be an object")
    h = load_field(f"{prefix}.h.lwf")
    m = load_field(f"{prefix}.m.lwf")
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
    try:
        return InitialDataPair(h, m, slice_geometry(meta["geometry"], **params))
    except (TypeError, ValueError) as err:
        raise SnapshotError(f"{side}: {err}") from err
