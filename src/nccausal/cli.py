"""Command-line front end: order-comparison grids and check reports.

Each subcommand runs one experiment and writes deterministic artifacts
into an output directory: a CSV of grid statuses, a plain (P2) PGM
bitmap, JSON sphere annotations for selected cells, and a JSON run
manifest with the config hash and tolerances.  The two ``fig1-*``
subcommands emit the side-by-side comparison of the causal-cone order
and the isocone-induced order over the Penrose square; ``grids`` builds
those figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import minkowski as mink
from . import spectral
from .hermitian import (ANGLE_TOL, HERMITICITY_TOL, PSD_TOL, SPECTRAL_TOL, STATE_TOL,
                        BlochState, CapIsocone, _scalar_map, _unit, bloch_vectors)
from .poset import _as_number, as_index

EXPERIMENTS = ("fig1-cone", "fig1-isocone", "connes-dist", "cone-check",
               "lex-order", "lambda-order", "saturate")
GRID_EXPERIMENTS = ("fig1-cone", "fig1-isocone", "lambda-order")
FIG1_CONE_NOTES = [
    "sphere arcs are thresholded by the spectral distance (Euclidean chord over "
    "the Dirac gap); a geodesic arc-length convention would rescale the thresholds",
    "arc endpoint azimuths sit on the knife edge where the Lorentz and spectral "
    "distances agree within 1e-9",
]

# Upper limits checked before anything is allocated (README "Limits").
MAX_RESOLUTION = 2048
MAX_SAMPLES = 20_000

# connes-dist converts this many rows of its columns to Python floats at
# a time; all of them at once would hold five float lists of every row.
ROW_CHUNK = 1024

EXIT_CONFIG = 1
EXIT_OUTPUT = 2
EXIT_INTERNAL = 3

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "psd": PSD_TOL,
    "cap_angle": ANGLE_TOL,
    "spectral_step": SPECTRAL_TOL,
    "state": STATE_TOL,
    "latitude": spectral.LATITUDE_TOL,
    "order": spectral.ORDER_TOL,
    "knife_edge": spectral.ORDER_TOL,
}


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def default_lex_fixture() -> dict:
    """Two-chain with a cap component under a trivial component."""
    return {
        "poset": {"size": 2, "pairs": [[0, 1]]},
        "components": [
            {"dim": 2, "cone": {"axis": [0.0, 0.0, 1.0], "rho": math.pi / 4}},
            {"dim": 2, "cone": "full"},
        ],
    }


def default_saturate_fixtures() -> list[dict]:
    vee = {
        "poset": {"size": 3, "pairs": [[0, 2], [1, 2]]},
        "components": [
            {"dim": 1, "cone": "full"},
            {"dim": 2, "cone": {"axis": [0.0, 0.0, 1.0], "rho": math.pi / 4}},
            {"dim": 2, "cone": "full"},
        ],
    }
    return [default_lex_fixture(), vee]


def default_field_fixture() -> dict:
    """Time function plus a constant with a small Dirac commutator."""
    n = 9
    axis = np.linspace(-1.0, 1.0, n)
    # Node (u, v) is ((u + v)/2) I + sigma_x / 2, row-major.
    values = [{"dim": 2, "re": [t, 0.5, 0.5, t], "im": [0.0] * 4}
              for t in (np.add.outer(axis, axis).ravel() / 2.0).tolist()]
    return {"grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0,
                     "n": n},
            "values": values,
            "derivatives": "analytic:time-plus-constant"}


def default_config() -> dict:
    return {
        "seed": 20260810,
        "resolution": 64,
        "base": {"penrose": [0.0, 0.0], "bloch": [1.0, 0.0, 0.0]},
        "dirac": {"d1": 0.0, "d2": 1.0},
        "cap": {"axis": [0.0, 0.0, 1.0], "rho": math.pi / 4},
        "lambda": 0.5,
        "annotate": [],
        "samples": 500,
        "outputs": {"csv": "grid.csv", "pgm": "grid.pgm",
                    "annotations": "annotations.json",
                    "report": "report.json", "manifest": "manifest.json"},
    }


class ExperimentConfig:
    """Validated, resolved experiment parameters."""

    def __init__(self, experiment: str, raw: dict):
        if experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment {experiment!r}")
        self.experiment = experiment
        self.raw = raw
        self.seed = self._int("seed", minimum=0)
        self.resolution = self._int("resolution", minimum=16, maximum=MAX_RESOLUTION)
        self.samples = self._int("samples", minimum=1, maximum=MAX_SAMPLES)
        self.lam = self._parsed("lambda", lambda: _as_number(raw.get("lambda"), "lambda"))
        if self.lam < 0.0:
            raise ConfigError("lambda", "must be at least 0")

        base = raw.get("base", {})
        if not isinstance(base, dict):
            raise ConfigError("base", "must be an object")
        self.base_penrose = self._parsed("base.penrose", lambda: mink.PenrosePoint(
            *_as_number(base.get("penrose"), "base.penrose", 2)))
        self.base_bloch = self._parsed("base.bloch", lambda: BlochState(_unit(_as_number(
            base.get("bloch"), "base.bloch", 3))))

        dirac = raw.get("dirac", {})
        self.dirac = self._parsed("dirac", lambda: spectral.FiniteDirac(
            _as_number(dirac["d1"], "dirac.d1"), _as_number(dirac["d2"], "dirac.d2")))
        cap = raw.get("cap", {})
        self.cap = self._parsed("cap", lambda: CapIsocone(
            _as_number(cap["axis"], "cap.axis", 3), _as_number(cap["rho"], "cap.rho")))

        self.annotate: list[tuple[int, int]] = []
        cells = raw.get("annotate", [])
        if not isinstance(cells, list):
            raise ConfigError("annotate", "must be a list of [i, j] cells")
        for cell in cells:
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                    and all(type(c) is int for c in cell)):
                raise ConfigError("annotate", f"bad cell entry {cell!r}: need two integers")
            i, j = cell
            if not (0 <= i < self.resolution and 0 <= j < self.resolution):
                raise ConfigError("annotate", f"cell {cell!r} outside the grid")
            self.annotate.append((i, j))

        outputs = raw.get("outputs", {})
        if not isinstance(outputs, dict):
            raise ConfigError("outputs", "must be a mapping of file names")
        for key, name in outputs.items():
            if (not isinstance(name, str) or name in ("", ".", "..")
                    or any(c in name for c in "/\\\0")):
                raise ConfigError(f"outputs.{key}", f"{name!r} is not a plain file name")
        if len(set(outputs.values())) != len(outputs):
            raise ConfigError("outputs", "file names must be distinct")
        self.outputs = dict(outputs)

        # A fixture is parsed, and isocone or causal_cone imported, only for the
        # experiment that reads it; grids is imported only for the grid experiments.
        # Each is imported here and never first inside run().  A fixture key
        # takes its default only when absent: an empty value is malformed.
        self.lex = self.saturate_fixtures = self.field = None
        if experiment == "lex-order":
            from .isocone import LexIsocone
            self.lex = self._parsed("lex", lambda: LexIsocone.from_json(
                raw["lex"] if "lex" in raw else default_lex_fixture()))
        elif experiment == "saturate":
            from .isocone import LexIsocone
            fixtures = (raw["saturate_fixtures"] if "saturate_fixtures" in raw
                        else default_saturate_fixtures())
            self.saturate_fixtures = self._parsed("saturate_fixtures", lambda: [
                LexIsocone.from_json(f) for f in fixtures])
            if not self.saturate_fixtures:
                raise ConfigError("saturate_fixtures", "must list at least one fixture")
        elif experiment == "cone-check":
            from .causal_cone import MatrixField
            self.field = self._parsed("field", lambda: MatrixField.from_json(
                raw["field"] if "field" in raw else default_field_fixture()))

        if experiment in GRID_EXPERIMENTS:
            from . import grids  # noqa: F401
            if self.base_penrose.is_boundary:
                raise ConfigError("base.penrose", "base point must be interior")
        if experiment in ("fig1-cone", "connes-dist"):
            if self.dirac.gap == 0.0:
                raise ConfigError("dirac", "degenerate Dirac (d1 == d2) not supported")

    @staticmethod
    def _parsed(field: str, build):
        """``build()``, with the errors of malformed input as a ConfigError on ``field``."""
        try:
            return build()
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError(field, str(exc)) from None

    def _int(self, key: str, minimum: int, maximum: int | None = None) -> int:
        try:
            value = as_index(self.raw[key], key)
        except (KeyError, ValueError):
            raise ConfigError(key, "missing or not an integer") from None
        if value < minimum:
            raise ConfigError(key, f"must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(key, f"must be at most {maximum}")
        return value

    def config_hash(self) -> str:
        # ``raw`` is a JSON tree (parsed, merged or fresh defaults): no cycles to check.
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"),
                           check_circular=False)
        return hashlib.sha256(canon.encode()).hexdigest()


def _merge_config(defaults: dict, user: dict) -> dict:
    """``user`` over ``defaults``; nested objects merge key by key.

    Any other value (a list, a number, or an object where the default
    is not one) replaces the default whole.
    """
    merged = dict(defaults)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = _merge_config(merged[key], value)
        merged[key] = value
    return merged


def load_config(path: str | None, experiment: str) -> ExperimentConfig:
    raw = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be an object")
        raw = _merge_config(raw, user)
    return ExperimentConfig(experiment, raw)


def _run_connes_dist(cfg: ExperimentConfig) -> dict[str, list[str]]:
    """Distances between state pairs at equal latitude, then across the
    equator.  Each block's draws come from one call, in the order of a
    per-sample loop: ``z, phi1, phi2``, then ``z1, z2, phi1, phi2``."""
    rng = np.random.default_rng(cfg.seed)
    tau = 2.0 * math.pi
    z, phi1, phi2 = rng.uniform([-0.99, 0.0, 0.0], [0.99, tau, tau], size=(cfg.samples, 3)).T
    z1, z2, psi1, psi2 = rng.uniform([-0.99, 0.01, 0.0, 0.0], [0.0, 0.99, tau, tau],
                                     size=(max(1, cfg.samples // 4), 4)).T
    chunks = ["z1,phi1,z2,phi2,distance\n"]
    for (za, pa, zb, pb), row in (((z, phi1, z, phi2), "%s,%.12g,%s,%.12g,%.12g"),
                                  ((z1, psi1, z2, psi2), "%.12g,%.12g,%.12g,%.12g,%r")):
        d = spectral.spectral_distances(cfg.dirac, _states_on_latitude(za, pa),
                                  _states_on_latitude(zb, pb))
        for k in range(0, len(d), ROW_CHUNK):
            cols = [c[k:k + ROW_CHUNK].tolist() for c in (za, pa, zb, pb, d)]
            if za is zb:  # the shared latitude, formatted once for both columns
                cols[0] = cols[2] = ["%.12g" % v for v in cols[0]]
            chunks.append("\n".join([row % r for r in zip(*cols)]) + "\n")
    return {cfg.outputs["csv"]: chunks}


def _states_on_latitude(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch vectors at heights ``z`` and azimuths ``phi``, as ``BlochState``
    builds them, with ``math.cos``/``math.sin`` per angle."""
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    cos, sin = _scalar_map(math.cos, phi), _scalar_map(math.sin, phi)
    return bloch_vectors(np.stack([r * cos, r * sin, z], axis=-1))


def _run_cone_check(cfg: ExperimentConfig) -> dict[str, list[str]]:
    from .causal_cone import discretization_tolerance, field_in_cone
    tol = discretization_tolerance(cfg.field)
    ok, loc = field_in_cone(cfg.field, cfg.dirac, tol)
    report = {
        "in_cone": ok,
        "first_failure": list(loc) if loc is not None else None,
        "tolerance": tol,
        "derivatives": cfg.field.derivatives_kind,
        "grid_n": cfg.field.n,
    }
    return {cfg.outputs["report"]: _json_text(report)}


def _run_lex_order(cfg: ExperimentConfig) -> dict[str, list[str]]:
    from .isocone import lex_order_consistency_check
    rng = np.random.default_rng(cfg.seed)
    report = lex_order_consistency_check(cfg.lex, cfg.samples, rng)
    return {cfg.outputs["report"]: _json_text(report.to_json())}


def _run_saturate(cfg: ExperimentConfig) -> dict[str, list[str]]:
    from .isocone import saturation_check
    rng = np.random.default_rng(cfg.seed)
    reports = []
    for fixture in cfg.saturate_fixtures:
        rep = saturation_check(fixture, state_samples=cfg.samples,
                               element_samples=max(30, cfg.samples // 10), rng=rng)
        reports.append({"fixture": fixture.to_json(), **rep.to_json()})
    overall = ("no counterexample found"
               if all(not r["survivors"] for r in reports)
               else "counterexample candidates reported")
    return {cfg.outputs["report"]: _json_text({"fixtures": reports,
                                               "summary": overall})}


def _json_text(obj) -> list[str]:
    return [json.dumps(obj, indent=2, sort_keys=True) + "\n"]


def _manifest(cfg: ExperimentConfig, files: list[str], notes: list[str]) -> list[str]:
    return _json_text({
        "experiment": cfg.experiment,
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "tolerances": TOLERANCES,
        "notes": notes,
        "files": sorted(files),
    })


def run(cfg: ExperimentConfig, out_dir: str) -> int:
    """Execute the configured experiment and write its artifacts."""
    if cfg.experiment in GRID_EXPERIMENTS:
        from .grids import fig1_causal_cone, fig1_isocone  # loaded with the config
        grid = (fig1_causal_cone if cfg.experiment == "fig1-cone" else fig1_isocone)(cfg)
        # The CSV and PGM rows are generated while they are written.
        files = {cfg.outputs["csv"]: grid.to_csv(), cfg.outputs["pgm"]: grid.to_pgm()}
        if grid.annotations:  # lambda-order: the same grid, no spheres
            files[cfg.outputs["annotations"]] = _json_text(grid.annotations)
    else:
        files = {"connes-dist": _run_connes_dist, "cone-check": _run_cone_check,
                 "lex-order": _run_lex_order, "saturate": _run_saturate}[cfg.experiment](cfg)
    notes = FIG1_CONE_NOTES if cfg.experiment == "fig1-cone" else []
    files[cfg.outputs["manifest"]] = _manifest(cfg, list(files), notes)
    try:
        _write_atomically(out_dir, files)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return 0


def _write_atomically(out_dir: str, files: dict) -> None:
    """Write every file (an iterable of chunks, written one by one) under a
    temporary name in ``out_dir``, then move
    each to its own name with ``os.replace``, in order; the manifest is
    the last entry.  A run that fails part-way leaves no partial file
    under a final name and no manifest (an earlier run's manifest is
    removed before the first move).
    """
    os.makedirs(out_dir, exist_ok=True)
    temps = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in files}
    try:
        for name, chunks in files.items():
            # A 128 KiB buffer gathers a grid's row chunks into few write(2) calls.
            with open(temps[name], "w", buffering=1 << 17) as fh:
                for chunk in chunks:
                    fh.write(chunk)
        *_, manifest = files
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, manifest))
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out_dir, name))
    finally:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nccausal",
        description="Order-comparison experiments on the Minkowski plane x M2(C)")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        return run(load_config(args.config, args.experiment), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
