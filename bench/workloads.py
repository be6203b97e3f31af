"""Workload inputs: one full experiment config per operation, made from a seed.

Every config spells out whole ``base`` and ``outputs`` blocks, because
``load_config`` merges a user config over its defaults with a shallow
``dict.update``: a partial ``outputs`` block loses the ``report`` name
and a partial ``base`` block loses ``bloch``.  The workload seed reaches
the program only as the ``seed`` key of these configs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import checks

OUTPUTS = {"csv": "grid.csv", "pgm": "grid.pgm",
           "annotations": "annotations.json",
           "report": "report.json", "manifest": "manifest.json"}

GRID_RESOLUTION = 192
FIELD_N = 33
LEX_SAMPLES = 400
SATURATE_SAMPLES = 250
# Saturate runs on this seed whatever the workload seed.  On about one
# seed in thirteen (31 of seeds 1-399) its coarse sample flags an
# element, and the densification that follows doubles the run's work,
# by an amount that again varies with the seed; ten runs on ten seeds
# then spread past any bound.  83 is the first seed that flags one, so
# every run measures one densification (``saturate.flagged_coarse`` and
# ``saturate.eliminated`` read 1).
SATURATE_SEED = 83
CONNES_SAMPLES = 5000
CHAIN_LEX_SAMPLES = 160


@dataclass
class Op:
    """One CLI experiment invocation and the check of its artifacts."""

    experiment: str
    config: dict
    check: Callable[[dict, object, dict], None]  # (artifacts, package, params)
    params: dict = field(default_factory=dict)


def _unit(rng: np.random.Generator) -> list[float]:
    v = rng.standard_normal(3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _config(seed: int, rng: np.random.Generator, **overrides) -> dict:
    cfg = {
        "seed": seed,
        "resolution": 64,
        "base": {"penrose": [0.0, 0.0], "bloch": _unit(rng)},
        "dirac": {"d1": 0.0, "d2": 1.0},
        "cap": {"axis": [0.0, 0.0, 1.0], "rho": math.pi / 4},
        "lambda": 0.5,
        "annotate": [],
        "samples": 500,
        "outputs": dict(OUTPUTS),
    }
    cfg.update(overrides)
    return cfg


def grids(seed: int) -> list[Op]:
    """fig1-cone, fig1-isocone and lambda-order from an off-origin base event,
    and cone-check on a 33x33 field."""
    rng = np.random.default_rng([seed, 1])
    r = GRID_RESOLUTION
    mu, nu = (float(x) for x in rng.uniform(-1.5, 1.5, size=2))
    lam = float(rng.uniform(0.25, 1.0))
    annotate = [[int(i), int(j)] for i, j in rng.integers(0, r, size=(2, 2))]
    cfg = _config(seed, rng, resolution=r, annotate=annotate, **{"lambda": lam})
    cfg["base"]["penrose"] = [mu, nu]
    params = {"resolution": r, "base": (mu, nu), "lambda": lam}
    return [
        Op("fig1-cone", cfg, checks.check_fig1_cone, params),
        Op("fig1-isocone", cfg, checks.check_fig1_isocone, params),
        Op("lambda-order", cfg, checks.check_lambda_order, params),
        _cone_check(seed),
    ]


def _cone_check(seed: int) -> Op:
    rng = np.random.default_rng([seed, 3])
    fld, coeffs = cone_field(rng, FIELD_N)
    return Op("cone-check", _config(seed, rng, field=fld), checks.check_cone_check,
              {"n": FIELD_N, "coeffs": coeffs, "gap": 1.0})


# A 16 < 16 chain of full blocks.  Three sample pairs in four lie in one
# block and are unrelated; their witness is a rank-two 16x16 block
# beside a scalar one, and its membership test compares the two spectra
# across the strict pair, so these 16x16 solves decide the answer.
# Lex-order never tests its random members for membership, so the chain
# does not meet the fault of ``LexIsocone.random_member``, which spaces
# chain levels by a fixed 3.0 that the spectrum of a random full 16x16
# block can overflow.  The share of same-block pairs varies with the
# seed: at 160 samples the number of 16x16 witness solves has a spread
# of about 5%.
CHAIN16_FIXTURE = {"poset": {"size": 2, "pairs": [[0, 1]]},
                   "components": [{"dim": 16, "cone": "full"}] * 2}


def orders(seed: int) -> list[Op]:
    """lex-order and saturate on the default fixtures, connes-dist, and
    lex-order on a 16 < 16 chain."""
    rng = np.random.default_rng([seed, 2])
    gap = float(rng.uniform(0.5, 2.0))
    dirac = {"d1": 0.0, "d2": gap}
    return [
        Op("lex-order", _config(seed, rng, samples=LEX_SAMPLES),
           checks.check_lex_order, {"samples": LEX_SAMPLES}),
        Op("saturate", _config(SATURATE_SEED, rng, samples=SATURATE_SAMPLES),
           checks.check_saturate, {"samples": SATURATE_SAMPLES, "fixtures": 2}),
        Op("connes-dist", _config(seed, rng, samples=CONNES_SAMPLES, dirac=dirac),
           checks.check_connes_dist, {"samples": CONNES_SAMPLES, "gap": gap}),
        Op("lex-order", _config(seed, rng, samples=CHAIN_LEX_SAMPLES, lex=CHAIN16_FIXTURE),
           checks.check_lex_order_chain, {"samples": CHAIN_LEX_SAMPLES, "seed": seed}),
    ]


def cone_field(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Field ``alpha = s(u, v) I + c sigma_x`` on [-1, 1]^2 with quadratic s.

    s = a u + b v + g u v + (du/2) u^2 + (dv/2) v^2 with g, du, dv <= 0,
    so both light-cone derivatives of s are smallest at the last node
    (n-1, n-1).  c is set half-way between the cone bound there and at
    the next-worst node: every node but the last one is in the cone,
    so ``field_in_cone`` visits the whole grid before its first failure.
    """
    g = float(rng.uniform(-0.8, -0.6))
    du, dv = (float(x) for x in rng.uniform(-0.1, 0.0, size=2))
    a = float(rng.uniform(0.25, 0.35)) - g - du
    b = float(rng.uniform(0.25, 0.35)) - g - dv
    coeffs = {"a": a, "b": b, "g": g, "du": du, "dv": dv}
    u = np.linspace(-1.0, 1.0, n)
    su, sv = checks.field_slopes(coeffs, u[:, None], u[None, :])
    q = np.sort((4.0 * su * sv).ravel())
    coeffs["c"] = float(math.sqrt(0.5 * (q[0] + q[1])))  # Dirac gap is 1
    values = []
    for uu in u:
        for vv in u:
            s = a * uu + b * vv + g * uu * vv + 0.5 * (du * uu * uu + dv * vv * vv)
            values.append({"dim": 2, "re": [s, coeffs["c"], coeffs["c"], s],
                           "im": [0.0, 0.0, 0.0, 0.0]})
    fld = {"grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0,
                    "n": n},
           "values": values, "derivatives": "finite-difference"}
    return fld, coeffs


WORKLOADS = {"grids": grids, "orders": orders}
