"""Checks of the CLI artifacts against computations made here.

Each check raises ``CheckError`` when the program's output disagrees
with an independent computation or breaks a report invariant.  None of
them calls the code path it checks: grids are recomputed with
vectorised numpy over the cell centres, distances and cone membership
from closed forms, and lex-order membership from ``np.linalg.eigvalsh``
spectra (the library keeps numpy's eigensolver out of its solve path).
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

KNIFE_EDGE = 1e-9
STATUS_CODES = {"BASE": 0, "GREY": 128, "WHITE": 255}


class CheckError(AssertionError):
    """An artifact disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _json(files: dict, name: str):
    _require(name in files, f"missing artifact {name}")
    return json.loads(files[name].decode())


def check_manifest(files: dict, experiment: str, seed: int) -> None:
    manifest = _json(files, "manifest.json")
    _require(manifest["experiment"] == experiment, "manifest experiment")
    _require(manifest["seed"] == seed, "manifest seed")
    listed = sorted(manifest["files"] + ["manifest.json"])
    _require(listed == sorted(files), f"manifest lists {listed}, wrote {sorted(files)}")


# ---------------------------------------------------------------- grids

def _centres(r: int) -> np.ndarray:
    return -math.pi + (np.arange(r) + 0.5) * (2.0 * math.pi / r)


def _grid_statuses(files: dict, r: int) -> np.ndarray:
    """Status codes [i, j] from the CSV, cross-checked against the PGM."""
    head, body = files["grid.csv"].decode().split("\n", 1)
    _require(head == "mu,nu,status" and body.endswith("\n"), "CSV framing")
    for word, code in STATUS_CODES.items():
        body = body.replace(word, str(code))
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(table.shape == (r * r, 3), f"CSV has {len(table)} rows, want {r * r}")
    c = _centres(r)
    _require(np.abs(table[:, 0].reshape(r, r) - c[:, None]).max() < 1e-11, "CSV mu column")
    _require(np.abs(table[:, 1].reshape(r, r) - c[None, :]).max() < 1e-11, "CSV nu column")
    csv = table[:, 2].astype(int).reshape(r, r)

    *head, pixels = files["grid.pgm"].decode().split("\n", 3)
    _require(head == ["P2", f"{r} {r}", "255"], f"PGM header {head}")
    _require(pixels.count("\n") == r, "PGM row count")
    pgm = np.loadtxt(io.StringIO(pixels), dtype=int, ndmin=2)  # rows: nu = +pi .. -pi
    _require(pgm.shape == (r, r), f"PGM pixels {pgm.shape}")
    _require(np.array_equal(pgm[::-1].T, csv), "PGM and CSV disagree")
    return csv


def _base_cell(r: int, base: tuple[float, float]) -> tuple[int, int]:
    step = 2.0 * math.pi / r
    return (min(r - 1, math.floor((base[0] + math.pi) / step)),
            min(r - 1, math.floor((base[1] + math.pi) / step)))


def _compare_grid(status: np.ndarray, grey: np.ndarray, knife: np.ndarray,
                  base_cell: tuple[int, int], what: str) -> None:
    _require(int((status == 0).sum()) == 1, f"{what}: want exactly one BASE cell")
    _require(status[base_cell] == 0, f"{what}: BASE not at the base point's cell")
    expect = np.where(grey, 128, 255)
    expect[base_cell] = 0
    keep = ~knife
    keep[base_cell] = True
    bad = np.argwhere((status != expect) & keep)
    _require(bad.size == 0, f"{what}: {len(bad)} cells differ, first {bad[:1].tolist()}")


def _check_annotations(files: dict, status: np.ndarray, base_cell, kinds) -> None:
    entries = _json(files, "annotations.json")
    _require(entries and entries[0]["cell"] == list(base_cell),
             "first annotation is not the base cell")
    for entry in entries:
        want = kinds[int(status[tuple(entry["cell"])])]
        _require(entry["kind"] == want, f"annotation {entry['cell']}: {entry['kind']}")


def expected_grey(params: dict, hyperbola: bool) -> tuple[np.ndarray, np.ndarray]:
    """Expected grey cells and the knife-edge mask within ``KNIFE_EDGE``.

    The cone future is {mu >= mu_b, nu >= nu_b}: tan(./2) is monotone, so
    it needs no trigonometry.  The deformed future is the hyperbola test
    du dv >= lambda^2 with du, dv >= 0 on tan(./2) coordinates.
    """
    r = params["resolution"]
    mu_b, nu_b = params["base"]
    c = _centres(r)
    if not hyperbola:
        dmu, dnu = c[:, None] - mu_b, c[None, :] - nu_b
        grey = (dmu >= 0.0) & (dnu >= 0.0)
        knife = (np.abs(dmu) < KNIFE_EDGE) | (np.abs(dnu) < KNIFE_EDGE)
        return grey, knife
    lam2 = params["lambda"] ** 2
    du = (np.tan(c / 2.0) - math.tan(mu_b / 2.0))[:, None]
    dv = (np.tan(c / 2.0) - math.tan(nu_b / 2.0))[None, :]
    prod = du * dv
    grey = (du >= 0.0) & (dv >= 0.0) & (prod >= lam2)
    knife = ((np.abs(du) < KNIFE_EDGE) | (np.abs(dv) < KNIFE_EDGE)
             | (np.abs(prod - lam2) < KNIFE_EDGE))
    return grey, knife


def check_fig1_cone(files: dict, nc, params: dict) -> None:
    r = params["resolution"]
    status = _grid_statuses(files, r)
    base = _base_cell(r, params["base"])
    grey, knife = expected_grey(params, hyperbola=False)
    _compare_grid(status, grey, knife, base, "fig1-cone")
    _check_annotations(files, status, base,
                       {0: "latitude-arc", 128: "latitude-arc", 255: "empty"})


def check_fig1_isocone(files: dict, nc, params: dict) -> None:
    r = params["resolution"]
    status = _grid_statuses(files, r)
    base = _base_cell(r, params["base"])
    grey, knife = expected_grey(params, hyperbola=True)
    _compare_grid(status, grey, knife, base, "fig1-isocone")
    _check_annotations(files, status, base,
                       {0: "dual-cone-cap", 128: "full-sphere", 255: "empty"})


def check_lambda_order(files: dict, nc, params: dict) -> None:
    r = params["resolution"]
    _require("annotations.json" not in files, "lambda-order wrote annotations")
    status = _grid_statuses(files, r)
    grey, knife = expected_grey(params, hyperbola=True)
    _compare_grid(status, grey, knife, _base_cell(r, params["base"]), "lambda-order")


# --------------------------------------------------------------- orders

def check_connes_dist(files: dict, nc, params: dict) -> None:
    """Equal latitude: chord 2 r sin(|dphi|/2) over the gap; otherwise inf."""
    rows = files["grid.csv"].decode().split("\n")
    _require(rows[0] == "z1,phi1,z2,phi2,distance" and rows[-1] == "", "CSV framing")
    n_eq = params["samples"]
    n_cross = max(1, n_eq // 4)
    rows = [row.split(",") for row in rows[1:-1]]
    _require(len(rows) == n_eq + n_cross, f"{len(rows)} rows, want {n_eq + n_cross}")
    eq = np.array([[float(x) for x in row] for row in rows[:n_eq]])
    _require(np.array_equal(eq[:, 0], eq[:, 2]), "equal-latitude rows differ in z")
    chord = (2.0 * np.sqrt(1.0 - eq[:, 0] ** 2)
             * np.abs(np.sin((eq[:, 1] - eq[:, 3]) / 2.0)) / params["gap"])
    err = np.abs(eq[:, 4] - chord) / np.maximum(1.0, chord)
    _require(float(err.max()) < 1e-9, f"distance off by {float(err.max()):.3g}")
    _require(all(row[4] == "inf" for row in rows[n_eq:]), "cross-latitude row not inf")


def check_lex_order(files: dict, nc, params: dict) -> None:
    rep = _json(files, "report.json")
    samples = params["samples"]
    _require(rep["passed"] is True, "lex-order report did not pass")
    _require(not rep["monotonicity_violations"] and not rep["witness_failures"],
             "lex-order report lists failures")
    _require(rep["pairs_checked"] == samples, "pairs_checked != samples")
    _require(rep["members_checked"] == max(8, samples // 8), "members_checked")


def saturate_counts(files: dict) -> tuple[int, int]:
    """(flagged_coarse, eliminated_by_densification) summed over fixtures."""
    rep = _json(files, "report.json")
    return (sum(f["flagged_coarse"] for f in rep["fixtures"]),
            sum(f["eliminated_by_densification"] for f in rep["fixtures"]))


def check_saturate(files: dict, nc, params: dict) -> None:
    """Report invariants; ``members_flagged`` is never incremented, so unused."""
    rep = _json(files, "report.json")
    _require(rep["summary"] == "no counterexample found", rep["summary"])
    _require(len(rep["fixtures"]) == params["fixtures"], "fixture count")
    elements = max(30, params["samples"] // 10)
    for fx in rep["fixtures"]:
        _require(fx["elements_checked"] == elements, "elements_checked")
        _require(fx["members_included"] == (elements + 2) // 3, "members_included")
        _require(fx["flagged_coarse"]
                 == fx["eliminated_by_densification"] + len(fx["survivors"]),
                 "flagged_coarse != eliminated + survivors")
        _require(not fx["survivors"] and fx["summary"] == "no counterexample found",
                 "survivors reported")


def check_lex_order_chain(files: dict, nc, params: dict) -> None:
    check_lex_order(files, nc, params)
    check_lex_membership(nc, params["seed"])


MEMBERSHIP_SAMPLES = 48
MEMBERSHIP_CHAIN = {
    "poset": {"size": 3, "pairs": [[0, 1], [1, 2]]},
    "components": [{"dim": 16, "cone": "full"},
                   {"dim": 2, "cone": {"axis": [0.0, 0.6, 0.8], "rho": 0.7}},
                   {"dim": 8, "cone": "full"}],
}


def _herm(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def check_lex_membership(nc, seed: int) -> None:
    """``lex_membership`` on a 16 < cap < 8 chain against eigvalsh spectra.

    The cap block's level is set so that the spectral gap to the 16x16
    block below it is d1, and the 8x8 block's level so that its gap to
    the cap block is d2, with d1, d2 uniform in [-0.5, 1]; a quarter of
    the cap directions lie outside the cap.  Samples within 1e-6 of a
    decision edge are skipped; both decisions must occur.
    """
    rng = np.random.default_rng([seed, 4])
    lex = nc.isocone.LexIsocone.from_json(MEMBERSHIP_CHAIN)
    axis = np.array(MEMBERSHIP_CHAIN["components"][1]["cone"]["axis"])
    rho = MEMBERSHIP_CHAIN["components"][1]["cone"]["rho"]
    decisions = []
    while len(decisions) < MEMBERSHIP_SAMPLES:
        low, high = _herm(rng, 16, 0.3), _herm(rng, 8, 0.3)
        d1, d2 = (float(x) for x in rng.uniform(-0.5, 1.0, size=2))
        theta = rho + float(rng.uniform(-0.4, 0.4 / 3.0))
        perp = np.cross(axis, rng.standard_normal(3))
        perp /= np.linalg.norm(perp)
        v = 0.2 * (math.cos(theta) * axis + math.sin(theta) * perp)
        level = np.linalg.eigvalsh(low)[-1] + 0.2 + d1
        cap = np.array([[level + v[2], v[0] - 1j * v[1]],
                        [v[0] + 1j * v[1], level - v[2]]])
        high += (level + 0.2 + d2 - np.linalg.eigvalsh(high)[0]) * np.eye(8)
        blocks = [low, cap, high]
        spectra = [np.linalg.eigvalsh(b) for b in blocks]
        gaps = [spectra[y][0] - spectra[x][-1] for x, y in ((0, 1), (0, 2), (1, 2))]
        if min(abs(gp) for gp in gaps) < 1e-6 or abs(theta - rho) < 1e-6:
            continue
        want = theta <= rho and min(gaps) >= 0.0
        got = nc.isocone.lex_membership(lex, [nc.hermitian.HermMat(b) for b in blocks])
        _require(got == want, f"lex_membership says {got}, eigvalsh says {want}")
        decisions.append(want)
    _require(any(decisions) and not all(decisions), "membership sample is one-sided")


# ----------------------------------------------------------- cone-check

def field_slopes(coeffs: dict, u, v):
    """Light-cone derivatives of s = a u + b v + g u v + du u^2/2 + dv v^2/2."""
    return (coeffs["a"] + coeffs["du"] * u + coeffs["g"] * v,
            coeffs["b"] + coeffs["g"] * u + coeffs["dv"] * v)


def check_cone_check(files: dict, nc, params: dict) -> None:
    """Node (i, j) is in the cone iff s_u, s_v >= 0 and 4 s_u s_v >= (c gap)^2.

    Central differences are exact for quadratic s, so this closed form
    decides every node; nodes within 1e-6 of the edge are an input error.
    """
    rep = _json(files, "report.json")
    n, coeffs = params["n"], params["coeffs"]
    grid = np.linspace(-1.0, 1.0, n)
    su, sv = field_slopes(coeffs, grid[:, None], grid[None, :])
    margin = 4.0 * su * sv - (coeffs["c"] * params["gap"]) ** 2
    _require(float(np.abs(margin).min()) > 1e-6, "field input sits on the cone edge")
    inside = (su >= 0.0) & (sv >= 0.0) & (margin >= 0.0)
    out = np.argwhere(~inside)
    first = out[0].tolist() if out.size else None
    _require(rep["in_cone"] == (first is None), f"in_cone {rep['in_cone']}")
    _require(rep["first_failure"] == first,
             f"first_failure {rep['first_failure']}, want {first}")
    _require(rep["grid_n"] == n and rep["derivatives"] == "finite-difference",
             "cone-check grid description")
