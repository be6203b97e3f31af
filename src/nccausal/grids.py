"""Future-set grids over the Penrose square: the fig1 figures.

fig1-cone marks the cells whose events lie in the causal future of the
base event, with latitude-arc sphere annotations; fig1-isocone (and
lambda-order, the same grid without spheres) marks the strict
hyperbola future of the deformed order.  Each future set is a
staircase, kept as one start column per row that ``minkowski``
computes; the CSV and PGM rows are generated from those starts while
they are written.  Only the three grid experiments import this module,
while their config is loaded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import minkowski as mink

if TYPE_CHECKING:
    from .cli import ExperimentConfig

STATUS_BASE = 0
STATUS_GREY = 128
STATUS_WHITE = 255
STATUS_NAMES = {STATUS_BASE: "BASE", STATUS_GREY: "GREY", STATUS_WHITE: "WHITE"}
GREY_ANNOTATIONS = 8  # grey cells annotated, evenly spaced, besides the base and `annotate`


class FutureSetGrid:
    """A future set over the Penrose square plus sphere annotations.

    The set is a staircase: row ``i`` is grey from column ``starts[i]``
    on, and the starts never increase from one row to the next.  The
    base cell overrides its status.
    """

    def __init__(self, resolution: int):
        self.resolution = resolution
        self.starts = np.full(resolution, resolution)  # every cell white
        self.base = None  # the base cell (i, j), set by the builders
        self.annotations: list[dict] = []
        self.step = 2.0 * math.pi / resolution
        self.centers = -math.pi + (np.arange(resolution) + 0.5) * self.step

    def cell_of(self, point: mink.PenrosePoint) -> tuple[int, int]:
        return tuple(min(self.resolution - 1, int((x + math.pi) / self.step))
                     for x in (point.mu, point.nu))

    def center_point(self, i: int, j: int) -> mink.PenrosePoint:
        return mink.PenrosePoint(float(self.centers[i]), float(self.centers[j]))

    def base_cell(self) -> tuple[int, int]:
        return self.base

    @property
    def statuses(self) -> np.ndarray:
        """The ``(r, r)`` status array, derived from the starts and the base
        on each access (read-only); no run builds it."""
        statuses = np.where(np.arange(self.resolution) < self.starts[:, None],
                            np.uint8(STATUS_WHITE), np.uint8(STATUS_GREY))
        statuses[self.base] = STATUS_BASE
        statuses.setflags(write=False)
        return statuses

    def to_csv(self):
        """One ``mu,nu,status`` line per cell, row-major in (i, j): yields
        the header line, then the lines of one row of cells at a time."""
        coords = [f"{c:.12g}" for c in self.centers.tolist()]
        white, grey = ([f"{nu},{name}" for nu in coords] for name in ("WHITE", "GREY"))
        bi, bj = self.base
        yield "mu,nu,status\n"
        for i, (mu, start) in enumerate(zip(coords, self.starts.tolist())):
            cells = white[:start] + grey[start:]
            if i == bi:
                cells[bj] = f"{coords[bj]},BASE"
            yield f"{mu}," + f"\n{mu},".join(cells) + "\n"

    def to_pgm(self):
        """P2 bitmap with mu to the right and nu upwards: yields the header,
        then one pixel row per column of cells, from the last to the first.
        The starts never increase, so a column is grey from row ``first``
        on, its first row whose start is at most the column."""
        r = self.resolution
        firsts = np.searchsorted(-self.starts, -np.arange(r)).tolist()
        bi, bj = self.base
        yield f"P2\n{r} {r}\n255\n"
        for j in range(r - 1, -1, -1):
            # The STATUS_* codes as pixels; WHITE and GREY are 4 characters wide.
            row = "255 " * firsts[j] + "128 " * (r - firsts[j])
            if j == bj:
                row = f"{row[:4 * bi]}0 {row[4 * bi + 4:]}"
            yield row[:-1] + "\n"


def _selected_cells(grid: FutureSetGrid, cfg: ExperimentConfig) -> dict:
    """{cell: status} for the base cell, every ``stride``-th grey cell in
    row-major order (at most GREY_ANNOTATIONS of them), then the
    ``annotate`` cells not yet in, in this order."""
    r, starts, (bi, bj) = grid.resolution, grid.starts, grid.base_cell()
    ends = np.cumsum(r - starts)  # cells of the grey suffixes up to each row's end
    inside = bj >= starts[bi]  # the base cell is one of them
    count = ends[-1] - inside
    picks = np.arange(0, count, max(1, count // GREY_ANNOTATIONS))[:GREY_ANNOTATIONS]
    picks += inside & (picks >= ends[bi] - r + bj)  # step over the base cell
    rows = np.searchsorted(ends, picks, side="right")
    cells = {(bi, bj): STATUS_BASE}
    cells.update(dict.fromkeys(zip(rows.tolist(), (picks + r - ends[rows]).tolist()), STATUS_GREY))
    for i, j in cfg.annotate:
        cells.setdefault((i, j), STATUS_GREY if j >= starts[i] else STATUS_WHITE)
    return cells


def _latitude_arc(cfg: ExperimentConfig, ell: float) -> dict:
    """Arc of the base state's latitude circle within spectral distance ell."""
    x, y, z = cfg.base_bloch.n.tolist()
    r_lat = math.sqrt(max(0.0, 1.0 - z * z))
    phi = math.atan2(y, x)
    if r_lat < 1e-12:
        half = 0.0
    else:
        ratio = cfg.dirac.gap * ell / (2.0 * r_lat)
        half = 2.0 * math.asin(min(1.0, ratio))
    arc = {"kind": "latitude-arc", "latitude_z": z, "center_azimuth": phi,
           "half_width": half}
    if 0.0 < half < math.pi:
        arc["boundary_azimuths"] = [phi - half, phi + half]
    return arc


def _future_set(cfg: ExperimentConfig, row_starts, sphere) -> FutureSetGrid:
    """Grid whose row ``i`` is grey from column ``row_starts(base point,
    centers)[i]`` on, with the base cell.  Unless the run is lambda-order,
    a selected occupied cell gets ``sphere(center point, status)`` as its
    annotation, a white one is empty."""
    grid = FutureSetGrid(cfg.resolution)
    grid.starts = row_starts(cfg.base_penrose, grid.centers)
    grid.base = grid.cell_of(cfg.base_penrose)
    if cfg.experiment == "lambda-order":  # the same grid as fig1-isocone, with no spheres
        return grid
    for (i, j), status in _selected_cells(grid, cfg).items():
        point = grid.center_point(i, j)
        entry = {"cell": [i, j], "mu": point.mu, "nu": point.nu, "kind": "empty"}
        if status != STATUS_WHITE:
            entry.update(sphere(point, status))
        grid.annotations.append(entry)
    return grid


def fig1_causal_cone(cfg: ExperimentConfig) -> FutureSetGrid:
    """Future-set grid of the causal-cone order from the base pure state.

    A cell is grey when its event lies in the causal future of the
    base event (the base state itself witnesses the sphere being hit);
    its sphere annotation is the latitude arc within spectral distance
    of the elapsed Lorentz distance.
    """
    a = mink.penrose_inverse(cfg.base_penrose)

    def sphere(point: mink.PenrosePoint, status: int) -> dict:
        if status == STATUS_BASE:
            return _latitude_arc(cfg, 0.0)  # the arc degenerates to {p}
        return _latitude_arc(cfg, mink.lorentz_distance(a, mink.penrose_inverse(point)))

    return _future_set(cfg, mink.causal_row_starts, sphere)


def fig1_isocone(cfg: ExperimentConfig) -> FutureSetGrid:
    """Future-set grid of the isocone-induced lexicographic order.

    Only the base cell (whose sphere carries the inner light cone cut
    out by the dual cap at the base state) and the strict deformed
    future (full spheres) are occupied; everything else is white.
    """
    cap = {"kind": "dual-cone-cap", "vertex": cfg.base_bloch.n.tolist(),
           "axis": cfg.cap.axis.tolist(), "half_angle": cfg.cap.dual_half_angle}

    def sphere(point: mink.PenrosePoint, status: int) -> dict:
        return cap if status == STATUS_BASE else {"kind": "full-sphere"}

    return _future_set(cfg, lambda p, c: mink.lambda_row_starts(p, c, cfg.lam), sphere)
