"""Future-set grids over the Penrose square: the fig1 figures.

fig1-cone marks the cells whose events lie in the causal future of the
base event, with latitude-arc sphere annotations; fig1-isocone (and
lambda-order, the same grid without spheres) marks the strict
hyperbola future of the deformed order.  Cells are classified as whole
arrays by ``minkowski``; the CSV and PGM are built from each row's runs
of equal status.  Only the three grid experiments import this module,
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
    """Cell statuses over the Penrose square plus sphere annotations."""

    def __init__(self, resolution: int):
        self.resolution = resolution
        self.statuses = np.full((resolution, resolution), STATUS_WHITE, dtype=np.uint8)
        self.annotations: list[dict] = []
        step = 2.0 * math.pi / resolution
        self.centers = -math.pi + (np.arange(resolution) + 0.5) * step
        self.step = step

    def cell_of(self, point: mink.PenrosePoint) -> tuple[int, int]:
        i = min(self.resolution - 1, int((point.mu + math.pi) / self.step))
        j = min(self.resolution - 1, int((point.nu + math.pi) / self.step))
        return i, j

    def center_point(self, i: int, j: int) -> mink.PenrosePoint:
        return mink.PenrosePoint(float(self.centers[i]), float(self.centers[j]))

    def base_cell(self) -> tuple[int, int]:
        hits = np.argwhere(self.statuses == STATUS_BASE)
        return int(hits[0][0]), int(hits[0][1])

    def to_csv(self) -> list[str]:
        """One ``mu,nu,status`` line per cell, row-major in (i, j): the
        header, then one string per row of cells (the last one ends the file)."""
        coords = [f"{c:.12g}" for c in self.centers.tolist()]
        cells = {status: [f"{nu},{name}" for nu in coords]  # column j: "nu_j,NAME"
                 for status, name in STATUS_NAMES.items()}
        chunks = ["mu,nu,status"]
        for mu, runs in zip(coords, _status_runs(self.statuses)):
            line = []
            for status, a, b in runs:
                line += cells[status][a:b]
            head = f"\n{mu},"
            chunks.append(head + head.join(line))
        chunks[-1] += "\n"
        return chunks

    def to_pgm(self) -> list[str]:
        """P2 bitmap with mu to the right and nu upwards: the header, then
        one string per pixel row."""
        pixel = {status: f"{status} " for status in STATUS_NAMES}
        return [f"P2\n{self.resolution} {self.resolution}\n255\n",
                *("".join([pixel[status] * (b - a) for status, a, b in runs])[:-1] + "\n"
                  for runs in _status_runs(self.statuses[:, ::-1].T))]


def _status_runs(statuses: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """For each row of ``statuses``, its runs of equal status as
    ``(status, first column, end column)``.

    The artifacts are written one run, not one cell, at a time, which
    pays off only for rows with few runs: a future-set row holds at most
    four (the causal rectangle or the hyperbola region, and the base
    cell).  A row of alternating statuses costs more than a cell loop.
    """
    width = statuses.shape[1]
    start = np.empty(statuses.shape, dtype=bool)  # the first cell of a run
    start[:, 0] = True
    np.not_equal(statuses[:, 1:], statuses[:, :-1], out=start[:, 1:])
    first = np.flatnonzero(start)
    cols = (first % width).tolist()
    rows = [[] for _ in range(len(statuses))]
    for i, status, a, b in zip((first // width).tolist(), statuses[start].tolist(),
                               cols, [*cols[1:], 0]):
        rows[i].append((status, a, b or width))  # b = 0: the next run starts a row
    return rows


def _selected_cells(grid: FutureSetGrid, cfg: ExperimentConfig) -> list[tuple[int, int]]:
    cells = [grid.base_cell()]
    grey = np.argwhere(grid.statuses == STATUS_GREY)
    stride = max(1, len(grey) // GREY_ANNOTATIONS)
    cells.extend(map(tuple, grey[::stride][:GREY_ANNOTATIONS].tolist()))
    for cell in cfg.annotate:
        if cell not in cells:
            cells.append(cell)
    return cells


def _latitude_arc(cfg: ExperimentConfig, ell: float) -> dict:
    """Arc of the base state's latitude circle within spectral distance ell."""
    z = float(cfg.base_bloch.n[2])
    r_lat = math.sqrt(max(0.0, 1.0 - z * z))
    phi = math.atan2(float(cfg.base_bloch.n[1]), float(cfg.base_bloch.n[0]))
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


def _future_set(cfg: ExperimentConfig, related, sphere) -> FutureSetGrid:
    """Grid with the cells that ``related(centers)`` marks grey and the
    base cell; a selected occupied cell gets ``sphere(center point,
    status)`` as its annotation, a white one is empty."""
    grid = FutureSetGrid(cfg.resolution)
    grid.statuses[related(grid.centers)] = STATUS_GREY
    grid.statuses[grid.cell_of(cfg.base_penrose)] = STATUS_BASE
    for (i, j) in _selected_cells(grid, cfg):
        status = int(grid.statuses[i, j])
        entry = {"cell": [i, j], "mu": float(grid.centers[i]),
                 "nu": float(grid.centers[j]), "kind": "empty"}
        if status != STATUS_WHITE:
            entry.update(sphere(grid.center_point(i, j), status))
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

    return _future_set(cfg, lambda c: mink.causal_leq_grid(cfg.base_penrose, c, c), sphere)


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

    return _future_set(cfg, lambda c: mink.lambda_leq_grid(cfg.base_penrose, c, c, cfg.lam),
                       sphere)
