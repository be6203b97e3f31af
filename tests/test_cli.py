import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nccausal import cli, grids
from nccausal import isocone as iso
from nccausal import minkowski as mink
from nccausal.isocone import BlochState, cap_induced_order
from nccausal.minkowski import causal_leq, lambda_leq, penrose_inverse
from oracles import (annotated_cells_scalar, causal_leq_grid, connes_dist_csv, grid_csv_scalar,
                     grid_pgm_scalar, lambda_leq_grid)


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out


def read_pgm(path):
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]]).reshape(h, w)
    return w, h, maxval, pixels


def grid_statuses(out):
    rows = (out / "grid.csv").read_text().strip().splitlines()
    assert rows[0] == "mu,nu,status"
    return [r.split(",") for r in rows[1:]]


# The experiment that parses each fixture key; no other experiment reads it.
FIXTURE_READER = {"lex": "lex-order", "saturate_fixtures": "saturate", "field": "cone-check"}


def _lex_fixture(size=2, pairs=((0, 1),), dims=(2, 2)) -> dict:
    return {"poset": {"size": size, "pairs": [list(p) for p in pairs]},
            "components": [{"dim": d, "cone": "full"} for d in dims]}


def _lex_chain(n: int, dim: int) -> dict:
    return _lex_fixture(n, [(k, k + 1) for k in range(n - 1)], (dim,) * n)


def _field_fixture(**grid) -> dict:
    field = cli.default_field_fixture()
    field["grid"].update(grid)
    return field


def _field_family(label: str, bump: bool = False) -> dict:
    """The default field labelled ``label``; ``bump`` moves one node's
    diagonal, so the samples are no longer affine."""
    field = cli.default_field_fixture()
    field["derivatives"] = label
    if bump:
        node = field["values"][40]
        node["re"] = [node["re"][0] + 1.0, 0.5, 0.5, node["re"][3] + 1.0]
    return field


def _field_node_dim(dim) -> dict:
    field = cli.default_field_fixture()
    field["values"][3]["dim"] = dim
    return field


class TestFig1Cone:
    def test_default_run_artifacts(self, tmp_path):
        code, out = run_cli(["fig1-cone"], tmp_path)
        assert code == 0
        for name in ("grid.csv", "grid.pgm", "annotations.json", "manifest.json"):
            assert (out / name).exists()
        w, h, maxval, pixels = read_pgm(out / "grid.pgm")
        assert (w, h, maxval) == (64, 64, 255)
        assert set(np.unique(pixels)) <= {0, 128, 255}
        assert int((pixels == 0).sum()) == 1  # exactly one base cell

    def test_grey_set_matches_independent_sweep(self, tmp_path):
        cfg = cli.load_config(None, "fig1-cone")
        grid = grids.fig1_causal_cone(cfg)
        a = penrose_inverse(cfg.base_penrose)
        base = grid.base_cell()
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                if (i, j) == base:
                    continue
                expect = causal_leq(a, penrose_inverse(grid.center_point(i, j)))
                assert (grid.statuses[i, j] == grids.STATUS_GREY) == expect

    def test_base_annotation_degenerates_to_point(self, tmp_path):
        code, out = run_cli(["fig1-cone"], tmp_path)
        annotations = json.loads((out / "annotations.json").read_text())
        base_entries = [a for a in annotations if a["kind"] == "latitude-arc"
                        and a["half_width"] == 0.0]
        assert base_entries  # the base cell arc is the single state p

    def test_arc_width_monotone_along_causal_chain(self):
        cfg = cli.load_config(None, "fig1-cone")
        grid = grids.fig1_causal_cone(cfg)
        a = penrose_inverse(cfg.base_penrose)
        widths = []
        for cell in ((40, 40), (48, 48), (60, 60)):
            b = penrose_inverse(grid.center_point(*cell))
            from nccausal.minkowski import lorentz_distance
            widths.append(grids._latitude_arc(cfg, lorentz_distance(a, b))["half_width"])
        assert widths[0] <= widths[1] <= widths[2]

    def test_arc_membership_matches_product_state_order(self):
        from nccausal.spectral import product_state_order
        from nccausal.minkowski import lorentz_distance
        cfg = cli.load_config(None, "fig1-cone")
        grid = grids.fig1_causal_cone(cfg)
        a = penrose_inverse(cfg.base_penrose)
        b = penrose_inverse(grid.center_point(44, 44))
        arc = grids._latitude_arc(cfg, lorentz_distance(a, b))
        z = arc["latitude_z"]
        r = math.sqrt(1.0 - z * z)
        for dphi in np.linspace(-math.pi, math.pi, 61):
            if abs(abs(dphi) - arc["half_width"]) < 1e-9:
                continue
            phi = arc["center_azimuth"] + dphi
            q = BlochState([r * math.cos(phi), r * math.sin(phi), z])
            in_arc = abs(dphi) <= arc["half_width"]
            assert in_arc == product_state_order(cfg.dirac, a, cfg.base_bloch, b, q)


class TestFig1Isocone:
    def test_grey_set_matches_lambda_sweep(self):
        cfg = cli.load_config(None, "fig1-isocone")
        grid = grids.fig1_isocone(cfg)
        base = grid.base_cell()
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                if (i, j) == base:
                    continue
                expect = lambda_leq(cfg.base_penrose, grid.center_point(i, j), cfg.lam)
                assert (grid.statuses[i, j] == grids.STATUS_GREY) == expect

    def test_base_cell_annotation_is_dual_cap(self):
        cfg = cli.load_config(None, "fig1-isocone")
        grid = grids.fig1_isocone(cfg)
        base = grid.base_cell()
        entry = next(a for a in grid.annotations if tuple(a["cell"]) == base)
        assert entry["kind"] == "dual-cone-cap"
        assert abs(entry["half_angle"] - (math.pi / 2 - cfg.cap.rho)) < 1e-12
        # Descriptor membership must agree with the cap-induced order.
        rng = np.random.default_rng(0)
        axis = np.array(entry["axis"])
        vertex = np.array(entry["vertex"])
        for _ in range(300):
            q = rng.standard_normal(3)
            q /= np.linalg.norm(q)
            w = q - vertex
            wn = float(np.linalg.norm(w))
            if wn < 1e-12:
                descriptor = True
            else:
                ang = math.acos(np.clip(np.dot(w / wn, axis), -1, 1))
                if abs(ang - entry["half_angle"]) < 1e-6:
                    continue
                descriptor = ang <= entry["half_angle"]
            assert descriptor == cap_induced_order(cfg.cap,
                                                   BlochState(vertex), BlochState(q))

    def test_gap_between_base_and_future(self):
        # Strictly between the base point and the hyperbola there is a
        # white band: causal at mass zero but not at the working mass.
        cfg = cli.load_config(None, "fig1-isocone")
        grid = grids.fig1_isocone(cfg)
        base = grid.base_cell()
        near = (base[0] + 1, base[1] + 1)
        assert grid.statuses[near] == grids.STATUS_WHITE
        assert lambda_leq(cfg.base_penrose, grid.center_point(*near), 0.0)


GRID48 = grids.FutureSetGrid(48).centers.tolist()


def _hyperbola_through(base: tuple[int, int], cell: tuple[int, int]) -> float:
    """Mass scale whose hyperbola from centre ``base`` meets centre ``cell``,
    rounded so that ``lam**2`` overshoots ``du * dv``: only the knife-edge
    band relates the two cells."""
    du = math.tan(GRID48[cell[0]] / 2.0) - math.tan(GRID48[base[0]] / 2.0)
    dv = math.tan(GRID48[cell[1]] / 2.0) - math.tan(GRID48[base[1]] / 2.0)
    lam = math.sqrt(du * dv)
    assert lam * lam > du * dv
    return lam


@pytest.mark.parametrize("mu, nu, lam", [
    (0.37, -1.21, 0.5),
    (-2.05, 0.88, 0.25),
    (1.91, 2.43, 1.0),
    (0.3, -0.7, 0.0),                                   # lambda = 0
    (GRID48[10], GRID48[30], 0.5),                      # base on a cell centre
    (GRID48[20], 0.123, 0.0),                           # light cone through centres
    (GRID48[10], GRID48[12], _hyperbola_through((10, 12), (28, 33))),  # hyperbola too
], ids=["random-1", "random-2", "random-3", "lambda-0", "base-on-centre",
        "light-cone-through-centres", "hyperbola-through-centre"])
def test_grids_match_scalar_predicates(mu, nu, lam):
    raw = cli._merge_config(cli.default_config(), {
        "resolution": 48, "base": {"penrose": [mu, nu]}, "lambda": lam})
    cone = grids.fig1_causal_cone(cli.ExperimentConfig("fig1-cone", raw))
    deformed = grids.fig1_isocone(cli.ExperimentConfig("fig1-isocone", raw))
    base = mink.PenrosePoint(mu, nu)
    a = penrose_inverse(base)
    assert cone.base_cell() == deformed.base_cell() == cone.cell_of(base)
    for i in range(48):
        for j in range(48):
            if (i, j) == cone.base_cell():
                continue
            q = cone.center_point(i, j)
            assert (cone.statuses[i, j] == grids.STATUS_GREY) == causal_leq(a, penrose_inverse(q))
            assert (deformed.statuses[i, j] == grids.STATUS_GREY) == lambda_leq(base, q, lam)


@pytest.mark.parametrize("resolution", [64, 65, 192, 256])
def test_fig1_cone_keeps_light_rays_of_a_centre_base(resolution):
    # With the base on a cell centre, the cells of its own row and column
    # share its u or v exactly: they lie on its light rays and are related.
    rng = np.random.default_rng(resolution)
    centers = grids.FutureSetGrid(resolution).centers.tolist()
    for i, j in rng.integers(resolution, size=(5, 2)).tolist():
        raw = cli._merge_config(cli.default_config(), {
            "resolution": resolution, "base": {"penrose": [centers[i], centers[j]]}})
        cone = grids.fig1_causal_cone(cli.ExperimentConfig("fig1-cone", raw))
        assert cone.base_cell() == (i, j)
        quadrant = np.zeros((resolution, resolution), dtype=bool)
        quadrant[i:, j:] = True
        np.testing.assert_array_equal(cone.statuses != grids.STATUS_WHITE, quadrant)
        a = penrose_inverse(cone.center_point(i, j))
        for k in range(resolution):
            assert causal_leq(a, penrose_inverse(cone.center_point(i, k))) == (k >= j)
            assert causal_leq(a, penrose_inverse(cone.center_point(k, j))) == (k >= i)


def test_tan_is_increasing_on_cell_centres():
    # The staircase rests on it: each row of a hyperbola future is a suffix,
    # and the suffix starts never increase down the rows.
    for r in range(16, cli.MAX_RESOLUTION + 1):
        tans = [math.tan(c / 2.0) for c in grids.FutureSetGrid(r).centers.tolist()]
        assert all(a < b for a, b in zip(tans, tans[1:])), r


def _staircase_cases():
    """(resolution, base, lambda, annotate) of the golden grid configs, then
    a random and a centre base at each resolution, with lambda 0 at every
    other resolution."""
    lam = cli.default_config()["lambda"]
    cases = [pytest.param(r, (0.0, 0.0), lam, [], id=f"golden-r{r}") for r in (64, 256, 1024)]
    cases.append(pytest.param(1024, (0.7, -1.1), 1.25, [], id="golden-lambda-order-r1024"))
    rng = np.random.default_rng(2048)
    for k, r in enumerate([63, 64, 65, 192, 1024, 2048]):
        centers = grids.FutureSetGrid(r).centers
        for kind, base in [("random", rng.uniform(-3.0, 3.0, size=2)),
                           ("centre", centers[rng.integers(r, size=2)])]:
            cases.append(pytest.param(
                r, tuple(base.tolist()), 0.0 if k % 2 == 0 else float(rng.uniform(0.1, 2.0)),
                [tuple(c) for c in rng.integers(r, size=(2, 2)).tolist()], id=f"{kind}-r{r}"))
    return cases


@pytest.mark.parametrize("r, base, lam, annotate", _staircase_cases())
def test_staircases_match_cell_oracles(r, base, lam, annotate):
    raw = cli._merge_config(cli.default_config(), {
        "resolution": r, "base": {"penrose": list(base)}, "lambda": lam,
        "annotate": [list(c) for c in annotate]})
    p = mink.PenrosePoint(*base)
    for experiment, build, oracle in [
            ("fig1-cone", grids.fig1_causal_cone, lambda c: causal_leq_grid(p, c, c)),
            ("fig1-isocone", grids.fig1_isocone, lambda c: lambda_leq_grid(p, c, c, lam))]:
        cfg = cli.ExperimentConfig(experiment, raw)
        grid = build(cfg)
        assert (np.diff(grid.starts) <= 0).all()
        assert grid.base_cell() == grid.cell_of(p)
        related = oracle(grid.centers)
        related[grid.base_cell()] = False
        np.testing.assert_array_equal(grid.statuses == grids.STATUS_GREY, related)
        assert [tuple(e["cell"]) for e in grid.annotations] == annotated_cells_scalar(
            grid, cfg.annotate)


def test_fig1_scalar_calls_scale_with_annotations(monkeypatch):
    calls = {"penrose_inverse": 0, "causal_leq": 0, "lambda_leq": 0}

    def counting(name):
        fn = getattr(mink, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(mink, name, counting(name))
    raw = cli._merge_config(cli.default_config(), {
        "base": {"penrose": [-0.4, -0.2]}, "annotate": [[50, 50], [3, 60]]})
    cone = grids.fig1_causal_cone(cli.ExperimentConfig("fig1-cone", raw))
    grids.fig1_isocone(cli.ExperimentConfig("fig1-isocone", raw))
    assert 0 < calls["penrose_inverse"] <= len(cone.annotations) + 1
    assert calls["causal_leq"] <= len(cone.annotations)
    assert calls["lambda_leq"] == 0


def _staircase(kind: str, r: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Row starts and base cell of a staircase grid; the fig1 writers cost
    one slice per row."""
    if kind == "single-run":  # every row all white (start r) or all grey (start 0)
        return np.where(np.arange(r) < r // 3, r, 0), (r // 2, r // 2)
    starts = np.sort(np.random.default_rng(r).integers(0, r + 1, r))[::-1]
    starts[0], starts[-1] = r, 0
    # The base outside its row's grey suffix (row 0) or inside it (row r-1).
    # Column 0 of a CSV row is the last pixel of a PGM row, and column r-1 the first.
    return starts, {"base-column-0": (0, 0), "base-column-last": (0, r - 1),
                    "base-inside-column-0": (r - 1, 0),
                    "base-inside-column-last": (r - 1, r - 1)}[kind]


@pytest.mark.parametrize("r", [16, 17, 64])
@pytest.mark.parametrize("kind", ["single-run", "base-column-0", "base-column-last",
                                  "base-inside-column-0", "base-inside-column-last"])
def test_grid_writers_match_cell_loop(kind, r):
    grid = grids.FutureSetGrid(r)
    grid.starts, grid.base = _staircase(kind, r)
    csv, pgm = list(grid.to_csv()), list(grid.to_pgm())
    assert len(csv) == len(pgm) == r + 1  # the header, then one chunk per row
    assert "".join(csv) == grid_csv_scalar(grid)
    assert "".join(pgm) == grid_pgm_scalar(grid)


class TestRunContract:
    def test_determinism_bit_identical(self, tmp_path):
        _, out1 = run_cli(["fig1-isocone"], tmp_path, "a")
        _, out2 = run_cli(["fig1-isocone"], tmp_path, "b")
        for name in ("grid.csv", "grid.pgm", "annotations.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_header_and_statuses(self, tmp_path):
        _, out = run_cli(["fig1-cone"], tmp_path)
        rows = grid_statuses(out)
        assert len(rows) == 64 * 64
        assert {r[2] for r in rows} <= {"BASE", "GREY", "WHITE"}

    def test_nested_grid_refinement(self, tmp_path):
        # The future sets are upward closed, so the fine cell whose
        # lower-left corner is a coarse grey center must stay grey.
        results = {}
        for res, name in ((16, "coarse"), (64, "fine")):
            cfgfile = tmp_path / f"{name}.json"
            cfgfile.write_text(json.dumps({"resolution": res}))
            cfg = cli.load_config(str(cfgfile), "fig1-cone")
            results[name] = grids.fig1_causal_cone(cfg)
        coarse, fine = results["coarse"], results["fine"]
        for i in range(16):
            for j in range(16):
                if coarse.statuses[i, j] != grids.STATUS_GREY:
                    continue
                fi, fj = 4 * i + 2, 4 * j + 2  # up-right of the coarse center
                assert fine.statuses[fi, fj] in (grids.STATUS_GREY, grids.STATUS_BASE)

    def test_manifest_contents(self, tmp_path):
        _, out = run_cli(["fig1-cone"], tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "fig1-cone"
        assert len(manifest["config_sha256"]) == 64
        assert "grid.csv" in manifest["files"]
        assert manifest["tolerances"]["knife_edge"] == 1e-9
        assert any("spectral distance" in note for note in manifest["notes"])

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"resolution": 8}))
        code = cli.main(["fig1-cone", "--config", str(cfgfile),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "resolution" in capsys.readouterr().err

    def test_boundary_base_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "edge.json"
        cfgfile.write_text(json.dumps({"base": {"penrose": [math.pi, 0.0],
                                                "bloch": [1, 0, 0]}}))
        code = cli.main(["fig1-isocone", "--config", str(cfgfile),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "base.penrose" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = cli.main(["fig1-cone", "--out", str(blocker / "sub")])
        assert code == 2

    def test_partial_outputs_block_keeps_other_names(self, tmp_path):
        cfgfile = tmp_path / "outputs.json"
        cfgfile.write_text(json.dumps({"outputs": {"csv": "a.csv"}}))
        code, out = run_cli(["fig1-cone", "--config", str(cfgfile)], tmp_path)
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"a.csv", "grid.pgm", "annotations.json", "manifest.json"}

    def test_partial_base_block_keeps_default_bloch(self, tmp_path):
        cfgfile = tmp_path / "base.json"
        cfgfile.write_text(json.dumps({"base": {"penrose": [0.1, 0.2]}}))
        cfg = cli.load_config(str(cfgfile), "fig1-isocone")
        assert (cfg.base_penrose.mu, cfg.base_penrose.nu) == (0.1, 0.2)
        assert cfg.base_bloch.n.tolist() == [1.0, 0.0, 0.0]
        code, _ = run_cli(["fig1-isocone", "--config", str(cfgfile)], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("user, field", [
        ({"annotate": 5}, "annotate"),
        ({"base": 5}, "base"),
        ({"base": {"bloch": ["a", "b", "c"]}}, "base.bloch"),
        ({"field": {**cli.default_field_fixture(), "derivatives": 5}}, "field"),
        ({"annotate": [[1, 2, 3]]}, "annotate"),
        ({"annotate": [[1.7, 2.2]]}, "annotate"),
        ({"annotate": [[True, 2]]}, "annotate"),
        ({"outputs": {"csv": 5}}, "outputs.csv"),
        ({"outputs": {"csv": "../escape.csv"}}, "outputs.csv"),
        ({"outputs": {"csv": "x.txt", "pgm": "x.txt"}}, "outputs"),
        ({"lex": _lex_fixture(pairs=[[0, 5]])}, "lex"),
        ({"lex": _lex_fixture(pairs=[[-2, 1]])}, "lex"),
        ({"lex": _lex_fixture(dims=(17, 2))}, "lex"),
        ({"saturate_fixtures": [_lex_fixture(pairs=[[0, 5]])]}, "saturate_fixtures"),
        ({"saturate_fixtures": [_lex_fixture(dims=(2, 17))]}, "saturate_fixtures"),
        # json reads NaN and Infinity; these used to run or crash.
        ({"lambda": math.nan}, "lambda"),
        ({"lambda": math.inf}, "lambda"),
        ({"base": {"bloch": [math.nan, 0.0, 0.0]}}, "base.bloch"),
        ({"base": {"bloch": [math.inf, 0.0, 0.0]}}, "base.bloch"),
        ({"dirac": {"d1": math.nan, "d2": 1.0}}, "dirac"),
        ({"dirac": {"d1": 0.0, "d2": -math.inf}}, "dirac"),
        ({"cap": {"axis": [math.nan, 0.0, 1.0], "rho": 0.5}}, "cap"),
        ({"cap": {"axis": [math.inf, 0.0, 1.0], "rho": 0.5}}, "cap"),
        ({"base": {"penrose": [math.nan, 0.0]}}, "base.penrose"),
        ({"base": {"penrose": {"a": 1}}}, "base.penrose"),
        ({"base": {"penrose": [0.0]}}, "base.penrose"),
        ({"lex": {**cli.default_lex_fixture(), "components": [
            {"dim": 2, "cone": {"axis": [0.0, math.nan, 1.0], "rho": 0.5}},
            {"dim": 2, "cone": "full"}]}}, "lex"),
        ({"saturate_fixtures": [{**cli.default_lex_fixture(), "components": [
            {"dim": 2, "cone": {"axis": [0.0, 0.0, math.inf], "rho": 0.5}},
            {"dim": 2, "cone": "full"}]}]}, "saturate_fixtures"),
        ({"field": _field_fixture(u_min=-math.inf)}, "field"),
        ({"field": _field_fixture(v_max=math.nan)}, "field"),
        ({"annotate": [[64, 0]]}, "annotate"),
        ({"outputs": 5}, "outputs"),
        ({"dirac": {"d1": 0.5, "d2": 0.5}}, "dirac"),
        ({"lambda": "x"}, "lambda"),
        ({"field": _field_family("analytic:affine", bump=True)}, "field"),
        ({"field": _field_family("analytic:bogus")}, "field"),
        ({"field": {**cli.default_field_fixture(),
                    "values": cli.default_field_fixture()["values"][:-1]}}, "field"),
        # An empty poset used to end in an internal error (exit 3).
        ({"lex": _lex_fixture(size=0, pairs=(), dims=())}, "lex"),
        ({"saturate_fixtures": [_lex_fixture(size=0, pairs=(), dims=())]}, "saturate_fixtures"),
        # An empty fixture used to run the default fixture; a label outside
        # the three used to mean finite differences.
        ({"lex": {}}, "lex"),
        ({"lex": None}, "lex"),
        ({"saturate_fixtures": []}, "saturate_fixtures"),
        ({"field": {}}, "field"),
        ({"field": _field_family("spline")}, "field"),
        ({"field": _field_family("Finite-Difference")}, "field"),
    ])
    def test_malformed_blocks_are_config_errors(self, user, field, tmp_path, capsys):
        # A fixture is validated by the experiment that reads it; both
        # experiments that need a Dirac gap check the Dirac block.
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(user))
        for experiment in (["fig1-cone", "connes-dist"] if field == "dirac"
                           else [FIXTURE_READER.get(field, "fig1-cone")]):
            code, _ = run_cli([experiment, "--config", str(cfgfile)], tmp_path)
            assert code == 1
            assert capsys.readouterr().err.startswith(f"config error: {field}:")
            assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("user, field", [
        ({"lambda": "0.5"}, "lambda"),
        ({"lambda": True}, "lambda"),
        ({"lambda": 10 ** 400}, "lambda"),
        ({"base": {"penrose": ["0.1", "0.2"]}}, "base.penrose"),
        ({"base": {"penrose": [0.1, 0.2, 0.3]}}, "base.penrose"),
        ({"base": {"bloch": ["1", "0", True]}}, "base.bloch"),
        ({"base": {"bloch": [1.0, 0.0]}}, "base.bloch"),
        ({"dirac": {"d1": "0", "d2": "1"}}, "dirac"),
        ({"dirac": {"d1": 0.0, "d2": True}}, "dirac"),
        ({"cap": {"axis": [0, 0, "1"], "rho": "0.5"}}, "cap"),
        ({"cap": {"axis": [0, 0, 1], "rho": "0.5"}}, "cap"),
        ({"cap": {"axis": [0, 0, 1, 5]}}, "cap"),
        ({"lex": {**cli.default_lex_fixture(), "components": [
            {"dim": 2, "cone": {"axis": [0, 0, "1"], "rho": 0.5}},
            {"dim": 2, "cone": "full"}]}}, "lex"),
        ({"saturate_fixtures": [{**cli.default_lex_fixture(), "components": [
            {"dim": 2, "cone": {"axis": [0, 0, 1], "rho": [0.5]}},
            {"dim": 2, "cone": "full"}]}]}, "saturate_fixtures"),
        ({"field": _field_fixture(u_min="-1")}, "field"),
    ])
    def test_numbers_are_finite_json_numbers_of_the_stated_length(self, user, field, tmp_path,
                                                                 capsys):
        # A string, a boolean or a list of the wrong length is never read as a number.
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(user))
        experiment = FIXTURE_READER.get(field, "fig1-isocone" if field != "dirac" else "fig1-cone")
        code, _ = run_cli([experiment, "--config", str(cfgfile)], tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("node, key, entries, message", [
        (3, "re", ["-1", "0.5", "0.5", "-1"], "finite number, got '-1'"),
        (7, "im", [False, True, -1, 0], "finite number, got False"),
        (5, "re", [0.0, 0.5, 0.5, 0.0, 1.0], "list of 4 numbers"),
        (2, "im", [0.0, 0.0, 0.0, 1e400], "finite number, got inf"),
        (4, "im", [0, 0, 0, 10 ** 400], "finite number"),
    ], ids=["re-strings", "im-booleans", "re-five-entries", "im-infinite", "im-int-beyond-float"])
    def test_field_entries_are_four_json_numbers(self, node, key, entries, message, tmp_path,
                                                  capsys):
        # These loaded at the parent (strings and booleans read by numpy) or
        # failed with numpy's message (a ragged list).
        field = cli.default_field_fixture()
        field["values"][node][key] = entries
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"field": field}))
        code, _ = run_cli(["cone-check", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field: values[{node}].{key} must be a ")
        assert message in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_field_entries_may_be_json_integers(self):
        # The number rule reads ints as floats, so integer entries give the same field.
        field = cli.default_field_fixture()
        for node in field["values"]:
            node["im"] = [0, 0, 0, 0]
        field["values"][0]["re"] = [-1, 0.5, 0.5, -1]
        loaded = [cli.ExperimentConfig("cone-check", {**cli.default_config(), "field": f}).field
                  for f in (field, cli.default_field_fixture())]
        assert np.array_equal(loaded[0].values, loaded[1].values)

    def test_integer_numbers_read_as_floats(self, tmp_path):
        ints = {"lambda": 1, "base": {"penrose": [0, 1], "bloch": [0, 2, 0]},
                "dirac": {"d1": 0, "d2": 2}, "cap": {"axis": [0, 0, 1], "rho": 1}}
        cfgfile = tmp_path / "ints.json"
        cfgfile.write_text(json.dumps(ints))
        cfg = cli.load_config(str(cfgfile), "fig1-isocone")
        floats = (cfg.lam, cfg.base_penrose.mu, cfg.base_penrose.nu, *cfg.base_bloch.n.tolist(),
                  cfg.dirac.d1, cfg.dirac.d2, *cfg.cap.axis.tolist(), cfg.cap.rho)
        assert floats == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0, 1.0)
        assert all(type(x) is float for x in floats)
        assert run_cli(["fig1-isocone", "--config", str(cfgfile)], tmp_path)[0] == 0

    @pytest.mark.parametrize("text", [None, "{seed: 1", "[]"],
                             ids=["missing", "not-json", "list"])
    def test_unusable_config_file_is_a_config_error(self, text, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        if text is not None:
            cfgfile.write_text(text)
        code, _ = run_cli(["fig1-cone", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: config:")
        assert [p.name for p in tmp_path.iterdir()] == ([] if text is None else ["cfg.json"])

    @pytest.mark.parametrize("user, field", [
        ({"resolution": 64.9}, "resolution"),
        ({"samples": True}, "samples"),
        ({"seed": "12"}, "seed"),
        ({"seed": 12.0}, "seed"),
        ({"lex": _lex_fixture(size=2.9)}, "lex"),
        ({"lex": _lex_fixture(dims=(2.6, 2))}, "lex"),
        ({"lex": _lex_fixture(pairs=[[0.7, 1]])}, "lex"),
        ({"saturate_fixtures": [_lex_fixture(pairs=[[0, True]])]}, "saturate_fixtures"),
        ({"field": _field_fixture(n=9.7)}, "field"),
        ({"field": _field_fixture(n="9")}, "field"),
        ({"field": _field_node_dim(2.5)}, "field"),
        ({"field": _field_node_dim("2")}, "field"),
    ], ids=["resolution-float", "samples-bool", "seed-string", "seed-float", "lex-size",
            "lex-dim", "lex-pair", "saturate-pair-bool", "field-n-float", "field-n-string",
            "field-dim-float", "field-dim-string"])
    def test_integer_fields_need_json_integers(self, user, field, tmp_path, capsys):
        # These used to be truncated with int() and run.
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(user))
        code, _ = run_cli([FIXTURE_READER.get(field, "lex-order"), "--config", str(cfgfile)],
                          tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("fixture", [_lex_fixture(size=10**9),
                                         _lex_fixture(dims=(2, 10**9)),
                                         _lex_chain(iso.MAX_POINTS + 1, 1)],
                             ids=["poset-size", "block-dim", "points"])
    @pytest.mark.parametrize("key", ["lex", "saturate_fixtures"])
    def test_lex_sizes_checked_before_allocation(self, fixture, key, tmp_path):
        # Validation only: nothing of the size under test is allocated, and
        # no relation matrix of the points is closed.
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps({key: fixture if key == "lex" else [fixture]}))
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(str(cfgfile), FIXTURE_READER[key])
        assert time.perf_counter() - start < 1.0
        assert info.value.field == key

    def test_unread_fixture_is_not_validated(self, tmp_path, capsys):
        # fig1-cone reads no lex fixture, so a malformed one is no error
        # there; lex-order with the same config still rejects it.
        cfgfile = tmp_path / "lex.json"
        cfgfile.write_text(json.dumps({"lex": _lex_fixture(pairs=[[0, 5]])}))
        code, out = run_cli(["fig1-cone", "--config", str(cfgfile)], tmp_path)
        assert code == 0 and (out / "manifest.json").is_file()
        code, _ = run_cli(["lex-order", "--config", str(cfgfile)], tmp_path, "out2")
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: lex:")
        assert not (tmp_path / "out2").exists()

    def test_lex_point_limit_runs(self, tmp_path):
        # A chain of MAX_POINTS blocks loads and runs lex-order.
        cfgfile = tmp_path / "chain.json"
        cfgfile.write_text(json.dumps({"samples": 40, "lex": _lex_chain(iso.MAX_POINTS, 2)}))
        code, out = run_cli(["lex-order", "--config", str(cfgfile)], tmp_path)
        assert code == 0 and json.loads((out / "report.json").read_text())["passed"]

    def test_internal_error_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("kernel fault")

        monkeypatch.setattr(mink, "causal_row_starts", broken)
        code, out = run_cli(["fig1-cone"], tmp_path)
        assert code == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: kernel fault\n"
        assert not out.exists()
        with pytest.raises(ValueError, match="kernel fault"):
            cli.run(cli.load_config(None, "fig1-cone"), str(out))
        # A constructed saturate member that fails membership is a fault of the library.
        monkeypatch.setattr(iso, "_lex_members", lambda L, mats, *ext: np.zeros(len(mats[0]), bool))
        code, out = run_cli(["saturate"], tmp_path, "out2")
        assert code == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: AssertionError: constructed member failed membership\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, limit", [("resolution", cli.MAX_RESOLUTION),
                                            ("samples", cli.MAX_SAMPLES)])
    def test_size_limits(self, key, limit):
        # Validation only: nothing of the size under test is allocated.
        assert getattr(cli.ExperimentConfig("fig1-cone", {**cli.default_config(),
                                                          key: limit}), key) == limit
        with pytest.raises(cli.ConfigError, match=f"at most {limit}") as info:
            cli.ExperimentConfig("fig1-cone", {**cli.default_config(), key: limit + 1})
        assert info.value.field == key

    def test_limits_admit_scaled_configs(self):
        from nccausal.causal_cone import MAX_FIELD_N
        assert cli.MAX_RESOLUTION >= 1024 and cli.MAX_SAMPLES >= 5000 and MAX_FIELD_N >= 65
        field = cli.default_field_fixture()
        field["grid"]["n"] = 65
        field["values"] = field["values"][:1] * (65 * 65)
        field["derivatives"] = "finite-difference"
        cfg = cli.ExperimentConfig("cone-check", {**cli.default_config(), "field": field})
        assert cfg.field.n == 65

    @pytest.mark.parametrize("n", [10**9, 2, -4])
    def test_field_size_checked_before_allocation(self, n, tmp_path, capsys):
        field = cli.default_field_fixture()
        field["grid"]["n"] = n
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps({"field": field}))
        code, _ = run_cli(["cone-check", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        assert "field: grid.n must lie in 3..257" in capsys.readouterr().err

    def test_one_non_hermitian_field_node_rejected(self, tmp_path, capsys):
        field = cli.default_field_fixture()
        field["values"][4 * 9 + 5]["im"][1] = 1e-6  # node (4, 5); im[2] stays 0
        cfgfile = tmp_path / "skew.json"
        cfgfile.write_text(json.dumps({"field": field}))
        code, _ = run_cli(["cone-check", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: field:") and "(4, 5)" in err

    @pytest.mark.parametrize("fail_at", ["write", "next-file", "replace"])
    def test_failed_write_leaves_no_partial_artifact(self, fail_at, tmp_path, monkeypatch):
        # The second write fails part-way (inside the CSV, which is written
        # in row chunks), the first write of the second file fails part-way
        # (between files), or the third move into place fails after an
        # earlier run left its manifest: every file under a final name is
        # complete and there is no manifest.
        code, ref = run_cli(["fig1-cone"], tmp_path, name="ref")
        assert code == 0
        expected = {p.name: p.read_text() for p in ref.iterdir()}
        out = tmp_path / "out"
        out.mkdir()
        if fail_at == "replace":
            (out / "manifest.json").write_text(expected["manifest.json"])
        calls, opened = [], []
        real_open, real_replace = open, os.replace

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh
                self.index = len(opened)
                opened.append(fh)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                calls.append(text)
                fails = len(calls) == 2 if fail_at == "write" else self.index == 1
                if fails:
                    self.fh.write(text[: len(text) // 2])
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 3:
                raise OSError(5, "Input/output error")
            real_replace(src, dst)

        if fail_at != "replace":
            monkeypatch.setattr(cli, "open", failing_open, raising=False)
        else:
            monkeypatch.setattr(cli.os, "replace", failing_replace)
        assert cli.main(["fig1-cone", "--out", str(out)]) == cli.EXIT_OUTPUT
        monkeypatch.undo()
        if fail_at == "next-file":  # the CSV was written whole before the PGM failed
            assert len(opened) == 2 and "".join(calls[:-1]) == expected["grid.csv"]
        left = {p.name: p for p in out.iterdir()}
        assert "manifest.json" not in left
        assert len(left) == (2 if fail_at == "replace" else 0)
        for name, path in left.items():
            assert path.is_file() and path.read_text() == expected[name]


class TestOtherExperiments:
    def test_connes_dist_csv(self, tmp_path):
        code, out = run_cli(["connes-dist"], tmp_path)
        assert code == 0
        rows = (out / "grid.csv").read_text().strip().splitlines()
        assert rows[0] == "z1,phi1,z2,phi2,distance"
        finite = [r for r in rows[1:] if not r.endswith("inf")]
        infinite = [r for r in rows[1:] if r.endswith("inf")]
        assert finite and infinite

    def test_connes_dist_matches_scalar_loop(self, tmp_path):
        # The batched draws and distances reproduce the per-sample loop
        # byte for byte, off the default seed, sample count and gap, and
        # across a chunk of converted rows.
        assert 1300 > cli.ROW_CHUNK
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 4242, "samples": 1300,
                                       "dirac": {"d1": 0.25, "d2": 1.6}}))
        code, out = run_cli(["connes-dist", "--config", str(cfgfile)], tmp_path)
        assert code == 0
        assert (out / "grid.csv").read_text() == connes_dist_csv(4242, 1300, 0.25, 1.6)

    def test_connes_dist_row_templates_match_str_format(self):
        # _run_connes_dist writes its rows with %-templates; they must give
        # the bytes of the str.format templates they replaced, including at
        # the points where %g and repr switch to exponent notation.
        edges = [1e-4, 1e12, 1e16, 999999999999.5, 9.999999999995e-5, 1e-5, 1e15]
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308]
        for e in edges:
            special += [e, -e, np.nextafter(e, 0.0), np.nextafter(e, math.inf)]
        rng = np.random.default_rng(8)
        spread = (rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-30, 31, 100_000)
                  * rng.choice([-1.0, 1.0], 100_000))
        values = np.concatenate([np.array(special, dtype=float), spread]).tolist()
        rows = list(zip(*[iter(values + values[:-len(values) % 5])] * 5))
        for new, old in (("%.12g", "{:.12g}"), ("%r", "{}")):  # the distance column
            assert [new % v for v in values] == [old.format(v) for v in values]
        # Equal latitude: z is formatted once and written twice through %s.
        shared = [("%.12g" % z, p1, "%.12g" % z, p2, d) for z, p1, _, p2, d in rows]
        assert ["%s,%.12g,%s,%.12g,%.12g" % r for r in shared] == [
            "{0:.12g},{1:.12g},{0:.12g},{2:.12g},{3:.12g}".format(z, p1, p2, d)
            for z, p1, _, p2, d in rows]
        assert ["%.12g,%.12g,%.12g,%.12g,%r" % r for r in rows] == [
            "{:.12g},{:.12g},{:.12g},{:.12g},{}".format(*r) for r in rows]

    def test_cone_check_report(self, tmp_path):
        code, out = run_cli(["cone-check"], tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["in_cone"] is True and report["first_failure"] is None

    def test_cone_check_rejects_mislabelled_family(self, tmp_path, capsys):
        # Negated samples no longer follow the analytic family claimed
        # by the derivatives label; the config must be refused.
        fixture = cli.default_field_fixture()
        for cell in fixture["values"]:
            cell["re"] = [-x for x in cell["re"]]
            cell["im"] = [-x for x in cell["im"]]
        cfgfile = tmp_path / "bad_field.json"
        cfgfile.write_text(json.dumps({"field": fixture}))
        code, _ = run_cli(["cone-check", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        assert "field" in capsys.readouterr().err

    def test_cone_check_flags_bad_field(self, tmp_path):
        fixture = cli.default_field_fixture()
        for cell in fixture["values"]:
            cell["re"] = [-x for x in cell["re"]]
            cell["im"] = [-x for x in cell["im"]]
        fixture["derivatives"] = "finite-difference"
        cfgfile = tmp_path / "bad_field.json"
        cfgfile.write_text(json.dumps({"field": fixture}))
        code, out = run_cli(["cone-check", "--config", str(cfgfile)], tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["in_cone"] is False and report["first_failure"] is not None

    def test_lex_order_report(self, tmp_path):
        code, out = run_cli(["lex-order"], tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert code == 0 and report["passed"]

    def test_lex_order_reports_a_failing_witness(self, tmp_path, monkeypatch):
        # A cap direction that does not minimize x . w gives witnesses
        # that fail; every one of them must reach the report.
        monkeypatch.setattr(iso, "min_cap_dot",
                            lambda cone, w: (w / np.linalg.norm(w), float(np.linalg.norm(w))))
        code, out = run_cli(["lex-order"], tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert code == 0 and report["witness_failures"] and not report["passed"]

    def test_lambda_order_outputs(self, tmp_path):
        code, out = run_cli(["lambda-order"], tmp_path)
        assert code == 0
        assert (out / "grid.csv").exists() and (out / "grid.pgm").exists()

    def test_saturate_report_wording(self, tmp_path):
        code, out = run_cli(["saturate"], tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"] == "no counterexample found"
        assert "saturated" not in json.dumps(report)


def test_config_hash_changes_with_content(tmp_path):
    cfg1 = cli.load_config(None, "fig1-cone")
    cfgfile = tmp_path / "alt.json"
    cfgfile.write_text(json.dumps({"lambda": 0.75}))
    cfg2 = cli.load_config(str(cfgfile), "fig1-cone")
    assert cfg1.config_hash() != cfg2.config_hash()


@pytest.mark.parametrize("field_n", [None, 33])
def test_config_hash_matches_canonical_dump(field_n, tmp_path):
    # config_hash skips json's cycle check; the JSON text, and so the hash,
    # must be the canonical dump's, on the default config and on a config
    # with a 33x33 matrix field read from a file.
    experiment, path = "fig1-cone", None
    if field_n is not None:
        field = _field_fixture(n=field_n)
        field["values"] = field["values"][:1] * (field_n * field_n)
        field["derivatives"] = "finite-difference"
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"field": field}))
        experiment, path = "cone-check", str(path)
    cfg = cli.load_config(path, experiment)
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(canon.encode()).hexdigest()


# The package modules after ``load_config``, then after ``run``, in a fresh interpreter.
_MODULES_SCRIPT = """
import json, sys
from nccausal import cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("nccausal"))
cfg = cli.load_config(None, sys.argv[1])
after_load = loaded()
assert cli.run(cfg, sys.argv[2]) == 0
print(json.dumps([after_load, loaded()]))
"""


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_experiment_imports(experiment, tmp_path):
    # isocone, causal_cone and grids are loaded only by the experiments that
    # use them, and with the config: a run imports nothing that set-up did not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, experiment, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    after_load, after_run = json.loads(done.stdout)
    assert ("nccausal.isocone" in after_load) == (experiment in ("lex-order", "saturate"))
    assert ("nccausal.causal_cone" in after_load) == (experiment == "cone-check")
    assert ("nccausal.grids" in after_load) == (
        experiment in ("fig1-cone", "fig1-isocone", "lambda-order"))
    assert after_run == after_load


def test_no_dataclasses():
    # Records are plain classes: a dataclass runs generated source on every import.
    package = Path(__file__).parent.parent / "src" / "nccausal"
    modules = [importlib.import_module(f"nccausal.{p.stem}") for p in package.glob("*.py")
               if p.stem != "__init__"]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    assert len(classes) > 20
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []
