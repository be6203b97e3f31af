"""Frozen SHA-256 digests of every artifact of the CLI experiments.

``test_determinism_bit_identical`` compares two runs of the same code,
so it cannot notice a refactor that changes the output.  These digests
pin the output itself: every case runs one experiment through
``cli.main`` and hashes each file it writes.  A change that alters a
digest must say why in CHANGES.md and list the changed cells or lines;
a digest is never re-frozen to hide a defect.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from nccausal import cli

# A 16 < 16 chain of full blocks: same-block pairs need witnesses whose
# membership compares two 16x16 spectra, so the d > 2 kernel decides.
CHAIN16 = {"poset": {"size": 2, "pairs": [[0, 1]]},
           "components": [{"dim": 16, "cone": "full"}] * 2}

# A 64-point chain of alternating cap and full 2x2 blocks (``MAX_POINTS``).
# At 2000 samples saturate tests 200 elements on 2000 state pairs in 824
# block-pair parts: a wide poset for the element chunks of ``_isotone_on_pairs``.
CHAIN64 = {"poset": {"size": 64, "pairs": [[k, k + 1] for k in range(63)]},
           "components": [{"dim": 2, "cone": ({"axis": [0.0, 0.0, 1.0], "rho": math.pi / 4}
                                              if k % 2 == 0 else "full")} for k in range(64)]}

CASES = {
    **{name: (name, None) for name in cli.EXPERIMENTS},
    "fig1-cone-r256": ("fig1-cone", {"resolution": 256}),
    "fig1-isocone-r256": ("fig1-isocone", {"resolution": 256}),
    # Large grids, frozen before the writers went from cells to runs of
    # equal status; the second off the default mass and base point.
    "fig1-cone-r1024": ("fig1-cone", {"resolution": 1024}),
    "lambda-order-r1024": ("lambda-order", {"resolution": 1024, "lambda": 1.25,
                                            "base": {"penrose": [0.7, -1.1]}}),
    "lex-order-chain16": ("lex-order", {"samples": 40, "lex": CHAIN16}),
    "saturate-chain64": ("saturate", {"samples": 2000, "saturate_fixtures": [CHAIN64]}),
}

GOLDEN = {
    "cone-check": {
        "manifest.json": "0a725ec549ba17bf7af76ee5d6322c9a628c639fa15ae25a6706fe479ca89a34",
        "report.json": "1df70d91019c3d7bef6d72f2d9b9ea492b8a4d592436df2c0a503e35c26ce93d",
    },
    "connes-dist": {
        "grid.csv": "f6e83a217a30d5ba1f8378e06a5a6965fc73cf7cd05adcef6423e4db473ca185",
        "manifest.json": "9e3e7c24db9fdc7a929fabc5d5b96622d758fd11100c4da0fe9170160030011c",
    },
    "fig1-cone": {
        "annotations.json": "6545ac91b52f8bb29e281fad2e9f4f70c3a4733846b1b8c4d3a272cf00be98ab",
        "grid.csv": "b972783f0ce61416f9fc9d57e03a887f2bd071507497dd7e7cf134f89be4b0a2",
        "grid.pgm": "ac73e9063fedeff187b6fce20e012d73815fa7b301f7bb142478f0e586ab05fc",
        "manifest.json": "20b925c52a4cf9568030fdaa5e75520c9752289e17b0c5ea226efbd869e90595",
    },
    "fig1-cone-r256": {
        "annotations.json": "d6f89eba9a706efbb749f3b86e7368e7735fc7a03bb1462455b968671a7bbd5c",
        "grid.csv": "4621c79534df3070af1b189a10f18338d05c5c5fcf30808a30794048cfcd7325",
        "grid.pgm": "db4b40a403aad14441756de9b9ac9d721cd7fbcb93248922317ac3ca6f4f977f",
        "manifest.json": "6b9f9ff4c2efc59ce0a8242c239af403c76694890e5f931b2fc4e1e458e69338",
    },
    "fig1-cone-r1024": {
        "annotations.json": "f51dc46621228dcef76a5ce6a9f742ed9b14d26197207faacd4f30a3c9007a05",
        "grid.csv": "58026b7eb3e071507d49f0db597a61028055b34e1059a45e267bd2f2e5571b25",
        "grid.pgm": "681e4ede188516061f13bfc49ff6e9e2ea2c48a0413c2e1620c36e077e617ef9",
        "manifest.json": "0007c0f12d7f37f2ef4f319f815c3d3a0a6ff1f57078066c3bc5c35b119b4445",
    },
    "fig1-isocone": {
        "annotations.json": "c7ac110c8bd2830c9ec64d6733886c2205261a9a75a78cd5e2fb0e470b87f398",
        "grid.csv": "a7637da0c4f7bcce6539a10450e17bb809910d82f689ef58e5f136a5cc93c34b",
        "grid.pgm": "17a4dba27f2abf449be5139a75b7c79e0021d5d11e59cf1d7fb5074bd93c9f6f",
        "manifest.json": "5f95f6b78b9d8b76a0b90ffe37ad70e161ce6134e6ed1fbbb0f89eab2ceacf8a",
    },
    "fig1-isocone-r256": {
        "annotations.json": "d05c55c5703bf770559e5c1040d089fb6c871ee807713d8ffa223a23e4845c4b",
        "grid.csv": "cff1dd1c73ba76032bd84d77d9e5c89c35707087932dea7c761ea16755b7348b",
        "grid.pgm": "87b0984c3bda9a89b9a66f79a42537f82fdff1ea2982d332d39aaa435cc4c3bc",
        "manifest.json": "a5a1e830ac728c670cefd127d26310b2380275fb4ffbb605ca60681cfd8a7e2b",
    },
    "lambda-order": {
        "grid.csv": "a7637da0c4f7bcce6539a10450e17bb809910d82f689ef58e5f136a5cc93c34b",
        "grid.pgm": "17a4dba27f2abf449be5139a75b7c79e0021d5d11e59cf1d7fb5074bd93c9f6f",
        "manifest.json": "41b7998de6652aebd17935ea933ed7a69547b3d318df7a49e0fc8047c6fd3e55",
    },
    "lambda-order-r1024": {
        "grid.csv": "58d54785a00c662b23a7c7f7f108589d8ff9b52add044198c46483ac1735cd97",
        "grid.pgm": "e6ef2be7973c061cbe5c1a92009ec41cb77d978ba4e9834b6fb6c326a2f6af38",
        "manifest.json": "05186d430e87cc0ed90ff269eec853851a8c6810d4d7fd1494c2419c589c7b10",
    },
    "lex-order": {
        "manifest.json": "f9615e63070476c7ca329c46a7cc0843995b3920dd3686e75bc6c572dc3e6020",
        "report.json": "fa6ad1336f969e00b14e897dd05069f1193680f8e3b25d2200ab928ca76f5976",
    },
    "lex-order-chain16": {
        "manifest.json": "01dc531eabf2dfc318b2d78143f57ca6bd70ef009c7df92ed97c50bfe5ca6b4a",
        "report.json": "d09f46a8cd03d7012a94766912caf839a5650be7f7536de4409a75ddb19b9de3",
    },
    "saturate-chain64": {
        "manifest.json": "9d502939c8b2e8a1fb83bed7ec52cc20faf59e9c1809aa851ea9a82d3503a3b2",
        "report.json": "38156e9e54348fb02bea6d069608e8e42f0be8243d81cc9a6536fb82cc5179c9",
    },
    "saturate": {
        "manifest.json": "095e6e40144c28931e467162a5cde0635d9d69d9aa39e213138ee3798c5f6772",
        "report.json": "ca55b2928f09071496d23e20731e4c96b4951abbd2f5b4ff36cf15bf168b7a30",
    },
}


def artifact_digests(case: str, tmp_path) -> dict[str, str]:
    """Run one case and return {file name: SHA-256 hex digest}."""
    experiment, config = CASES[case]
    args = [experiment, "--out", str(tmp_path / "out")]
    if config is not None:
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps(config))
        args += ["--config", str(cfgfile)]
    assert cli.main(args) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_frozen_digests(case, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    assert artifact_digests(case, tmp_path) == GOLDEN[case]
