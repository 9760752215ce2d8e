"""End-to-end pins on the spin^c labels of two blown-up graphs with non-cyclic H.

The labels of `--all-spinc` are coordinates against the invariant factors,
read off the Smith transform U.  A change to the Smith normal form that keeps
D but changes U keeps every invariant and moves the labels, so the meridian
images and the whole JSON output are pinned here.  The graphs are a D6 star
blown up to 36 vertices (H = Z2 + Z2) and the polygonal star (3,3,3,3) blown
up to 64 vertices (H = Z3 + Z3 + Z6), each by seeded vertex and edge blowups.
"""

import json
from pathlib import Path

import pytest

from swplumb.cli import main
from swplumb.homology import homology_from_lattice
from swplumb.plumbing import PlumbingGraph, build_lattice

PINS = json.loads((Path(__file__).parent / "data" / "spinc_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS, ids=[p["name"] for p in PINS])
def test_generator_images(pin):
    group = homology_from_lattice(build_lattice(PlumbingGraph.from_dict(pin["graph"])))
    assert list(group.invariant_factors) == pin["invariant_factors"]
    assert [list(x) for x in group.generator_images] == pin["generator_images"]


@pytest.mark.parametrize("pin", PINS, ids=[p["name"] for p in PINS])
def test_all_spinc_json_output(pin, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(pin["graph"]))
    code = main(["graph", str(path), "--all-spinc", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, pin["stdout"], "")
