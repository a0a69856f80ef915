"""Fits, simulations and CLI outputs match the committed golden files exactly.

The files and how to regenerate them are described in tests/golden/regen.py.
A mismatch in the simulation rows under another numpy version than the one
recorded on a file's first line may be numpy's random streams, not rankfit.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = load_regen()


@pytest.mark.parametrize("name, make", [("fits.tsv", regen.fits_text),
                                        ("simulation.json", regen.simulation_text),
                                        ("cli.txt", regen.cli_text)])
def test_golden_output_is_unchanged(name, make):
    path = GOLDEN / name
    recorded = path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n"
    text = make()
    changes = regen.report(name, regen.body(path), text)
    assert text == regen.body(path), (
        f"{name} differs (written with {recorded.strip()}, running {regen.version_line().strip()}):\n"
        + "\n".join(changes))
