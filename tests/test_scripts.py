"""Every script in ``scripts/`` loads against the library.

A script reaches into skd by name, so a rename breaks it only when someone
next runs it. Loading each script under a name other than ``__main__`` runs
its imports and definitions but not its main block.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path):
    assert runpy.run_path(str(path), run_name="not_main")["__name__"] == "not_main"
