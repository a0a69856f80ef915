"""Shared test set-up.

`cli_env` is the environment for every `python -m rankfit.cli` child the
suite starts. Those children run with `cwd=tmp_path`, where a relative
`PYTHONPATH=src` resolves to nothing, so the checkout's `src` goes first
on their `PYTHONPATH` as an absolute path. The children then import the
same rankfit source as the test process, even where another copy is
installed.

When an @given test fails, Hypothesis's pytest plugin imports
`hypothesis.extra._patching`, whose libcst import chain raises a
DeprecationWarning from mypy_extensions. Under `filterwarnings = error`
that warning aborts the whole run with INTERNALERROR, so the module is
imported once here with DeprecationWarning ignored for that import only.
Warnings from rankfit itself still fail the suite.
"""

import os
import warnings
from pathlib import Path

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips its patch step as well
        pass

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict:
    """Copy of os.environ with the absolute `src` first on PYTHONPATH.

    Entries already on PYTHONPATH are kept after it; an unset or empty
    PYTHONPATH gives just `src`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
