"""How rankfit turns values into text, and reads the files it is given.

Every table, JSON document and input file goes through this module, so
the number formats, the TSV layout and the strict-JSON rule are decided
once.
"""

from __future__ import annotations

import json
from pathlib import Path


def number(x: float) -> str:
    """Integral values without a trailing ".0"; anything else as repr.

    repr round-trips exactly through float().
    """
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def cell(x) -> str:
    """One table cell: None is "NA", a float its repr, anything else str."""
    if x is None:
        return "NA"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def tsv(header, rows) -> str:
    """Tab-separated table: the header line, then one line per row of cells."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """Strict JSON, two-space indent, trailing newline.

    NaN and the infinities raise ValueError instead of becoming the
    non-standard tokens NaN and Infinity.
    """
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line ends, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path) -> str:
    """Contents of a UTF-8 input file.

    Raises OSError or ValueError with a one-line message naming the path.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def json_object(obj, required, optional, name: str) -> dict:
    """obj, if it is a JSON object with every required key and no key outside
    required and optional (any key, if optional is None); otherwise ValueError
    naming its JSON type, the first missing key or the first unknown key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, not "
                         f"{_JSON_TYPES.get(type(obj), type(obj).__name__)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"missing {name} key {missing[0]!r}")
    unknown = [key for key in obj if optional is not None and key not in {*required, *optional}]
    if unknown:
        raise ValueError(f"unknown {name} key {unknown[0]!r}")
    return obj


def read_json_object(path) -> dict:
    """The JSON object an input file holds; anything else raises ValueError."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    return json_object(obj, (), None, str(path))


# what json.loads returns for each JSON value other than an object, named in JSON terms
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               str: "a string", list: "an array"}
