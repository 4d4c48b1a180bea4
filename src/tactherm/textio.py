"""Deterministic text serialization helpers.

All artifacts are plain text written through these functions so that repeated
runs with identical inputs produce byte-identical files: floats use repr of
the Python float (shortest round-trip form), rows end with a single newline,
and writes go through a temp file + rename.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def fmt(value) -> str:
    """Canonical text form: round-trip repr for floats, str otherwise."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    """Write text to `path` via a uniquely named sibling temp file and atomic
    rename; the temp file is removed if the write fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x")  # exclusive create: never reuses another writer's file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header: list[str], rows) -> str:
    """CSV text with canonical float formatting and a trailing newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    """Write csv_text(header, rows) to path."""
    atomic_write_text(path, csv_text(header, rows))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by write_csv; returns (header, raw string rows)."""
    lines = Path(path).read_text().strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows
