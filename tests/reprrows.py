"""Test-only check of the text that every output file's data rows hold."""

from __future__ import annotations


def rows_are_repr(path, header_lines: int, rows: int) -> bool:
    """Whether the file at path holds rows data rows, each the text ``repr`` gives the values read back from it.

    Comment lines (``#``) are skipped wherever they stand, then the first
    header_lines lines: 3 for an image's header, 1 for a CSV's column names.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")][header_lines:]
    return len(lines) == rows and all(line == ",".join(map(repr, map(float, line.split(",")))) for line in lines)
