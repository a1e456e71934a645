"""The key=value line syntax shared by config, zone and scene files."""

from __future__ import annotations

from typing import Iterator


def key_value_lines(text: str) -> Iterator[tuple[int, str, str, str | None]]:
    """(line number, raw line, key, value) for each line not blank once its
    `#` comment is cut: key stripped and lower-cased, value stripped, or None
    on a line without `=`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, value = line.partition("=")
            yield lineno, raw, key.strip().lower(), value.strip() if sep else None
