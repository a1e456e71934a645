"""The key=value line syntax shared by config, zone and scene files.

A key may appear on one line only, so that no line is silently overridden
by a later one: every reader rejects a line whose `earlier` line number is
not None, except for keys its format lets repeat (a scene's `blob=`).
"""

from __future__ import annotations

from typing import Callable, Iterator


def key_value_lines(
    text: str, fold: Callable[[str], str] | None = None
) -> Iterator[tuple[int, str, str, str | None, int | None]]:
    """(line number, raw line, key, value, earlier) for each line not blank
    once its `#` comment is cut: key stripped, lower-cased and passed through
    `fold` if given, value stripped, or None on a line without `=`, and the
    number of the first line with the same key, or None on that line."""
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, value = line.partition("=")
            key = key.strip().lower()
            if fold is not None:
                key = fold(key)
            earlier = first_line.setdefault(key, lineno)
            yield (lineno, raw, key, value.strip() if sep else None,
                   None if earlier == lineno else earlier)
