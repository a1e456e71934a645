"""The key=value line syntax shared by config, zone and scene files.

A key may appear on one line only, so that no line is silently overridden
by a later one, except for keys a format lets repeat (a scene's `blob=`).
A setting's type, range and default belong to the record it sets; `checked`
turns that record into the setting's converter.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Mapping


def read_settings(
    text: str,
    convert: Mapping[str, Callable[[str], Any]],
    repeat: Collection[str] = (),
    error: type[ValueError] = ValueError,
) -> dict[str, Any]:
    """{key: converted value} of a settings file's text, a list of values
    for a key in `repeat`.

    A line is blank once its `#` comment is cut, or `key=value`. Keys are
    case-insensitive and `-` in a key is `_`; the value, stripped, goes
    through the key's converter in `convert`. A line without `=`, an
    unknown key, a key not in `repeat` on a second line and a converter's
    ValueError raise `error` with a message that starts `line N:`.
    """
    settings: dict[str, Any] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not sep:
            raise error(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in convert:
            raise error(f"line {lineno}: unknown key {key!r}")
        earlier = first_line.setdefault(key, lineno)
        if earlier != lineno and key not in repeat:
            raise error(f"line {lineno}: {key} repeats line {earlier}")
        try:
            value = convert[key](value.strip())
        except ValueError as exc:
            raise error(f"line {lineno}: bad value for {key}: {exc}") from None
        if key in repeat:
            settings.setdefault(key, []).append(value)
        else:
            settings[key] = value
    return settings


def checked(
    convert: Callable[[str], Any],
    record: Callable[..., Any],
    field: str,
    error: type[ValueError] = ValueError,
) -> Callable[[str], Any]:
    """Converter that converts the text and then builds `record` with the
    value as `field` alone, so that the record's own check rejects a value
    out of range where it is written; the record's ValueError is raised as
    `error`."""

    def parse(text: str) -> Any:
        value = convert(text)
        try:
            record(**{field: value})
        except ValueError as exc:
            raise error(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse
