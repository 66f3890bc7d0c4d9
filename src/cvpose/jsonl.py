"""Line-oriented JSON files: a schema header line, then one record per line.

Files are UTF-8. Blank lines are ignored everywhere; line numbers in errors
are 1-based and count every physical line.
"""

from __future__ import annotations

import json

from .errors import SchemaError


def nonblank_lines(path):
    """(line number, text) of each non-blank line of a text file, decoded as
    UTF-8 whatever the locale; a line that is not UTF-8 raises SchemaError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"line {lineno}: not UTF-8 ({exc.reason})",
                                  line=lineno)
            if text.strip():
                yield lineno, text


def _parse(lineno, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {lineno}: invalid JSON ({exc.msg})", line=lineno)


def _record(lineno, text):
    rec = _parse(lineno, text)
    if not isinstance(rec, dict):
        raise SchemaError(f"line {lineno}: a record must be a JSON object, "
                          f"got {type(rec).__name__}", line=lineno)
    return rec


def read_records(path, schema, what):
    """Check a file's header and return (header line, header, records).

    The header must be a JSON object whose "schema" field equals `schema`;
    `what` names the file kind in the error for an empty file. records
    yields (line number, parsed record) pairs lazily, so a large file is
    never held in memory whole; invalid JSON, or a record that is not a
    JSON object, raises SchemaError when the offending line is reached.
    """
    lines = nonblank_lines(path)
    first = next(lines, None)
    if first is None:
        raise SchemaError(f"empty {what} file", line=1)
    lineno, text = first
    header = _parse(lineno, text)
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise SchemaError(f"line {lineno}: expected schema header {schema!r}",
                          line=lineno)
    return lineno, header, ((n, _record(n, t)) for n, t in lines)
