"""Line-oriented JSON files: a schema header line, then one record per line.

Blank lines are ignored everywhere; line numbers in errors are 1-based and
count every physical line.
"""

from __future__ import annotations

import json

from .errors import SchemaError


def _nonblank_lines(path):
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.strip():
                yield lineno, text


def _parse(lineno, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {lineno}: invalid JSON ({exc.msg})", line=lineno)


def read_records(path, schema, what):
    """Check a file's header and return (header line, header, records).

    The header must be a JSON object whose "schema" field equals `schema`;
    `what` names the file kind in the error for an empty file. records
    yields (line number, parsed record) pairs lazily, so a large file is
    never held in memory whole; invalid JSON raises SchemaError when the
    offending line is reached.
    """
    lines = _nonblank_lines(path)
    first = next(lines, None)
    if first is None:
        raise SchemaError(f"empty {what} file", line=1)
    lineno, text = first
    header = _parse(lineno, text)
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise SchemaError(f"line {lineno}: expected schema header {schema!r}",
                          line=lineno)
    return lineno, header, ((n, _parse(n, t)) for n, t in lines)
