"""How cvpose reads and writes its files.

Text files are UTF-8 whatever the locale, with "\n" line ends. Every file
cvpose writes goes through atomic_write, so a failed or interrupted write
leaves the previous file, if any, as it was.

Evaluation reports and study rows are written through json_text, which
writes a non-finite number (a mean over no samples is NaN) as null.

Most inputs are line-oriented JSON: a schema header line, then one record
per line. Blank lines are ignored everywhere; line numbers in errors are
1-based and count every physical line.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

from .errors import SchemaError


@contextmanager
def atomic_write(path, binary=False):
    """Open `path` for writing, all or nothing: a file handle, text (UTF-8,
    "\n" newlines) or, given binary=True, bytes.

    The bytes go to `<path>.tmp`, which on a clean exit is flushed, synced
    and renamed over `path`; the directory is then synced so that the
    rename itself survives a crash. If anything raises before the rename,
    the temporary file is removed and the exception propagates, leaving any
    previous file at `path` untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(tmp)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _null_non_finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return obj


def json_text(obj, **kwargs):
    """json.dumps(obj, **kwargs) with each non-finite float written as null:
    NaN and the infinities are not JSON (RFC 8259)."""
    return json.dumps(_null_non_finite(obj), allow_nan=False, **kwargs)


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


def is_finite_number(x):
    """Whether x, a value json.loads made, is a number that float64 holds:
    an int or a float, not a bool, neither NaN nor an infinity, and not an
    int past float64's range."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def refuse_unknown_keys(lineno, obj, known):
    """Raise SchemaError naming the line and the first, in sorted order,
    of the JSON object obj's keys that is not in known."""
    unknown = obj.keys() - known
    if unknown:
        raise SchemaError(f"line {lineno}: unknown key {min(unknown)!r}",
                          line=lineno)


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
