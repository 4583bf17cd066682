"""Small shared helpers: float formatting, atomic writes, seed derivation, text parsing.

The mlds-* text files share one row codec: format_rows writes an array one row
per line, parse_rows reads such lines back, read_text opens a file and checks its header.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


FLOAT_FORMAT = "%.17g"


def fmt(x) -> str:
    """Decimal text with enough digits to round-trip a float64 exactly."""
    return FLOAT_FORMAT % float(x)


def format_rows(a) -> str:
    """One line per row of a 1-d or 2-d array, each value as fmt writes it; no trailing newline."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None]
    # one '%' fills a template of the whole block: the same text as fmt per value
    row = " ".join([FLOAT_FORMAT] * a.shape[1])
    return "\n".join([row] * a.shape[0]) % tuple(a.ravel().tolist())


def atomic_write_text(path, text: str) -> None:
    """Write to a temp file in the target directory, then rename over the target."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from an integer path.

    Every part is offset by one because SeedSequence ignores trailing zeros in
    its entropy tuple, which would alias (s,) with (s, 0).
    """
    key = tuple(int(p) + 1 for p in parts)
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def parse_header(line: str, tag: str, keys: tuple[str, ...]) -> dict[str, int]:
    """Parse a 'tag v1, k1=v1, k2=v2' header line with integer fields."""
    parts = [p.strip() for p in line.split(",")]
    if parts[0] != f"{tag} v1":
        raise ValueError(f"line 1: expected a '{tag} v1' header, got {line!r}")
    fields: dict[str, int] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"line 1: malformed header field {part!r}, expected key=value")
        key, val = part.split("=", 1)
        try:
            fields[key] = int(val)
        except ValueError:
            raise ValueError(f"line 1: header field {key!r} must be an integer, got {val!r}") from None
    if set(fields) != set(keys):
        raise ValueError(f"line 1: header must carry exactly the fields {', '.join(keys)}")
    return fields


def parse_weight(line: str, lineno: int) -> float:
    """Parse a 'weight <p>' line; errors name the 1-based line number."""
    toks = line.split()
    if len(toks) != 2 or toks[0] != "weight":
        raise ValueError(f"line {lineno}: expected 'weight <p>', got {line!r}")
    try:
        return float(toks[1])
    except ValueError:
        raise ValueError(f"line {lineno}: malformed weight {toks[1]!r}") from None


def parse_rows(lines, count: int, lineno: int) -> np.ndarray:
    """Parse lines of exactly count whitespace-separated floats into a (len(lines), count) array.

    lines[0] is 1-based file line lineno; errors name the line of the first bad row.
    """
    out = np.empty((len(lines), count))
    for j, line in enumerate(lines):
        toks = line.split()
        if len(toks) != count:
            raise ValueError(f"line {lineno + j}: expected {count} numbers, got {len(toks)}")
        try:
            out[j] = [float(t) for t in toks]
        except ValueError:
            raise ValueError(f"line {lineno + j}: malformed float in {line!r}") from None
    return out


def read_text(path, tag: str, keys: tuple[str, ...], flags: tuple[str, ...] = ()):
    """Read a 'tag v1, k1=v1, ...' text file; returns (lines, header values in keys order).

    Header values must be >= 1, except those named in flags, which must be 0 or 1.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    head = parse_header(lines[0], tag, keys)
    if any(head[k] not in (0, 1) if k in flags else head[k] < 1 for k in keys):
        raise ValueError("line 1: header values out of range")
    return lines, tuple(head[k] for k in keys)
