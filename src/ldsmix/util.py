"""Small shared helpers: float formatting, atomic writes, seed derivation, text parsing."""

from __future__ import annotations

import os
import tempfile

import numpy as np


FLOAT_FORMAT = "%.17g"


def fmt(x) -> str:
    """Decimal text with enough digits to round-trip a float64 exactly."""
    return FLOAT_FORMAT % float(x)


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


def parse_floats(line: str, count: int, lineno: int) -> np.ndarray:
    """Parse a row of exactly count whitespace-separated floats; errors name the 1-based line number."""
    toks = line.split()
    if len(toks) != count:
        raise ValueError(f"line {lineno}: expected {count} numbers, got {len(toks)}")
    try:
        return np.array([float(t) for t in toks])
    except ValueError:
        raise ValueError(f"line {lineno}: malformed float in {line!r}") from None
