"""Tests for the shared formatting, atomic-write, and seed helpers."""

import os
import struct

import numpy as np
import pytest

from ldsmix.util import atomic_write_text, derive_seed, fmt, parse_floats, parse_header, parse_weight


def test_fmt_round_trips_float64():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=200) * np.exp(rng.uniform(-30, 30, size=200)))
    values += [0.0, -0.0, 1.0, 1e-308, 1.7976931348623157e308, 1 / 3]
    for v in values:
        back = float(fmt(v))
        assert struct.pack("<d", back) == struct.pack("<d", float(v))


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    # no temp droppings left behind
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_missing_directory(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "no" / "dir" / "x.txt", "data")


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(3, 5, 7) == derive_seed(3, 5, 7)
    seen = {derive_seed(a, b) for a in range(8) for b in range(8)}
    assert len(seen) == 64


def test_derive_seed_trailing_zero_not_aliased():
    # SeedSequence ignores trailing zeros in its entropy tuple; the helper
    # offsets every part so (s,) and (s, 0) stay distinct streams
    assert derive_seed(4) != derive_seed(4, 0)
    assert derive_seed(0) != derive_seed(1)


def test_parse_header_round_trip():
    got = parse_header("demo v1, K=2, L=7, m=1", "demo", ("K", "L", "m"))
    assert got == {"K": 2, "L": 7, "m": 1}


def test_parse_header_rejections():
    with pytest.raises(ValueError, match="line 1"):
        parse_header("other v1, K=2", "demo", ("K",))
    with pytest.raises(ValueError, match="integer"):
        parse_header("demo v1, K=two", "demo", ("K",))
    with pytest.raises(ValueError, match="exactly"):
        parse_header("demo v1, K=2", "demo", ("K", "L"))
    with pytest.raises(ValueError, match="malformed"):
        parse_header("demo v1, K", "demo", ("K",))


def test_parse_rows_name_the_line():
    assert parse_weight("weight 0.25", 2) == 0.25
    assert np.array_equal(parse_floats("1 -2.5", 2, 3), [1.0, -2.5])
    cases = [
        (lambda: parse_weight("weigh 0.25", 2), "line 2: expected 'weight <p>', got 'weigh 0.25'"),
        (lambda: parse_weight("weight x", 4), "line 4: malformed weight 'x'"),
        (lambda: parse_floats("1 2 3", 2, 5), "line 5: expected 2 numbers, got 3"),
        (lambda: parse_floats("1 two", 2, 6), "line 6: malformed float in '1 two'"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
