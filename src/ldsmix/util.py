"""Small shared helpers: float formatting, atomic writes, seed derivation and child streams, text parsing.

The mlds-* text files share one row codec: format_rows writes an array one row
per line, parse_rows reads such lines back, read_text opens a file and checks its header.
"""

from __future__ import annotations

import os
import stat
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
    """Write to a temp file in the target directory, then rename over the target.

    The file gets the mode open(path, "w") leaves: a rewritten file keeps its
    mode, a new one gets 0666 less the umask.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)  # mkstemp made it 0600
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


# SeedSequence's hash constants and pool size, and PCG64's 128-bit LCG multiplier (numpy.random)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(init, mult, n) -> np.ndarray:
    # the n + 1 multipliers init * mult**k mod 2**32 that successive hashes use, as a column
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_words(prefix, count) -> np.ndarray:
    # generate_state(4, uint64) of SeedSequence(prefix + (key,)) for the keys 1..count,
    # as a (count, 4) uint64 array. Row w of entropy is entropy word w of every
    # key. Each step below hashes several words at once with the constants that
    # SeedSequence's one-word-at-a-time loop would use; no word hashed in a step is changed
    # by that step, so the order within a step does not matter.
    words = []
    for part in prefix:
        part = int(part)
        while True:
            words.append(part & _MASK32)
            part >>= 32
            if not part:
                break
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(1, count + 1, dtype=np.uint32)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    used = 0

    def hashmix(values, n):
        # n successive hashes; values broadcasts against an (n, 1) column
        nonlocal used
        values = (values ^ consts[used:used + n]) * consts[used + 1:used + n + 1]
        used += n
        return values ^ (values >> 16)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> 16)

    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, len(entropy)):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))
    consts = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:8]) * consts[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    # the uint64 words are little-endian pairs of the uint32 words
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _pcg64_state(s_hi, s_lo, q_hi, q_lo) -> dict:
    # PCG64's srandom(initstate, initseq) from generate_state(4, uint64) = (s_hi, s_lo, q_hi, q_lo)
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
    return {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}


def child_generators(prefix, count: int):
    """Yield one reused Generator count times, the i-th time in the state default_rng(SeedSequence(prefix + (i + 1,))) starts from.

    SeedSequence's hash runs on uint32 arrays for all count keys at once, and
    each result is turned into PCG64's seeding, so the draws have the same
    bits as one fresh Generator per key. Item 0 is also seeded by numpy itself
    on every call: that raises numpy's own error for a negative or non-integer
    prefix, and a RuntimeError if the two seedings disagree. Take each item's
    draws before asking for the next one.
    """
    prefix = tuple(prefix)
    bitgen = np.random.PCG64(np.random.SeedSequence(prefix + (1,)))
    if not 0 <= count <= _MASK32:
        raise ValueError(f"count must lie in [0, 2**32), got {count}")
    template = bitgen.state
    words = _seed_words(prefix, max(1, count))
    if _pcg64_state(*words[0].tolist()) != template["state"]:
        raise RuntimeError(f"vectorized seeding of {prefix + (1,)} disagrees with numpy's PCG64")
    return _reseeded(bitgen, template, words[:count])


def _reseeded(bitgen, template, words):
    rng = np.random.Generator(bitgen)
    for row in words:
        bitgen.state = dict(template, state=_pcg64_state(*row.tolist()))
        yield rng


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
        if key in fields:
            raise ValueError(f"line 1: duplicate header field {key!r}")
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
