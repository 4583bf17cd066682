"""Small shared helpers: float formatting, atomic writes, seed derivation and child streams, text parsing,
the CPU count, and fan_out, which runs a function over contiguous runs of items in forked workers.

The mlds-* text files share one row codec: format_rows writes an array one row
per line, parse_rows reads such lines back, read_text opens a file and checks its header.
"""

from __future__ import annotations

import errno
import os
import pickle
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


def atomic_write_text(path, text) -> None:
    """Write text, a str or an iterable of str chunks written in turn, to a temp file, then rename it over the target.

    The file gets what open(path, "w") leaves: a symlink stays a link and its
    target takes the text, a rewritten file keeps its mode, and a new one gets
    0666 less the umask. A target that is a directory, or an OSError from making the temp file, raises
    an error that names the target, as open's would.
    """
    real = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(real).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = temp_beside(path)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.chmod(tmp, mode)  # mkstemp made it 0600
        os.replace(tmp, real)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def temp_beside(path, make=tempfile.mkstemp):
    """make(prefix=".tmp-", dir=d), d being the directory of the file that path, a symlink included, resolves to.

    A path that is a directory raises IsADirectoryError, and an OSError from make is raised again; both
    name path, as open's error would. make may be mkstemp, TemporaryDirectory or NamedTemporaryFile.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    try:
        return make(prefix=".tmp-", dir=os.path.dirname(os.path.realpath(path)))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def cpu_count() -> int:
    """The number of CPUs in the process's affinity mask (1 where os.sched_getaffinity is missing)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fan_out(fn, items) -> list:
    """[fn(run) for run in runs], where runs are W contiguous slices of items, in order.

    W is cpu_count(), at most len(items) (1 where os.fork is missing). Each run but the last
    goes to a forked child; the calling process runs the last one, and any run
    whose fork failed. A run's result must pickle. The exception of the first
    run in run order that raised one is re-raised here with its type and
    message, and no child outlives the call.
    """
    W = max(1, min(cpu_count(), len(items))) if hasattr(os, "fork") else 1
    runs = [items[i * len(items) // W:(i + 1) * len(items) // W] for i in range(W)]
    pending = {}  # run index -> (pid, read end) of a forked child not yet reaped
    try:
        for i, run in enumerate(runs[:-1]):
            try:
                pending[i] = _fork(fn, run)
            except OSError:  # no process to spare: the caller runs this run too
                pass
        outcomes = [None if i in pending else _outcome(fn, run) for i, run in enumerate(runs)]
        for i, run in enumerate(runs):
            if i in pending:
                outcomes[i] = _collect(*pending.pop(i), run)
            if outcomes[i][0] == "error":
                raise outcomes[i][1]
    finally:
        for pid, fd in pending.values():  # left by an error: stop and reap them
            os.kill(pid, 9)  # SIGKILL; importing signal would add ~50 KB to every ldsmix process
            os.close(fd)
            os.waitpid(pid, 0)
    return [value for _, value in outcomes]


def _outcome(fn, run):
    try:
        return "ok", fn(run)
    except Exception as exc:
        return "error", exc


def _fork(fn, run):
    """Fork a child that runs fn(run); return (its pid, the read end of its pipe).

    The child pickles ("ok", result) or ("error", exception) into the pipe and
    leaves by os._exit, exit status 0 only once the outcome is written. It never
    returns into the caller, whose teardown (pytest's, a tracer's) must run once.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        outcome = _outcome(fn, run)
        with open(w, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, fd: int, run):
    """The outcome a forked child sent; reaps the child."""
    try:
        with open(fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"worker for {run!r} exited with status {code} without sending its result")
    return pickle.loads(payload)


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
# keys child_generators hashes at a time; the study's datasets (N <= 1000) and 60 power-method restarts take one block
_SEED_BLOCK = 4096


def _seed_words(prefix, first, count) -> np.ndarray:
    # generate_state(4, uint64) of SeedSequence(prefix + (key,)) for the count keys from first, as a
    # (count, 4) uint64 array: mix_entropy and generate_state of numpy/random/bit_generator.pyx step
    # for step, each step on one uint32 word of every key at once
    entropy = []
    for part in prefix:
        part = int(part)
        while True:
            entropy.append(np.array([part & _MASK32], dtype=np.uint32))
            part >>= 32
            if not part:
                break
    entropy.append(np.arange(first, first + count, dtype=np.uint32))
    entropy += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    mixer = [hashmix(value) for value in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[i_src]))
    # generate_state's loop is the same hash from INIT_B with MULT_B, over the pool twice
    hash_const = _INIT_B
    state = np.stack([hashmix(mixer[i_dst % _POOL_SIZE], _MULT_B) for i_dst in range(2 * _POOL_SIZE)], axis=1)
    # the uint64 words are little-endian pairs of the uint32 words
    return state.astype("<u4").view("<u8")


def _pcg64_state(s_hi, s_lo, q_hi, q_lo) -> dict:
    # PCG64's srandom(initstate, initseq) from generate_state(4, uint64) = (s_hi, s_lo, q_hi, q_lo)
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
    return {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}


def child_generators(prefix, count: int):
    """Yield one reused Generator count times, the i-th time in the state default_rng(SeedSequence(prefix + (i + 1,))) starts from.

    SeedSequence's hash runs on uint32 arrays for _SEED_BLOCK keys at a time,
    each block hashed when its first item is asked for, and each result is
    turned into PCG64's seeding, so the draws have the same bits as one fresh
    Generator per key. Item 0 is also seeded by numpy itself
    on every call: that raises numpy's own error for a negative or non-integer
    prefix, and a RuntimeError if the two seedings disagree. Take each item's
    draws before asking for the next one.
    """
    prefix = tuple(prefix)
    bitgen = np.random.PCG64(np.random.SeedSequence(prefix + (1,)))
    if not 0 <= count <= _MASK32:
        raise ValueError(f"count must lie in [0, 2**32), got {count}")
    template = bitgen.state
    words = _seed_words(prefix, 1, min(max(1, count), _SEED_BLOCK))
    if _pcg64_state(*words[0].tolist()) != template["state"]:
        raise RuntimeError(f"vectorized seeding of {prefix + (1,)} disagrees with numpy's PCG64")
    return _reseeded(bitgen, template, prefix, count, words)


def _reseeded(bitgen, template, prefix, count, words):
    # words holds the first block's seeding; each later block is hashed when it is reached
    rng = np.random.Generator(bitgen)
    for lo in range(0, count, _SEED_BLOCK):
        if lo:
            words = _seed_words(prefix, lo + 1, min(count - lo, _SEED_BLOCK))
        for row in words:
            bitgen.state = dict(template, state=_pcg64_state(*row.tolist()))
            yield rng


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
    The array is allocated once every row has parsed, so a huge count in a
    header allocates nothing unless the lines hold that many numbers.
    """
    values = []
    for j, line in enumerate(lines):
        toks = line.split()
        if len(toks) != count:
            raise ValueError(f"line {lineno + j}: expected {count} numbers, got {len(toks)}")
        try:
            values.append([float(t) for t in toks])
        except ValueError:
            raise ValueError(f"line {lineno + j}: malformed float in {line!r}") from None
    return np.array(values, dtype=float).reshape(len(lines), count)


def read_text(path, tag: str, keys: tuple[str, ...]):
    """Read a 'tag v1, k1=v1, ...' text file; returns (lines, header values in keys order).

    The header is checked by header_values.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    return lines, header_values(lines[0], tag, keys)


def header_values(line: str, tag: str, keys: tuple[str, ...], flags: tuple[str, ...] = ()) -> tuple[int, ...]:
    """The integer fields of a 'tag v1, k1=v1, k2=v2' header line in keys order, each key given once.

    They must be >= 1, except those named in flags, which must be 0 or 1.
    """
    parts = [p.strip() for p in line.split(",")]
    if parts[0] != f"{tag} v1":
        raise ValueError(f"line 1: expected a '{tag} v1' header, got {line!r}")
    head: dict[str, int] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"line 1: malformed header field {part!r}, expected key=value")
        key, val = part.split("=", 1)
        if key in head:
            raise ValueError(f"line 1: duplicate header field {key!r}")
        try:
            head[key] = int(val)
        except ValueError:
            raise ValueError(f"line 1: header field {key!r} must be an integer, got {val!r}") from None
    if set(head) != set(keys):
        raise ValueError(f"line 1: header must carry exactly the fields {', '.join(keys)}")
    if any(head[k] not in (0, 1) if k in flags else head[k] < 1 for k in keys):
        raise ValueError("line 1: header values out of range")
    return tuple(head[k] for k in keys)
