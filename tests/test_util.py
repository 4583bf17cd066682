"""Tests for the shared formatting, atomic-write, fan-out, seed and child-generator helpers."""

import itertools
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from ldsmix import util
from ldsmix.lds import NoiseConfig, generate_dataset, load_dataset, load_mixture, random_mixture, save_mixture
from ldsmix.pipeline import load_estimate
from ldsmix.tensor3 import robust_tpm, symmetrize
from ldsmix.util import (atomic_write_text, child_generators, derive_seed, fmt, format_rows,
                         parse_header, parse_rows, parse_weight, read_text)
from forking import assert_no_children, count_forks, set_cpus


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


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    # mkstemp makes its file 0600; the output must get 0666 less the umask, as open(path, "w") does
    for umask in (0o022, 0o077):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "fresh.txt", "data\n")
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "fresh.txt").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode) == 0o666 & ~umask
        for name in ("fresh.txt", "plain.txt"):
            os.unlink(tmp_path / name)


def test_atomic_write_keeps_a_rewritten_file_mode(tmp_path):
    # open(path, "w") keeps an existing file's mode whatever the umask; so does a rewrite
    old = os.umask(0o022)
    try:
        for name in ("fresh.txt", "plain.txt"):
            (tmp_path / name).write_text("old\n")
            os.chmod(tmp_path / name, 0o600)
        atomic_write_text(tmp_path / "fresh.txt", "data\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    for name in ("fresh.txt", "plain.txt"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o600, name
    assert (tmp_path / "fresh.txt").read_text() == "data\n"


def test_atomic_write_missing_directory(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "no" / "dir" / "x.txt", "data")


def test_atomic_write_through_a_symlink(tmp_path):
    # open(path, "w") writes through a link: the link stays, and its target takes the text and keeps its mode
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "real.txt"
    target.write_text("old\n")
    os.chmod(target, 0o600)
    link = tmp_path / "link.txt"
    link.symlink_to("sub/real.txt")
    model = random_mixture(2, 2, 1, 3, seed=0)
    save_mixture(link, model)
    save_mixture(tmp_path / "plain.txt", model)
    assert link.is_symlink() and os.readlink(link) == "sub/real.txt"
    assert target.read_bytes() == (tmp_path / "plain.txt").read_bytes()
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
    # the temp file was made beside the target and renamed over it
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "plain.txt", "sub"]
    assert os.listdir(tmp_path / "sub") == ["real.txt"]


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_fan_out_runs_contiguous_runs_in_order(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    parent = os.getpid()
    runs = util.fan_out(lambda run: (run, os.getpid() == parent), range(5))
    W = min(cpus, 5)
    assert [run for run, _ in runs] == [range(5)[i * 5 // W:(i + 1) * 5 // W] for i in range(W)]
    assert [here for _, here in runs] == [False] * (W - 1) + [True]  # the caller runs the last run
    assert forks == [parent] * (W - 1)
    assert_no_children()
    assert util.fan_out(len, ()) == [0]


def test_fan_out_raises_the_first_exception_in_run_order(monkeypatch):
    # runs (0,) and (1,) go to workers; (1,) and the caller's (2,) both raise
    set_cpus(monkeypatch, 3)

    def fn(run):
        if run[0]:
            raise LookupError(f"run {run[0]} broke")
        return run

    with pytest.raises(LookupError) as exc:
        util.fan_out(fn, (0, 1, 2))
    assert type(exc.value) is LookupError and str(exc.value) == "run 1 broke"
    assert_no_children()


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(3, 5, 7) == derive_seed(3, 5, 7)
    seen = {derive_seed(a, b) for a in range(8) for b in range(8)}
    assert len(seen) == 64


def test_derive_seed_trailing_zero_not_aliased():
    # SeedSequence ignores trailing zeros in its entropy tuple; the helper
    # offsets every part so (s,) and (s, 0) stay distinct streams
    assert derive_seed(4) != derive_seed(4, 0)
    assert derive_seed(0) != derive_seed(1)


def test_child_generators_match_seed_sequence():
    # item i is in the state numpy seeds from SeedSequence(prefix + (i + 1,)); (7, 1, 3) plus
    # the key is five entropy words, one more than SeedSequence's pool of four
    prefixes = [(0, 2), (5, 2), (2**32 - 1, 2), (2**32, 2), (2**64 - 1, 2), (2**70 + 3, 2),
                (derive_seed(1, 2), 3), (7, 1, 3)]
    for prefix in prefixes:
        for i, rng in enumerate(child_generators(prefix, 3000)):
            assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(prefix + (i + 1,))).state
        assert i == 2999
    assert list(child_generators((4, 2), 0)) == []
    with pytest.raises(ValueError, match="count"):
        child_generators((4, 2), 2**32)


def test_child_generators_match_seed_sequence_across_blocks(monkeypatch):
    # keys are hashed a block at a time; the bits do not depend on where the blocks end
    def check(prefix, count, items):
        for i, rng in enumerate(child_generators(prefix, count)):
            if i in items:
                assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(prefix + (i + 1,))).state
        assert i == count - 1

    block = util._SEED_BLOCK
    check((5, 2), 2 * block + 3, {0, block - 1, block, block + 1, 2 * block, 2 * block + 2})
    monkeypatch.setattr(util, "_SEED_BLOCK", 7)
    for prefix, count in (((2**70 + 3, 2), 30), ((7, 1, 3), 28)):
        check(prefix, count, set(range(count)))


def test_child_generators_hold_one_block_of_keys():
    next(child_generators((5, 2), 100000))  # numpy's one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        for _ in itertools.islice(child_generators((5, 2), 100000), util._SEED_BLOCK + 1):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


def test_child_generators_guard_catches_a_wrong_state(monkeypatch):
    monkeypatch.setattr(util, "_PCG_MULT", util._PCG_MULT + 2)
    with pytest.raises(RuntimeError, match="disagrees"):
        child_generators((3, 2), 10)


def test_bad_seeds_raise_numpy_errors():
    # numpy's own seeding of item 0 rejects them before the words are split
    model = random_mixture(2, 2, 1, 3, seed=0)
    t = symmetrize(np.random.default_rng(0).normal(size=(3, 3, 3)))
    calls = (lambda s: child_generators((s, 2), 3), lambda s: generate_dataset(model, 3, 4, seed=s),
             lambda s: robust_tpm(t, 1, n_restarts=2, seed=s))
    for seed in (-1, 1.5):
        with pytest.raises((ValueError, TypeError)) as want:
            np.random.SeedSequence((seed, 1))
        for call in calls:
            with pytest.raises(want.type) as got:
                call(seed)
            assert str(got.value) == str(want.value)


def test_seeding_cost_does_not_grow_per_item(monkeypatch):
    # every trajectory and every restart once built its own SeedSequence; the number
    # built per call must not depend on the number of trajectories or restarts
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    model = random_mixture(2, 2, 1, 3, seed=0)
    counts = []
    for N in (10, 500):
        made.clear()
        generate_dataset(model, N, 4, NoiseConfig(), seed=1)
        counts.append(len(made))
    t = symmetrize(np.random.default_rng(0).normal(size=(3, 3, 3)))
    for n_restarts in (3, 60):
        made.clear()
        robust_tpm(t, 2, n_restarts=n_restarts, n_iters=5, seed=1)
        counts.append(len(made))
    assert counts[0] == counts[1] and counts[2] == counts[3], counts


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


def test_repeated_header_field_is_rejected(tmp_path):
    # a header is a set of fields: a repeat would otherwise let the last value win
    files = ((load_dataset, "mlds-dataset v1, N=1, T=1, m=1, labeled=0, labeled=1\ntraj 0 label 0\n0 0\n",
              "labeled"),
             (load_mixture, "mlds-mixture v1, K=1, n=1, m=1, K=1\nweight 1\n0.5\n1\n1\n", "K"),
             (load_estimate, "mlds-estimate v1, K=1, L=1, m=1, L=2\nweight 1\n1\n", "L"))
    for load, text, field in files:
        path = tmp_path / "file.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == f"line 1: duplicate header field {field!r}"


def test_parse_rows_name_the_line():
    assert parse_weight("weight 0.25", 2) == 0.25
    assert np.array_equal(parse_rows(["1 -2.5"], 2, 3), [[1.0, -2.5]])
    assert np.array_equal(parse_rows(["1 2", " 3\t4 "], 2, 3), [[1.0, 2.0], [3.0, 4.0]])
    assert parse_rows([], 2, 3).shape == (0, 2)
    cases = [
        (lambda: parse_weight("weigh 0.25", 2), "line 2: expected 'weight <p>', got 'weigh 0.25'"),
        (lambda: parse_weight("weight x", 4), "line 4: malformed weight 'x'"),
        (lambda: parse_rows(["1 2 3"], 2, 5), "line 5: expected 2 numbers, got 3"),
        (lambda: parse_rows(["1 two"], 2, 6), "line 6: malformed float in '1 two'"),
        # later rows are numbered from the first; the first bad row wins
        (lambda: parse_rows(["1 2", "3"], 2, 5), "line 6: expected 2 numbers, got 1"),
        (lambda: parse_rows(["1 2", "3 4", "x 5", "6"], 2, 7), "line 9: malformed float in 'x 5'"),
        (lambda: parse_rows(["1 2", ""], 2, 3), "line 4: expected 2 numbers, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def per_value_rows(a):
    """The per-value writer that format_rows replaces: fmt joined by spaces, one line per row."""
    rows = np.atleast_2d(np.asarray(a, dtype=float))
    return "\n".join(" ".join(fmt(v) for v in row) for row in rows)


def test_format_rows_matches_per_value_fmt():
    tiny_normal = 2.2250738585072014e-308
    rng = np.random.default_rng(5)
    block = rng.normal(size=(4, 3)) * np.exp(rng.uniform(-300, 300, size=(4, 3)))
    block[0] = [-0.0, 5e-324, tiny_normal]
    block[1] = [1e308, -1e308, 1.0 / 3.0]
    row = np.array([-0.0, 5e-324, -tiny_normal, 1e308, -1e308, 0.1])
    for a in (block, row, row[:1], block[:, :1], block.T, block[:0]):
        assert format_rows(a) == per_value_rows(a)
    assert format_rows(row).count("\n") == 0
    assert format_rows(block).count("\n") == 3
    back = parse_rows(format_rows(block).splitlines(), 3, 1)
    assert back.tobytes() == block.tobytes()


def test_read_text_header_checks(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("demo v1, K=2, b=0\n1 2\n")
    lines, vals = read_text(path, "demo", ("K", "b"), flags=("b",))
    assert lines == ["demo v1, K=2, b=0", "1 2"] and vals == (2, 0)
    for text, message in [("", "line 1: empty file"),
                          ("demo v1, K=0, b=0\n", "line 1: header values out of range"),
                          ("demo v1, K=1, b=2\n", "line 1: header values out of range"),
                          ("other v1, K=1, b=0\n", "line 1: expected a 'demo v1' header")]:
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_text(path, "demo", ("K", "b"), flags=("b",))
        assert str(exc.value).startswith(message)
