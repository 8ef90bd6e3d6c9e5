"""Numpy passes split across cores: bitwise those of one unsplit call.

Each test forces the chunk count by replacing ``tape._parts`` (2, 3 and
7 parts), so it does not depend on the machine's cores; ``None`` keeps
the real count, which splits only the large sizes on a machine with
more than one CPU.  The references are the unsplit numpy expressions.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom.diffmath import tape

from helpers import parameter

PARTS = [None, 2, 3, 7]
LARGE = 2 * tape._MIN_CHUNK + 1  # odd, and above the two-way threshold


@pytest.fixture(params=PARTS, ids=lambda p: f"parts{p}")
def parts(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(tape, "_parts", lambda work: request.param)
    return request.param


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rowwise_ref(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[..., None, :], b[..., None, :, :])[..., 0, :]


def sine_affine_ref(z, W, b, scale, row_stable, g):
    pre = rowwise_ref(z, W) if row_stable else z @ W
    pre += b
    pre *= scale
    dpre = np.cos(pre)
    dpre *= g
    dpre *= scale
    grads = (dpre @ W.T, z.reshape(-1, z.shape[-1]).T @ dpre.reshape(-1, dpre.shape[-1]),
             dpre.sum(axis=tuple(range(dpre.ndim - 1))))
    return np.sin(pre), grads


def arrays(rng, shape):
    """A C-contiguous array of ``shape`` and two non-contiguous views of it."""
    x = rng.uniform(-40.0, 40.0, size=shape)
    flipped = np.ascontiguousarray(x.T).T
    strided = rng.uniform(-40.0, 40.0, size=(*shape[:-1], 2 * shape[-1]))[..., ::2]
    return {"contiguous": x, "transposed": flipped, "strided": strided}


TRIG_SHAPES = [(), (7,), (LARGE,), (3, 5, 7), (45, 3, 61)]


@pytest.mark.parametrize("shape", TRIG_SHAPES, ids=str)
@pytest.mark.parametrize("op", ["sin", "cos"])
def test_trig_and_its_fallback_adjoint(parts, op, shape):
    rng = np.random.default_rng(len(shape))
    other = {"sin": np.cos, "cos": lambda v: -np.sin(v)}[op]
    for name, x in (arrays(rng, shape) if shape else {"scalar": np.array(0.5)}).items():
        a = parameter(x)
        out = getattr(dm, op)(a)
        same(out.data, getattr(np, op)(x))
        g = rng.normal(size=x.shape)
        (got,) = out.vjp(g)  # nothing kept for the other function: it is computed
        same(got, g * other(x))


@pytest.mark.parametrize("zshape", [(37, 8), (3, 11, 8), (8,), (2, 529, 8)], ids=str)
@pytest.mark.parametrize("row_stable", [False, True], ids=["fast", "exact"])
def test_sine_affine_forward_and_every_adjoint(parts, row_stable, zshape):
    rng = np.random.default_rng(zshape[-2] if len(zshape) > 1 else 0)
    W, b = rng.normal(size=(8, 16)) / 3.0, rng.normal(size=16)
    for name, z in arrays(rng, zshape).items():
        out = dm.sine_affine(parameter(z), parameter(W), parameter(b), 30.0, row_stable)
        g = rng.normal(size=out.shape)
        want, want_grads = sine_affine_ref(z, W, b, 30.0, row_stable, g)
        same(out.data, want)
        for got, ref in zip(out.vjp(g), want_grads):
            same(got, ref)


@pytest.mark.parametrize("ashape,bshape", [
    ((37, 64), (64, 64)), ((3, 129, 2), (2, 64)), ((300, 8), (8, 64)),
    ((5, 64), (64, 1)), ((8,), (8, 3)), ((30, 8), (4, 8, 64)),
], ids=str)
def test_rowwise_matmul(parts, ashape, bshape):
    rng = np.random.default_rng(ashape[-1])
    b = rng.normal(size=bshape)
    for name, a in arrays(rng, ashape).items():
        same(tape._rowwise_matmul(a, b), rowwise_ref(a, b))
        if a.ndim >= 2:
            same(dm.matmul(a, b, row_stable=True).data, rowwise_ref(a, b))


@pytest.mark.parametrize("pshape,qshape", [
    ((5, 4), (3, 1, 4)), ((5, 4), (1, 4)), ((3, 5, 4), (3, 1, 4)),
    ((129, 64), (33, 1, 64)), ((4097, 3), (1, 3)), ((), ()),
], ids=str)
def test_sin_shift(parts, pshape, qshape):
    # one unsplit pass: no chunk count may change its bits
    rng = np.random.default_rng(len(pshape) + len(qshape))
    q = rng.uniform(-40.0, 40.0, size=qshape)
    views = arrays(rng, pshape) if pshape else {"scalar": np.array(0.3)}
    for name, p in views.items():
        s, c = np.sin(p), np.cos(p)
        want = s * np.cos(q)
        want += c * np.sin(q)
        same(dm.sin_shift(s, c, q).data, want)


def last_inf(shape):
    """Zeros with an infinity in the last element, which the last chunk holds."""
    x = np.zeros(shape)
    x.reshape(-1)[-1] = np.inf
    return x


NON_FINITE = {
    "sin": lambda: dm.sin(last_inf(LARGE)),
    "cos": lambda: dm.cos(last_inf((LARGE, 3))),
    "sine_affine": lambda: dm.sine_affine(np.ones((LARGE, 2)), np.ones((2, 3)),
                                          last_inf(3), 30.0),
    "sine_affine-exact": lambda: dm.sine_affine(last_inf((LARGE, 2)), np.ones((2, 3)),
                                                np.zeros(3), 30.0, row_stable=True),
    "sin_shift": lambda: dm.sin_shift(last_inf((LARGE, 4)), np.ones((LARGE, 4)),
                                      np.zeros((1, 4))),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_result_names_the_op(parts, case):
    with np.errstate(all="ignore"), pytest.raises(dm.NonFiniteError) as err:
        NON_FINITE[case]()
    assert err.value.op == case.split("-")[0]


@pytest.mark.parametrize("case", ["sin", "cos"])
def test_floating_point_warning_reaches_the_caller(parts, case):
    # pytest turns warnings into errors; a pool thread's is raised here
    with pytest.raises(RuntimeWarning, match="invalid value"):
        NON_FINITE[case]()


def test_chunks_cover_the_range_once_in_order(monkeypatch):
    for n, k in [(10, 7), (3, 7), (1000, 3), (0, 2)]:
        monkeypatch.setattr(tape, "_parts", lambda work: k)
        seen = []
        tape._split(lambda lo, hi: seen.append((lo, hi)), n, 0)
        seen.sort()
        assert len(seen) == max(1, min(k, n))
        assert [lo for lo, _ in seen] == [0] + [hi for _, hi in seen[:-1]]
        assert seen[-1][1] == n
        assert n == 0 or all(hi > lo for lo, hi in seen)


def test_every_chunk_finishes_before_an_error_is_raised(monkeypatch):
    monkeypatch.setattr(tape, "_parts", lambda work: 3)
    done = []

    def kernel(lo, hi):
        if lo == 0:
            raise ValueError("first chunk")
        time.sleep(0.05)
        done.append(lo)

    with pytest.raises(ValueError, match="first chunk"):
        tape._split(kernel, 30, 0)
    assert sorted(done) == [10, 20]


def test_chunk_count_follows_the_work_and_the_cpus(monkeypatch):
    assert tape._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(tape, "_cores", 4)
    below = 2 * tape._MIN_CHUNK - 1
    assert [tape._parts(w) for w in (0, below, below + 1, 10**9)] == [0, 1, 2, 4]
    monkeypatch.setattr(tape, "_cores", 1)
    assert tape._parts(10**9) == 1


def test_one_cpu_runs_serially_without_a_pool(monkeypatch):
    monkeypatch.setattr(tape, "_cores", 1)
    monkeypatch.setattr(tape, "_pool", None)
    x = np.linspace(-30.0, 30.0, 10 * tape._MIN_CHUNK)
    same(dm.sin(x).data, np.sin(x))
    assert tape._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_in_a_forked_child(monkeypatch):
    """A child forked after the pool exists makes a pool of its own.

    It inherits the parent's pool object but none of its threads, so
    without the at-fork reset its first split waits forever."""
    monkeypatch.setattr(tape, "_parts", lambda work: 3)
    x = np.linspace(-30.0, 30.0, 3001)
    want = np.sin(x)
    same(dm.sin(x).data, want)
    assert tape._pool is not None
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if dm.sin(x).data.tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the split in the forked child did not finish within 20 s")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
