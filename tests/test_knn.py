import ctypes
import os
import sys
import time

import numpy as np
import pytest

from cmikit.data import SampleSet
from cmikit.datagen import gen_gauss_corr, gen_linear
from cmikit.knn import (
    _ball_counts,
    _openblas_function,
    _tree_ball_counts,
    digamma,
    knn_permute_apply,
    ksg_cmi,
    ksg_mi,
    n_workers,
    process_map,
)
from cmikit.seeding import rng_from


def test_digamma_at_one():
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)


def test_digamma_recurrence():
    for x in (0.1, 0.5, 1.7, 3.0, 12.5, 88.0):
        assert digamma(x + 1) - digamma(x) == pytest.approx(1.0 / x, rel=1e-9)


def test_digamma_at_ten():
    assert digamma(10.0) == pytest.approx(2.2517525891, abs=1e-9)


def test_digamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(1e-3, 1, 40), np.linspace(1, 120, 60)])
    got = digamma(xs)
    want = np.array([float(mp.digamma(float(v))) for v in xs])
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -2.0]))


def test_ksg_mi_independent_near_zero():
    vals = []
    for seed in range(10):
        rng = rng_from(seed, 200)
        d = SampleSet(rng.normal(size=(5000, 1)), rng.normal(size=(5000, 1)), np.empty((5000, 0)))
        vals.append(ksg_mi(d, k=5))
    assert abs(float(np.mean(vals))) < 0.05


def test_ksg_cmi_independent_near_zero():
    vals = []
    for seed in range(10):
        rng = rng_from(seed, 201)
        d = SampleSet(rng.normal(size=(5000, 1)), rng.normal(size=(5000, 1)), rng.normal(size=(5000, 1)))
        vals.append(ksg_cmi(d, k=5))
    assert abs(float(np.mean(vals))) < 0.05


def test_ksg_mi_correlated_gaussians():
    d, truth = gen_gauss_corr(1, 0.9, 5000, seed=5)
    assert ksg_mi(d, k=5) == pytest.approx(truth.value, abs=0.1)


def test_ksg_cmi_low_dim_accurate(model1_dz1):
    d, truth = model1_dz1
    assert ksg_cmi(d, k=5) == pytest.approx(truth.value, abs=0.15)


def test_ksg_cmi_high_dim_underestimates(model1_dz20, ksg_sweep_model1_dz20):
    _, truth = model1_dz20
    assert truth.value > 2.3  # the target it should be near but is not
    assert max(ksg_sweep_model1_dz20.values()) < 1.5


def brute_chebyshev(points):
    return np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("dz", [1, 4])
@pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
@pytest.mark.parametrize("ball_counts", [_ball_counts, _tree_ball_counts])
def test_ball_counts_match_brute_force(monkeypatch, ball_counts, threads, rounded, dz, n):
    monkeypatch.setenv("CMIKIT_THREADS", threads)
    rng = rng_from(n, dz)
    x, y, z = rng.normal(size=(n, 2)), rng.normal(size=(n, 3)), rng.normal(size=(n, dz))
    if rounded:  # exact distance ties, so some neighbors sit on the radius
        x, y, z = (np.round(a, 1) for a in (x, y, z))
    ks = [k for k in (1, 3, 5) if k < n]
    radii = np.sort(brute_chebyshev(np.hstack([x, y, z])), axis=1)[:, ks]  # column 0 is self
    got = ball_counts(x, y, z, radii)
    d_z = brute_chebyshev(z)
    subspaces = (d_z, np.maximum(d_z, brute_chebyshev(x)), np.maximum(d_z, brute_chebyshev(y)))
    for j in range(len(ks)):
        r = radii[:, j, None]
        for m, dist in enumerate(subspaces):
            np.testing.assert_array_equal(got[j, m], np.sum(dist < r, axis=1) - 1)


def test_ball_counts_with_more_threads_than_cores(monkeypatch):
    rng = rng_from(77)
    x, y, z = rng.normal(size=(1000, 1)), rng.normal(size=(1000, 1)), rng.normal(size=(1000, 3))
    radii = rng.uniform(0.2, 1.0, size=(1000, 2))
    monkeypatch.setenv("CMIKIT_THREADS", "1")
    want = _ball_counts(x, y, z, radii)
    monkeypatch.setenv("CMIKIT_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _ball_counts(x, y, z, radii)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(got, want)


def test_n_workers_reads_cmikit_threads(monkeypatch):
    all_cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    monkeypatch.delenv("CMIKIT_THREADS", raising=False)
    assert n_workers() == all_cores
    monkeypatch.setenv("CMIKIT_THREADS", "0")
    assert n_workers() == all_cores
    monkeypatch.setenv("CMIKIT_THREADS", "3")
    assert n_workers() == 3
    monkeypatch.setenv("CMIKIT_THREADS", "abc")
    with pytest.raises(ValueError, match="CMIKIT_THREADS"):
        n_workers()


def _worker_view(item):
    return item, n_workers(), os.getpid()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_process_map_keeps_order_and_runs_workers_on_one_thread(monkeypatch, threads):
    monkeypatch.setenv("CMIKIT_THREADS", threads)
    got = process_map(_worker_view, range(7))
    assert [item for item, _, _ in got] == list(range(7))
    assert all(w == 1 for _, w, _ in got)
    pids = {pid for _, _, pid in got}
    if threads == "1":
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= int(threads)
    assert os.environ["CMIKIT_THREADS"] == threads  # only the workers were set to one thread
    assert process_map(_worker_view, []) == []


def _blas_threads(item):
    """Thread count of each OpenBLAS mapped into this process."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]}
    getters = [_openblas_function(ctypes.CDLL(path), "openblas_get_num_threads") for path in sorted(paths)]
    return [get() for get in getters if get is not None]


def _idle_worker_view(item):
    c0 = time.process_time()
    time.sleep(0.3)  # a restarted, idle OpenBLAS pool spins for about 0.13 s of CPU
    return _blas_threads(item), time.process_time() - c0


def test_process_map_workers_run_blas_on_one_thread(monkeypatch):
    if not os.path.exists("/proc/self/maps") or not _blas_threads(None):
        pytest.skip("needs an OpenBLAS listed in /proc/self/maps")
    monkeypatch.setenv("CMIKIT_THREADS", "2")
    parent = _blas_threads(None)
    got = process_map(_idle_worker_view, range(2))
    assert [counts for counts, _ in got] == [[1] * len(parent)] * 2
    assert all(idle_cpu < 0.05 for _, idle_cpu in got)
    assert _blas_threads(None) == parent


def _nested_view(item):
    return os.getpid(), process_map(_worker_view, range(3))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_nested_process_map_runs_in_the_calling_worker(monkeypatch, threads):
    monkeypatch.setenv("CMIKIT_THREADS", threads)
    got = process_map(_nested_view, range(4))
    for outer_pid, inner in got:
        assert [item for item, _, _ in inner] == [0, 1, 2]
        assert {pid for _, _, pid in inner} == {outer_pid}  # no grandchild pool
    assert ({pid for pid, _ in got} == {os.getpid()}) == (threads == "1")


class _Unpicklable:
    def __init__(self, i):
        self.i = i

    def __reduce__(self):
        raise TypeError("a process_map item was pickled")


def test_process_map_hands_workers_closures_and_items_through_the_fork(monkeypatch):
    monkeypatch.setenv("CMIKIT_THREADS", "2")
    big = rng_from(3).normal(size=(10000, 22))
    items = [_Unpicklable(i) for i in range(6)]
    got = process_map(lambda item: (item.i, big[item.i * 1000].sum(), os.getpid()), items)
    assert [i for i, _, _ in got] == list(range(6))
    assert [s for _, s, _ in got] == [big[i * 1000].sum() for i in range(6)]
    pids = {pid for _, _, pid in got}
    assert os.getpid() not in pids and len(pids) <= 2


def test_ksg_sweep_matches_single_k():
    d, _ = gen_linear("I", 2, 1200, 0.1, seed=7)
    from cmikit.knn import ksg_cmi_sweep

    sw = ksg_cmi_sweep(d, [3, 5, 10], seed=4)
    for k in (3, 5, 10):
        assert ksg_cmi(d, k=k, seed=4) == sw[k]
    assert sw[3] != sw[10]


def test_ksg_cmi_shift_invariance():
    rng = rng_from(9, 300)
    d = SampleSet(rng.normal(size=(800, 1)), rng.normal(size=(800, 2)), rng.normal(size=(800, 1)))
    shifted = SampleSet(d.x, d.y + 7.5, d.z)
    assert ksg_cmi(shifted, k=3, seed=4) == pytest.approx(ksg_cmi(d, k=3, seed=4), abs=1e-9)


def test_ksg_argument_validation():
    rng = rng_from(1)
    flat = SampleSet(rng.normal(size=(10, 1)), rng.normal(size=(10, 1)), np.empty((10, 0)))
    with pytest.raises(ValueError):
        ksg_cmi(flat, k=3)
    cond = SampleSet(flat.x, flat.y, rng.normal(size=(10, 1)))
    with pytest.raises(ValueError):
        ksg_mi(cond, k=3)
    with pytest.raises(ValueError):
        ksg_cmi(cond, k=10)


def test_generator_two_rows_swap():
    pool_y, pool_z = np.array([[10.0], [20.0]]), np.array([[0.0], [5.0]])
    out = knn_permute_apply(pool_y, pool_z, np.array([[5.0], [0.0]]), k=1, seed=0)
    np.testing.assert_array_equal(out, pool_y[[1, 0]])


def test_generator_draws_y_rows_from_pool():
    rng = rng_from(21)
    pool_y, pool_z = rng.normal(size=(50, 2)), rng.normal(size=(50, 3))
    out = knn_permute_apply(pool_y, pool_z, rng.normal(size=(40, 3)), k=5, seed=3)
    assert out.shape == (40, 2)
    assert set(map(tuple, out)) <= set(map(tuple, pool_y))  # y rows resampled with replacement


def test_generator_respects_clusters():
    rng = rng_from(31)
    n = 60
    group = np.repeat([0, 1], n // 2)
    pool_z = rng.normal(size=(n, 1)) + 100.0 * group[:, None]
    pool_y = group.astype(float)[:, None]  # y encodes its row's group
    query_z = rng.normal(size=(n, 1)) + 100.0 * group[:, None]
    out = knn_permute_apply(pool_y, pool_z, query_z, k=5, seed=7)
    np.testing.assert_array_equal(out[:, 0], group)


def test_generator_deterministic():
    rng = rng_from(41)
    pool_y, pool_z, query_z = rng.normal(size=(40, 1)), rng.normal(size=(40, 2)), rng.normal(size=(30, 2))
    a = knn_permute_apply(pool_y, pool_z, query_z, k=3, seed=9)
    b = knn_permute_apply(pool_y, pool_z, query_z, k=3, seed=9)
    np.testing.assert_array_equal(a, b)


def test_generator_indistinguishable_under_ci():
    from cmikit.nn import MlpArchitecture, TrainConfig, predict_proba, train_binary_classifier

    rng = rng_from(55)
    n = 8000
    z = rng.normal(size=(n, 1))
    x = z + 0.3 * rng.normal(size=(n, 1))
    y = z + 0.3 * rng.normal(size=(n, 1))
    pool, query = slice(0, n // 2), slice(n // 2, n)  # y for the query rows comes from the pool
    y_marg = knn_permute_apply(y[pool], z[pool], z[query], k=5, seed=1)
    joint = np.hstack([x[query], y[query], z[query]])
    marg = np.hstack([x[query], y_marg, z[query]])
    half = joint.shape[0] // 2
    c = train_binary_classifier(joint[:half], marg[:half], MlpArchitecture(3, (64, 64)), TrainConfig(seed=2))
    held = np.vstack([joint[half:], marg[half:]])
    labels = np.concatenate([np.ones(half), np.zeros(half)])
    acc = float(np.mean((predict_proba(c, held) > 0.5) == labels))
    assert 0.45 <= acc <= 0.55
