"""Nearest-neighbor machinery: KSG estimators and the kNN conditional resampler.

The KSG conditional estimator and the conditional resampler both work on
Chebyshev (max-norm) distances.  Neighbor queries, k-th neighbor radii and
``ksg_mi``'s ball counts come from scipy's cKDTree.  The conditional
estimator counts its z, xz and yz balls with cKDTree too in few dimensions,
and on blocks of scipy ``cdist`` distances once the subspaces are wide
enough to turn tree ball queries into scans.  scipy loads on the first kNN
call (``load_scipy``), not with this module, so the classifier routes never
pay for it.  The worker count and the process map that cit, the CLI, the
generator route's rounds and the held-out divergence iterations share live
here too.
"""

import ctypes
import itertools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .data import SampleSet
from .seeding import rng_from

__all__ = [
    "digamma",
    "ksg_cmi",
    "ksg_cmi_sweep",
    "ksg_mi",
    "knn_permute_apply",
]

_BLOCK_ROWS = 64  # query rows per distance block: three (64, n) float buffers per thread
# Widest KSG subspace, d_z + max(d_x, d_y), up to which cKDTree ball counts beat
# the dense pass (measured on 2 cores: 35x faster at width 2 and n=50000, even
# at width 4 and n=10000, 2.6x slower at width 6 and n=10000).
_TREE_MAX_DIM = 4
JITTER_SCALE = 1e-10

EULER_GAMMA = 0.5772156649015328606


def load_scipy():
    """Bind ``cKDTree`` and ``cdist`` on first use, keeping a name already bound.

    Every function that uses either calls this first and reads the module
    global at call time, so a class bound earlier, such as perfbench's timing
    subclass, stays in use.  Call it before a ``process_map`` whose workers
    run kNN code: a worker inherits only what its parent loaded, and
    ``_one_blas_thread`` caps only the OpenBLAS libraries mapped at its start.
    """
    g = globals()
    if "cKDTree" not in g or "cdist" not in g:
        from scipy.spatial import cKDTree
        from scipy.spatial.distance import cdist

        g.setdefault("cKDTree", cKDTree)
        g.setdefault("cdist", cdist)


def __getattr__(name):
    if name in ("cKDTree", "cdist"):
        load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def n_workers() -> int:
    """Worker count: CMIKIT_THREADS if positive, else every core this process may use."""
    raw = os.environ.get("CMIKIT_THREADS", "").strip()
    if raw:
        try:
            w = int(raw)
        except ValueError:
            raise ValueError(f"CMIKIT_THREADS must be an integer, got {raw!r}")
        if w > 0:
            return w
    if hasattr(os, "sched_getaffinity"):  # honours CPU affinity where the OS has it
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_function(lib, stem):
    """``stem`` under the prefix and suffix this OpenBLAS build exports, or None."""
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_", "_64")):
        fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
        if fn is not None:
            return fn
    return None


def _one_blas_thread():
    """Cap each OpenBLAS mapped into this process at one thread; a no-op without one.

    A forked worker keeps its parent's BLAS thread count.  On 2 cores, two
    workers that each hand the 64x256x256 products of a 256-unit net to a
    second BLAS thread run four spinning threads: the width-selection test
    in test_estimators.py took 42 s that way, 17 s in one process and 8.9 s
    with one BLAS thread per worker.  After a fork, setting the count
    restarts the OpenBLAS thread pool, whose idle thread then spins for
    about 0.13 s of CPU, so the pool is shut down again at once; a build
    without both calls is left as it is.  Linux lists mapped libraries in
    /proc/self/maps.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        set_threads = _openblas_function(lib, "openblas_set_num_threads")
        shutdown = _openblas_function(lib, "blas_thread_shutdown_")
        if set_threads is not None and shutdown is not None:
            set_threads(1)
            shutdown()


_JOBS = None  # (fn, items) of the map this pool worker serves


def _start_worker(fn, items):
    global _JOBS
    _JOBS = fn, items
    os.environ["CMIKIT_THREADS"] = "1"
    _one_blas_thread()


def _run_job(i):
    fn, items = _JOBS
    return fn(items[i])


def process_map(fn, items):
    """Index-ordered map over up to n_workers() forked processes, each on one thread.

    Workers inherit ``fn`` and the sequence ``items`` through the fork, so
    neither needs to pickle: only indices go out, and only results and raised
    exceptions, which must pickle, come back.  The package keeps no thread
    alive between calls, so none is lost across the fork.  Each worker sets
    ``CMIKIT_THREADS=1`` and caps OpenBLAS at one thread.  With one worker,
    or where the OS has no fork, the items run here in order, so a map
    called inside a worker runs in that worker and starts no pool.  So do
    they while the caller runs other threads, whose held locks a fork would
    leave locked forever in the child.
    """
    workers = min(n_workers(), len(items))
    if workers <= 1 or threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_start_worker,
                             initargs=(fn, items)) as pool:
        return list(pool.map(_run_job, range(len(items))))


# --- digamma ----------------------------------------------------------------

# asymptotic tail coefficients: -B_{2n}/(2n) for x^{-2n}, n = 1..6
_PSI_TAIL = (-1.0 / 12, 1.0 / 120, -1.0 / 252, 1.0 / 240, -1.0 / 132, 691.0 / 32760)


def digamma(x):
    """psi(x) for x > 0, accurate to about 1e-10 absolute.

    Uses the recurrence psi(x+1) = psi(x) + 1/x to shift the argument to
    x >= 6, then the standard asymptotic series.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    if np.any(x <= 0):
        raise ValueError("digamma requires x > 0")
    acc = np.zeros_like(x)
    while True:
        small = x < 6.0
        if not np.any(small):
            break
        acc[small] -= 1.0 / x[small]
        x[small] += 1.0
    inv2 = 1.0 / (x * x)
    tail = np.zeros_like(x)
    p = inv2.copy()
    for coef in _PSI_TAIL:
        tail += coef * p
        p *= inv2
    res = acc + np.log(x) - 0.5 / x + tail
    return float(res[0]) if scalar else res


# --- KSG estimators ---------------------------------------------------------

def _jitter(block: np.ndarray, rng) -> np.ndarray:
    return block + rng.uniform(0.0, JITTER_SCALE, size=block.shape)


def _avg_digamma_counts(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Strictly-inside l-infinity ball counts at per-point radii, self excluded."""
    load_scipy()
    tree = cKDTree(points)
    counts = tree.query_ball_point(
        points, np.nextafter(radii, 0.0), p=np.inf, return_length=True, workers=n_workers()
    )
    return np.asarray(counts) - 1  # self always counted at distance 0


def _tree_ball_counts(x, y, z, radii):
    """The counts of ``_ball_counts``, from cKDTree ball queries."""
    subspaces = (z, np.hstack([x, z]), np.hstack([y, z]))
    return np.array([[_avg_digamma_counts(p, r) for p in subspaces] for r in radii.T])


def _count_inside(out, dist, radii, hit):
    """out[j, i] = #{l : dist[i, l] < radii[i, j]} - 1, the -1 for row i itself."""
    for j in range(radii.shape[1]):
        np.less(dist, radii[:, j, None], out=hit)
        out[j] = np.count_nonzero(hit, axis=1) - 1


def _ball_counts(x, y, z, radii):
    """Strict max-norm ball counts, self excluded, in the z, xz and yz subspaces.

    ``radii`` has one column per k; the result is (columns, 3, n) in z, xz, yz
    order.  Blocks of _BLOCK_ROWS query rows get their Chebyshev distances to
    all n points from cdist (the xz distance is max(z, x distance)), dealt out
    to n_workers() threads; integer counts cannot depend on that.
    """
    load_scipy()
    n = z.shape[0]
    counts = np.empty((radii.shape[1], 3, n), dtype=np.int64)

    def work(starts):
        bufs = [np.empty((_BLOCK_ROWS, n)) for _ in range(3)] + [np.empty((_BLOCK_ROWS, n), bool)]
        for s in starts:
            e = min(s + _BLOCK_ROWS, n)
            dz, dw, tmp, hit = (b[: e - s] for b in bufs)
            cdist(z[s:e], z, "chebyshev", out=dz)
            _count_inside(counts[:, 0, s:e], dz, radii[s:e], hit)
            for j, other in ((1, x), (2, y)):
                np.maximum(dz, cdist(other[s:e], other, "chebyshev", out=tmp), out=dw)
                _count_inside(counts[:, j, s:e], dw, radii[s:e], hit)

    starts = range(0, n, _BLOCK_ROWS)
    w = min(n_workers(), len(starts))
    with ThreadPoolExecutor(max_workers=w) as pool:
        list(pool.map(work, [starts[i::w] for i in range(w)]))
    return counts


def ksg_cmi_sweep(d: SampleSet, ks, seed: int = 0) -> dict[int, float]:
    """KSG conditional MI for several neighbor counts, sharing the heavy passes."""
    ks = sorted({int(k) for k in ks})
    if not ks:
        raise ValueError("ks must be nonempty")
    if d.dz < 1:
        raise ValueError("ksg_cmi needs a conditioning block; use ksg_mi for d_z = 0")
    if ks[0] < 1 or ks[-1] >= d.n:
        raise ValueError(f"need 1 <= k < n, got k={ks}, n={d.n}")
    load_scipy()
    rng = rng_from(seed, 97)
    x, y, z = _jitter(d.x, rng), _jitter(d.y, rng), _jitter(d.z, rng)
    joint = np.hstack([x, y, z])
    dists = cKDTree(joint).query(joint, k=ks[-1] + 1, p=np.inf, workers=n_workers())[0]
    count = _tree_ball_counts if max(d.dx, d.dy) + d.dz <= _TREE_MAX_DIM else _ball_counts
    out = {}
    for k, (n_z, n_xz, n_yz) in zip(ks, count(x, y, z, dists[:, ks])):
        out[k] = float(
            digamma(k) - np.mean(digamma(n_xz + 1) + digamma(n_yz + 1) - digamma(n_z + 1))
        )
    return out


def ksg_cmi(d: SampleSet, k: int = 3, seed: int = 0) -> float:
    """Conditional mutual information I(X;Y|Z) in nats by the KSG neighbor method.

    psi(k) - mean_i[psi(n_xz+1) + psi(n_yz+1) - psi(n_z+1)] with all ball
    counts taken at the i-th point's distance to its k-th neighbor in the
    full (x,y,z) space.  Duplicates are broken by a tiny seeded jitter.
    """
    return ksg_cmi_sweep(d, [k], seed)[int(k)]


def ksg_mi(d: SampleSet, k: int = 3, seed: int = 0) -> float:
    """Mutual information I(X;Y) in nats by the KSG neighbor method (no z block)."""
    if d.dz != 0:
        raise ValueError("ksg_mi expects d_z = 0; use ksg_cmi or project first")
    if not 1 <= k < d.n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={d.n}")
    load_scipy()
    rng = rng_from(seed, 97)
    x, y = _jitter(d.x, rng), _jitter(d.y, rng)
    joint = np.hstack([x, y])
    radii = cKDTree(joint).query(joint, k=k + 1, p=np.inf, workers=n_workers())[0][:, -1]
    n_x = _avg_digamma_counts(x, radii)
    n_y = _avg_digamma_counts(y, radii)
    return float(digamma(k) + digamma(d.n) - np.mean(digamma(n_x + 1) + digamma(n_y + 1)))


# --- kNN conditional resampler ----------------------------------------------

def knn_permute_apply(pool_y: np.ndarray, pool_z: np.ndarray, z_query: np.ndarray, k: int = 5, seed: int = 0) -> np.ndarray:
    """Draw a y row for each query z from a disjoint (y, z) pool.

    For each query point, one of its k nearest pool neighbors in z-space is
    chosen uniformly and that pool row's y is returned.  Used to produce
    conditionally resampled halves where the pool and the queries come from
    different splits of the data.
    """
    pool_y = np.asarray(pool_y, dtype=np.float64)
    pool_z = np.asarray(pool_z, dtype=np.float64)
    z_query = np.asarray(z_query, dtype=np.float64)
    if pool_y.shape[0] != pool_z.shape[0] or pool_y.shape[0] == 0:
        raise ValueError("pool_y and pool_z must be nonempty with equal row counts")
    if z_query.ndim != 2 or z_query.shape[1] != pool_z.shape[1]:
        raise ValueError("z_query must match pool_z column count")
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, pool_z.shape[0])
    load_scipy()
    rng = rng_from(seed, 13)
    zp = _jitter(pool_z, rng_from(seed, 14))
    _, idx = cKDTree(zp).query(z_query, k=k, p=np.inf, workers=n_workers())
    idx = idx.reshape(z_query.shape[0], k)  # scipy squeezes k=1
    choice = rng.integers(k, size=z_query.shape[0])
    return pool_y[idx[np.arange(z_query.shape[0]), choice]]

