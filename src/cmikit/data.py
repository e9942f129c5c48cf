"""Sample sets of (X, Y, Z) blocks: construction, splitting, shuffling, CSV I/O.

A :class:`SampleSet` is the common currency of the estimators: ``n`` rows of
an X block, a Y block, and an optional conditioning block Z (``d_z = 0``
means no conditioning).  All arrays are float64 and immutable by convention.
"""

import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .seeding import rng_from

__all__ = [
    "CsvFormatError",
    "SampleSet",
    "SplitPair",
    "load_csv",
    "write_csv",
    "split_half",
    "split_rows",
    "product_shuffle",
    "derange_rows",
    "project",
]


class CsvFormatError(ValueError):
    """Malformed CSV input; message carries the offending line number."""


def _as_block(a, name: str, n_expected=None) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name} block must be 2-D, got shape {a.shape}")
    if n_expected is not None and a.shape[0] != n_expected:
        raise ValueError(f"{name} block has {a.shape[0]} rows, expected {n_expected}")
    return a


@dataclass(frozen=True)
class SampleSet:
    """n rows of (x, y, z) with explicit block widths; entries must be finite."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = _as_block(self.x, "x")
        y = _as_block(self.y, "y", x.shape[0])
        z = _as_block(self.z, "z", x.shape[0]) if np.size(self.z) else np.zeros((x.shape[0], 0))
        for name, b in (("x", x), ("y", y), ("z", z)):
            if b.size and not np.all(np.isfinite(b)):
                raise ValueError(f"non-finite entries in {name} block")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dx(self) -> int:
        return self.x.shape[1]

    @property
    def dy(self) -> int:
        return self.y.shape[1]

    @property
    def dz(self) -> int:
        return self.z.shape[1]

    def take(self, idx) -> "SampleSet":
        return SampleSet(self.x[idx], self.y[idx], self.z[idx])


@dataclass(frozen=True)
class SplitPair:
    train: SampleSet
    eval: SampleSet


def _expected_header(d_x: int, d_y: int, d_z: int) -> list[str]:
    return (
        [f"x{i}" for i in range(d_x)]
        + [f"y{i}" for i in range(d_y)]
        + [f"z{i}" for i in range(d_z)]
    )


def load_csv(path, d_x: int, d_y: int, d_z: int = 0) -> SampleSet:
    """Read a ``x0..,y0..,z0..`` CSV into a SampleSet, preserving row order.

    Header and every cell are validated (cells must be finite numbers);
    errors report the 1-based line number.  Comma-delimited, ``.`` decimal
    separator, no quoting; a leading UTF-8 byte-order mark is accepted.
    Cells are parsed by ``float`` and packed as float64 as they are read, so
    the loaded set holds 8 bytes a cell.  The widths must be integers, with
    ``d_x`` and ``d_y`` at least 1 and ``d_z`` at least 0.
    """
    for name, width, least in (("d_x", d_x, 1), ("d_y", d_y, 1), ("d_z", d_z, 0)):
        if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < least:
            raise ValueError(f"{name} must be an integer of at least {least}, got {width!r}")
    expected = _expected_header(d_x, d_y, d_z)
    buf = array("d")
    with open(path, "r", encoding="utf-8-sig") as f:
        header_line = f.readline()
        if not header_line:
            raise CsvFormatError("line 1: empty file, expected header")
        header = header_line.rstrip("\r\n").split(",")
        if header != expected:
            raise CsvFormatError(
                f"line 1: header mismatch, expected {','.join(expected)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(expected):
                raise CsvFormatError(
                    f"line {lineno}: expected {len(expected)} cells, got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as e:
                raise CsvFormatError(f"line {lineno}: non-numeric cell ({e})") from None
            if not all(map(math.isfinite, row)):
                raise CsvFormatError(f"line {lineno}: non-finite cell (nan or inf)")
            buf.extend(row)
    if not buf:
        raise CsvFormatError("no samples: data section is empty")
    m = np.frombuffer(buf).reshape(-1, len(expected))
    return SampleSet(m[:, :d_x], m[:, d_x : d_x + d_y], m[:, d_x + d_y :])


def write_csv(d: SampleSet, path) -> None:
    """Write a SampleSet in the load_csv format; floats round-trip bit-exactly."""
    header = _expected_header(d.dx, d.dy, d.dz)
    m = np.hstack([d.x, d.y, d.z])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in m:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _halves(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded permutation of n row indices cut 50/50, the odd one in the first half."""
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = rng_from(seed).permutation(n)
    cut = (n + 1) // 2
    return perm[:cut], perm[cut:]


def split_rows(m: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Randomly permute rows of a matrix and split 50/50 (first half gets the
    extra row when the count is odd)."""
    first, second = _halves(m.shape[0], seed)
    return m[first], m[second]


def split_half(d: SampleSet, seed: int) -> SplitPair:
    """Random 50/50 split of a SampleSet; the train side gets the odd row."""
    first, second = _halves(d.n, seed)
    return SplitPair(train=d.take(first), eval=d.take(second))


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    # Rejection sampling: resample whenever any index stays put.
    if n < 2:
        raise ValueError("no derangement exists for n < 2")
    idx = np.arange(n)
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == idx):
            return perm


def derange_rows(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rows of ``m`` reordered by a fixed-point-free permutation."""
    return m[_derangement(m.shape[0], rng)]


def product_shuffle(d: SampleSet, seed: int) -> SampleSet:
    """Emulate the product distribution p(x)p(y,z): keep x rows in place and
    jointly permute the (y, z) rows by a derangement."""
    perm = _derangement(d.n, rng_from(seed))
    return SampleSet(d.x, d.y[perm], d.z[perm])


def project(d: SampleSet, blocks) -> np.ndarray:
    """Horizontally concatenate the requested blocks in canonical X|Y|Z order.

    ``blocks`` is any iterable over block names, e.g. ``"xz"`` or
    ``("x", "y", "z")``; order of the request is ignored.
    """
    wanted = {str(b).lower() for b in blocks}
    unknown = wanted - {"x", "y", "z"}
    if unknown:
        raise ValueError(f"unknown blocks: {sorted(unknown)}")
    if not wanted:
        raise ValueError("no blocks requested")
    parts = [getattr(d, b) for b in ("x", "y", "z") if b in wanted]
    return np.hstack(parts)
