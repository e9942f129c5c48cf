import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cmikit.data import (
    CsvFormatError,
    SampleSet,
    derange_rows,
    load_csv,
    split_half,
    write_csv,
)
from cmikit.seeding import rng_from


def make_set(n, dx=1, dy=1, dz=2, seed=0):
    rng = rng_from(seed)
    return SampleSet(rng.normal(size=(n, dx)), rng.normal(size=(n, dy)), rng.normal(size=(n, dz)))


def test_sample_set_shapes():
    d = make_set(5, 2, 3, 0)
    assert (d.n, d.dx, d.dy, d.dz) == (5, 2, 3, 0)
    assert d.z.shape == (5, 0)


def test_sample_set_row_mismatch():
    with pytest.raises(ValueError, match="y block has 4 rows, expected 3"):
        SampleSet(np.zeros((3, 1)), np.zeros((4, 1)), np.zeros((3, 1)))


def test_sample_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan]]), np.zeros((1, 1)), np.zeros((1, 0)))


def test_load_csv_three_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0,z0,z1\n1.0,2.0,3.0,4.0\n5,6,7,8\n-1,-2,-3,-4\n")
    d = load_csv(p, 1, 1, 2)
    assert d.n == 3
    np.testing.assert_array_equal(d.x[:, 0], [1.0, 5.0, -1.0])
    np.testing.assert_array_equal(d.z[2], [-3.0, -4.0])


def test_load_csv_empty_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n")
    with pytest.raises(CsvFormatError, match="no samples"):
        load_csv(p, 1, 1, 0)


def test_load_csv_header_missing_z(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n1,2\n")
    with pytest.raises(CsvFormatError, match="header"):
        load_csv(p, 1, 1, 1)


def test_load_csv_bad_cell_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n1,2\n1,oops\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(p, 1, 1, 0)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_non_finite_cell_reports_line(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"x0,y0\n1,2\n\n3,{cell}\n")
    with pytest.raises(CsvFormatError, match="line 4: non-finite"):
        load_csv(p, 1, 1, 0)


def test_load_csv_short_row_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0,z0\n1,2,3\n4,5\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(p, 1, 1, 1)


@pytest.mark.parametrize("dims, field", [
    ((0, 1, 1), "d_x"),
    ((1, -1, 2), "d_y"),
    ((1, 1, -1), "d_z"),
    ((1.0, 1, 1), "d_x"),
    ((1, 1, True), "d_z"),
])
def test_load_csv_rejects_bad_block_widths(tmp_path, dims, field):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0,z0\n1,2,3\n")
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least"):
        load_csv(p, *dims)


def test_csv_round_trip_bit_exact(tmp_path):
    d = make_set(17, 2, 1, 3, seed=9)
    p = tmp_path / "rt.csv"
    write_csv(d, p)
    d2 = load_csv(p, 2, 1, 3)
    np.testing.assert_array_equal(d.x, d2.x)
    np.testing.assert_array_equal(d.y, d2.y)
    np.testing.assert_array_equal(d.z, d2.z)


def test_load_csv_accepts_utf8_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_csv(make_set(9, 1, 2, 2, seed=4), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    d, e = load_csv(plain, 1, 2, 2), load_csv(marked, 1, 2, 2)
    for a, b in ((d.x, e.x), (d.y, e.y), (d.z, e.z)):
        assert a.tobytes() == b.tobytes()


def test_load_csv_cells_have_the_bits_of_python_float(tmp_path):
    # float accepts signed zero, subnormals, underflow to 0, padding, bare
    # fractions and digit separators; the loaded cell must be its exact value
    cells = ["-0", "1e-320", "4.9e-325", " 1.5", "+.5", "1_000"]
    p = tmp_path / "d.csv"
    p.write_text("x0,y0,z0,z1,z2,z3\n" + ",".join(cells) + "\n")
    d = load_csv(p, 1, 1, 4)
    loaded = np.hstack([d.x, d.y, d.z])[0]
    assert loaded.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_load_csv_holds_under_16_bytes_a_cell(tmp_path):
    # The load runs in a fresh interpreter, on a file written here.  Its peak
    # is read as VmHWM, the high-water mark of that process's own memory map.
    # ru_maxrss would not do: Linux carries the parent's peak into it across
    # exec, and this test process has a higher peak than the load reaches.
    n, dz = 20000, 20
    p = tmp_path / "big.csv"
    write_csv(make_set(n, 1, 1, dz, seed=8), p)
    script = f"""
        from cmikit.data import load_csv

        def peak_kb():
            with open("/proc/self/status", encoding="ascii") as f:
                return next(int(s.split()[1]) for s in f if s.startswith("VmHWM:"))

        before = peak_kb()
        d = load_csv({str(p)!r}, 1, 1, {dz})
        print((peak_kb() - before) * 1024 / (d.n * (2 + d.dz)))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 16.0


def test_split_half_even():
    train, ev = split_half(make_set(10), seed=1)
    assert train.n == 5 and ev.n == 5


def test_split_half_odd_favors_train():
    train, ev = split_half(make_set(11), seed=1)
    assert train.n == 6 and ev.n == 5


def test_split_half_partition():
    d = make_set(21)
    joined = np.vstack([np.hstack([s.x, s.y, s.z]) for s in split_half(d, seed=3)])
    full = np.hstack([d.x, d.y, d.z])
    # every input row appears exactly once across the two parts
    order = np.lexsort(joined.T)
    order_full = np.lexsort(full.T)
    np.testing.assert_array_equal(joined[order], full[order_full])


def test_split_half_deterministic():
    d = make_set(20)
    a, _ = split_half(d, seed=5)
    b, _ = split_half(d, seed=5)
    np.testing.assert_array_equal(a.x, b.x)
    c, _ = split_half(d, seed=6)
    assert np.any(a.x != c.x)


def test_split_half_rejects_tiny():
    with pytest.raises(ValueError):
        split_half(make_set(1), seed=0)


# The product-of-marginals stand-in keeps x in place and deranges the stacked
# (y, z) rows together.

def test_product_shuffle_n2_is_swap():
    d = make_set(2)
    yz = np.hstack([d.y, d.z])
    np.testing.assert_array_equal(derange_rows(yz, rng_from(0)), yz[[1, 0]])


def test_product_shuffle_no_fixed_points():
    d = make_set(50)
    for seed in range(20):
        s = derange_rows(np.hstack([d.y, d.z]), rng_from(seed))
        moved = np.any(s[:, :1] != d.y, axis=1)
        assert moved.all()


def test_product_shuffle_y_z_move_together():
    d = make_set(40, seed=2)
    s = derange_rows(np.hstack([d.y, d.z]), rng_from(11))
    # recover the permutation from y, check z used the same one
    perm = [int(np.flatnonzero((d.y == row).all(axis=1))[0]) for row in s[:, :1]]
    np.testing.assert_array_equal(s[:, 1:], d.z[perm])


def test_product_shuffle_preserves_marginal():
    d = make_set(30)
    s = derange_rows(np.hstack([d.y, d.z]), rng_from(4))
    np.testing.assert_array_equal(np.sort(s[:, :1], axis=0), np.sort(d.y, axis=0))


def test_derange_rows_requires_two():
    with pytest.raises(ValueError):
        derange_rows(np.zeros((1, 2)), rng_from(0))
