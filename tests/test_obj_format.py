"""The OBJ coordinate writer against Python's own ``%.17g``.

``cli._obj_lines`` forms the 17 digits of each coordinate with numpy
(Dekker's two-product on |x| * 10**k, a four-digit table, NUL-padded
cells); every line it writes must equal ``b"v %.17g %.17g %.17g\\n" % row``
byte for byte.  ``oracles.joined_obj`` builds a whole mesh line by line
with ``format``.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cknet import cli
from cknet.nets import ContactElementNet, CurvatureReport
from oracles import joined_obj


def percent_17g(tag: bytes, xyz) -> bytes:
    return b"".join(tag + b" %.17g %.17g %.17g\n" % tuple(row) for row in xyz.tolist())


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    xyz = np.concatenate([values, np.zeros(-len(values) % 3)]).reshape(-1, 3)
    for tag in (b"v", b"vn"):
        assert cli._obj_lines(tag, xyz) == percent_17g(tag, xyz)


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# sign, biased binary exponent of 2**-14 .. 2**53 and mantissa: the fixed-notation range
fast_range_bits = st.builds(lambda s, e, m: (s << 63) | (e << 52) | m,
                            st.integers(0, 1), st.integers(1009, 1076), st.integers(0, 2 ** 52 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1), fast_range_bits), min_size=1, max_size=60))
def test_random_bit_patterns_format_like_python(bits):
    assert_formats_like_python(from_bits(bits))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60))
def test_any_float_formats_like_python(values):
    assert_formats_like_python(values)


def ties():
    """Odd multiples of 2**(E - 17) in [10**E, 10**(E + 1)): 18 significant digits, the last a 5."""
    out = [(int(f * 10.0 ** E * 2.0 ** (17 - E)) | 1) * 2.0 ** (E - 17)
           for E in range(-4, 12) for f in (1.01, 1.2345, 3.3, 9.99)]
    return out + [-v for v in out[::5]] + [1 + 2 ** -17]


def test_ties_round_half_to_even_like_python():
    values = ties()
    digits = [Decimal(v).as_tuple().digits for v in values]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    assert 1 + 2 ** -17 == 1.00000762939453125
    assert_formats_like_python(values)


def powers_of_ten():
    p = 10.0 ** np.arange(-30, 31)
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])


@pytest.mark.parametrize("values", [
    powers_of_ten(),
    [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.9999999999999999e-5,
     1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 9999999999999998.0,
     -1e-4, -np.nextafter(1e16, 0.0), 0.99999999999999989, 999999999999999.88],
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
    [1.7976931348623157e308, -1e300, 1e17, 123456789012345678.0, np.inf, -np.inf, np.nan],
    [0.1, 0.2, 0.3, 1 / 3, 2 / 3, np.pi, -np.e, 100.0, 1e15, 1234.5, 0.00012, 7.0e-4],
], ids=["powers_of_ten", "range_edges", "zeros_and_subnormals", "huge_and_non_finite", "common"])
def test_listed_values_format_like_python(values):
    assert_formats_like_python(values)


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
def test_a_log10_guess_one_ulp_off_is_corrected(monkeypatch, toward):
    """log10 one ulp off moves floor(log10 |x|) across powers of ten: at 10**E exactly a
    low guess gives D = 10**17, a carry; both directions must still print like Python."""
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(real(a), toward))
    assert_formats_like_python(np.concatenate([powers_of_ten(), ties(), [3.0, 1e15, 999.0]]))


def mesh(nj, nk, seed):
    """A net whose coordinates span zeros, the fixed range and exponent notation."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(nj, nk, 3)) * 10.0 ** rng.integers(-8, 17, size=(nj, nk, 3))
    x[rng.random(size=x.shape) < 0.05] = 0.0
    n = rng.normal(size=(nj, nk, 3))
    n[..., 2] *= rng.random(size=(nj, nk)) < 0.5          # exact zeros in half the normals
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


@pytest.mark.parametrize("nj, nk", [(1, 1), (2, cli._OBJ_ROWS // 2), (3, (cli._OBJ_ROWS + 1) // 3)],
                         ids=["one_vertex", "one_chunk", "one_more_than_a_chunk"])
def test_obj_blocks_match_the_joined_writer(tmp_path, nj, nk):
    assert (cli._OBJ_ROWS + 1) % 3 == 0   # the last case has one vertex past the chunk
    net = mesh(nj, nk, seed=nj * nk)
    degenerate = np.zeros((nj - 1, nk - 1), dtype=bool)
    degenerate[:, ::7] = True
    blank = np.zeros(degenerate.shape)
    rep = CurvatureReport(blank, blank, blank, degenerate, np.zeros(degenerate.shape + (3,)))
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), rep)
    assert path.read_bytes() == joined_obj(net, degenerate)
    assert path.read_bytes().count(b"# degenerate") == degenerate.sum()


def test_face_runs_match_the_joined_writer(tmp_path):
    """The f lines go out in chunks of ``_OBJ_FACES`` faces, cut at degenerate faces: one
    first in a chunk, one last in a chunk, two adjacent ones and the last face of the mesh."""
    F = cli._OBJ_FACES
    net = mesh(4, F + 2, seed=3)                      # 3 rows of F + 1 faces: four chunks
    degenerate = np.zeros((3, F + 1), dtype=bool)
    degenerate.flat[[F, 2 * F - 1, 2 * F + 3, 2 * F + 4, 3 * F + 2]] = True
    blank = np.zeros(degenerate.shape)
    rep = CurvatureReport(blank, blank, blank, degenerate, np.zeros(degenerate.shape + (3,)))
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), rep)
    assert path.read_bytes() == joined_obj(net, degenerate)
