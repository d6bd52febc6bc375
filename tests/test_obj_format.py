"""The OBJ coordinate writer against Python's own ``%.17g``.

``cli._obj_lines`` forms the 17 digits of each coordinate with numpy
(Dekker's two-product on |x| * 10**k, 10**k held as two doubles,
four-digit tables, NUL-padded cells): in fixed notation for
1e-4 <= |x| < 1e16, in exponent notation for 1e-28 <= |x| < 1e-4, and
zeros.  It leaves subnormals, 0 < |x| < 1e-28, |x| >= 1e16 and non-finite
values to Python.  So the exponent-range, small-ties and log10-off-by-one
cases test the kernel, not the fallback.  Every line it writes must equal
``b"v %.17g %.17g %.17g\\n" % row`` byte for byte.  ``oracles.joined_obj``
builds a whole mesh line by line with ``format``.
"""

import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cknet import cli
from cknet.nets import ContactElementNet
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


def range_bits(lo, hi):
    """Bit patterns of sign, a biased binary exponent in lo..hi and any mantissa."""
    return st.builds(lambda s, e, m: (s << 63) | (e << 52) | m,
                     st.integers(0, 1), st.integers(lo, hi), st.integers(0, 2 ** 52 - 1))


fast_range_bits = range_bits(1009, 1076)    # 2**-14 .. 2**53: the fixed-notation range
small_range_bits = range_bits(929, 1009)    # 2**-94 .. 2**-14: the kernel's exponent form,
                                            # and Python's below 1e-28


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.builds(lambda pick, s, o: s if pick else o, st.booleans(), small_range_bits,
                          st.one_of(st.integers(0, 2 ** 64 - 1), fast_range_bits)),
                min_size=1, max_size=60))
def test_random_bit_patterns_format_like_python(bits):
    """Half the values come from the exponent-form range, the rest from any bit pattern and
    the fixed range."""
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


def small_ties():
    """Values of 1e-28 <= |x| < 1e-4 that round near half-way: exact ties (18 significant
    digits ending in 5, which only E = -5..-7 have) and their neighbours, and per exponent
    E = -28..-5 the two of 400 seeded doubles whose x * 10**(16 - E) lies nearest a
    half-integer."""
    out = [(int(f * 10.0 ** E * 2.0 ** (17 - E)) | 1) * 2.0 ** (E - 17)
           for E in (-5, -6, -7) for f in (2.5, 5.5, 9.5)]
    out += [np.nextafter(v, d) for v in out for d in (0.0, 1.0)]
    rng = np.random.default_rng(7)
    for E in range(-28, -4):
        x = rng.uniform(1.0, 10.0, 400) * 10.0 ** E
        x = x[(x >= 10.0 ** E) & (x < 10.0 ** (E + 1))]
        off = [abs(Fraction(v) * 10 ** (16 - E) % 1 - Fraction(1, 2)) for v in x.tolist()]
        out += [float(v) for v in x[np.argsort(off)[:2]]]
    return out + [-v for v in out[::3]]


def test_small_ties_round_half_to_even_like_python():
    values = small_ties()
    digits = [Decimal(v).as_tuple().digits for v in values[:9]]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    assert_formats_like_python(values)


def test_products_near_half_way_are_left_to_python(monkeypatch):
    """A product too near half-way for the float sum is written by Python's %.17g over the
    kernel's cell: the exact ties reach it, and with the margin below 0 every value does, ties,
    near ties and powers of ten in both forms."""
    sent, python_cells = [], cli._python_cells
    monkeypatch.setattr(cli, "_python_cells", lambda values: sent.extend(values) or
                        python_cells(values))
    values = small_ties()
    assert_formats_like_python(values)
    assert set(values[:9]) <= set(sent)
    monkeypatch.setattr(cli, "_NEAR_HALF", -1.0)
    assert_formats_like_python(np.concatenate([ties(), small_ties(), powers_of_ten()]))


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
    [1e-28, np.nextafter(1e-28, 0.0), np.nextafter(1e-28, 1.0), -1e-28, 1e-5, -1e-5,
     2.0 ** -20, -(2.0 ** -20), 1e-16, 0.0, -0.0, 2.5e-12, 1.25e-20, 3e-10, 9.5e-5],
], ids=["powers_of_ten", "range_edges", "zeros_and_subnormals", "huge_and_non_finite", "common",
        "exponent_form"])
def test_listed_values_format_like_python(values):
    assert_formats_like_python(values)


def test_exponent_form_trims_like_python():
    """Trailing zeros and a bare point go, as %.17g drops them; 1e-16 lies below 10**-16, so
    its 17 digits are not those of a rounded-up 1e-16."""
    xyz = np.array([[2.0 ** -20, 1e-5, -0.0], [1e-16, 0.0, 2.0 ** -30]])
    assert cli._obj_lines(b"v", xyz) == (b"v 9.5367431640625e-07 1.0000000000000001e-05 -0\n"
                                         b"v 9.9999999999999998e-17 0 9.3132257461547852e-10\n")


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
def test_a_log10_guess_one_ulp_off_is_corrected(monkeypatch, toward):
    """log10 one ulp off moves floor(log10 |x|) across powers of ten: at 10**E exactly a
    low guess gives D = 10**17, a carry; both directions must still print like Python."""
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(real(a), toward))
    assert_formats_like_python(np.concatenate([powers_of_ten(), ties(), small_ties(),
                                               [3.0, 1e15, 999.0, 2.0 ** -20, 1e-5, 1e-28]]))


def test_one_chunk_adds_no_more_than_before():
    """One 1000-row chunk with zeros and both notations: 238.6 KiB in four-word cells, where a
    680-row chunk took 237.4 KiB in five-word cells and a 512-row chunk 244.4 KiB while Python
    wrote the zeros and the exponent form.  The bound is the 265.7 KiB the writer added when it
    gathered point and keep words apart from the group words; the desk_annulus job's
    allocation peak sits beside this chunk."""
    rows = mesh(2, cli._OBJ_ROWS // 2, seed=5).x.reshape(-1, 3)
    cli._obj_lines(b"v", rows)
    tracemalloc.start()
    try:
        cli._obj_lines(b"v", rows)
        assert tracemalloc.get_traced_memory()[1] <= 266 * 1024
    finally:
        tracemalloc.stop()


WIDE_DOUBLE = ["double", "--surface.kind", "elliptic", "--surface.kappa", "0.6",
               "--surface.K_sign", "-1", "--surface.j0", "4", "--surface.j_lo", "-30",
               "--surface.j_hi", "30", "--rotation.k0", "6", "--rotation.k_count", "200",
               "--backlund.alpha", "(1.5707963267948966+0.8j)", "--backlund.seed", "(0.9+0.6j)"]


def test_wide_double_mesh_leaves_no_value_to_python(tmp_path, monkeypatch):
    """A 61 x 200 complex-alpha double on the benchmark's wide_double keys, end to end: the
    kernel writes all of its coordinates, 4 336 of them in exponent form, and none reaches
    Python's %.17g; the mesh equals the joined writer's."""
    sent, exported = [], []
    python_cells, export_obj = cli._python_cells, cli.export_obj
    monkeypatch.setattr(cli, "_python_cells", lambda values: sent.extend(values) or
                        python_cells(values))
    monkeypatch.setattr(cli, "export_obj", lambda *args: exported.append(args) or
                        export_obj(*args))
    path = tmp_path / "wide.obj"
    assert cli.main(WIDE_DOUBLE + ["--output.mesh", str(path)]) == cli.EXIT_OK
    (net, _, faces), = exported
    degenerate = np.zeros(60 * 199, dtype=bool)
    degenerate[faces] = True
    text = path.read_bytes()
    assert sent == [] and text.count(b"e-") > 4000
    assert text == joined_obj(net, degenerate.reshape(60, 199))


def mesh(nj, nk, seed):
    """A net whose coordinates span zeros, the fixed range and exponent notation."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(nj, nk, 3)) * 10.0 ** rng.integers(-8, 17, size=(nj, nk, 3))
    x[rng.random(size=x.shape) < 0.05] = 0.0
    n = rng.normal(size=(nj, nk, 3))
    n[..., 2] *= rng.random(size=(nj, nk)) < 0.5          # exact zeros in half the normals
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


def one_past_a_chunk(rows):
    """(nj, nk), both at least 2, whose nj * nk vertices are one more than a whole number of
    chunks of ``rows``: the fewest chunks for which that count has a divisor, smallest first."""
    n = rows + 1
    while all(n % d for d in range(2, int(n ** 0.5) + 1)):   # (rows + 1)^2 is never prime
        n += rows
    nj = next(d for d in range(2, n) if n % d == 0)
    return nj, n // nj


@pytest.mark.parametrize("nj, nk", [(1, 1), (2, cli._OBJ_ROWS // 2),
                                    one_past_a_chunk(cli._OBJ_ROWS)],
                         ids=["one_vertex", "one_chunk", "one_more_than_a_chunk"])
def test_obj_blocks_match_the_joined_writer(tmp_path, nj, nk):
    net = mesh(nj, nk, seed=nj * nk)
    degenerate = np.zeros((nj - 1, nk - 1), dtype=bool)
    degenerate[:, ::7] = True
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), np.flatnonzero(degenerate))
    assert path.read_bytes() == joined_obj(net, degenerate)
    assert path.read_bytes().count(b"# degenerate") == degenerate.sum()


def test_face_runs_match_the_joined_writer(tmp_path):
    """The f lines go out in chunks of ``_OBJ_FACES`` faces, cut at degenerate faces: one
    first in a chunk, one last in a chunk, two adjacent ones and the last face of the mesh."""
    F = cli._OBJ_FACES
    net = mesh(4, F + 2, seed=3)                      # 3 rows of F + 1 faces: four chunks
    degenerate = np.zeros((3, F + 1), dtype=bool)
    degenerate.flat[[F, 2 * F - 1, 2 * F + 3, 2 * F + 4, 3 * F + 2]] = True
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), np.flatnonzero(degenerate))
    assert path.read_bytes() == joined_obj(net, degenerate)


# values at the edges of the kernel's ranges: zeros, 1e-28 (Python below it), 1e-5 (the exponent
# form below 1e-4) and 1e16 (Python from it on), each with its neighbours
EDGES = np.array([0.0, -0.0, 1e-28, 1e-5, 1e16])
EDGES = np.concatenate([EDGES, np.nextafter(EDGES, 0.0), np.nextafter(EDGES, np.inf)])


@st.composite
def writer_cases(draw):
    """(net, degenerate): a mesh whose v/vn lines cross 0..3 chunk boundaries or whose f lines
    cross 1..2, with seeded coordinates, some of them at the edges (either sign), normals with
    zeros of either sign, and degenerate faces at random, at times the first and the last face
    of an f chunk among them."""
    rows, faces = cli._OBJ_ROWS, cli._OBJ_FACES
    if draw(st.booleans()):
        crossed, nj = draw(st.integers(0, 3)), draw(st.integers(1, 4))
        nk = draw(st.integers(-(-(crossed * rows + 1) // nj), (crossed + 1) * rows // nj))
    else:
        crossed, nj = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        nk = 1 + draw(st.integers(-(-(crossed * faces + 1) // (nj - 1)),
                                  (crossed + 1) * faces // (nj - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(nj, nk, 3)) * 10.0 ** rng.integers(-8, 12, size=(nj, nk, 3))
    edge = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    x[edge] = rng.choice(EDGES, edge.sum()) * rng.choice([-1.0, 1.0], edge.sum())
    n = rng.normal(size=(nj, nk, 3))
    zero = rng.random(n.shape) < 0.2                          # zeros of either sign,
    zero[..., 2] &= ~(zero[..., 0] & zero[..., 1])            # never all three
    n[zero] *= 0.0
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    degenerate = rng.random((max(nj - 1, 0), max(nk - 1, 0))) < draw(st.sampled_from([0.0, 0.02]))
    for start in range(faces, degenerate.size, faces):   # the faces either side of a chunk edge
        degenerate.flat[start - 1:start + 1] = draw(st.booleans()), draw(st.booleans())
    return ContactElementNet(x, n), degenerate


def desk_case(nj=7, nk=43):
    """(net, degenerate) of a desk-size mesh whose one f chunk holds runs on both sides of
    ``_SHORT_RUN`` (8, 1, 45, 1, 41, 1 and 155 faces), with degenerate faces in a short run,
    in a one-face run and in a long run."""
    faces = (nj - 1) * (nk - 1)
    runs = [len(lines) for _, lines in cli._face_runs(0, faces, nk)]
    assert min(runs) < cli._SHORT_RUN <= max(runs)
    net = mesh(nj, nk, seed=nk)
    degenerate = np.zeros((nj - 1, nk - 1), dtype=bool)
    degenerate.flat[[3, 8, 60]] = True
    return net, degenerate


@settings(max_examples=24, deadline=None, derandomize=True)
@given(writer_cases())
@example(desk_case())
def test_whole_meshes_match_the_joined_writer(tmp_path_factory, case):
    net, degenerate = case
    path = tmp_path_factory.mktemp("mesh") / "mesh.obj"
    cli.export_obj(net, str(path), np.flatnonzero(degenerate))
    assert path.read_bytes() == joined_obj(net, degenerate)
