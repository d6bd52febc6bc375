"""Command-line front end: build nets, transform them, export, verify.

    cknet COMMAND [--config job.ini] [--section.key value ...]
    cknet check [--config job.ini] [--criterion N ...] [--section.key value ...]
    cknet [COMMAND] -h | --help

COMMAND (generate, backlund, double, search or check) comes first.  Each
flag takes one value, as --name value or --name=value; names match exactly.
--config names an INI file of key = value sections, read without
interpolation, or a JSON object of section objects.  --criterion (check
only, repeatable) runs one acceptance criterion.  --section.key overrides
one config key.  A key the command does not read, from the file or an
override, is refused, as is one its job never reads (another family's
profile key, or backlund.p beside alpha).  -h or --help prints this text.
Meshes are Wavefront OBJ, reports JSON with one entry per measured invariant.

Exit codes: 0 success, 1 an invariant check failed, 2 configuration or
usage error (an unknown command, flag or criterion number, or a key the
command does not read, too), 3 numeric failure.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import isfinite, lcm

import numpy as np

from . import _Record
from .backlund import (_CLOSE_TOL, _require_real_angle, double_backlund, find_periodic_alpha,
                       single_backlund)
from .connect import build_ck_connection, gauge_to_hs
from .errors import CknetError, ConfigError, DegenerateGeometry
from .lattice import flatness_residual
from .nets import ContactElementNet, curvature_report
from .revolution import (Profile, _require_columns, build_rcnet, column_angles, conservation_drift,
                         edge_residuals, profile_elliptic, profile_hyp, profile_trig)

EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

class _StagedError(Exception):
    def __init__(self, stage: str, error: Exception):
        super().__init__(f"stage={stage}: {type(error).__name__}: {error}")
        self.stage = stage
        self.error = error


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage: its errors carry its name, an unwritable output as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except (CknetError, OverflowError, FloatingPointError, MemoryError) as exc:
        raise _StagedError(name, exc) from exc
    except OSError as exc:
        raise _StagedError(name, ConfigError(f"cannot write output: {exc}")) from exc


# ---------------------------------------------------------------------------
# config handling


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def load_config(path: str) -> dict:
    """Two-level config from an INI file or a JSON object of objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
        if not isinstance(doc, dict) or any(not isinstance(v, dict) for v in doc.values()):
            raise ConfigError("JSON config must be an object of section objects")
        for sec, kv in doc.items():
            for key, value in kv.items():   # a bool is an int to isinstance, and no number here
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise ConfigError(f"config key {sec}.{key} = {value!r} is not a string or "
                                      "a number")
        return doc
    import configparser   # only an INI config reads it: kept out of the CLI's import
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=path)
        return {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"invalid INI config {path}: {exc}") from exc
    finally:   # the parser and its section proxies refer to each other: free them now, not
        for proxy in parser.values():   # at the collector's next pass
            vars(proxy).clear()
        vars(parser).clear()


_HELP = ("-h", "--help")


def parse_argv(argv: list):
    """(command, config path or None, criterion numbers, overrides) of a command line, or None
    when it asks for help; see the module docstring for the grammar."""
    if argv and argv[0] in _HELP:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise ConfigError(f"expected a command first ({', '.join(COMMANDS)}), got {argv[:1]}")
    command, path, criteria, overrides = argv[0], None, [], {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok in _HELP:
            return None
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key, eq, value = tok[2:].partition("=")
        if not eq:
            if i + 1 >= len(argv):
                raise ConfigError(f"flag --{key} is missing a value")
            i += 1
            value = argv[i]
        i += 1
        if key == "config":
            path = value
        elif key == "criterion" and command == "check":
            try:
                criteria.append(int(value))
            except ValueError:
                raise ConfigError(f"--criterion takes an integer, got {value!r}") from None
        elif "." in key:
            sec, opt = key.split(".", 1)
            overrides.setdefault(sec, {})[opt] = value
        else:
            raise ConfigError(f"{command} has no flag --{key}; flags are --config, --section.key "
                              "and, for check only, --criterion")
    return command, path, criteria, overrides


def merge_config(base: dict, overrides: dict) -> dict:
    cfg = {s: dict(kv) for s, kv in base.items()}
    for sec, kv in overrides.items():
        cfg.setdefault(sec, {}).update(kv)
    return cfg


_MISSING = object()


def _get(cfg: dict, section: str, key: str, cast=str, default=_MISSING):
    if not any(f"{section}.{key}" in keys for keys in KEYS.values()):
        raise KeyError(f"no subcommand reads {section}.{key}")
    sec = cfg.get(section, {})
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing config key {section}.{key}")
        return default
    raw = sec[key]   # a str, int or float (see load_config)
    try:
        if cast is int and isinstance(raw, str):
            return int(raw, 0)
        if cast is int and raw != int(raw):   # a JSON number is never truncated into an int key
            raise ValueError(raw)
        value = cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {section}.{key} = {raw!r} is not a {cast.__name__}") from exc
    if cast in (float, complex) and not np.isfinite(value):
        raise ConfigError(f"config key {section}.{key} = {raw!r} is not finite")
    return value


def flat_parameters(cfg: dict) -> dict:
    return {f"{sec}.{key}": val for sec, kv in sorted(cfg.items()) for key, val in sorted(kv.items())}


# ---------------------------------------------------------------------------
# pipeline pieces


def build_profile(cfg: dict) -> Profile:
    kind = _get(cfg, "surface", "kind")
    j_lo = _get(cfg, "surface", "j_lo", int)
    j_hi = _get(cfg, "surface", "j_hi", int)
    if j_hi <= j_lo:
        raise ConfigError(f"need surface.j_hi > surface.j_lo, got {j_lo}..{j_hi}")
    if kind in ("trig", "hyp"):
        c = _get(cfg, "surface", "c", float)
        A = _get(cfg, "surface", "A", float)
        B = _get(cfg, "surface", "B", float, 0.0)
        cs = np.full(j_hi - j_lo, c)
        p = profile_trig(cs, A, B, j_lo=j_lo) if kind == "trig" else profile_hyp(cs, A, B, j_lo=j_lo)
    elif kind == "elliptic":
        kappa = _get(cfg, "surface", "kappa", float)
        K_sign = _get(cfg, "surface", "K_sign", int)
        Theta = _get(cfg, "surface", "Theta", float, None)
        j0 = _get(cfg, "surface", "j0", int, 2)
        p = profile_elliptic(kappa, K_sign, (j_lo, j_hi), Theta=Theta, j0=j0)
    else:
        raise ConfigError(f"surface.kind must be trig, hyp or elliptic, got {kind!r}")
    want = _get(cfg, "surface", "K_sign", int, p.K_sign)
    if want != p.K_sign:
        raise ConfigError(f"surface.K_sign = {want} contradicts the {kind} family (K = {p.K_sign})")
    return p


def rotation_step(cfg: dict):
    """(theta, k0, k_count) from the rotation section: theta and k0 given both must be
    consistent, and theta is 2 pi / k0 when k0 is given; k_count must be at least 2."""
    theta = _get(cfg, "rotation", "theta", float, None)
    k0 = _get(cfg, "rotation", "k0", int, None)
    k_count = _get(cfg, "rotation", "k_count", int)
    _require_columns(k_count, k0)
    if theta is None and k0 is None:
        raise ConfigError("rotation needs theta or k0")
    if k0 is not None:
        exact = 2.0 * np.pi / k0
        if theta is not None and not (abs(theta - exact) <= 1e-12):
            raise ConfigError(f"rotation.theta = {theta} and k0 = {k0} are inconsistent")
        return exact, k0, k_count
    return theta, None, k_count


# ---------------------------------------------------------------------------
# artifacts


# %.17g of a float64 x with 1e-28 <= |x| < 1e16 shows the 17 digits d0 d1 ... d16 of
# D = round(|x| * 10**k), k = 16 - E, E = floor(log10 |x|): in fixed notation for E >= -4, as
# d0.d1...d16e-NN below, trailing zeros dropped.  Dekker's two-product with 10**k held as two
# doubles forms D (README, "Output formats").  A value fills four little-endian uint64 words
# ("<u8": byte i of a word is byte i of the file on every host), NUL in every unused byte: a
# head of separator, sign and what precedes digit 1, the digits 1..16 packed eight to a word
# from a table of 4-digit groups, and a suffix word for "e-NN".  For E >= 1 the integer part
# gets a digit 0 after it, X = D + floor|x| * 9 * 10**k, which becomes the point.  The words are
# formed as planes, one per word of a line, and transposed once into lines.  Python's own %.17g
# writes the rest: subnormals, 0 < |x| < 1e-28, |x| >= 1e16, non-finite values and products
# within 2**-40 of half-way, exact ties among them.
#
# At its peak a chunk holds about 245 B a vertex, so 1000 vertices take the 239 KiB that 680
# took in five-word cells (tests/test_obj_format.py, test_one_chunk_adds_no_more_than_before).
_OBJ_ROWS = 1000   # vertices per formatted chunk: bounds the writer's memory
_OBJ_FACES = 4096   # faces per run of f lines, for the same reason
_SHORT_RUN = 32   # below it a run of f lines is cheaper through %d than through digit words
_VELTKAMP = 134217729.0   # 2**27 + 1: splits a float64 into two halves of at most 26 bits
_ROWS, _EXP_ROWS = 46, 25   # rows E + 29 for E = -29..16; E < -4 is the exponent form
_NEAR_HALF = 0.5 - 2.0 ** -40   # a product this near half-way is left to Python
_GROUP_OFFSET = np.array([4, 0, 12, 8], np.int16).reshape(4, 1, 1) * _ROWS   # by plane


@cache
def _digit_tables() -> tuple:
    """Lookup tables of the OBJ number writer, built on first use (not at import).

    Row r stands for E = r - 29.  Rows 1..44 are the kernel's, rows 1..24 the exponent form;
    row 0 marks a value left to Python and row 45 a zero.
    binade, edge: by j, 0 for zero, 1 for subnormals, else the binade (2**(j - 1024),
        2**(j - 1023)] of |x|: the row of its lowest E, and the largest double below
        10**(E + 1), above which |x| is on the next row.
    ten: 10**k = th + tl exactly for k = 16 - E: th, its Veltkamp halves and tl (0 for
        k <= 22), (4, 46).  nine: 9 * 10**k on the rows of E >= 1, 0 elsewhere.
    group: "<u4" word of each 4-digit group.  last: 46 times the place 1..4 of the group's
        last nonzero digit, -552 for none, so that a value's largest last[g_i] + 184 i is
        46 times the place 0..16 of its last nonzero digit among 1..16.
    fix: by row + 46 * last, words added to the two digit words and to the suffix: -"0" on
        every digit past max(last, E), "." or NUL on the point digit, and "e-NN".
    head: head words by t + hoff[row + 46 * last], t the digits that come before digit 1.
    """
    # the words added by (last, row): digit places q = 1..16, the point digit at q = E
    L, r = np.divmod(np.arange(17 * _ROWS), _ROWS)
    E = r - 29
    point = (E >= 1) & (E <= 15)
    q = np.arange(1, 17)
    digits = np.where(q > np.where(point, np.maximum(L, E), L)[:, None], np.int8(-48),
                      np.int8(0))
    digits = np.where(point[:, None] & (q == E[:, None]),
                      np.where(L > E, np.int8(-2), np.int8(-48))[:, None], digits)
    add = np.zeros((17 * _ROWS, 3, 8), np.int8)
    add[:, :2] = digits.reshape(-1, 2, 8)
    n = -E[(r >= 1) & (r < _EXP_ROWS)]                       # the exponent form's NN
    add[(r >= 1) & (r < _EXP_ROWS), 2, :4] = np.stack([101 + 0 * n, 45 + 0 * n, 48 + n // 10,
                                                        48 + n % 10], axis=1)
    fix = add.view("<u8").reshape(-1, 3)
    fix -= (add < 0).view("<u8").reshape(-1, 3) << np.uint64(8)
    fix = fix.T.copy()
    del add, digits
    # head words: " ", then right-aligned what comes before digit 1
    head = np.zeros((7, 100, 8), np.uint8)
    head[..., 0] = 32
    t = np.arange(100)
    head[0, :, 6], head[0, :, 7] = 48 + t // 10, 48 + t % 10      # E >= 1: two integer digits
    head[1, :, 6], head[1, :, 7] = 48 + t % 10, 46                # E = 0 or exponent: "d0."
    head[2, :, 7] = 48 + t % 10                                   # ... no digit after: "d0"
    for z in range(4):                                            # E = -1..-4: "0.000d0"
        head[3 + z, :, 7] = 48 + t % 10
        head[3 + z, :, 5 - z:7] = list(b"0." + b"0" * z)
    variant = np.where(point, 0, np.where((E >= -4) & (E <= -1), 2 - E, np.where(L > 0, 1, 2)))
    del L, r, E, point
    j = np.arange(2049)
    low = np.floor((j - 1024) * np.log10(2.0)).astype(np.intp)   # never within 1e-4 of an integer
    E = np.arange(-29, 17)
    below = []                                                # the largest double below 10**E
    for e in E.tolist():
        d = float(10 ** e) if e >= 0 else 1 / 10 ** -e       # correctly rounded
        n, m = d.as_integer_ratio() if e < 0 else (int(d), 1)
        below.append(d if (n * 10 ** -e < m if e < 0 else n < 10 ** e) else np.nextafter(d, 0.0))
    binade = np.where((low >= -29) & (low <= 15), low + 29, 0)
    edge = np.array(below)[binade + 1]                        # row 0 here: row 1 from 1e-28 up
    edge[(low < -29) | (low > 15) | (j < 2) | (j == 2048) | (binade == 44)] = np.inf
    binade[0], binade[1] = _ROWS - 1, 0   # |x| >= 1e16 on row 44 carries to Python at 10**17
    del j, low
    k = [10 ** (16 - e) for e in E.tolist()]
    th = np.array([float(v) for v in k])
    hi = _VELTKAMP * th
    hi -= hi - th
    ten = np.stack([th, hi, th - hi, [float(v - int(float(v))) for v in k]])
    nine = np.array([9 * v if 1 <= e <= 15 else 0 for v, e in zip(k, E.tolist())], np.uint64)
    ascii = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48   # digits 1-4 of a group
    place = (np.arange(1, 5, dtype=np.uint8) * (ascii != 48)).max(axis=1).astype(np.int16)
    group = ascii.copy().view("<u4").reshape(-1)
    del ascii
    last = np.where(place > 0, _ROWS * place, -12 * _ROWS).astype(np.int16)
    del place
    return (binade, edge, ten, nine, group, last, fix, head.view("<u8").reshape(-1), 100 * variant)


def _fixed_digits(a, row, ten):
    """(D, u) for 1e-28 <= a < 1e16 on ``row`` = E + 29: D = round(a * 10**k) as int64,
    k = 16 - E, rounded half to even as CPython rounds, and u, how far a * 10**k lay from D, to
    within 2**-48.  With a and th split by Veltkamp, Dekker's a * th = p + e has no rounding at
    all, and once p reaches 2**53 it is an even integer, so p + rint(e) is the product rounded
    half to even.  a * tl adds less than 16 and under 2**-48 of rounding, so the sum is off
    only where u lies that near 1/2."""
    p, bh, bl, tl = ten.take(row, axis=1)   # th, its halves and tl, one plane each
    p *= a
    ah = _VELTKAMP * a
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    e = ah * bh
    e -= p
    bh *= al
    e += np.multiply(ah, bl, out=ah)
    e += bh
    e += np.multiply(al, bl, out=bl)
    e += np.multiply(tl, a, out=tl)
    del ah, al, bl, tl
    r = np.rint(e, out=bh)
    e -= r
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    return D, np.abs(e, out=e)


def _python_cells(values: list):
    """Python's own " %.17g" of each value, as (len(values), 4) cell words."""
    return np.array([b" %.17g" % v for v in values], dtype="S32").view("<u8").reshape(-1, 4)


def _obj_lines(tag: bytes, xyz) -> bytes:
    """The bytes of ``b"<tag> %.17g %.17g %.17g\\n" % row`` for each row of ``xyz``."""
    binade, edge, ten, nine, group, last, fix, head, hoff = _digit_tables()
    m = len(xyz)
    a = np.abs(xyz.T, out=np.empty((3, m)))                  # component planes
    j = a.view(np.uint64) + np.uint64(2 ** 52 - 1)          # 0 for zero, 1 for subnormals
    j >>= np.uint64(52)
    j = j.view(np.int64)
    row = binade.take(j)
    row += a > edge.take(j)
    del j
    slow = None
    if row.min() == 0:   # outside the kernel's range: Python writes it, the kernel a zero
        slow = np.flatnonzero(row == 0)
        a.flat[slow], row.flat[slow] = 0.0, _ROWS - 1
    D, u = _fixed_digits(a, row, ten)
    if D.max() >= 10 ** 17:   # a carry into E + 1, or |x| >= 1e16
        off = np.flatnonzero(D >= 10 ** 17)
        big = off[a.flat[off] >= 1e16]
        row.flat[off] += 1
        D.flat[off] = 10 ** 16
        if big.size:
            D.flat[big], row.flat[big] = 0, _ROWS - 1
            slow = big if slow is None else np.concatenate((slow, big))
    if u.max() > _NEAR_HALF:   # too near half-way for the float sum: Python writes it
        near = np.flatnonzero(u > _NEAR_HALF)
        slow = near if slow is None else np.concatenate((slow, near))
    del u
    X = D.view(np.uint64)
    if row.max() >= 30:   # E >= 1: a digit 0 after the integer part, for the point
        X += np.floor(a, out=a).astype(np.uint64) * nine.take(row)
    del a, D
    t = X // 10 ** 16
    X -= t * 10 ** 16
    # the 4-digit groups of digits 1..16, groups 0..3 on planes 1, 0, 3, 2
    g = np.empty((4,) + X.shape, np.uint64)
    np.floor_divide(X, 10 ** 8, out=g[0])
    np.multiply(g[0], 10 ** 8, out=g[2])
    np.subtract(X, g[2], out=g[2])
    np.floor_divide(g[::2], 10 ** 4, out=g[1::2])
    for i in (0, 2):   # X, no longer read, holds the products
        g[i] -= np.multiply(g[i + 1], 10 ** 4, out=X)
    del X
    g = g.view(np.int64)
    last46 = last.take(g)
    last46 += _GROUP_OFFSET
    row += last46.max(axis=0)                                # row + 46 * last
    del last46
    # the words of each value, on the planes of g: head, digits 1-8, digits 9-16, suffix
    w = group.take(g)                                         # planes: groups 1, 0, 3, 2
    words = g.view(np.uint64)
    del g
    np.left_shift(w[::2], np.uint64(32), out=words[1:3])     # groups 1 and 3: bytes 4..7
    words[1:3] |= w[1::2]
    del w
    np.take(fix[2], row, out=words[3], mode="clip")
    words[1:3] += fix[:2].take(row, axis=1)
    t = t.view(np.int64)
    t += hoff.take(row)
    del row
    np.take(head, t, out=words[0], mode="clip")
    del t
    sign = xyz.T.view(np.int64) >> 63
    sign &= 45 << 8                                           # "-" after the separator
    words[0] |= sign.view(np.uint64)
    del sign
    if slow is not None and slow.size:
        c, i = np.divmod(slow, m)
        words[:, c, i] = _python_cells(xyz.T[c, i].tolist()).T
    # each line ends in a newline and the next line's tag, after the suffix's "e-NN"
    words[3, 2] |= int.from_bytes(b"\n" + tag, "little") << 40
    text = words.transpose(2, 1, 0).tobytes()
    del words
    text = text.translate(None, b"\0")
    return tag + memoryview(text)[:-len(tag)]


def _face_runs(lo: int, hi: int, nk: int):
    """The ``b"f %d %d %d %d\\n"`` lines of the row-major faces lo..hi-1, in runs over which
    each corner keeps its digit count: (first face, (count, L) uint8 lines) for each run.  The
    corners of a face at vertex a (1-based) are a, a + 1, a + nk + 1 and a + nk.  A run of
    ``_SHORT_RUN`` faces or more copies its lines from digit words: each index the faces touch
    is formatted once, zero-padded to 8 digits a word from the 4-digit table, and a line copies
    the last digits of its corners' words.  A shorter run, where those calls cost more than
    the lines, is formatted by ``%d``."""
    corner = np.arange(lo, hi)
    corner += corner // (nk - 1) + 1                          # vertex a of each face
    a, last = int(corner[0]), int(corner[-1])
    offsets = (0, 1, nk + 1, nk)
    cuts = {lo, hi}   # where a corner's index reaches a power of ten
    for o in offsets:
        for d in range(len(str(a + o)), len(str(last + o))):
            j, k = divmod(10 ** d - o - 1, nk)
            cuts.add(j * (nk - 1) + k)
    cuts = sorted(cuts)
    digits = None
    for start, stop in zip(cuts, cuts[1:]):
        run = corner[start - lo:stop - lo]
        if stop - start < _SHORT_RUN:
            text = b"".join([b"f %d %d %d %d\n" % (v, v + 1, v + nk + 1, v + nk)
                             for v in run.tolist()])
            yield start, np.frombuffer(text, np.uint8).reshape(stop - start, -1)
            continue
        if digits is None:
            digits = _index_digits(a, last + nk + 1)
        width = [len(str(int(run[0]) + o)) for o in offsets]
        cells = digits.take((run - a)[:, None] + offsets, axis=0)
        lines = np.empty((stop - start, 6 + sum(width)), np.uint8)
        lines[:, 0], lines[:, -1] = ord("f"), ord("\n")
        at = 1
        for i, w in enumerate(width):
            lines[:, at] = ord(" ")
            lines[:, at + 1:at + 1 + w] = cells[:, i, -w:]
            at += w + 1
        del cells
        yield start, lines


def _index_digits(first: int, last: int):
    """The decimal digits of the indices first..last, one uint8 row each, zero-padded to 8
    digits a word (16 from 10**8 on) from the 4-digit table."""
    group = _digit_tables()[4]
    v = np.arange(first, last + 1, dtype=np.uint64)
    parts = [v] if last < 10 ** 8 else [v // 10 ** 8, v % 10 ** 8]
    words = np.empty((len(v), len(parts)), "<u8")
    for i, part in enumerate(parts):
        high = part // 10 ** 4
        part = part - high * 10 ** 4
        words[:, i] = group.take(high.view(np.int64))
        words[:, i] |= group.take(part.view(np.int64)).astype(np.uint64) << np.uint64(32)
    return words.view(np.uint8).reshape(len(v), -1)


def export_obj(net: ContactElementNet, path: str, degenerate: np.ndarray) -> None:
    """Wavefront OBJ quad mesh: v/vn per vertex, f per nondegenerate face.

    Vertices are written row-major (j outer, k inner); a face at (j, k)
    references, in order, (j,k), (j,k+1), (j+1,k+1), (j+1,k) by 1-based
    index.  Degenerate faces, the sorted row-major face indices
    ``degenerate`` that ``curvature_report`` returns, become
    `# degenerate j k` comments.  Coordinates are written
    as ``%.17g``, so they read back exactly; a non-finite one raises
    DegenerateGeometry before the file is opened.
    """
    nj, nk = net.shape
    if not np.isfinite([net.x.min(), net.x.max(), net.n.min(), net.n.max()]).all():   # NaN too
        raise DegenerateGeometry("the net has a non-finite coordinate; no mesh written")
    with open(path, "wb") as fh:
        fh.write(b"# cknet quad mesh %d x %d\n" % (nj, nk))
        for tag, arr in ((b"v", net.x), (b"vn", net.n)):
            rows = arr.reshape(-1, 3)
            for start in range(0, len(rows), _OBJ_ROWS):
                fh.write(_obj_lines(tag, rows[start:start + _OBJ_ROWS]))
        # one run of lines lives at a time; a stretch between degenerate faces is a slice of it
        faces = (nj - 1) * (nk - 1)
        for lo in range(0, faces, _OBJ_FACES):
            for first, lines in _face_runs(lo, min(lo + _OBJ_FACES, faces), nk):
                stop = first + len(lines)
                a, b = np.searchsorted(degenerate, (first, stop))
                start = 0
                for i in (degenerate[a:b] - first).tolist() + [stop - first]:
                    fh.write(lines[start:i])
                    fh.write(b"# degenerate %d %d\n" % divmod(first + i, nk - 1)
                             if i < stop - first else b"")
                    start = i + 1
                del lines   # before the next run is formed


class CheckResult(_Record):
    """One measured invariant: its worst residual against the tolerance.

    ``passed`` is residual <= tolerance, so a NaN or inf residual fails.
    """

    __slots__ = ("name", "max_residual", "tolerance", "passed")

    def __init__(self, name: str, max_residual: float, tolerance: float):
        self._fill(name, float(max_residual), tolerance)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))


# one report entry, keys sorted and indented as json.dumps(indent=2, sort_keys=True) writes them
_ENTRY = ('    {\n      "max_residual": %s,\n      "name": %s,\n      "pass": %s,\n'
          '      "tolerance": %s\n    }')


def _number(v) -> str:
    """A number as json.dumps(allow_nan=False) writes it (which refuses NaN and inf)."""
    if isinstance(v, float) and isfinite(v):
        return float.__repr__(v)
    return json.dumps(v, allow_nan=False)


def report_json(entries: list, parameters: dict, path: str) -> None:
    """Strict JSON (RFC 8259): a non-finite residual is written as null.  The bytes are those
    of json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"."""
    checks = ",\n".join(_ENTRY % (_number(r.max_residual) if isfinite(r.max_residual) else "null",
                                  encode_basestring_ascii(r.name), "true" if r.passed else "false",
                                  _number(r.tolerance)) for r in entries)
    params = json.dumps(dict(parameters), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "checks": [%s],\n  "parameters": %s\n}\n'
                 % (f"\n{checks}\n  " if checks else "", params.replace("\n", "\n  ")))


# ---------------------------------------------------------------------------
# invariant measurements shared by the subcommands


def _period_entry(name: str, worst: dict) -> list:
    return [CheckResult(name, worst["period"], 1e-8)] if "period" in worst else []


def net_report_entries(p: Profile, net: ContactElementNet, worst: dict) -> list:
    """Report entries of a net of the profile ``p``: its unit residual and its
    ``curvature_report`` residuals (Gauss, edge and, when measured, period)."""
    return [
        CheckResult("gaussian_constancy", worst["gauss"], 1e-9),
        CheckResult("edge_constraint", worst["edge"], 1e-9),
        CheckResult("profile_relations", edge_residuals(p), 1e-10),
        CheckResult("conservation", conservation_drift(p), 1e-10),
        CheckResult("unit_normal", net.unit_residual, 1e-9),
    ] + _period_entry("rotational_period", worst)


def backlund_report_entries(worst: dict) -> list:
    """Report entries of a single transform from the ``curvature_report`` residuals of the
    new net against the base net (transform, Gauss and, when measured, period)."""
    return [
        CheckResult("backlund_distance", worst["distance"], 1e-9),
        CheckResult("backlund_normal_angle", worst["angle"], 1e-9),
        CheckResult("backlund_orthogonality", worst["orthogonality"], 1e-9),
        CheckResult("transformed_gauss", worst["gauss"], 1e-7),
    ] + _period_entry("transformed_period", worst)


def _period(net: ContactElementNet, *steps):
    """The lcm of the steps (k0, and N0 for a transformed net), after which the net repeats,
    when every step is set and the net has more columns; None otherwise."""
    if None in steps or net.shape[1] <= lcm(*steps):
        return None
    return lcm(*steps)


def _finish(entries: list, parameters: dict, cfg: dict, net=None, degenerate=None) -> int:
    report_path = _get(cfg, "output", "report", str, None)
    if report_path:
        _stage("report", report_json, entries, parameters, report_path)
    sys.stdout.write("".join(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
                             f"residual={r.max_residual:.3e} tol={r.tolerance:.1e}\n"
                             for r in entries))
    # the mesh last, so a refused one still leaves the report; search and check build no net
    if net is not None and (mesh_path := _get(cfg, "output", "mesh", str, None)):
        _stage("export", export_obj, net, mesh_path, degenerate)
    return EXIT_OK if all(r.passed for r in entries) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# subcommands


def _angles(theta, k0, k_count: int, k_lo: int = 0):
    """The column angles of a rotation step from ``rotation_step``: by k0 when it is given."""
    return _stage("rcnet", column_angles, k_count, None if k0 else theta, k0, k_lo)


def cmd_generate(cfg: dict) -> int:
    p = _stage("profile", build_profile, cfg)
    theta, k0, k_count = _stage("rotation", rotation_step, cfg)
    net = _stage("rcnet", build_rcnet, p,
                 _angles(theta, k0, k_count, _get(cfg, "rotation", "k_lo", int, 0)))
    worst, degenerate = _stage("verify", curvature_report, net, p.K_sign, edge=True,
                               period=_period(net, k0))
    params = flat_parameters(cfg)
    params["rotation.theta_effective"] = float(theta)
    return _finish(net_report_entries(p, net, worst), params, cfg, net, degenerate)


def _hs_pipeline(cfg: dict):
    """Profile, rotation, connection and its normal-form data: what every transform reads."""
    p = _stage("profile", build_profile, cfg)
    theta, k0, k_count = _stage("rotation", rotation_step, cfg)
    conn, data = _stage("connect", build_ck_connection, p, theta)
    return (theta, k0, k_count), conn, _stage("gauge", gauge_to_hs, conn, data)


def _search(cfg: dict, hs, N0: int, params: dict):
    """The angle that closes the transform after N0 steps, recorded in ``params``."""
    found = _stage("search", find_periodic_alpha, hs, N0, p=_get(cfg, "backlund", "p", int, None))
    params["backlund.alpha_found"] = str(complex(found.alpha))
    params["backlund.p_found"] = found.p
    params["backlund.trace_residual"] = found.residual
    return found


def _resolve_alpha(cfg: dict, hs, params: dict):
    alpha = _get(cfg, "backlund", "alpha", complex, None)
    if alpha is not None:
        return alpha
    N0 = _get(cfg, "backlund", "N0", int, None)
    if N0 is None:
        raise ConfigError("backlund needs alpha or N0")
    return complex(_search(cfg, hs, N0, params).alpha)


def cmd_backlund(cfg: dict) -> int:
    (theta, k0, k_count), conn, hs = _hs_pipeline(cfg)
    ang = _angles(theta, k0, k_count)
    base = _stage("rcnet", build_rcnet, hs.profile, ang)   # the transform checks read it
    params = flat_parameters(cfg)
    alpha = _require_real_angle(_resolve_alpha(cfg, hs, params))
    seed = _get(cfg, "backlund", "seed", complex, 1.0)
    net = _stage("backlund", single_backlund, hs, ang, alpha, seed)
    worst, degenerate = _stage("verify", curvature_report, net, base=base, alpha=alpha,
                               period=_period(net, k0, _get(cfg, "backlund", "N0", int, None)))
    entries = [CheckResult("flatness", flatness_residual(conn), 1e-11)]
    return _finish(entries + backlund_report_entries(worst), params, cfg, net, degenerate)


def cmd_double(cfg: dict) -> int:
    (theta, k0, k_count), conn, hs = _hs_pipeline(cfg)
    ang = _angles(theta, k0, k_count)
    params = flat_parameters(cfg)
    net, rep = _stage("backlund", double_backlund, hs, ang, _resolve_alpha(cfg, hs, params),
                      _get(cfg, "backlund", "seed", complex, 1.0),
                      _get(cfg, "backlund", "seed_hat", complex, None))
    worst, degenerate = _stage("verify", curvature_report, net,
                               period=_period(net, k0, _get(cfg, "backlund", "N0", int, None)))
    entries = [
        CheckResult("flatness", flatness_residual(conn), 1e-11),
        CheckResult("imag_residue", rep.imag_residue, 1e-9),
        CheckResult("unit_normal", net.unit_residual, 1e-9),
        CheckResult("transformed_gauss", worst["gauss"], 1e-7),
        CheckResult("permutability_unit", rep.unit_residual, 1e-10),
    ] + _period_entry("transformed_period", worst)
    return _finish(entries, params, cfg, net, degenerate)


def cmd_search(cfg: dict) -> int:
    *_, hs = _hs_pipeline(cfg)
    params = flat_parameters(cfg)
    found = _search(cfg, hs, _get(cfg, "backlund", "N0", int), params)
    entries = [CheckResult("periodicity_power", found.residual, _CLOSE_TOL)]
    print(f"alpha = {found.alpha!r}  p = {found.p}  residual = {found.residual:.3e}")
    return _finish(entries, params, cfg)


def cmd_check(cfg: dict, *criteria: int) -> int:
    from . import checks   # the catalogue and the reference path load for this command only
    numbers = set(criteria) or None
    results = _stage("check", checks.run_all, numbers)
    params = {"criteria": sorted(numbers) if numbers else "all"}
    return _finish(results, params, cfg)


# ---------------------------------------------------------------------------


COMMANDS = {"generate": cmd_generate, "backlund": cmd_backlund, "double": cmd_double,
            "search": cmd_search, "check": cmd_check}

# the config keys each subcommand reads, from three shared groups; main refuses every other key
_NET = frozenset(("surface.kind", "surface.j_lo", "surface.j_hi", "surface.c", "surface.A",
                  "surface.B", "surface.kappa", "surface.K_sign", "surface.Theta", "surface.j0",
                  "rotation.theta", "rotation.k0", "rotation.k_count"))   # profile and rotation
_TRANSFORM = frozenset(("backlund.alpha", "backlund.N0", "backlund.p", "backlund.seed"))
_OUTPUT = frozenset(("output.mesh", "output.report"))
KEYS = {"generate": _NET | _OUTPUT | {"rotation.k_lo"},
        "backlund": _NET | _TRANSFORM | _OUTPUT,
        "double": _NET | _TRANSFORM | _OUTPUT | {"backlund.seed_hat"},
        "search": _NET | {"backlund.N0", "backlund.p", "output.report"},
        "check": frozenset(("output.report",))}
_KIND_UNREAD = {"elliptic": ("c", "A", "B"), "trig": ("kappa", "Theta", "j0"),
                "hyp": ("kappa", "Theta", "j0")}   # the profile keys each family leaves unread


def _refuse_unread(command: str, flat: dict) -> None:
    """ConfigError for the first key, in sorted order, that the command does not read, or
    else that its job's path never reads: another family's, or p where no search runs."""
    if unread := sorted(set(flat) - KEYS[command]):
        raise ConfigError(f"{command} does not read config key {unread[0]}")
    kind = flat.get("surface.kind")
    beside = {f"surface.{key}": f"surface.kind = {kind}" for key in _KIND_UNREAD.get(kind, ())}
    if "backlund.alpha" in flat:
        beside["backlund.p"] = "backlund.alpha"
    if unread := sorted(set(flat) & set(beside)):
        raise ConfigError(f"{command} does not read config key {unread[0]} beside "
                          f"{beside[unread[0]]}")


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(__doc__)
            return EXIT_OK
        command, path, criteria, overrides = args
        cfg = merge_config(load_config(path) if path is not None else {}, overrides)
        _refuse_unread(command, flat_parameters(cfg))
        return COMMANDS[command](cfg, *criteria)
    except (_StagedError, CknetError) as exc:
        staged = exc if isinstance(exc, _StagedError) else _StagedError("config", exc)
        print(f"error: {staged}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(staged.error, ConfigError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
