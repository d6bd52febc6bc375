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

import configparser
import json
import sys
from dataclasses import dataclass, field
from functools import cache
from math import isfinite, lcm

import numpy as np

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
# doubles forms D (README, "Output formats").  A value fills five little-endian uint64 words
# ("<u8": byte i of a word is byte i of the file on every host), NUL in every unused byte: a
# head of separator, sign, "0." and leading zeros and digit 0, then [point slot, digit] pairs
# for 1..16 from a table of 4-digit groups.  The exponent form takes D * 100: its head holds
# d0.d1d2, and "e-NN" goes over the two zeros that end its groups.  A zero is formed as 1e16
# on a row of its own.  Python's own %.17g writes the rest: subnormals, 0 < |x| < 1e-28,
# |x| >= 1e16, non-finite values and products within 2**-40 of half-way, exact ties among them.
#
# At its peak a chunk holds about 360 B a vertex: its output and at most nine float64 planes of
# its values.  So 680 vertices stay within the 244 KiB that 512 took while Python wrote the
# exponent form (tests/test_obj_format.py, test_one_chunk_adds_no_more_than_before).
_OBJ_ROWS = 680   # vertices per formatted chunk: bounds the writer's memory
_OBJ_FACES = 4096   # faces per run of f lines, for the same reason
_VELTKAMP = 134217729.0   # 2**27 + 1: splits a float64 into two halves of at most 26 bits
# the range's edges as bit patterns, which order like |x|; the double nearest 1e-28 is below it
_FIXED_BITS = np.array([1.0000000000000001e-28, 1e16]).view(np.uint64)
_ROWS, _EXP_ROWS = 46, 25   # table rows E + 29 for E = -29..16; E < -4 is the exponent form
_LOG_LEAN = 1.0 + 2.0 ** -50   # moves log10 |x| away from 0 by more than its error
_NEAR_HALF = 0.5 - 2.0 ** -40   # a product this near half-way is left to Python


@cache
def _digit_tables() -> tuple:
    """Lookup tables of the OBJ number writer, built on first use (not at import) from uint8
    pieces: the 10**4 groups' digits take 40 kB, where int64 ones and a matmul peaked at 1.1 MB.

    Row r of fix, ten and scale stands for E = r - 29: rows 0..24 are the exponent form and
    25..44 fixed notation.  No value in range ends on row 0 (E = -29), but a first guess may,
    and on row 45 (E = 16) only the zeros end: they are held as 1e16 (D = 10**16).
    group: "<u8" word of each 4-digit group, its digits at bytes 1, 3, 5, 7; place: the place
        1..4 of its last nonzero digit, 0 for none.
    fix: (4, 17 * 46) words added to the group words, by (last place, row).
    head: head words, sign byte NUL: the exponent form's by (digits 3..16 all 0 or not,
        d0d1d2), then the fixed rows' by (row, d0); start: the offset of each fix row's heads.
    ten: 10**k = th + tl exactly for k = 16 - E: th, its Veltkamp halves and tl (0 for k <= 22),
        (4, 46); scale: 100 on the exponent form's rows, 1 elsewhere.
    """
    ascii = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48   # digits 1-4 of a group
    place = (np.arange(1, 5, dtype=np.uint8) * (ascii != 48)).max(axis=1).astype(np.int16)
    group = np.zeros((10 ** 4, 8), np.uint8)
    group[:, 1::2] = ascii
    d = ascii[:1000, 1:].T.copy()                             # d0, d1, d2 of 0..999
    del ascii
    # bytes added to the group words: "." in the point slot of digit E + 1 when a later digit
    # is kept, and -"0" on every digit past max(last, E), so trailing zeros become NUL; the word
    # sums carry and borrow nothing, since those digit bytes are "0" and the point slot NUL.
    # The exponent form has its point in the head, and writes "e-NN" over its last two digits.
    q = np.arange(1, 17, dtype=np.int8).reshape(4, 1, 1, 4)   # the digit places of each word
    L, E = np.arange(17, dtype=np.int8)[:, None, None], np.arange(-29, 17, dtype=np.int8)[:, None]
    F = np.where((E >= -4) & (E < 16), E, np.int8(0))         # the place before the point
    add = np.zeros((4, 17, _ROWS, 8), np.int8)
    add[..., 1::2] = np.int8(-48) * (q > np.maximum(L, F))
    add[..., ::2] = np.int8(46) * ((q == F + 1) & (L > F) & (E >= -4))
    add[3, :, :_EXP_ROWS, 4:] = [[101, 45 - 48, 48 + e // 10, e % 10] for e in range(29, 4, -1)]
    fix = add.view("<u8")
    fix -= (add < 0).view("<u8") << np.uint64(8)
    head = np.zeros((2210, 8), np.uint8)                      # 2 * 1000 exponent, 21 * 10 fixed
    head[:, 0] = 32
    expo, fixed = head[:2000].reshape(2, 1000, 8), head[2000:].reshape(21, 10, 8)
    expo[..., 3], expo[..., 4], expo[..., 5], expo[..., 7] = d[0], 46, d[1], d[2]
    expo[1, d[2] == 48, 7] = 0                                # no digit after d2: trim it,
    expo[1, (d[1] == 48) & (d[2] == 48), 4:6] = 0             # and d1 and the point with it
    fixed[:20, :, 7] = np.arange(48, 58)
    for e in range(-4, 0):
        fixed[e + 4, :, 2:3 - e] = list(b"0.000"[:1 - e])
    fixed[20, :, 7] = 48                                      # row 45: a zero
    L, r = np.divmod(np.arange(17 * _ROWS), _ROWS)
    start = np.where(r < _EXP_ROWS, 1000 * (L == 0), 2000 + 10 * (r - _EXP_ROWS))
    k = [10 ** (16 - e) for e in range(-29, 17)]
    th = np.array([float(v) for v in k])
    hi = _VELTKAMP * th
    hi -= hi - th
    ten = np.stack([th, hi, th - hi, [float(v - int(float(v))) for v in k]])
    return (group.view("<u8").reshape(-1), place, fix.reshape(4, -1), head.view("<u8").reshape(-1),
            start, ten, np.where(np.arange(_ROWS) < _EXP_ROWS, 100, 1))


def _fixed_digits(a, row, ten):
    """(D, u) for 1e-28 <= a < 1e16 and ``row`` = E + 29 or one off: D = round(a * 10**k) as
    int64, k = 16 - E, rounded half to even as CPython rounds, and u, how far a * 10**k lay from
    D, to within 2**-48.  With a and th split by Veltkamp, Dekker's a * th = p + e has no
    rounding at all, and once p reaches 2**53 it is an even integer, so p + rint(e) is the
    product rounded half to even.  a * tl adds less than 16 and under 2**-48 of rounding, so
    the sum is off only where u lies that near 1/2."""
    p = ten[0].take(row)
    p *= a
    ah = _VELTKAMP * a
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    bh = ten[1].take(row)
    e = ah * bh
    e -= p
    bh *= al
    bl = ten[2].take(row)
    e += np.multiply(ah, bl, out=ah)
    e += bh
    e += np.multiply(al, bl, out=bl)
    np.take(ten[3], row, out=ah)
    e += np.multiply(ah, a, out=ah)
    del al, bl
    r = np.rint(e, out=bh)
    e -= r
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    return D, np.abs(e, out=e)


def _digit_groups(D):
    """(g, d0): the planes g[0..3] of the four 4-digit groups that end D, read as an unsigned
    17-digit number (d0 one digit) or, in the exponent form, 19-digit (d0 three digits); D is
    overwritten."""
    D = D.view(np.uint64)
    g = np.empty((4,) + D.shape, np.uint64)
    np.floor_divide(D, 10 ** 8, out=g[1])                     # d0 and groups 0, 1
    D -= g[1] * 10 ** 8                                       # groups 2, 3
    np.floor_divide(D, 10 ** 4, out=g[2])
    np.subtract(D, g[2] * 10 ** 4, out=g[3])
    np.floor_divide(g[1], 10 ** 4, out=g[0])                  # d0 and group 0
    g[1] -= g[0] * 10 ** 4
    d0 = g[0] // 10 ** 4
    g[0] -= d0 * 10 ** 4
    return g.view(np.int64), d0.view(np.int64)


def _last_place(g, place):
    """The place, 1..16, of the last nonzero digit among 1..16 of each value, 0 for none, from
    its groups g; only values whose digits 13-16 are all 0 look further left."""
    last = place.take(g[3]) + 12
    if not g[3].all():
        zero = np.flatnonzero(g[3] == 0)
        p = place.take(g.reshape(4, -1)[:, zero])
        last.flat[zero] = np.max((p + np.arange(0, 16, 4)[:, None]) * (p > 0), axis=0)
    return last


def _python_cells(values: list):
    """Python's own " %.17g" of each value, as (len(values), 5) cell words."""
    return np.array([b" %.17g" % v for v in values], dtype="S40").view("<u8").reshape(-1, 5)


def _fill_cells(xyz, cell) -> None:
    """Write %.17g of each value of the (n, 3) array ``xyz`` into its (n, 3, 5) word cell."""
    group, place, fix, head, start, ten, scale = _digit_tables()
    a = np.abs(xyz)
    outside = (a.view(np.uint64) - _FIXED_BITS[0]) >= _FIXED_BITS[1] - _FIXED_BITS[0]   # 0, NaN
    slow = np.flatnonzero(outside) if outside.any() else None
    del outside
    if slow is not None:
        a.flat[slow] = 1e16   # row 45 prints it as a zero; Python overwrites the others
        slow = slow[xyz.flat[slow] != 0]
    # E + 29, or one off; leaning away from E = 0, the guess is never E for an |x| just below
    # 10**E, E < 0, whose D rounds up to 10**16 there and would print as 10**E
    row = np.log10(a)
    row *= _LOG_LEAN
    row = np.floor(row, out=row).astype(np.intp)
    row += 29
    D, u = _fixed_digits(a, row, ten)
    off = (D - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16      # D outside [10**16, 10**17)
    if off.any():   # floor(log10 a) was one off, or D = 10**17 carries into E + 1
        off = np.flatnonzero(off)
        row.flat[off] += np.where(D.flat[off] < 10 ** 16, -1, 1)
        D.flat[off], near = _fixed_digits(a.flat[off], row.flat[off], ten)
        u.flat[off] = np.maximum(u.flat[off], near)   # a carry's first product may lie near half
    if u.max(initial=0.0) > _NEAR_HALF:   # too near half-way for the float sum: Python writes it
        near = np.flatnonzero(u > _NEAR_HALF)
        slow = near if slow is None else np.concatenate((slow, near))
    del a, u
    D *= scale.take(row)                                      # read unsigned: it may wrap
    g, d0 = _digit_groups(D)
    del D
    row += _ROWS * _last_place(g, place)                      # the row of fix
    d0 += start.take(row)
    w = (xyz.view(np.int64) >> 63).view(np.uint64)            # all ones where the sign bit is set
    w &= 45 << 8                                              # "-" after the separator
    w |= head.take(d0)
    cell[..., 0] = w
    del d0, w
    w = group.take(g)
    del g
    w += fix.take(row, axis=1)
    cell[..., 1:] = w.transpose(1, 2, 0)
    if slow is not None and slow.size:
        cell[slow // 3, slow % 3] = _python_cells(xyz.flat[slow].tolist())


def _obj_lines(tag: bytes, xyz) -> bytes:
    """The bytes of ``b"<tag> %.17g %.17g %.17g\\n" % row`` for each row of ``xyz``."""
    out = np.zeros((len(xyz), 17), "<u8")
    out[:, 0], out[:, 16] = int.from_bytes(tag, "little"), 10
    _fill_cells(xyz, out[:, 1:16].reshape(-1, 3, 5))
    text = out.tobytes()
    del out   # translate allocates as much again as it reads
    return text.translate(None, b"\0")


def _face_rows(lo: int, hi: int, nk: int):
    """Rows of ``b"f %d %d %d %d\\n"`` for the row-major faces lo..hi-1, as little-endian uint64
    words with NUL where no byte is printed: the 1-based indices of the corners (j,k), (j,k+1),
    (j+1,k+1), (j+1,k).  Each index the faces touch is formatted once, into a cell of words
    holding " %d", and the cells are gathered per corner."""
    corner = np.arange(lo, hi)
    corner += corner // (nk - 1) + 1   # the index of corner (j,k) of each face
    # corners (j,k) and (j,k+1) lie in a..b, the other two nk further on, in b+1+gap..b+nk
    a, b = int(corner[0]), int(corner[-1]) + 1
    gap = max(a + nk - b - 1, 0)
    v = np.r_[a:b + 1, b + 1 + gap:b + nk + 1]   # every index the faces touch, once
    width = len(str(b + nk))
    cells = np.zeros((len(v), (width + 8) // 8 * 8), np.uint8)
    cells[:, 0] = ord(" ")
    for i in range(width):
        place = 10 ** (width - 1 - i)
        np.copyto(cells[:, 1 + i], v // place % 10 + 48, casting="unsafe", where=v >= place)
    cells = cells.view("<u8")
    rows = np.empty((len(corner), 4 * cells.shape[1] + 2), "<u8")
    rows[:, 0], rows[:, -1] = ord("f"), ord("\n")
    corners = rows[:, 1:-1].reshape(len(corner), 4, -1)
    corner -= a
    for i, offset in enumerate((0, 1, nk + 1 - gap, nk - gap)):
        corners[:, i] = cells[corner + offset]
    return rows


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
        # one chunk's lines live at a time, as bytes; a run between degenerate faces is a slice
        faces = (nj - 1) * (nk - 1)
        for lo in range(0, faces, _OBJ_FACES):
            hi = min(lo + _OBJ_FACES, faces)
            lines = _face_rows(lo, hi, nk)
            width, lines, start = lines.itemsize * lines.shape[1], lines.tobytes(), 0
            a, b = np.searchsorted(degenerate, (lo, hi))
            for i in (degenerate[a:b] - lo).tolist() + [hi - lo]:
                fh.write(lines[start * width:i * width].translate(None, b"\0"))
                fh.write(b"# degenerate %d %d\n" % divmod(lo + i, nk - 1) if i < hi - lo else b"")
                start = i + 1
            del lines   # before the next chunk is formed


@dataclass(frozen=True)
class CheckResult:
    """One measured invariant: its worst residual against the tolerance.

    ``passed`` is residual <= tolerance, so a NaN or inf residual fails.
    """

    name: str
    max_residual: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))


def report_json(entries: list, parameters: dict, path: str) -> None:
    """Strict JSON (RFC 8259): a non-finite residual is written as null."""
    checks = [{"name": r.name, "tolerance": r.tolerance, "pass": r.passed,
               "max_residual": r.max_residual if isfinite(r.max_residual) else None}
              for r in entries]
    doc = {"checks": checks, "parameters": dict(parameters)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    for r in entries:
        print(("PASS" if r.passed else "FAIL")
              + f" {r.name} residual={r.max_residual:.3e} tol={r.tolerance:.1e}")
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
