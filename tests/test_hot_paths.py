"""numpy's Python-level wrappers stay off cknet's numeric paths.

``np.max(a)`` reaches the same ufunc loop as ``a.max()`` but pays the ``__array_function__``
dispatch and ``_wrapreduction`` first: on a desk-size array about twice the method's cost,
and a ``cknet check`` makes about a thousand such calls.  So a reduction, cumulative
operation, clip, real or imaginary part, take, searchsorted or flatnonzero of an array is the
array's method or attribute.  A call on a list or tuple display stays a function: a list has
no such method, and the builtin ``max`` would drop a NaN.
"""

import ast
from pathlib import Path

import cknet

WRAPPERS = {"max", "min", "any", "all", "sum", "mean", "cumsum", "cumprod", "clip", "real",
            "imag", "take", "searchsorted", "flatnonzero"}
SOURCES = sorted(Path(cknet.__file__).parent.glob("*.py"))


def wrapper_calls(tree):
    """(line, name) of each ``np.<name>(first, ...)`` with ``name`` in WRAPPERS and ``first``
    not a list or tuple display."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in WRAPPERS
                and not (node.args and isinstance(node.args[0],
                                                  (ast.List, ast.ListComp, ast.Tuple)))):
            yield node.lineno, node.func.attr


def test_the_scan_finds_wrappers_and_passes_displays():
    tree = ast.parse("np.max(a)\nnp.clip(x.y, 0, 1)\nnp.real(f(z))\nnp.flatnonzero(m == 0)\n"
                     "np.max([a, b])\nnp.max([r for r in rs])\nnp.any((a, b))\na.max()\n"
                     "np.maximum.reduce([a, b])\nnp.abs(a)\n")
    assert sorted(wrapper_calls(tree)) == [(1, "max"), (2, "clip"), (3, "real"),
                                           (4, "flatnonzero")]


def test_no_numpy_wrapper_calls_in_the_package():
    assert len(SOURCES) >= 10, SOURCES
    found = [f"{path.name}:{line}: np.{name}(...)" for path in SOURCES
             for line, name in sorted(wrapper_calls(ast.parse(path.read_text(), str(path))))]
    assert not found, "use the array's method or attribute instead:\n" + "\n".join(found)
