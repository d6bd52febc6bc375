"""Discrete constant Gaussian curvature nets of revolution and their transforms.

The package builds rotationally symmetric circular nets of constant
Gaussian curvature from explicit profile solutions, equips them with
flat quaternionic connection families (Lax pairs in a spectral
parameter), reconstructs nets from parallel frames by a Sym-type
formula, and applies single and double Backlund transforms including
periodicity searches for annular pseudospherical meshes.

Every public name below is loaded from its module on first use (PEP 562),
so ``import cknet.cli`` compiles only what the net commands run.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "backlund": "DoubleReport PeriodicAlpha build_abcd double_backlund find_periodic_alpha "
                "linearize moebius propagate single_backlund",
    "checks": "run_all",
    "cli": "CheckResult",
    "connect": "CkEdgeData HsLaxData build_ck_connection gauge_to_hs",
    "errors": "BranchFailure CaseMismatch CknetError ConfigError DegenerateEdge DegenerateFace "
              "DegenerateGeometry DivisionByZero InvalidProfile ModulusOutOfRange NoRoot "
              "NotPrincipal PathInconsistent PoleHit RealityViolated Singular ZeroEdge",
    "lattice": "ConnectionFamily MatJet flatness_residual jet_residual",
    "nets": "ContactElementNet curvature_report period_drift transform_residuals validate_ec",
    "reference": "AlignResult FrameFamily admissible_gauge build_cmc_connection closing_residual "
                 "face_normal gauge gauge_frame gauss_from_profile hs_lax initial_frame "
                 "principal_curvatures rigid_align rotational_frames singular_vertices sym "
                 "sym_arrays validate_profile",
    "revolution": "Profile build_rcnet column_angles conservation_drift edge_residuals elliptic_K "
                  "elliptic_theta int_sn2 jacobi profile_elliptic profile_hyp profile_trig",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


# names of ``reference`` that perfbench's TRACED table still looks up in the modules they
# came from; the shims go when the tracer reads the report's stages instead
_SHIMMED = {"connect": "build_cmc_connection closing_residual hs_lax rotational_frames",
            "lattice": "admissible_gauge gauge gauge_frame",
            "nets": "face_normal rigid_align singular_vertices sym sym_arrays",
            "quat": "conjugate_rotate coords_complex embed parts quat",
            "revolution": "gauss_from_profile validate_profile"}


def _reference_shim(module: str):
    """The module ``__getattr__`` of ``module`` that finds its ``_SHIMMED`` names."""
    names = _SHIMMED[module.rpartition(".")[2]].split()

    def shim(name):
        if name in names:
            return getattr(import_module(f"{__name__}.reference"), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return shim


class _Record:
    """Read-only record over its ``__slots__``: ``_fill`` sets each, then runs ``__post_init__``."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}: the record is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
