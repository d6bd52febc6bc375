"""Exception types shared across the package.

Every error carries a plain-language message; numeric failures also carry
the offending residual where one exists, so the CLI can report the failing
stage and magnitude.
"""


class CknetError(Exception):
    """Base class for all package errors."""


class ConfigError(CknetError):
    """Invalid or inconsistent job configuration: CLI exit 2, subclasses included."""


class Singular(CknetError):
    """A matrix that must be invertible has (numerically) zero determinant."""


class DegenerateFace(CknetError):
    """A face's normal data spans all of R^3 (no well-defined face normal)."""


class ZeroEdge(CknetError):
    """An edge vector required to be nonzero vanished."""


class NotPrincipal(CknetError):
    """Edge differences of x and n are not parallel (not curvature-line data)."""


class DegenerateGeometry(CknetError):
    """Point data too degenerate for the requested fit (e.g. collinear)."""


class ModulusOutOfRange(ConfigError):
    """Elliptic modulus outside the supported range."""


class InvalidProfile(ConfigError):
    """Meridian profile data violates a defining invariant."""


class DegenerateEdge(CknetError):
    """A profile edge with sigma_f = 0 where a ratio requires it nonzero."""


class BranchFailure(CknetError):
    """No admissible sign/branch assignment exists for the connection data."""


class CaseMismatch(ConfigError):
    """Curvature modulus kappa outside the requested construction case."""


class DivisionByZero(CknetError):
    """A cot/tan factor in the gauge degenerated to zero or infinity."""


class PoleHit(CknetError):
    """A Moebius denominator vanished (within tolerance)."""


class PathInconsistent(CknetError):
    """Grid propagation disagrees between lattice paths."""


class NoRoot(CknetError):
    """Bracketing search found no sign change for the periodicity phase."""


class RealityViolated(CknetError):
    """A Sym net left R^3 x S^2: an imaginary part beyond 1e-6."""
