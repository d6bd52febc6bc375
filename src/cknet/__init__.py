"""Discrete constant Gaussian curvature nets of revolution and their transforms.

The package builds rotationally symmetric circular nets of constant
Gaussian curvature from explicit profile solutions, equips them with
flat quaternionic connection families (Lax pairs in a spectral
parameter), reconstructs nets from parallel frames by a Sym-type
formula, and applies single and double Backlund transforms including
periodicity searches for annular pseudospherical meshes.
"""

from .backlund import (DoubleReport, PeriodicAlpha, build_abcd, double_backlund,
                       find_periodic_alpha, linearize, moebius, propagate,
                       single_backlund)
from .checks import CheckResult, run_all
from .connect import (CkEdgeData, HsLaxData, build_ck_connection,
                      build_cmc_connection, closing_residual, gauge_to_hs,
                      hs_lax, initial_frame, rotational_frames)
from .errors import (BranchFailure, CaseMismatch, CknetError, ConfigError,
                     DegenerateEdge, DegenerateFace, DegenerateGeometry,
                     DivisionByZero, InvalidProfile, ModulusOutOfRange, NoRoot,
                     NotPrincipal, PathInconsistent, PoleHit, RealityViolated,
                     Singular, ZeroEdge)
from .lattice import (ConnectionFamily, FrameFamily, MatJet, admissible_gauge,
                      flatness_residual, gauge, gauge_frame, jet_residual)
from .nets import (AlignResult, ContactElementNet, curvature_report,
                   face_normal, period_drift, principal_curvatures, rigid_align,
                   singular_vertices, sym, sym_arrays, transform_residuals,
                   validate_ec)
from .revolution import (Profile, build_rcnet, column_angles, conservation_drift,
                         edge_residuals, elliptic_K, elliptic_theta, gauss_from_profile,
                         int_sn2, jacobi, profile_elliptic, profile_hyp, profile_trig,
                         validate_profile)

__version__ = "0.1.0"
