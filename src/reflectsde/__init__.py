"""Constrained simulation of rough, jumping drivers in reflecting domains.

The package builds three layers:

* geometry: closed domains with projection maps and their reach
  (half-spaces, balls, boxes, convex polyhedra, ball exteriors);
* dynamics: sampled driver paths, unit-time coefficient flows and jump
  transport, the discrete reflection step, and five constrained
  time-stepping schemes;
* verification: pathwise error metrics, Monte Carlo convergence tables,
  variation comparisons, and the jump-convention gap report, all exposed
  through the ``reflectsde`` command line tool.
"""

from .analysis import (RateRow, RateTable, Remark4Report, StudyPlan,
                       convergence_study, fit_rate, remark4_report,
                       sup_error, variation_report)
from .driver import (CADLAG_STEP, LINEAR, GridPath, Partition,
                     jump_adapted_partition, path_seed, sample_brownian,
                     sample_jump_driver)
from .errors import (ConfigError, CsvFormatError, DimensionMismatch,
                     JumpTooLarge, NonFinite, ProjectionOutOfRange,
                     ReflectedSDEError, StartOutsideDomain)
from .flow import (DEFAULT_FLOW, REFERENCE_FLOW, Coefficient, FlowConfig,
                   catalog_coefficient, coefficient_from_spec,
                   constant_matrix, jump_defect, linear_diagonal,
                   marcus_jump)
from .geometry import (BOUNDARY, INTERIOR, OUTSIDE, Ball, Box,
                       ConvexPolyhedron, Domain, ExteriorOfBall, HalfSpace,
                       default_boundary_tol)
from .schemes import (SCHEME_KINDS, SchemeOutput, SchemeSpec, build_reference,
                      run_marcus_euler, run_scheme, run_wz_bar_scheme)
from .skorokhod import (Lemma1Report, SkorokhodSolution, check_lemma1,
                        solve_skorokhod, total_variation)
from .config import ExperimentConfig, default_config, load_config

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "CADLAG_STEP", "Ball", "Box", "Coefficient", "ConfigError",
    "ConvexPolyhedron", "CsvFormatError", "DEFAULT_FLOW", "DimensionMismatch",
    "Domain", "ExperimentConfig", "ExteriorOfBall", "FlowConfig", "GridPath",
    "HalfSpace", "INTERIOR", "JumpTooLarge", "LINEAR", "Lemma1Report",
    "NonFinite", "OUTSIDE", "Partition",
    "ProjectionOutOfRange", "REFERENCE_FLOW", "RateRow", "RateTable",
    "ReflectedSDEError", "Remark4Report", "SCHEME_KINDS", "SchemeOutput",
    "SchemeSpec", "SkorokhodSolution", "StartOutsideDomain", "StudyPlan",
    "build_reference", "catalog_coefficient", "check_lemma1",
    "coefficient_from_spec", "constant_matrix", "convergence_study",
    "default_boundary_tol", "default_config", "fit_rate",
    "jump_adapted_partition", "jump_defect", "linear_diagonal", "load_config",
    "marcus_jump", "path_seed", "remark4_report",
    "run_marcus_euler", "run_scheme", "run_wz_bar_scheme", "sample_brownian",
    "sample_jump_driver", "solve_skorokhod", "sup_error", "total_variation",
    "variation_report", "__version__",
]
