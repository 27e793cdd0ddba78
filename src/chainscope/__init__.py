"""chainscope: majorizing-measure functionals and Gaussian supremum experiments
on finite metric spaces.  The package exports what the command-line front
end (``chainscope.cli``) and the scripts under ``demos/`` import."""

from .metric_core import (MetricValidationError, build_from_distance_matrix,
                          build_from_points, covering_table, entropy_integral,
                          modulus_entropy_diagnostic)
from .measures import (GAUSSIAN_LOG, YOUNG_INVERSE, MeasureError, ProbabilityMeasure,
                       functional_M, nu_average, sigma_profile, uniform_measure)
from .gaussian_lab import (FactorizationError, build_model, estimate_modulus,
                           sudakov_bound, supremum_report)
from .partition import (audit_cell, build_partition, chained_functional,
                        common_sample_oracle, lower_bound_report)
from .search import duality_report, maximize_M_self
from .ellipsoid import ellipsoid_report, esup_check, gap_lower_bound_check, make_spec
from .io import (InstanceError, Table, covariance_from_instance, load_instance,
                 sha256_file, space_from_instance, write_csv, write_json)

__version__ = "0.1.0"

__all__ = [
    "MetricValidationError", "build_from_distance_matrix", "build_from_points",
    "covering_table", "entropy_integral", "modulus_entropy_diagnostic",
    "GAUSSIAN_LOG", "YOUNG_INVERSE", "MeasureError", "ProbabilityMeasure", "functional_M",
    "nu_average", "sigma_profile", "uniform_measure",
    "FactorizationError", "build_model", "estimate_modulus", "sudakov_bound", "supremum_report",
    "audit_cell", "build_partition", "chained_functional", "common_sample_oracle",
    "lower_bound_report", "duality_report", "maximize_M_self",
    "ellipsoid_report", "esup_check", "gap_lower_bound_check", "make_spec",
    "InstanceError", "Table", "covariance_from_instance", "load_instance", "sha256_file",
    "space_from_instance", "write_csv", "write_json",
]
