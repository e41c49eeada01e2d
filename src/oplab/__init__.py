"""Robust location/scatter estimation under cellwise and casewise
contamination, with influence diagnostics and the simulation experiments
built on top of them."""

from .contamination import (MODELS, AdditiveShift, ContaminatedData,
                            ContaminationError, ContaminationSpec,
                            GaussianShift, PointMass, cell_count_pmf,
                            outlier_from_dict, read_dataset,
                            sample_contaminated, write_dataset)
from .estimators import (ESTIMATORS, AllPointsRejected, DegenerateData,
                         EstimationError, Estimator, LocationScatter,
                         coord_median, coord_s, m_location, m_scale, mcd, mve,
                         s_estimate, sample_mean)
from .experiments import (ExperimentReport, bias_sweep, empirical_breakdown,
                          epsilon0, ges_vs_dim, propagation_demo, table1)
from .influence import (GesResult, GesSearch, InfluenceContext,
                        InfluenceResult, MonteCarlo, a_psi, coord_ges,
                        coord_m_fit, ges, if_fdcm, if_ficm, if_numeric,
                        if_psicm, influence, m_location_fit)
from .numerics import (CalibrationError, EllipticalModel, InvalidData, RhoSpec,
                       SingularScatter, calibrate_c, chi2_truncated_expectation,
                       equicorrelated_model, expected_rho,
                       mahalanobis_sq, psi_sq, psi_sq_prime, rho,
                       rho_sq, standard_model, truncation_sq, weight)
from .rng import row_stream, substream, substream_seed

__version__ = "0.1.0"

__all__ = [
    "ESTIMATORS", "MODELS", "AdditiveShift", "AllPointsRejected",
    "CalibrationError", "ContaminatedData", "ContaminationError",
    "ContaminationSpec", "DegenerateData", "EllipticalModel",
    "EstimationError", "Estimator", "ExperimentReport", "GaussianShift",
    "GesResult", "GesSearch", "InfluenceContext", "InfluenceResult",
    "InvalidData", "LocationScatter", "MonteCarlo", "PointMass", "RhoSpec",
    "SingularScatter", "a_psi", "bias_sweep", "calibrate_c",
    "cell_count_pmf", "chi2_truncated_expectation", "coord_ges",
    "coord_m_fit", "coord_median", "coord_s", "empirical_breakdown",
    "epsilon0", "equicorrelated_model", "expected_rho", "ges", "ges_vs_dim",
    "if_fdcm", "if_ficm", "if_numeric", "if_psicm", "influence",
    "m_location", "m_location_fit", "m_scale", "mahalanobis_sq", "mcd",
    "mve", "outlier_from_dict", "propagation_demo", "psi_sq",
    "psi_sq_prime", "read_dataset", "rho", "rho_sq", "row_stream",
    "s_estimate", "sample_contaminated", "sample_mean", "standard_model",
    "substream", "substream_seed", "table1", "truncation_sq", "weight",
    "write_dataset",
]
