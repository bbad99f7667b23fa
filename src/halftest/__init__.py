"""Universal tester-learner for origin-centered halfspaces.

Given labeled samples from an unknown distribution, the pipeline either
rejects or outputs a halfspace with a certified error guarantee; it accepts
whenever the marginal is nice and satisfies a Poincare inequality.  The
package also ships the individual statistical testers, the SOS
hypercontractivity certificate (with its own dense SDP solver), synthetic
samplers, and brute-force oracles used to validate everything.
"""

__version__ = "0.1.0"

from .distributions import (Dataset, MarginalSpec, NoiseModel,
                            empirical_error, label_dataset, sample_marginal)
from .learner import (FixedDatasetSource, LearnerConfig, LearnerOutcome,
                      SyntheticSource, make_sigma_grid, universal_tester_learner)
from .surrogate import (PsgdConfig, RampParams, psgd, smooth_ramp,
                        smooth_ramp_derivative, surrogate_gradient,
                        surrogate_loss)
from .testers import (TesterConfig, TesterVerdict, hypercontractivity_test,
                      local_disagreement_test, spectral_test,
                      stationary_point_test, strip_probability,
                      weak_anticoncentration_test)

__all__ = [
    "Dataset", "MarginalSpec", "NoiseModel", "empirical_error",
    "label_dataset", "sample_marginal",
    "FixedDatasetSource", "LearnerConfig", "LearnerOutcome", "SyntheticSource",
    "make_sigma_grid", "universal_tester_learner",
    "PsgdConfig", "RampParams", "psgd", "smooth_ramp",
    "smooth_ramp_derivative", "surrogate_gradient", "surrogate_loss",
    "TesterConfig", "TesterVerdict", "hypercontractivity_test",
    "local_disagreement_test", "spectral_test", "stationary_point_test",
    "strip_probability", "weak_anticoncentration_test",
]
