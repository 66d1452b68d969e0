"""plugmc: plug-in Monte Carlo estimation of expected functionals of jump
diffusions, with asymptotic quantification of the estimation error.

The workflow the package supports end to end:

1. define a parametric jump-diffusion model by two callables that return
   its coefficients with their closed-form derivatives (`models`),
2. simulate it together with its parameter-sensitivity process from
   seeded, reusable noise; the model's one fused `coefficients` call
   drives both (`simulate`),
3. estimate the parameter from discrete observations (`estimate`),
4. evaluate an expected functional at the estimate by Monte Carlo and
   attach a confidence interval that accounts for the estimation error
   through the correction vector C and the estimator information
   (`functionals`, `inference`),
5. reproduce the replicated normality/coverage studies (`experiments`).
"""

from .models import (
    JumpDiffusionModel,
    JumpSpec,
    NO_JUMPS,
    bs_small_noise_model,
    levy_model,
    ou_jump_model,
    validate_model,
    default_probe_grid,
)
from .simulate import (
    TimeGrid,
    NoiseBundle,
    Path,
    CoupledPaths,
    SimulationBlowup,
    path_seed,
    sample_noise,
    euler_path,
    coupled_paths,
    simulate_batch,
)
from .functionals import Functional, smoothed_call, smoothed_call_deriv
from .estimate import (
    Observations,
    EstimatorResult,
    contrast,
    contrast_gradient,
    contrast_rates,
    minimize_contrast,
    bs_closed_form,
    fisher_info,
    deterministic_path,
)
from .inference import (
    InferenceReport,
    plugin_H,
    estimate_C,
    bs_call_closed_form,
    ou_discounted_value,
    asymptotic_variance,
    confidence_interval,
    build_report,
)
from .experiments import (
    ExperimentConfig,
    ExperimentOutput,
    run_bs_experiment,
    run_ou_oracle,
    ks_statistic,
    write_experiment_outputs,
)
from .normal import norm_cdf, norm_pdf, norm_ppf, z_quantile

__version__ = "0.1.0"
