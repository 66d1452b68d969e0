"""plugmc: plug-in Monte Carlo estimation of expected functionals of jump
diffusions, with asymptotic quantification of the estimation error.

The workflow the package supports end to end:

1. define a parametric jump-diffusion model by two callables that return
   its coefficients with their closed-form derivatives (`models`),
2. simulate it together with its parameter-sensitivity process from
   seeded, reusable noise; a built-in model's linear table, or a user
   model's one fused `coefficients` call, drives both (`simulate`),
3. estimate the parameter from discrete observations (`estimate`),
4. evaluate an expected functional at the estimate by Monte Carlo and
   attach a confidence interval that accounts for the estimation error
   through the correction vector C and the estimator information
   (`functionals`, `inference`),
5. reproduce the replicated normality/coverage studies (`experiments`).
"""

# The public names are those of each module's __all__.
from .models import *
from .simulate import *
from .functionals import *
from .estimate import *
from .inference import *
from .experiments import *
from .normal import *

__version__ = "0.1.0"
