"""Operator-splitting toolkit for monotone inclusions 0 in (A + B)(x).

Solvers cover plain and reflected forward-backward families with fixed
or adaptive steps, a primal-dual variant for composite problems
0 in (A + B + K* C K)(x), a linear rate-analysis toolbox for the
planar rotation case, and reproducible experiment drivers.
"""

from .operators import (ForwardOperator, LinearMap, diagonal_resolvent,
                        l1_resolvent, make_affine_forward, make_lasso_forward,
                        power_norm, soft_threshold,
                        symmetric_affine_resolvent, zero_resolvent)
from .primal_dual import (CompositeProblem, EPDTRConfig, check_stepsizes,
                          default_stepsizes, epdtr_solve, epdtr_step,
                          resolvent_of_inverse)
from .rate_analysis import (RateDesign, characteristic_roots, cubic_roots,
                            design_rate, rate_table)
from .splitting import (DivergenceError, IterationTrace, StepSizeWarning,
                        StopRule, fb, fbf, frb, gfrb_adaptive, gfrb_fixed,
                        rfb)
from .stepsize import (OperatorConsistencyError, StepSizeState,
                       make_stepsize_state, next_step)
from .experiments import (ExperimentConfig, RunResult, gen_example1,
                          gen_example2, gen_lasso, run_benchmark, snr)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
