"""Data-driven synthesis of control barrier functions from state constraints.

Pipeline: sample states uniformly, classify input-feasibility in closed form,
track the feasible-fraction (Jaccard) convergence, extract the discrete
class boundary, fit barrier parameters (uniform, non-uniform, or multiple
intersecting candidates), and enforce the result at runtime with a QP safety
filter in closed-loop simulation.
"""

from .system import (BoxSet, CbfCandidate, HardConstraint, SystemModel, barrier,
                     build_system, eval_h_batch, identity_candidate,
                     make_double_integrator, register_system, registered_systems)
from .qp import QpProblem, QpSolution, QpStatus, solve_box_qp
from .sampler import (JaccardTracker, SampleClass, SampleHeader, SampleSet, draw_batch,
                      load_samples, read_header, run_sampling, save_samples)
from .boundary import (BoundarySet, auto_epsilon, extract_boundary,
                       load_boundary, save_boundary)
from .fitter import (FitConfig, FitResult, SearchCounts, VerificationReport,
                     check_redundancy, fit_multi, fit_nonuniform,
                     fit_uniform, load_fit, save_fit, verify_candidate)
from .simulator import (FilterConfig, InvarianceReport, SimConfig, Trajectory,
                        check_invariance, hdot_rate_bound, nominal_controller,
                        reference_spline, safety_filter_many, simulate, simulate_many, step)
from .config import ConfigError, PipelineConfig, load_config, parse_config

__version__ = "0.1.0"
