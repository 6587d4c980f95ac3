"""Data-driven synthesis of control barrier functions from state constraints.

Pipeline: sample states uniformly, classify input-feasibility in closed form,
track the feasible-fraction (Jaccard) convergence, extract the discrete
class boundary, fit barrier parameters (uniform, non-uniform, or multiple
intersecting candidates), and enforce the result at runtime with a QP safety
filter in closed-loop simulation.
"""

import importlib

_EXPORTS = {   # module -> its names, each imported on first access (PEP 562)
    "system": "BoxSet CbfCandidate HardConstraint SystemModel barrier build_system eval_h_batch "
              "identity_candidate make_double_integrator register_system registered_systems",
    "qp": "QpProblem QpSolution QpStatus solve_box_qp",
    "sampler": "SampleClass SampleHeader SampleSet draw_batch load_samples read_header "
               "run_sampling save_samples",
    "boundary": "BoundarySet auto_epsilon extract_boundary load_boundary save_boundary",
    "fitter": "FitResult SearchCounts VerificationReport check_redundancy fit_multi "
              "fit_nonuniform fit_uniform load_fit save_fit verify_candidate",
    "simulator": "InvarianceReport Trajectory check_invariance hdot_rate_bound nominal_controller "
                 "reference_spline safety_filter_many simulate simulate_many step",
    "config": "ConfigError FilterConfig FitConfig PipelineConfig SimConfig load_config "
              "parse_config",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
