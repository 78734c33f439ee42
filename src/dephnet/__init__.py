"""Steady-state quantum transport on site networks with per-site
dephasing, driven between a source and a drain.

The public surface: circuit construction (`graphs`, `registry`), the
equation-of-motion generator (`generator`), steady-state solvers
(`steady_state`), transport and coherence observables (`observables`),
topology calibration searches (`calibrate`), the canned experiments
(`experiments`), and CSV/SVG emission (`output`).
"""
from .errors import (CalibrationError, CalibrationNotRunError,
                     CircuitFileError, DephnetError, DimensionMismatchError,
                     GraphConstructionError, IndeterminateResultError,
                     NoSignChangeError, PhysicalityError,
                     TrajectoryTooShortError, UnknownCircuitError,
                     UnphysicalSolutionError, UnsupportedFormError, UsageError)
from .graphs import (Circuit, Graph, build_graph, laplacian_hamiltonian,
                     make_parallel_circuit, make_pentagon, make_wire,
                     reverse_circuit)
from .generator import (EXPLICIT_BATH, REDUCED, Generator,
                        assemble_generator, apply_generator, clamp_bath,
                        empty_state, real_linear_system)
from .steady_state import (CONVERGED, DIVERGED, MAX_TIME_EXCEEDED,
                           SteadyStateResult, Trajectory, detect_divergence,
                           evolve, solve_ness_by_evolution, solve_ness_direct)
from .observables import (conductance, current_out, relative_entropy_coherence,
                          resistance, voltage)
from .calibrate import (additivity_pair_search, calibrate_topology,
                        funnel_family, funnel_shortlist, pentagon_family)
from .experiments import (SweepRecord, dephasing_sweep, entropy_trace,
                          find_conductance_peak, find_ratio_crossing,
                          funnel_ratio, rectification_sweep, series_crossings,
                          sweep_branch_count)
from .registry import (builtin_names, load_builtin, make_additivity_pair,
                       make_triangle_funnel, parse_circuit_file,
                       parse_circuit_text, resolve_circuit,
                       write_circuit_file)
from .output import AxesSpec, render_chart, write_records, write_table
from .cli import RunConfig, main, parse_config, parse_delta_grid

__version__ = "0.1.0"

__all__ = [
    "AxesSpec", "CalibrationError", "CalibrationNotRunError", "Circuit",
    "CircuitFileError", "CONVERGED", "DephnetError", "DimensionMismatchError",
    "DIVERGED", "EXPLICIT_BATH",
    "Generator", "Graph", "GraphConstructionError", "IndeterminateResultError",
    "MAX_TIME_EXCEEDED", "NoSignChangeError", "PhysicalityError", "REDUCED",
    "RunConfig", "SteadyStateResult", "SweepRecord", "Trajectory",
    "TrajectoryTooShortError", "UnknownCircuitError",
    "UnphysicalSolutionError", "UnsupportedFormError", "UsageError",
    "additivity_pair_search", "apply_generator",
    "assemble_generator", "build_graph", "builtin_names",
    "calibrate_topology", "clamp_bath", "conductance", "current_out",
    "dephasing_sweep", "detect_divergence", "empty_state",
    "entropy_trace", "evolve", "find_conductance_peak", "find_ratio_crossing",
    "funnel_family", "funnel_ratio", "funnel_shortlist",
    "laplacian_hamiltonian", "load_builtin", "main",
    "make_additivity_pair", "make_parallel_circuit", "make_pentagon",
    "make_triangle_funnel", "make_wire", "parse_circuit_file",
    "parse_circuit_text", "parse_config", "parse_delta_grid",
    "pentagon_family", "real_linear_system", "rectification_sweep",
    "relative_entropy_coherence", "render_chart", "resistance",
    "resolve_circuit", "reverse_circuit", "series_crossings",
    "solve_ness_by_evolution", "solve_ness_direct", "sweep_branch_count",
    "voltage", "write_circuit_file", "write_records", "write_table",
]
