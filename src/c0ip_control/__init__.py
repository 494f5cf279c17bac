"""Optimal control of simply supported plates with a C0 interior penalty method.

Finite element library and benchmark driver for box-constrained optimal
control problems governed by the biharmonic equation: P2 interior penalty
discretization, primal-dual active set solver, residual a posteriori error
estimators and newest-vertex-bisection adaptivity.
"""

from .mesh import (Mesh, MeshTopologyError, bisect, dorfler_mark,
                   make_lshape, make_unit_square)
from .fem import (DofMap, QuadratureRule, build_dofmap, interpolate,
                  quadrature)
from .assembly import (assemble_a_h, assemble_load, assemble_mass,
                       build_edge_cache, control_coupling, error_norms)
from .controls import ControlField, clamp, vi_residual
from .solver import (Discretization, KktSolution, PdasError, ProblemSpec,
                     discretize, evaluate_p2, projection_ph,
                     solve_linear_block, solve_pdas, solve_variational)
from .estimator import EstimatorReport, estimate
from .adaptive import AdaptiveHistory, LevelRecord, run_adaptive
from .cases import (ManufacturedCase, biharmonic_sin3, boundary_demo_spec,
                    example1_case, example1_spec, example2_spec, g_sin3,
                    sin3_jet)

__version__ = "0.1.0"
