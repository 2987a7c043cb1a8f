"""Core contribution of the paper: delay-aware load balancing.

Cooperative optimization (Section III–IV), selfish organizations and the
price of anarchy (Section V) and the Section VII extensions.
"""

from .baselines import (
    all_baselines,
    makespan,
    makespan_greedy,
    nearest_server,
    proportional_speed,
    round_robin,
)
from .cost import (
    build_qp,
    cost_gradient,
    per_org_cost,
    qp_objective,
    selfish_marginal,
    server_loads,
    total_cost,
)
from .distributed import (
    ConvergenceTrace,
    MinEOptimizer,
    SweepStats,
    batch_exchange_stats,
    best_partner_exact,
)
from .dynamic import (
    ReoptimizeResult,
    reoptimize,
    retarget_allocation,
    retarget_rows,
)
from .error_bound import delta_r, error_bound, pending_transfer_volumes
from .game import (
    BestResponseTrace,
    best_response_dynamics,
    nash_gap,
    price_of_anarchy,
    selfish_best_response,
)
from .instance import Instance
from .qp import (
    project_simplex,
    solve_coordinate_descent,
    solve_fista,
    solve_optimal,
    solve_qp_scipy,
)
from .replication import (
    replication_feasible,
    sample_replica_placement,
    solve_replicated,
)
from .rounding import (
    DiscreteAssignment,
    TaskSet,
    round_tasks_bruteforce,
    round_tasks_greedy,
    rounding_error,
    solve_discrete,
)
from .state import AllocationState
from .theory import (
    homogeneous_nash_construction,
    lemma3_bound,
    lemma3_violation,
    poa_lower_bound,
    poa_upper_bound,
)
from .transfer import (
    PairExchange,
    calc_best_transfer,
    calc_best_transfer_reference,
    lemma1_transfer,
)
from .waterfill import waterfill, waterfill_value

__all__ = [
    "Instance",
    "AllocationState",
    # cost
    "total_cost",
    "per_org_cost",
    "server_loads",
    "cost_gradient",
    "selfish_marginal",
    "build_qp",
    "qp_objective",
    # solvers
    "solve_optimal",
    "solve_coordinate_descent",
    "solve_fista",
    "solve_qp_scipy",
    "project_simplex",
    "waterfill",
    "waterfill_value",
    # distributed
    "MinEOptimizer",
    "SweepStats",
    "ConvergenceTrace",
    "batch_exchange_stats",
    "best_partner_exact",
    "PairExchange",
    "calc_best_transfer",
    "calc_best_transfer_reference",
    "lemma1_transfer",
    "pending_transfer_volumes",
    "delta_r",
    "error_bound",
    # game & theory
    "selfish_best_response",
    "best_response_dynamics",
    "BestResponseTrace",
    "nash_gap",
    "price_of_anarchy",
    "poa_upper_bound",
    "poa_lower_bound",
    "lemma3_bound",
    "lemma3_violation",
    "homogeneous_nash_construction",
    # extensions
    "TaskSet",
    "DiscreteAssignment",
    "round_tasks_greedy",
    "round_tasks_bruteforce",
    "rounding_error",
    "solve_discrete",
    "solve_replicated",
    "sample_replica_placement",
    "replication_feasible",
    # baselines & dynamic operation
    "round_robin",
    "nearest_server",
    "proportional_speed",
    "makespan_greedy",
    "makespan",
    "all_baselines",
    "retarget_rows",
    "retarget_allocation",
    "ReoptimizeResult",
    "reoptimize",
]
