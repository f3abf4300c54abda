"""Multimodal car- and ride-sharing solver suite.

Generate benchmark instances, enumerate ride-sharing trip variants into a
time-space auxiliary graph, and solve the resulting vehicle-scheduling
problem either directly (edge MILP) or by delayed column generation with
exact and heuristic pricing.
"""

from .colgen import (
    CgResult,
    DualPrices,
    RestrictedMaster,
    price,
    reduced_saving,
    run,
    solve_restricted_ip,
)
from .edgeform import EdgeModel, build_edge_model, solve_edge
from .instgen import (
    GenParams,
    GenerationError,
    InstanceFormatError,
    generate,
    read_instance,
    write_instance,
)
from .milp import IpResult, LpSolution, MilpProblem, solve_ip, solve_lp
from .model import (
    ALL_MOTS,
    CAR,
    OTHER_MOTS,
    CostParams,
    Depot,
    Instance,
    Location,
    MotParams,
    Task,
    UserTrip,
    ValidationError,
    cheapest_other_mot,
    default_mots,
    leg_cost,
    leg_saving_plain,
    leg_saving_share,
    travel_time,
    trip_saving,
)
from .oracle import brute_force
from .ridegraph import (
    Caps,
    TimeSpaceGraph,
    TripVariant,
    VariantSet,
    build_graph,
    drop_negative,
    dump_edges,
    enumerate_variants,
    feasible_share,
    reduce_prune,
    reduce_statespace,
)
from .solution import Plan, Route, build_plan

__version__ = "0.1.0"
