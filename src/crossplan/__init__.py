"""Real-time trajectory planning for automated driving at unsignalized
intersections: driver-model prediction, behavior selection and smooth
trajectory optimization in a closed replanning loop."""

import os

# One thread per BLAS pool unless the caller set a count. Pools are sized
# when numpy loads (so this needs crossplan imported first, as `crossplan
# run` does). On busy cores a spinning pool slowed the former SLSQP solves
# up to about 16x; the numpy solver is not measured there, so the pin stays.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .arbiter import ArbiterParams, ScoredOption, score_options, select
from .behavior import (BehaviorKind, BehaviorOption, VirtualLeader,
                       build_virtual_leader, generate_options)
from .config import PlannerParams
from .errors import PlanningError, ScenarioError
from .geometry import (ConflictZone, FrenetPose, Polyline, Route, RouteGraph,
                       compute_conflict_zone, project_to_route)
from .idm import (IdmParams, LongState, LongTrajectory, SpeedProfile,
                  idm_acceleration, rollout, target_speed_profile)
from .optimizer import (CartesianTrajectory, NlpResult, OptimizerWeights,
                        reference_to_cartesian, solve)
from .prediction import (Hypothesis, PredictorParams, VehicleState,
                         drive_probability, predict, route_belief)
from .scenario import Scenario, VehicleSpec, load_scenario, scenario_from_dict
from .simloop import SimConfig, TraceRecord, collision_check, run

__version__ = "0.1.0"

__all__ = [
    "ArbiterParams", "BehaviorKind", "BehaviorOption", "CartesianTrajectory",
    "ConflictZone", "FrenetPose", "Hypothesis", "IdmParams", "LongState",
    "LongTrajectory", "NlpResult", "OptimizerWeights", "PlannerParams",
    "PlanningError", "Polyline", "PredictorParams", "Route", "RouteGraph",
    "ScenarioError", "Scenario", "ScoredOption", "SimConfig",
    "SpeedProfile", "TraceRecord", "VehicleSpec", "VehicleState",
    "VirtualLeader", "build_virtual_leader",
    "collision_check", "compute_conflict_zone", "drive_probability",
    "generate_options", "idm_acceleration", "load_scenario", "predict",
    "project_to_route", "reference_to_cartesian", "rollout", "route_belief",
    "run", "scenario_from_dict", "score_options", "select",
    "solve", "target_speed_profile",
]
