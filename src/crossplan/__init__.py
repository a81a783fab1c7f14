"""Real-time trajectory planning for automated driving at unsignalized
intersections: driver-model prediction, behavior selection and smooth
trajectory optimization in a closed replanning loop."""

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
