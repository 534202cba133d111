"""Controller-failure recovery for SD-WANs.

Builds capacitated switch-to-controller assignment instances from a
geographic topology and controller placement, solves them exactly, with
the RetroFlow greedy, or with a nearest baseline, and evaluates failure
scenarios on programmability, load, and communication overhead.
"""

from .domains import (FailureScenario, Placement, enumerate_failure_scenarios,
                      load_placement, load_placement_file)
from .experiment import (ScenarioReport, World, emit_report, load_diagnostics,
                         make_world, queueing_penalty_ms, run_scenario, sweep_summary)
from .flows import BetaMatrix
from .geo import (GeoCoordinate, Topology, TopologyError, haversine_km, load_topology,
                  load_topology_file)
from .oscm import (OscmInstance, Solution, ValidationReport, build_instance,
                   programmable_flows, validate)
from .protocol import Event, ProtocolError, SwitchSession, run_script, step
from .solvers import (ExactResult, GapInstance, SolverBudget, gap_bruteforce,
                      reduce_to_gap, solve_exact, solve_nearest, solve_retroflow)

__version__ = "0.1.0"
