"""Distributed sidelink resource-allocation simulator and analytical toolkit."""

from .analysis import (HoldTimeDistribution, reallocation_probability,
                       simulate_hold_times, simulate_reallocation_probability,
                       tbc_ccdf, tbc_distribution, tbe_distribution,
                       total_variation)
from .channel import (ChannelRealization, ObstacleMap, los_state, pathloss_db,
                      rx_power_dbm)
from .config import ConfigError, RunConfig, load_config
from .engine import SimulationEngine, SimulationResult, run_hidden_node, run_scenario
from .metrics import (HiddenNodeAccumulator, PrrAccumulator, UdTracker,
                      hidden_node_probability, ud_percentile)
from .mobility import HighwayState, load_trace, spawn_highway, step_highway
from .mode4 import (SensingMemory, candidate_set, mac_select, on_beacon_period_end,
                    power_threshold)

__version__ = "0.1.0"
