"""EARDet core: the detector, its data structures, and the paper's theory."""

from .blacklist import Blacklist, ReportSink
from .config import (
    EARDetConfig,
    InfeasibleConfigError,
    beta_delta_bounds,
    engineer,
    feasible_counter_range,
)
from .counters import (
    CounterStore,
    CounterStoreError,
    HeapCounterStore,
    ReferenceCounterStore,
    VirtualUnit,
)
from .eardet import EARDet, EARDetStats
from .parallel import ParallelEARDet
from .virtual import (
    Carryover,
    apply_virtual_traffic,
    apply_virtual_traffic_reference,
    apply_virtual_unit,
    iter_units,
)
from . import theory, window_bridge

__all__ = [
    "Blacklist",
    "Carryover",
    "CounterStore",
    "CounterStoreError",
    "EARDet",
    "EARDetConfig",
    "EARDetStats",
    "HeapCounterStore",
    "InfeasibleConfigError",
    "ParallelEARDet",
    "ReferenceCounterStore",
    "ReportSink",
    "VirtualUnit",
    "apply_virtual_traffic",
    "apply_virtual_traffic_reference",
    "apply_virtual_unit",
    "beta_delta_bounds",
    "engineer",
    "feasible_counter_range",
    "iter_units",
    "theory",
    "window_bridge",
]
