"""Majority-Inverter Graph substrate.

The data structure, Boolean algebra, simulation, and rewriting engine that
the PLiM compiler and the endurance-management techniques operate on.
"""

from .graph import Mig
from .signal import (
    CONST0,
    CONST1,
    apply_complement,
    complement,
    complement_count,
    format_signal,
    is_complemented,
    is_constant,
    make_signal,
    node_of,
    regular,
)
from .simulate import (
    equivalent,
    find_counterexample,
    simulate,
    simulate_one,
    truth_tables,
)
from .rewrite import PASSES, apply_script
from .views import FanoutView
from .dot import to_dot, write_dot
from .io import (
    MigParseError,
    NETLIST_READERS,
    dumps_aiger,
    dumps_aiger_binary,
    dumps_mig,
    dumps_program,
    loads_aiger,
    loads_aiger_binary,
    loads_blif,
    loads_mig,
    loads_netlist,
    read_aiger,
    read_aiger_binary,
    read_blif,
    read_mig,
    read_netlist,
    read_program,
    write_aiger,
    write_aiger_binary,
    write_mig,
    write_program,
)

__all__ = [
    "CONST0",
    "CONST1",
    "FanoutView",
    "Mig",
    "MigParseError",
    "NETLIST_READERS",
    "PASSES",
    "dumps_aiger",
    "dumps_aiger_binary",
    "dumps_mig",
    "dumps_program",
    "loads_aiger",
    "loads_aiger_binary",
    "loads_blif",
    "loads_mig",
    "loads_netlist",
    "read_aiger",
    "read_aiger_binary",
    "read_blif",
    "read_mig",
    "read_netlist",
    "read_program",
    "write_aiger",
    "write_aiger_binary",
    "write_mig",
    "write_program",
    "apply_complement",
    "apply_script",
    "complement",
    "complement_count",
    "equivalent",
    "find_counterexample",
    "format_signal",
    "is_complemented",
    "is_constant",
    "make_signal",
    "node_of",
    "regular",
    "simulate",
    "simulate_one",
    "to_dot",
    "truth_tables",
    "write_dot",
]
