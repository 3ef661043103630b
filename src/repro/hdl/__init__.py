"""Event-driven HDL simulation kernel (the Synopsys VSS substitute).

Nine-value ``std_logic`` signals with multi-driver resolution, VHDL
delta-cycle semantics, callback (RTL) and generator (test bench)
processes, clock generators, the cycle engine and compiled RTL
processes.  The VCD writer and waveform comparison the equivalence
suites use are test oracles in :mod:`repro.reference`.
"""

from .assertions import (AssertionEngine, AssertionFailure,
                         HdlAssertionError, ToggleCoverage)
from .compiled import (CompileContext, CompileError, CompiledKernel,
                       EventContext, Slot, UnsupportedFeature,
                       compile_kernel, raw_value, slot_int)
from .cycle import CycleEngine
from .logic import (LogicError, STD_LOGIC_VALUES, resolve, resolve_many,
                    to_vector, vector_to_int)
from .processes import (CallbackProcess, FallingEdge, GeneratorProcess,
                        Process, ProcessError, RisingEdge)
from .signal import DriveError, Signal
from .simulator import (CombinationalLoopError, SimulationError, Simulator,
                        WaveformStream)

__all__ = [
    "AssertionEngine", "AssertionFailure", "HdlAssertionError",
    "ToggleCoverage",
    "CompileContext", "CompileError", "CompiledKernel", "EventContext",
    "Slot", "UnsupportedFeature", "compile_kernel", "raw_value",
    "slot_int",
    "CycleEngine",
    "LogicError", "STD_LOGIC_VALUES", "resolve",
    "resolve_many", "to_vector", "vector_to_int",
    "CallbackProcess", "FallingEdge", "GeneratorProcess", "Process",
    "ProcessError", "RisingEdge",
    "DriveError", "Signal",
    "CombinationalLoopError", "SimulationError", "Simulator",
    "WaveformStream",
]
