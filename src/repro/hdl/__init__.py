"""Event-driven HDL simulation kernel (the Synopsys VSS substitute).

Nine-value ``std_logic`` signals with multi-driver resolution, VHDL
delta-cycle semantics, callback (RTL) and generator (test bench)
processes, clock generators, VCD waveform dumping and test-bench
helpers.
"""

from .assertions import (AssertionEngine, AssertionFailure,
                         HdlAssertionError, ToggleCoverage, ValueCoverage)
from .compiled import (CompileContext, CompileError, CompiledKernel,
                       EventContext, Slot, UnsupportedFeature,
                       compile_kernel, raw_value, slot_int)
from .cycle import CycleEngine
from .logic import (LogicError, STD_LOGIC_VALUES, bits, is_defined,
                    resolve, resolve_many, to_vector, vector_to_int)
from .processes import (CallbackProcess, FallingEdge, GeneratorProcess,
                        Process, ProcessError, RisingEdge)
from .signal import DriveError, Signal
from .simulator import (CombinationalLoopError, SimulationError, Simulator,
                        WaveformStream)
from .testbench import (Scoreboard, ScoreboardError, SignalMonitor,
                        clocked_driver, drive_sequence)
from .vcd import VcdWriter
from .wave import (VcdData, VcdFormatError, WaveformDifference,
                   compare_waveforms)

__all__ = [
    "AssertionEngine", "AssertionFailure", "HdlAssertionError",
    "ToggleCoverage", "ValueCoverage",
    "CompileContext", "CompileError", "CompiledKernel", "EventContext",
    "Slot", "UnsupportedFeature", "compile_kernel", "raw_value",
    "slot_int",
    "CycleEngine",
    "LogicError", "STD_LOGIC_VALUES", "bits", "is_defined", "resolve",
    "resolve_many", "to_vector", "vector_to_int",
    "CallbackProcess", "FallingEdge", "GeneratorProcess", "Process",
    "ProcessError", "RisingEdge",
    "DriveError", "Signal",
    "CombinationalLoopError", "SimulationError", "Simulator",
    "WaveformStream",
    "Scoreboard", "ScoreboardError", "SignalMonitor", "clocked_driver",
    "drive_sequence",
    "VcdWriter",
    "VcdData", "VcdFormatError", "WaveformDifference",
    "compare_waveforms",
]
