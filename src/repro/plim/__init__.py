"""The PLiM computer: ISA, memory, controller, compiler, verifier."""

from .allocator import CapacityExceededError, RramAllocator
from .compiler import PlimCompiler
from .controller import CYCLES_PER_INSTRUCTION, ExecutionTrace, PlimController, execute
from .isa import OP_CONST0, OP_CONST1, Program, const_operand
from .memory import (
    EnduranceExhaustedError,
    LifetimeEstimate,
    RramArray,
    TYPICAL_ENDURANCE_HIGH,
    TYPICAL_ENDURANCE_LOW,
    estimate_lifetime,
)
from .startgap import StartGapArray, run_with_start_gap
from .verify import VerificationError, verify_program

__all__ = [
    "CYCLES_PER_INSTRUCTION",
    "CapacityExceededError",
    "EnduranceExhaustedError",
    "ExecutionTrace",
    "LifetimeEstimate",
    "OP_CONST0",
    "OP_CONST1",
    "PlimCompiler",
    "PlimController",
    "Program",
    "RramAllocator",
    "RramArray",
    "StartGapArray",
    "run_with_start_gap",
    "TYPICAL_ENDURANCE_HIGH",
    "TYPICAL_ENDURANCE_LOW",
    "VerificationError",
    "const_operand",
    "estimate_lifetime",
    "execute",
    "verify_program",
]
