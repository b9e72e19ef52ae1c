"""Bytecode-interpreter workload generator.

Models ``perlbench``-style interpreter loops: a fixed bytecode *program*
(an opcode sequence drawn once) executed repeatedly.  The dispatch
target sequence is therefore periodic with the program length — fully
predictable once history reaches back one period — which is exactly the
behaviour that rewards long-history predictors (BLBP's 630-bit history
and its (252, 630) interval; ITTAGE's long geometric lengths) over a BTB.

Conditional branches inside handlers carry a mix of program-determined
structure (loop bookkeeping, the periodic position) and data-dependent
noise, so conditional global history encodes the position in the
bytecode program.  ``program_length`` controls how deep into history a
predictor must look; ``restart_period`` re-draws the program to create
phase changes (interpreting a different function).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.trace.stream import Trace
from repro.workloads.base import (
    AddressAllocator,
    TraceBuilder,
    WorkloadSpec,
    draw_gap,
)


@dataclass
class InterpreterSpec(WorkloadSpec):
    """Parameters for an interpreter-dispatch workload.

    Attributes:
        num_opcodes: size of the opcode set (dispatch jump-table size).
        program_length: length of the repeated bytecode program; the
            dispatch sequence repeats with this period.
        data_noise: probability each handler's data-dependent conditional
            diverges from its position-determined outcome.
        restart_period: executions of the program before a new program is
            drawn (0 = never; the same program runs for the whole trace).
        mean_gap: mean non-branch instructions between branches.
        filler_conditionals: operand-decode bookkeeping conditionals per
            dispatch (fixed taken/.../not-taken pattern).
    """

    num_opcodes: int = 24
    program_length: int = 40
    data_noise: float = 0.05
    restart_period: int = 0
    mean_gap: float = 8.0
    filler_conditionals: int = 6
    #: Zipf skew of opcode usage: real interpreters execute a few hot
    #: opcodes most of the time (loads, branches) with a long cold tail.
    #: 0 = uniform usage.
    opcode_skew: float = 1.2

    def __post_init__(self) -> None:
        if self.num_opcodes < 1:
            raise ValueError(f"need >= 1 opcodes, got {self.num_opcodes}")
        if self.program_length < 1:
            raise ValueError(f"need >= 1 bytecodes, got {self.program_length}")
        if not 0.0 <= self.data_noise <= 1.0:
            raise ValueError(f"data_noise out of [0,1]: {self.data_noise}")
        if self.filler_conditionals < 0:
            raise ValueError(
                f"negative filler_conditionals {self.filler_conditionals}"
            )

    def generate(self) -> Trace:
        """Produce the trace for this spec."""
        return generate_interpreter(self)

    def steps(self, builder: TraceBuilder) -> Iterator[None]:
        """One bytecode dispatch per step; see :func:`interpreter_steps`."""
        return interpreter_steps(self, builder)


def interpreter_steps(
    spec: InterpreterSpec, builder: TraceBuilder
) -> Iterator[None]:
    """Append interpreter records to ``builder``, one dispatch per step.

    Sets up the program layout, then yields after every loop iteration;
    it never reads ``spec.num_records``, so it is prefix-stable.
    """
    rng = spec.rng()
    alloc = AddressAllocator()

    driver = alloc.function()
    loop_pc = alloc.site()
    inner_pc = alloc.site()
    dispatch_pc = alloc.site()
    handlers = [alloc.function() for _ in range(spec.num_opcodes)]
    opcode_bits = max(1, (spec.num_opcodes - 1).bit_length())
    # Shared "fetch" helper: its conditionals encode the current opcode,
    # as a real interpreter's operand-decoding branches do.
    fetch = alloc.function()
    fetch_pcs = [alloc.site() for _ in range(opcode_bits)]

    # Zipf-weighted opcode popularity (identity permutation of ranks so
    # the same opcodes stay hot across program restarts, as in a real VM).
    ranks = np.arange(1, spec.num_opcodes + 1, dtype=float)
    weights = ranks ** (-spec.opcode_skew) if spec.opcode_skew > 0 else np.ones_like(ranks)
    weights /= weights.sum()

    def draw_program() -> list:
        return rng.choice(
            spec.num_opcodes, size=spec.program_length, p=weights
        ).tolist()

    program = draw_program()
    position = 0
    executions = 0

    while True:
        opcode = program[position]

        # Interpreter loop back edge.
        builder.conditional(
            loop_pc, True, driver + 0x8, gap=draw_gap(rng, spec.mean_gap)
        )

        # Operand-decode bookkeeping loop.
        for step in range(spec.filler_conditionals):
            taken = step < spec.filler_conditionals - 1
            builder.conditional(
                inner_pc, taken, inner_pc + (0x10 if taken else 0x4), gap=2
            )

        # Fetch/decode conditionals leak the opcode into global history.
        for bit_position, pc in enumerate(fetch_pcs):
            outcome = bool((opcode >> bit_position) & 1)
            builder.conditional(pc, outcome, pc + (0x10 if outcome else 0x4), gap=1)

        # The dispatch itself (the hot indirect jump of the interpreter).
        handler = handlers[opcode]
        builder.indirect_jump(dispatch_pc, handler, gap=draw_gap(rng, 2.0))

        # Handler body: position-structured conditional with data noise.
        structured = bool(position & 1)
        if spec.data_noise > 0 and rng.random() < spec.data_noise:
            structured = not structured
        builder.conditional(
            handler + 0x10,
            structured,
            handler + (0x40 if structured else 0x14),
            gap=draw_gap(rng, spec.mean_gap),
        )
        builder.direct_jump(handler + 0x60, loop_pc, gap=draw_gap(rng, 2.0))

        position += 1
        if position >= len(program):
            position = 0
            executions += 1
            if spec.restart_period and executions % spec.restart_period == 0:
                program = draw_program()
        yield


def generate_interpreter(spec: InterpreterSpec) -> Trace:
    """Generate an interpreter-loop trace from ``spec``."""
    return spec.run_steps()
