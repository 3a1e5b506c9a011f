"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles (explicit basis
expansion, exhaustive path enumeration) rather than reusing the package's own
code paths, so the tests check the implementation against something else.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from qbsc.circuit import (
    BLOCK_BEGIN,
    BLOCK_END,
    BarrierOp,
    Circuit,
    ClassicalCondition,
    GateCensus,
    GateKind,
    GateOp,
    MeasureOp,
    static_census,
)
from qbsc.errors import NormDrift, SimulationError
from qbsc.gates import V, VDG
from qbsc.simulate import _BASIS_EPS, _NORM_TOL, Histogram, RunResult


def embed_unitary(matrix: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Expand a k-qubit gate matrix to the full 2^n space.

    Qubit 0 is the most significant bit of a basis label; ``targets`` lists
    the gate's qubits with the gate's own qubit 0 first.
    """
    k = len(targets)
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - j)) & 1 for j in range(n)]
        sub_in = 0
        for t in targets:
            sub_in = (sub_in << 1) | bits[t]
        for sub_out in range(1 << k):
            amp = matrix[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(bits)
            for j, t in enumerate(targets):
                out_bits[t] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def compose_circuit_unitary(gates, n: int, unitary_of) -> np.ndarray:
    """Product of embedded gate matrices in application order."""
    total = np.eye(1 << n, dtype=complex)
    for gate in gates:
        total = embed_unitary(unitary_of(gate.gate), gate.targets, n) @ total
    return total


def brute_force_depth(circuit: Circuit, delay_table) -> int:
    """Longest weighted path over the explicit dependency DAG, by enumeration;
    a gate weighs its kind's ``delay_table`` entry and a measurement 0.

    Edges: an instruction depends on the last prior instruction touching each
    of its qubits, and a conditioned gate also depends on the last prior
    measurement writing each of its condition bits.
    """
    nodes = []  # (delay, deps)
    last_on_qubit: dict[int, int] = {}
    last_write_clbit: dict[int, int] = {}
    for instr in circuit.instructions:
        if isinstance(instr, BarrierOp):
            continue
        idx = len(nodes)
        if isinstance(instr, MeasureOp):
            deps = {last_on_qubit[instr.qubit]} if instr.qubit in last_on_qubit else set()
            nodes.append((0, deps))
            last_on_qubit[instr.qubit] = idx
            last_write_clbit[instr.clbit] = idx
        else:
            deps = {last_on_qubit[q] for q in instr.targets if q in last_on_qubit}
            if instr.condition is not None:
                deps |= {last_write_clbit[b] for b in instr.condition.mask
                         if b in last_write_clbit}
            nodes.append((delay_table[instr.gate], deps))
            for q in instr.targets:
                last_on_qubit[q] = idx

    def longest_ending_at(i: int) -> int:
        delay, deps = nodes[i]
        if not deps:
            return delay
        return delay + max(longest_ending_at(j) for j in deps)

    return max((longest_ending_at(i) for i in range(len(nodes))), default=0)


def int_compare_class(a: int, b: int) -> str:
    if a < b:
        return "Less"
    if a > b:
        return "Greater"
    return "Equal"


# -- full numpy statevector: the reference for simulate.DenseRunner -----------
#
# All 2^n amplitudes as an n-axis array, qubit i on tensor axis i. Gates are
# slice swaps and 2x2 mixes over whole half-spaces, so nothing here shares
# code with the package's amplitude-map engine, and it draws from its own
# generator stream rather than the package's pre-drawn rows.


class _UniformStream:
    """Buffered uniform(0,1) draws from a numpy Generator."""

    __slots__ = ("_rng", "_buf", "_i")
    _BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(self._BLOCK)
        self._i = 0

    def next(self) -> float:
        if self._i == len(self._buf):
            self._buf = self._rng.random(self._BLOCK)
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        return u


def _sl(n: int, axis: int, v: int):
    idx = [slice(None)] * n
    idx[axis] = v
    return tuple(idx)


def _apply_x(state, q, n):
    sl0, sl1 = _sl(n, q, 0), _sl(n, q, 1)
    tmp = state[sl0].copy()
    state[sl0] = state[sl1]
    state[sl1] = tmp


def _apply_y(state, q, n):
    sl0, sl1 = _sl(n, q, 0), _sl(n, q, 1)
    tmp = state[sl0].copy()
    state[sl0] = -1j * state[sl1]
    state[sl1] = 1j * tmp


def _apply_z(state, q, n):
    state[_sl(n, q, 1)] *= -1.0


def _apply_2x2(state, c, t, m, n):
    sub = state[_sl(n, c, 1)]
    t_adj = t - 1 if t > c else t
    sl0, sl1 = _sl(n - 1, t_adj, 0), _sl(n - 1, t_adj, 1)
    s0 = sub[sl0].copy()
    s1 = sub[sl1].copy()
    sub[sl0] = m[0, 0] * s0 + m[0, 1] * s1
    sub[sl1] = m[1, 0] * s0 + m[1, 1] * s1


def _apply_cx(state, c, t, n):
    sub = state[_sl(n, c, 1)]
    t_adj = t - 1 if t > c else t
    sl0, sl1 = _sl(n - 1, t_adj, 0), _sl(n - 1, t_adj, 1)
    tmp = sub[sl0].copy()
    sub[sl0] = sub[sl1]
    sub[sl1] = tmp


def _apply_ccx(state, c1, c2, t, n):
    sub = state[_sl(n, c1, 1)]
    c2_adj = c2 - 1 if c2 > c1 else c2
    sub = sub[_sl(n - 1, c2_adj, 1)]
    t_adj = t - (1 if t > c1 else 0) - (1 if t > c2 else 0)
    sl0, sl1 = _sl(n - 2, t_adj, 0), _sl(n - 2, t_adj, 1)
    tmp = sub[sl0].copy()
    sub[sl0] = sub[sl1]
    sub[sl1] = tmp


def _measure(state, q, n, stream: _UniformStream | None):
    p1 = float(np.sum(np.abs(state[_sl(n, q, 1)]) ** 2))
    probabilistic = _BASIS_EPS < p1 < 1.0 - _BASIS_EPS
    if probabilistic:
        if stream is None:
            raise SimulationError("measurement of a superposed qubit needs a seed")
        outcome = 1 if stream.next() < p1 else 0
    else:
        outcome = 1 if p1 >= 0.5 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    state[_sl(n, q, 1 - outcome)] = 0.0
    if prob != 1.0:
        state *= 1.0 / math.sqrt(prob)
    if probabilistic:
        norm = float(np.linalg.norm(state.ravel()))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormDrift(f"norm {norm} after measuring qubit {q}")
    return outcome


class NumpyStatevector:
    """Reference runner with DenseRunner's ``run``/``run_value`` contract.

    Under noise it draws from the stream in the documented order: per fired
    gate, for each touched qubit one depolarizing draw and, when it fires, one
    draw choosing X/Y/Z; per measurement one Born draw if the outcome is
    uncertain, then one readout-flip draw.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def _execute(self, initial_bits, rng, noise, counts=None, trace=None) -> list[int]:
        circuit = self.circuit
        n = circuit.num_qubits
        bits = tuple(initial_bits) if initial_bits is not None else (0,) * n
        state = np.zeros((2,) * n, dtype=complex)
        state[bits] = 1.0
        cl = [0] * circuit.num_clbits
        stream = _UniformStream(rng) if rng is not None else None
        counts = {} if counts is None else counts
        for instr in circuit.instructions:
            if isinstance(instr, BarrierOp):
                continue
            if isinstance(instr, MeasureOp):
                outcome = _measure(state, instr.qubit, n, stream)
                if noise is not None and stream.next() < noise.readout_flip:
                    outcome ^= 1
                cl[instr.clbit] = outcome
                if trace is not None:
                    trace.append((instr.clbit, outcome))
                counts["measure_count"] = counts.get("measure_count", 0) + 1
                continue
            if instr.condition is not None and not instr.condition.holds(cl):
                continue
            t = instr.targets
            if instr.gate is GateKind.X:
                _apply_x(state, t[0], n)
            elif instr.gate is GateKind.CX:
                _apply_cx(state, t[0], t[1], n)
            elif instr.gate is GateKind.CCX:
                _apply_ccx(state, t[0], t[1], t[2], n)
            else:
                _apply_2x2(state, t[0], t[1], V if instr.gate is GateKind.CV else VDG, n)
            counts[instr.gate.value] = counts.get(instr.gate.value, 0) + 1
            if instr.gate is GateKind.X and instr.condition is not None:
                counts["conditional_x_count"] = counts.get("conditional_x_count", 0) + 1
            if noise is not None:
                for q in t:
                    if stream.next() < noise.depolarizing_per_gate:
                        pauli = int(stream.next() * 3)
                        (_apply_x, _apply_y, _apply_z)[pauli](state, q, n)
        norm = float(np.linalg.norm(state.ravel()))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormDrift(f"final norm {norm}")
        return cl

    def run(self, initial_bits=None, seed=None, noise=None) -> RunResult:
        rng = np.random.default_rng(seed) if (seed is not None or noise is not None) else None
        counts: dict = {}
        trace: list = []
        cl = self._execute(initial_bits, rng, noise, counts, trace)
        executed = dict.fromkeys(("x", "cx", "ccx", "cv", "cvdg", "measure_count",
                                  "conditional_x_count"), 0)
        census = dataclasses.replace(static_census(self.circuit), **{**executed, **counts})
        return RunResult(tuple(cl), tuple(trace), census)

    def run_value(self, initial_bits, rng, noise) -> int:
        return sum(b << k for k, b in enumerate(self._execute(initial_bits, rng, noise)))


def reference_sample(circuit: Circuit, initial_bits, shots: int, noise, seed: int) -> Histogram:
    """``simulate.sample`` on the reference runner: shot s draws from the
    generator seeded with (seed, s)."""
    runner = NumpyStatevector(circuit)
    counts: dict[int, int] = {}
    for s in range(shots):
        value = runner.run_value(initial_bits, np.random.default_rng([seed, s]), noise)
        counts[value] = counts.get(value, 0) + 1
    return Histogram(shots, dict(sorted(counts.items())))


# -- per-instruction construction: the reference for the trusted builders ----
#
# The comparator and its lowering as they were built one validated
# ``Circuit.append`` at a time, every instruction a fresh object, written out
# from the documented layout rather than through the package's builders.

def append_built_gqbsc(a_bits, b_bits, algorithmic: bool) -> Circuit:
    """Comparator for MSB-first operand bits, gate by gate."""
    n = len(a_bits)
    r0, r1 = 2 * n, 2 * n + 1
    labels = {i: f"a_{i}" for i in range(n)}
    labels.update({n + i: f"b_{i}" for i in range(n)})
    labels.update({r0: "r_0", r1: "r_1"})
    c = Circuit(2 * n + 2, 2, labels=labels)
    for q, bit in enumerate(tuple(a_bits) + tuple(b_bits)):
        if bit:
            c.x(q)
    for i in range(n):
        cond = None if i == 0 else ClassicalCondition((0, 1), 0)
        a, b = i, n + i
        c.barrier(BLOCK_BEGIN)
        c.x(b, cond).ccx(a, b, r0, cond).x(a, cond).x(b, cond).ccx(a, b, r1, cond).x(a, cond)
        c.measure(r0, 0).measure(r1, 1)
        c.barrier(BLOCK_END)
        if i % 2 == 1 or (algorithmic and i > 0):
            c.x(r0, ClassicalCondition((0, 1), 2)).measure(r0, 0)
    return c


def append_lowered(circuit: Circuit) -> Circuit:
    """Each CCX(a, b, c) as CV(a,c) CV(b,c) CX(a,b) CV-dagger(b,c) CX(a,b)."""
    out = Circuit(circuit.num_qubits, circuit.num_clbits,
                  labels=dict(circuit.labels) if circuit.labels else None)
    for instr in circuit.instructions:
        if isinstance(instr, GateOp) and instr.gate is GateKind.CCX:
            a, b, c = instr.targets
            cond = instr.condition
            out.cv(a, c, cond).cv(b, c, cond).cx(a, b, cond).cvdg(b, c, cond).cx(a, b, cond)
        else:
            out.append(instr)
    return out


def reference_census(circuit: Circuit) -> GateCensus:
    """Static census counted instruction by instruction."""
    counts = {kind: 0 for kind in GateKind}
    measures = block_measures = cond_x = blocks = 0
    in_block = False
    for instr in circuit.instructions:
        if isinstance(instr, GateOp):
            counts[instr.gate] += 1
            cond_x += instr.gate is GateKind.X and instr.condition is not None
        elif isinstance(instr, MeasureOp):
            measures += 1
            block_measures += in_block
        elif instr.label == BLOCK_BEGIN:
            blocks += 1
            in_block = True
        elif instr.label == BLOCK_END:
            in_block = False
    return GateCensus(counts[GateKind.X], counts[GateKind.CX], counts[GateKind.CCX],
                      counts[GateKind.CV], counts[GateKind.CVDG], measures, block_measures,
                      cond_x, blocks, circuit.num_qubits, circuit.width_total)


def transpose_reference(values: list[int], n: int) -> list[int]:
    """Lane ints of n-bit values, MSB first, through binary strings: bit l
    of entry i is bit n-1-i of values[l]."""
    rows = [format(v, f"0{n}b") for v in reversed(values)]
    return [int("".join(column), 2) for column in zip(*rows)]
