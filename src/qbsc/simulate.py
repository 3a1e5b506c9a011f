"""Circuit execution: statevector ("dense") and bit-exact classical backends.

Both backends honor the same dynamic-circuit semantics:
    - instructions run in order;
    - a conditioned gate fires iff the masked classical register currently
      equals its expected value;
    - measurements are unconditional, project without resetting the qubit,
      and overwrite their classical bit.

The classical backend is valid only for permutation gates (X/CX/CCX) on basis
inputs, where every intermediate state stays a basis state; it runs in
O(instructions) time and O(width) memory, which is what makes 1000-bit
operands practical. It is bit-sliced: every qubit and clbit is a Python int
whose bit l is lane l's value, a lane being one input, so one pass of the
program runs up to ``MAX_LANES`` inputs (a single run is one lane). A
condition becomes the mask of lanes where it holds, and X/CX/CCX become XOR
updates under that mask. A noisy trajectory is a one-lane run of the same
interpreter that draws from the shot's row in the dense backend's order,
which is what keeps it identical to dense.

The dense backend runs any gate set. It stores only the nonzero amplitudes,
as a map from basis index to amplitude, and from a basis input the
comparator, lowered or noisy, keeps only a few. X/CX/CCX re-key the map
(``_flip``) and every other gate, CV/CV-dagger and noise Y/Z alike, applies
its 2x2 through ``_mix``. The qubit cap is 24.

Each interpreter tests a condition once per run of ops between measurements.
It holds the compiled condition it last tested (one object per distinct
condition, since compiling shares them as the front ends do) with its lane
mask or result; an op guarded by the same object reuses it, and a
measurement, the only op that writes a clbit (a readout flip included),
drops it. A comparator block's six gates share one condition.

A backend is a ``_Runner`` subclass and supplies two things: its name,
``backend``, and ``_execute``, the interpreter that runs one basis input to
its final clbit tuple. The base compiles the circuit and owns everything else,
so ``run(initial_bits, seed, noise)``, ``run_value`` and ``sample``'s shots
behave the same on both backends. ``_runner`` resolves a backend name through
``select_backend`` and builds its runner.

Noise is a stochastic trajectory model: after each fired gate every touched
qubit is depolarized with probability p (a uniformly random Pauli X/Y/Z is
applied), and each recorded measurement bit flips with probability q. For
permutation circuits the Pauli trajectory keeps the state in the basis, so
the classical backend applies the identical model (X/Y flip the bit, Z is a
pure phase) and reproduces the dense backend draw-for-draw under one seed.

A run draws when it is noisy, or when it is seeded and its circuit can
superpose (it has CV or CV-dagger), since only then can a measurement need a
Born draw. It reads its uniforms from one pre-drawn row, ``rng.random(K)``,
K being the most one shot can consume: 2 per touched qubit of a fired gate
(the depolarizing draw and, on a hit, the Pauli draw) and 2 per measurement
(the Born draw and the readout flip). Shot s of ``sample`` reads the row of
``np.random.default_rng([seed, s])``; ``sample`` seeds those generators for
a block of shots at once, transcribing numpy's seeding (PCG64's 128-bit words
as uint64 halves) in array arithmetic, so a shot costs no generator
construction and its row is identical to that generator's.

``sample`` runs the quiet trajectory first, every draw 1.0, which fires no
event (draws are tested with ``<`` and p, q, p1 <= 1); it takes d uniforms,
each tested against its bound: p (depolarizing), q (readout flip) or p1
(Born). If d is 0, that run is the sample. A shot whose uniform j is >=
bound j for every j < d is calm and ends as the quiet run; any other follows
it up to its first event, the first uniform below its bound, and resumes
from the quiet run's last mark (its state after an op that drew) at or
before it. Where a seeding block's expected calm shots, size * prod(1 -
bound j), outweigh ``_STEP_SHOTS`` per draw, the block steps its shots'
PCG64 streams d times in array arithmetic, else one numpy test per block of
rows finds the events; only the other shots get a row. A block of rows
holds at most ``_ROW_BYTES``, and so do the marks.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    GateCensus,
    GateKind,
    MeasureOp,
    _is_int,
    _non_bits,
    census_walk,
    static_census,
)
from .errors import NonClassicalGate, NormDrift, SimulationArgumentError, TooManyQubits
from .gates import V, VDG

DENSE_CAP = 24

# Measurement is treated as deterministic when one outcome carries at least
# this much probability mass; below it the Born rule draws from the RNG.
_BASIS_EPS = 1e-12
_NORM_TOL = 1e-6

_OP_X, _OP_CX, _OP_CCX, _OP_MEASURE, _OP_CV, _OP_CVDG = range(6)
# Executed-count keys by opcode, named after the GateCensus fields they fill.
_COUNTER_KEYS = ("x", "cx", "ccx", "measure_count", "cv", "cvdg")
_GATE_OPCODES = {GateKind.X: _OP_X, GateKind.CX: _OP_CX, GateKind.CCX: _OP_CCX,
                 GateKind.CV: _OP_CV, GateKind.CVDG: _OP_CVDG}

#: Most lanes (inputs) one bit-sliced ``ClassicalRunner.run_lanes`` call takes.
MAX_LANES = 1 << 16

# numpy's seeding of ``default_rng(entropy)``: SeedSequence hashes the entropy
# words into a pool of 4 uint32 words and expands it to PCG64's 128-bit state
# and increment, which srandom steps through the LCG twice.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64 runs on uint64 (high, low) halves of its 128-bit words; every operand
# stays np.uint64, since numpy 1.24 turns uint64 mixed with int64 into float64.
_U1, _U11, _U32, _U58, _U63, _U64, _U_M32 = (np.uint64(c) for c in (1, 11, 32, 58, 63, 64, _M32))
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
# Shots seeded per vectorised pass, and the bytes of pre-drawn rows one block
# holds (K is ~30,000 at n=1000); they bound ``sample``'s memory, not its result.
_SEED_BLOCK = 1024
_ROW_BYTES = 1 << 16
# Words a dense mark keeps per amplitude: a dict slot, its int key and complex.
_AMP_WORDS = 13
# An array step of a 1,024-shot seeding block costs what setting the generator
# and filling the row of this many shots does (41 us vs 5.2 us).
_STEP_SHOTS = 8


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-per-gate plus readout-flip trajectory noise."""

    depolarizing_per_gate: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        p, q = self.depolarizing_per_gate, self.readout_flip
        for name, x in (("depolarizing", p), ("readout-flip", q)):
            if not (_is_int(x) or isinstance(x, (float, np.floating))):  # numpy's, not bools
                raise SimulationArgumentError(f"{name} probability must be a number: {x!r}")
            if not 0.0 <= x <= 1.0:
                raise SimulationArgumentError(f"{name} probability out of range: {x}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one deterministic run."""

    classical_bits: tuple[int, ...]
    measurement_trace: tuple[tuple[int, int], ...]
    executed_census: GateCensus


@dataclass(frozen=True)
class Histogram:
    """Register value -> shot count: a dict whose keys and counts are integers
    >= 0 (numpy's too, not bools), summing to ``shots`` >= 1."""

    shots: int
    counts: dict[int, int]

    def __post_init__(self):
        if not _is_int(self.shots) or self.shots < 1:
            raise SimulationArgumentError(f"histogram needs >= 1 shot, got {self.shots!r}")
        if not isinstance(self.counts, dict) or not all(
                _is_int(x) and x >= 0 for pair in self.counts.items() for x in pair):
            raise SimulationArgumentError(f"histogram counts must map integers >= 0 to integers "
                                          f">= 0: {self.counts!r}")
        if sum(self.counts.values()) != self.shots:
            raise SimulationArgumentError("histogram counts do not sum to shots")

    def argmax(self) -> int:
        """Most frequent register value (smallest value wins ties)."""
        best = max(self.counts.values())
        return min(v for v, c in self.counts.items() if c == best)


def _coerce_bits(initial_bits, num_qubits: int, noise=None) -> tuple[int, ...]:
    """A run's basis input bits; refuses a ``noise`` neither None nor a NoiseModel."""
    if noise is not None and not isinstance(noise, NoiseModel):
        raise SimulationArgumentError(f"noise must be a NoiseModel or None, got {noise!r}")
    if initial_bits is None:
        return (0,) * num_qubits
    try:  # a character other than 0 and 1 finds -1
        bits = tuple(map("01".find, initial_bits) if isinstance(initial_bits, str) else initial_bits)
    except TypeError:  # not iterable
        bits = None
    if bits is None or _non_bits(bits):
        raise SimulationArgumentError(f"initial bits must be 0/1: {initial_bits!r}")
    if len(bits) != num_qubits:
        raise SimulationArgumentError(f"initial bits length {len(bits)} != {num_qubits} qubits")
    return tuple(map(int, bits))


def _words(n: int) -> list[int]:
    """numpy's entropy words of a non-negative int: 32 bits each, low first."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed_words(seed) -> list[int]:
    """Entropy words of ``seed`` in ``default_rng([seed, s])``; a seed numpy
    rejects raises numpy's own error."""
    np.random.SeedSequence([seed, 0])
    return _words(operator.index(seed))


def _hash_pool(entropy: list) -> list:
    """SeedSequence's pool from its entropy words, each word a uint32 array
    with one element per shot (uint32 arithmetic wraps as numpy's C does)."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _M32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg_words(pool: list) -> list:
    """``generate_state(4, np.uint64)`` of the pool: four uint64 arrays, the
    initial state's high and low halves, then the stream's."""
    h = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _M32
        value = value * h
        out.append((value ^ value >> 16).astype(np.uint64))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * mult + inc mod 2^128, on uint64 halves."""
    # the high half of lo * mult_lo, from 32-bit pieces (Hacker's Delight mulhi)
    m0, m1 = _PCG_MULT_LO & _U_M32, _PCG_MULT_LO >> _U32
    l0, l1 = lo & _U_M32, lo >> _U32
    t = l1 * m0 + (l0 * m0 >> _U32)
    carry = ((t & _U_M32) + l0 * m1) >> _U32
    hi = l1 * m1 + (t >> _U32) + carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _block_states(seed_words: list[int], start: int, end: int) -> list:
    """PCG64 as ``default_rng([seed, s])`` seeds it, for the shots s in
    [start, end), which share every entropy word but the lowest: uint64
    arrays of the state's high and low halves, then the increment's."""
    size = end - start
    low = np.arange(size, dtype=np.uint32) + np.uint32(start & _M32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = ([np.full(size, w, np.uint32) for w in seed_words] + [low]
               + [np.full(size, w, np.uint32) for w in high])
    s_hi, s_lo, i_hi, i_lo = _pcg_words(_hash_pool(entropy))
    inc_hi, inc_lo = i_hi << _U1 | i_lo >> _U63, i_lo << _U1 | _U1
    lo = inc_lo + s_lo  # srandom: state 0 steps to inc, takes the seed, steps
    return [*_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo]


def _uniforms(state: list, d: int):
    """Yield ``d`` draws of ``random()`` from ``_block_states``, an array each:
    a step, its XSL-RR output, numpy's 53-bit double."""
    hi, lo, inc_hi, inc_lo = state
    for _ in range(d):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        yield ((x >> rot | x << (_U64 - rot & _U63)) >> _U11) * 2.0 ** -53


def _shot_rows(seed_words: list[int], start: int, stop: int, k: int, bounds=None):
    """Yield the shots s in [start, stop) as blocks, each a float64 array
    whose rows are ``np.random.default_rng([seed, s]).random(k)``,
    ``seed_words`` being ``_seed_words(seed)``; given the quiet run's
    ``bounds``, a seeding block that pays to step leaves out its calm shots
    (module docstring). A block holds at most ``_ROW_BYTES`` of rows (one row
    at least), and its shots share their entropy word count and every word
    but the lowest, so a block never straddles a multiple of 2^32.
    """
    gen = np.random.Generator(np.random.PCG64())
    bitgen = gen.bit_generator
    block = max(1, _ROW_BYTES // (8 * max(k, 1)))
    d = 0 if bounds is None else len(bounds)
    calm_share = 0.0 if bounds is None else float(np.prod(1.0 - bounds))
    while start < stop:
        end = min(stop, start + _SEED_BLOCK, ((start >> 32) + 1) << 32)
        state = _block_states(seed_words, start, end)
        if (end - start) * calm_share > _STEP_SHOTS * d:
            calm = np.ones(end - start, bool)  # one boolean per shot, no shots x d matrix
            for u, bound in zip(_uniforms(state, d), bounds):
                calm &= u >= bound
            state = [w[~calm] for w in state]
        for i in range(0, len(state[0]), block):
            part = [w[i:i + block].tolist() for w in state]
            rows = np.empty((len(part[0]), k))
            for row, s_hi, s_lo, i_hi, i_lo in zip(rows, *part):
                bitgen.state = {"bit_generator": "PCG64",
                                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                                "has_uint32": 0, "uinteger": 0}
                gen.random(out=row)
            yield rows
        start = end


class _QuietDraw(float):
    """A draw of the quiet run: 1.0, which fires no event, since draws are
    tested with ``<`` and p, q, p1 <= 1; it records what it is tested against."""

    def __lt__(self, other):
        self.bounds.append(other)
        return False


def _quiet_run(runner: _Runner, bits: tuple[int, ...], noise: NoiseModel | None):
    """Final clbits of the quiet trajectory, each draw's bound and the marks.

    Every draw is tested once, so the bounds recorded so far count the draws
    taken. After each op that drew, while the marks hold at most
    ``_ROW_BYTES`` of state (a word per qubit and clbit, ``_AMP_WORDS`` per
    dense amplitude), a mark (draws taken, start) keeps the next op's index
    and a copy of the state."""
    one = _QuietDraw(1.0)
    bounds = one.bounds = []
    marks = [(0, None)]
    room = _ROW_BYTES // 8
    entry = _AMP_WORDS if runner.backend == "dense" else 1

    def mark(ops, state, cl):
        nonlocal room
        taken, words = len(bounds), entry * len(state) + len(cl)
        if taken > marks[-1][0] and words <= room:
            room -= words
            i = len(runner._prog) - operator.length_hint(ops)  # the next op
            marks.append((taken, (i, state.copy(), tuple(cl))))

    drawing = noise is not None or runner._superposes  # as ``_Runner._draw`` with a generator
    draw = itertools.repeat(one).__next__ if drawing else None
    quiet = runner._execute(bits, draw, noise, fired=mark)
    return quiet, np.array(bounds, dtype=float), marks


def _draw_bound(census: GateCensus) -> int:
    """Most uniforms one shot can draw: 2 per touched qubit of a fired gate,
    2 per measurement."""
    touched = sum(getattr(census, kind.value) * kind.arity for kind in GateKind)
    return 2 * touched + 2 * census.measure_count


def _register(cl) -> int:
    return sum(b << k for k, b in enumerate(cl))


def _compile(circuit: Circuit):
    """Flatten instructions to opcode tuples in the census walk; returns the
    program and the static census.

    A condition compiles to (clbit, flip) pairs, flip 0 where the bit must
    read 1 and -1 where it must read 0, so the gate fires in the lanes of the
    AND over pairs of ``cl[clbit] ^ flip``; an unconditioned op gets None.
    Each op ends with the qubits it touches for noise (``()`` for a
    measurement). A shared instruction or condition object compiles once.
    """
    conditions: dict = {}  # by id: conditions are never hashed

    def compile_instr(instr):
        if isinstance(instr, MeasureOp):
            return (_OP_MEASURE, instr.qubit, instr.clbit, -1, None, ())
        cond = instr.condition
        if cond is not None:
            compiled = conditions.get(id(cond))
            if compiled is None:
                compiled = conditions[id(cond)] = tuple(
                    (mb, (cond.value >> j & 1) - 1) for j, mb in enumerate(cond.mask))
            cond = compiled
        t = instr.targets + (-1, -1)
        return (_GATE_OPCODES[instr.gate], t[0], t[1], t[2], cond, instr.targets)

    census, prog = census_walk(circuit, compile_instr)
    return prog, census


class _Runner:
    """One backend's executor of a compiled circuit (``_compiled``, if given).
    A backend supplies ``backend``, its name, and ``_execute(bits, draw,
    noise, start=None, fired=None)``: the final clbit tuple of one run from basis
    input ``bits`` or from ``start``, a mark's (op index, state, clbits),
    ``draw`` giving its uniforms. Its one observer, ``fired(ops, state, cl)``,
    runs after each fired op and that op's noise draws, ``ops`` iterating the
    program past it: ``run`` counts and traces through it, the quiet run marks."""

    backend: str

    def __init__(self, circuit: Circuit, _compiled=None):
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self._prog, self._static = _compiled or _compile(circuit)
        self._superposes = not self._static.permutation_only

    def _draw(self, rng: np.random.Generator | None, noise: NoiseModel | None):
        """Draw function over one pre-drawn row of ``rng``, or None where the
        run draws nothing (module docstring)."""
        if noise is None and (rng is None or not self._superposes):
            return None
        if rng is None:
            raise SimulationArgumentError("a noisy run needs a generator, got rng=None")
        return iter(rng.random(_draw_bound(self._static)).tolist()).__next__

    def run(self, initial_bits=None, seed: int | None = None,
            noise: NoiseModel | None = None) -> RunResult:
        """One run with its measurement trace and executed census; a noisy
        run without a seed draws fresh entropy."""
        bits = _coerce_bits(initial_bits, self.num_qubits, noise)
        rng = None if seed is None and noise is None else np.random.default_rng(seed)
        counters = dict.fromkeys(_COUNTER_KEYS + ("conditional_x_count",), 0)
        trace, prog = [], self._prog

        def fired(ops, state, cl):
            op, _, clbit, _, cond, _ = prog[len(prog) - operator.length_hint(ops) - 1]
            counters[_COUNTER_KEYS[op]] += 1
            if op == _OP_MEASURE:
                trace.append((clbit, cl[clbit]))
            elif op == _OP_X and cond is not None:
                counters["conditional_x_count"] += 1
        cl = self._execute(bits, self._draw(rng, noise), noise, fired=fired)
        return RunResult(cl, tuple(trace), dataclasses.replace(self._static, **counters))

    def run_value(self, initial_bits, rng: np.random.Generator | None,
                  noise: NoiseModel | None) -> int:
        """Register value of one (possibly noisy) trajectory."""
        bits = _coerce_bits(initial_bits, self.num_qubits, noise)
        return _register(self._execute(bits, self._draw(rng, noise), noise))


class ClassicalRunner(_Runner):
    """Precompiled bit-level executor for permutation-only circuits."""

    backend = "classical"

    def __init__(self, circuit: Circuit, _compiled=None):
        super().__init__(circuit, _compiled)
        if self._superposes:
            first = next(op[0] for op in self._prog if op[0] >= _OP_CV)
            # a counter key is its gate's name
            raise NonClassicalGate(f"{_COUNTER_KEYS[first]} is not a classical permutation gate")

    def run_lanes(self, qubits, lanes: int) -> tuple[list[int], list[int]]:
        """Run ``lanes`` basis inputs at once, bit-sliced.

        ``qubits[q]`` is an int whose bit l is qubit q's initial value in
        lane l. Returns the final qubit and clbit lane ints in the same form.
        At most ``MAX_LANES`` lanes per call.
        """
        if not _is_int(lanes) or not 1 <= lanes <= MAX_LANES:
            raise SimulationArgumentError(f"lane count {lanes} outside [1, {MAX_LANES}]")
        q = list(qubits)
        if len(q) != self.num_qubits:
            raise SimulationArgumentError(f"{len(q)} qubit lane ints != {self.num_qubits} qubits")
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 or v >> lanes for v in q):
            raise SimulationArgumentError(f"qubit lane ints must lie in [0, 2^{lanes})")
        return self._run_lanes(q, lanes)

    def _run_lanes(self, q: list[int], lanes: int, draw=None,
                   noise: NoiseModel | None = None, start=None, fired=None):
        """The interpreter. A condition becomes the mask of lanes where it
        holds. With ``draw`` (one lane only) it draws ``noise`` in the dense
        backend's order: per fired gate and touched qubit one depolarizing
        draw, plus the Pauli draw when it hits; per measurement one readout-flip
        draw. ``start`` and ``fired`` (one lane) are as in :class:`_Runner`."""
        full = (1 << lanes) - 1
        if start is None:
            ops, cl = iter(self._prog), [0] * self.num_clbits
        else:
            ops, q, cl = iter(self._prog[start[0]:]), list(start[1]), list(start[2])
        if draw is not None:
            p, flip_p = noise.depolarizing_per_gate, noise.readout_flip
        held = None  # the condition last tested, ``live`` its lanes, until a measurement
        for op, a0, a1, a2, cond, touched in ops:
            if cond is None:
                act = full
            else:
                if cond is not held:
                    held, live = cond, full
                    for mb, flip in cond:
                        live &= cl[mb] ^ flip
                if not live:
                    continue
                act = live
            if op == _OP_X:
                q[a0] ^= act
            elif op == _OP_CCX:
                q[a2] ^= act & q[a0] & q[a1]
            elif op == _OP_MEASURE:
                cl[a1] = q[a0]
                if draw is not None and draw() < flip_p:
                    cl[a1] ^= 1
                held = None
            else:  # _OP_CX
                q[a1] ^= act & q[a0]
            if draw is not None:
                for qb in touched:
                    # X and Y flip a basis state; Z only phases it
                    if draw() < p and int(draw() * 3) != 2:
                        q[qb] ^= 1
            if fired is not None:
                fired(ops, q, cl)
        return q, cl

    def _execute(self, bits, draw, noise, start=None, fired=None):
        return tuple(self._run_lanes(list(bits), 1, draw, noise, start, fired)[1])

    def run_bits(self, initial_bits=None) -> tuple[int, ...]:
        """Fast path: final classical bits only."""
        return self._execute(_coerce_bits(initial_bits, self.num_qubits), None, None)


# V, V-dagger and the Paulis Y and Z as row-major Python complex tuples
# (m00, m01, m10, m11).
_V, _VDG = (tuple(complex(x) for x in m.ravel()) for m in (V, VDG))
_Y, _Z = (0j, -1j, 1j, 0j), (1 + 0j, 0j, 0j, -1 + 0j)


def _flip(amps: dict, ctrl: int, flip: int) -> dict:
    """X/CX/CCX: toggle the ``flip`` bit of every index holding all ``ctrl`` bits."""
    return {(k ^ flip if k & ctrl == ctrl else k): v for k, v in amps.items()}


def _mix(amps: dict, ctrl: int, tgt: int, m: tuple) -> dict:
    """Apply the 2x2 ``m`` to the target pair of every index holding all
    ``ctrl`` bits (every index for 0). Exact zeros drop out of the map."""
    m00, m01, m10, m11 = m
    out = {}
    for k, v in amps.items():
        if k & ctrl != ctrl:
            out[k] = v
            continue
        # a member adds its column of m, so the pair ends as m00*s0 + m01*s1
        # and m10*s0 + m11*s1 with an absent member counted as 0
        k0, k1 = k & ~tgt, k | tgt
        c0, c1 = (m01 * v, m11 * v) if k & tgt else (m00 * v, m10 * v)
        out[k0] = out.get(k0, 0j) + c0
        out[k1] = out.get(k1, 0j) + c1
    return {k: v for k, v in out.items() if v}


def _mass(amps: dict, bit: int = 0) -> float:
    """Probability of the indices holding ``bit`` (all of them for 0)."""
    total = 0.0
    for k, v in amps.items():
        if k & bit == bit:
            a = abs(v)
            total += a * a  # as numpy squares; a ** 2 can round differently
    return total


def _measure(amps: dict, q: int, draw) -> tuple[int, dict]:
    bit = 1 << q
    p1 = _mass(amps, bit)
    probabilistic = _BASIS_EPS < p1 < 1.0 - _BASIS_EPS
    if probabilistic:
        if draw is None:
            raise SimulationArgumentError("measurement of a superposed qubit needs a seed")
        outcome = 1 if draw() < p1 else 0
    else:
        outcome = 1 if p1 >= 0.5 else 0
    prob, keep = (p1, bit) if outcome else (1.0 - p1, 0)
    amps = {k: v for k, v in amps.items() if k & bit == keep}
    if prob != 1.0:
        scale = 1.0 / math.sqrt(prob)
        amps = {k: v * scale for k, v in amps.items()}
    if probabilistic:
        # Deterministic projections of basis states cannot drift; only the
        # renormalized superposition path warrants the full-norm check.
        norm = math.sqrt(_mass(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormDrift(f"norm {norm} after measuring qubit {q}")
    return outcome, amps


class DenseRunner(_Runner):
    """Precompiled statevector executor with mid-circuit measurement; the
    state maps basis index (bit q is qubit q) to nonzero amplitude."""

    backend = "dense"

    def __init__(self, circuit: Circuit, _compiled=None):
        if circuit.num_qubits > DENSE_CAP:
            raise TooManyQubits(f"{circuit.num_qubits} qubits exceeds dense cap {DENSE_CAP}")
        super().__init__(circuit, _compiled)

    def _execute(self, bits, draw, noise, start=None, fired=None):
        """The interpreter; ``draw`` None (no seed) fails a Born draw. The state
        ``fired`` sees, ``amps``, is shared: no helper changes a map in place."""
        if start is None:
            ops, amps, cl = iter(self._prog), {_register(bits): 1 + 0j}, [0] * self.num_clbits
        else:
            ops, amps, cl = iter(self._prog[start[0]:]), start[1], list(start[2])
        p, q_flip = (noise.depolarizing_per_gate, noise.readout_flip) if noise else (0, 0)

        held = None  # the condition last tested, ``fire`` its result, until a measurement
        for op, a0, a1, a2, cond, touched in ops:
            if cond is not None:
                if cond is not held:
                    held, fire = cond, 1
                    for mb, flip in cond:
                        fire &= cl[mb] ^ flip
                if not fire:
                    continue
            if op == _OP_MEASURE:
                outcome, amps = _measure(amps, a0, draw)
                if noise is not None and draw() < q_flip:
                    outcome ^= 1
                cl[a1] = outcome
                held = None
            elif op == _OP_X:
                amps = _flip(amps, 0, 1 << a0)
            elif op == _OP_CX:
                amps = _flip(amps, 1 << a0, 1 << a1)
            elif op == _OP_CCX:
                amps = _flip(amps, 1 << a0 | 1 << a1, 1 << a2)
            else:
                amps = _mix(amps, 1 << a0, 1 << a1, _V if op == _OP_CV else _VDG)
            if noise is not None:
                for qb in touched:
                    if draw() < p:
                        pauli = int(draw() * 3)  # X, Y, Z
                        if pauli:
                            amps = _mix(amps, 0, 1 << qb, _Y if pauli == 1 else _Z)
                        else:
                            amps = _flip(amps, 0, 1 << qb)
            if fired is not None:
                fired(ops, amps, cl)

        norm = math.sqrt(_mass(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormDrift(f"final norm {norm}")
        return tuple(cl)


def run_dense(circuit: Circuit, initial_bits=None, seed: int | None = None,
              *, noise: NoiseModel | None = None) -> RunResult:
    """One dense-statevector run from a basis input."""
    return DenseRunner(circuit).run(initial_bits, seed, noise)


def run_classical(circuit: Circuit, initial_bits=None) -> RunResult:
    """One bit-exact run; requires a permutation-only circuit."""
    return ClassicalRunner(circuit).run(initial_bits)


def select_backend(circuit: Circuit, requested: str = "auto", census=None) -> str:
    """Resolve 'auto' to the cheapest valid backend, from ``census`` if given."""
    if requested == "auto":
        return "classical" if (census or static_census(circuit)).permutation_only else "dense"
    if requested not in ("classical", "dense"):
        raise SimulationArgumentError(f"unknown backend {requested!r}")
    return requested


def _runner(circuit: Circuit, backend: str = "auto") -> _Runner:
    """The runner of ``backend`` as :func:`select_backend` resolves it."""
    compiled = _compile(circuit)
    if select_backend(circuit, backend, compiled[1]) == "classical":
        return ClassicalRunner(circuit, compiled)
    return DenseRunner(circuit, compiled)


def sample(circuit: Circuit, initial_bits=None, shots: int = 1,
           noise: NoiseModel | None = None, seed: int = 0,
           backend: str = "auto") -> Histogram:
    """Repeat execution ``shots`` times with per-shot derived seeds.

    Shot s draws from ``np.random.default_rng([seed, s])``, so histograms are
    reproducible and independent of execution order; a seed numpy rejects
    raises numpy's error. A shot whose uniforms clear their draws' bounds in
    the quiet run ends as that run, any other resumes from a mark of it
    (module docstring).
    """
    if not _is_int(shots):
        raise SimulationArgumentError(f"shots must be an integer: {shots!r}")
    shots = operator.index(shots)
    if shots < 1:
        raise SimulationArgumentError("shots must be >= 1")
    seed_words = _seed_words(seed)  # checked even where no shot draws
    runner = _runner(circuit, backend)
    bits = _coerce_bits(initial_bits, circuit.num_qubits, noise)
    quiet, bounds, marks = _quiet_run(runner, bits, noise)
    d = len(bounds)
    if not d:  # no shot draws: one run
        return Histogram(shots, {_register(quiet): shots})
    taken = np.array([offset for offset, _ in marks])
    counts: dict[tuple[int, ...], int] = {}  # by final clbits
    shot = runner._execute
    for rows in _shot_rows(seed_words, 0, shots, _draw_bound(runner._static), bounds):
        below = rows[:, :d] < bounds
        hit = below.any(axis=1)
        # the last mark at or before each shot's first event
        at = np.searchsorted(taken, below[hit].argmax(axis=1), "right") - 1
        for row, m in zip(rows[hit], at.tolist()):
            offset, start = marks[m]
            cl = shot(bits, iter(row[offset:].tolist()).__next__, noise, start)
            counts[cl] = counts.get(cl, 0) + 1
    counts[quiet] = counts.get(quiet, 0) + shots - sum(counts.values())  # the calm shots
    return Histogram(shots, dict(sorted((_register(cl), c) for cl, c in counts.items() if c)))
