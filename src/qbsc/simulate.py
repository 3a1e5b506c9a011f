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
its 2x2 through ``_mix``, the only kernel that grows the map; it raises
:class:`SimulationError` past ``MAX_AMPS`` amplitudes, at any qubit count.

Both interpreters run the circuit's own gate and measurement objects, the
list ``census_walk`` returns with the static census; nothing is compiled. An
op's ``gate`` is None for a measurement. Each interpreter tests a condition
once per run of ops between measurements: it holds the condition object it
last tested with its lane mask or result, made from the condition's (clbit,
flip) ``pairs``; an op guarded by the same object reuses it, and a
measurement, the only op that writes a clbit (a readout flip included),
drops it. The front ends share one condition object among the gates it
guards, so a comparator block's six gates cost one test.

A backend is a ``_Runner`` subclass and supplies its name, ``backend``, its
mark size, ``_ENTRY_WORDS``, and ``_execute``, the interpreter that runs one
basis input to its final clbit tuple. The base walks the circuit once and
owns everything else, so ``run(initial_bits, seed, noise)``, ``run_value``
and ``sample``'s shots behave the same on both backends. The circuit picks
its runner (``_runner``): classical iff it is permutation-only, else dense.

Noise is a stochastic trajectory model: after each fired gate every touched
qubit is depolarized with probability p (a uniformly random Pauli X/Y/Z is
applied), and each recorded measurement bit flips with probability q. For
permutation circuits the Pauli trajectory keeps the state in the basis, so
the classical backend applies the identical model (X/Y flip the bit, Z is a
pure phase) and reproduces the dense backend draw-for-draw under one seed.

A run draws (``_Runner._draws``) when it is noisy, or when it is seeded and
its circuit can superpose (it has CV or CV-dagger), since only then can a
measurement need a Born draw. It reads its uniforms from one pre-drawn row,
``rng.random(K)``, K being the most one shot can consume: 2 per touched
qubit of a fired gate (the depolarizing draw and, on a hit, the Pauli draw)
and 2 per measurement (the Born draw and the readout flip). Shot s of
``sample`` reads the row of ``np.random.default_rng([seed, s])``, built for
a block of shots at once (``streams``), so a shot builds no generator.

A ``sample`` that cannot draw is one plain run; any other runs the quiet
trajectory first, every draw 1.0, which fires no event (draws are tested
with ``<`` and p, q, p1 <= 1). It takes d uniforms, each tested against its
bound: p (depolarizing), q (readout flip) or p1 (Born). If d is 0, that run
is the sample. A shot whose uniform j is >= bound j for every j < d is calm
and ends as the quiet run; any other follows it up to its first event, the
first uniform below its bound, and resumes from the quiet run's last mark
(its state after an op that drew) at or before it. Where a seeding block's
expected calm shots, size * prod(1 - bound j), outweigh
``streams._STEP_SHOTS`` per draw, the block steps its shots' PCG64 streams d
times in array arithmetic, else one numpy test per block of rows finds the
events; only the other shots get a row. A block of rows holds at most
``streams._ROW_BYTES``, and so do the marks, each state entry costing
``_ENTRY_WORDS``: 1 for a lane int, 13 for a dense amplitude.

numpy is imported only where arrays are computed: by a ``run`` or ``sample``
that draws. One that cannot, seeded or not, and so ``compare`` and the
CLI's build, export, sweep and census, never load it (``import qbsc.cli``
fell from 0.160 to 0.095 s of CPU in a fresh process; README, Install).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import (
    Circuit,
    GateCensus,
    GateKind,
    KIND_NAMES,
    _is_int,
    _non_bits,
    _numpy_scalar,
    census_walk,
)
from .errors import NonClassicalGate, NormDrift, SimulationArgumentError, SimulationError
from .gates import V, VDG

if TYPE_CHECKING:  # imported where arrays are computed (module docstring)
    import numpy as np

# Measurement is treated as deterministic when one outcome carries at least
# this much probability mass; below it the Born rule draws from the RNG.
_BASIS_EPS = 1e-12
_NORM_TOL = 1e-6

_X, _CX, _CCX, _CV = GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CV

#: Most lanes (inputs) one bit-sliced ``ClassicalRunner._run_lanes`` pass takes.
MAX_LANES = 1 << 16
MAX_AMPS = 1 << 16  #: Most amplitudes the dense state may hold (``_mix``).


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-per-gate plus readout-flip trajectory noise."""

    depolarizing_per_gate: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        p, q = self.depolarizing_per_gate, self.readout_flip
        for name, x in (("depolarizing", p), ("readout-flip", q)):
            if not (_is_int(x) or isinstance(x, float) or _numpy_scalar(x, "floating")):
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


def _check_seed(seed) -> int:
    """A run's seed as a Python int: an integer >= 0 (:func:`_is_int`: numpy's
    too, not a bool), else :class:`SimulationArgumentError`."""
    if not _is_int(seed) or seed < 0:
        raise SimulationArgumentError(f"seed must be an integer >= 0, got {seed!r}")
    return operator.index(seed)


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
    ``streams._ROW_BYTES`` of state (a word per clbit, ``_ENTRY_WORDS`` per
    state entry), a mark (draws taken, start) keeps the next op's index and
    a copy of the state."""
    import numpy as np
    from .streams import _ROW_BYTES
    one = _QuietDraw(1.0)
    bounds = one.bounds = []
    marks = [(0, None)]
    room = _ROW_BYTES // 8

    def mark(ops, state, cl):
        nonlocal room
        taken, words = len(bounds), runner._ENTRY_WORDS * len(state) + len(cl)
        if taken > marks[-1][0] and words <= room:
            room -= words
            i = len(runner._prog) - operator.length_hint(ops)  # the next op
            marks.append((taken, (i, state.copy(), tuple(cl))))

    quiet = runner._execute(bits, itertools.repeat(one).__next__, noise, fired=mark)
    return quiet, np.array(bounds, dtype=float), marks


def _draw_bound(census: GateCensus) -> int:
    """Most uniforms one shot can draw: 2 per touched qubit of a fired gate,
    2 per measurement."""
    touched = sum(getattr(census, kind.value) * kind.arity for kind in GateKind)
    return 2 * touched + 2 * census.measure_count


def _register(cl) -> int:
    return sum(b << k for k, b in enumerate(cl))


class _Runner:
    """One backend's executor of a circuit's gates and measurements, ``_prog``,
    as listed by ``census_walk`` (``_walked``, if given) when it was built.
    A backend supplies ``backend``, its name, ``_ENTRY_WORDS``, the words a
    mark keeps per state entry, and ``_execute(bits, draw, noise, start=None,
    fired=None)``: the final clbit tuple of one run from basis
    input ``bits`` or from ``start``, a mark's (op index, state, clbits),
    ``draw`` giving its uniforms. Its one observer, ``fired(ops, state, cl)``,
    runs after each fired op and that op's noise draws, ``ops`` iterating
    ``_prog`` past it: ``run`` counts and traces through it, the quiet run marks."""

    backend: str

    def __init__(self, circuit: Circuit, _walked=None):
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self._static, self._prog = _walked or census_walk(circuit)

    def _draws(self, seeded: bool, noise: NoiseModel | None) -> bool:
        """Whether a run draws: it is noisy, or seeded and can superpose."""
        return noise is not None or seeded and not self._static.permutation_only

    def _draw(self, rng: np.random.Generator | None, noise: NoiseModel | None):
        """Draw function over one pre-drawn row of ``rng`` (None or a numpy
        Generator), or None where the run draws nothing."""
        random = sys.modules.get("numpy.random")  # a Generator exists only once it is loaded
        if rng is not None and (random is None or not isinstance(rng, random.Generator)):
            raise SimulationArgumentError(f"rng must be a numpy Generator or None, got {rng!r}")
        if not self._draws(rng is not None, noise):
            return None
        if rng is None:
            raise SimulationArgumentError("a noisy run needs a generator, got rng=None")
        return iter(rng.random(_draw_bound(self._static)).tolist()).__next__

    def run(self, initial_bits=None, seed: int | None = None,
            noise: NoiseModel | None = None) -> RunResult:
        """One run with its measurement trace and executed census; ``seed``
        is None or as :func:`_check_seed` takes it, and a noisy run without a
        seed draws fresh entropy."""
        bits = _coerce_bits(initial_bits, self.num_qubits, noise)
        seed, rng = None if seed is None else _check_seed(seed), None
        if self._draws(seed is not None, noise):
            import numpy as np
            rng = np.random.default_rng(seed)
        # GateCensus field names; a gate kind's field is its name
        counters = dict.fromkeys([*KIND_NAMES.values(), "measure_count", "conditional_x_count"], 0)
        trace, prog = [], self._prog

        def fired(ops, state, cl):
            op = prog[len(prog) - operator.length_hint(ops) - 1]
            gate = op.gate
            if gate is None:  # a measurement
                counters["measure_count"] += 1
                trace.append((op.clbit, cl[op.clbit]))
            else:
                counters[KIND_NAMES[gate]] += 1
                if gate is _X and op.condition is not None:
                    counters["conditional_x_count"] += 1
        cl = self._execute(bits, self._draw(rng, noise), noise, fired=fired)
        return RunResult(cl, tuple(trace), dataclasses.replace(self._static, **counters))

    def run_value(self, initial_bits, rng: np.random.Generator | None,
                  noise: NoiseModel | None) -> int:
        """Register value of one (possibly noisy) trajectory."""
        bits = _coerce_bits(initial_bits, self.num_qubits, noise)
        return _register(self._execute(bits, self._draw(rng, noise), noise))


class ClassicalRunner(_Runner):
    """Bit-level executor for permutation-only circuits."""

    backend = "classical"
    _ENTRY_WORDS = 1  # a qubit's lane int

    def __init__(self, circuit: Circuit, _walked=None):
        super().__init__(circuit, _walked)
        if not self._static.permutation_only:
            first = next(op.gate for op in self._prog if op.gate not in (None, _X, _CX, _CCX))
            raise NonClassicalGate(f"{first.value} is not a classical permutation gate")

    def _run_lanes(self, q: list[int], lanes: int, draw=None,
                   noise: NoiseModel | None = None, start=None, fired=None):
        """The interpreter: runs ``lanes`` (at most ``MAX_LANES``) basis inputs
        at once, ``q[i]`` an int whose bit l is qubit i's value in lane l, and
        returns the final qubit and clbit lane ints. It XORs into ``q``, so
        pass a fresh list. A condition becomes the mask of lanes where it
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
        x, ccx = _X, _CCX  # locals read faster than globals
        for op in ops:
            gate = op.gate
            if gate is None:  # a measurement
                c = op.clbit
                cl[c] = q[op.qubit]
                if draw is not None and draw() < flip_p:
                    cl[c] ^= 1
                held = None
            else:
                cond = op.condition
                if cond is None:
                    act = full
                else:
                    if cond is not held:
                        held, live = cond, full
                        for mb, flip in cond.pairs:
                            live &= cl[mb] ^ flip
                    if not live:
                        continue
                    act = live
                t = op.targets
                if gate is x:
                    q[t[0]] ^= act
                elif gate is ccx:
                    a, b, c = t
                    q[c] ^= act & q[a] & q[b]
                else:  # CX
                    a, b = t
                    q[b] ^= act & q[a]
                if draw is not None:
                    for qb in t:
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
_V, _VDG = (m[0] + m[1] for m in (V, VDG))
_Y, _Z = (0j, -1j, 1j, 0j), (1 + 0j, 0j, 0j, -1 + 0j)


def _flip(amps: dict, ctrl: int, flip: int) -> dict:
    """X/CX/CCX: toggle the ``flip`` bit of every index holding all ``ctrl`` bits."""
    return {(k ^ flip if k & ctrl == ctrl else k): v for k, v in amps.items()}


def _mix(amps: dict, ctrl: int, tgt: int, m: tuple) -> dict:
    """Apply the 2x2 ``m`` to the target pair of every index holding all
    ``ctrl`` bits (every index for 0); exact zeros drop out, past ``MAX_AMPS`` it raises."""
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
    out = {k: v for k, v in out.items() if v}
    if len(out) > MAX_AMPS:
        raise SimulationError(f"dense state holds {len(out)} amplitudes, more than {MAX_AMPS}")
    return out


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
    """Statevector executor with mid-circuit measurement; the state maps basis
    index (bit q is qubit q) to nonzero amplitude."""

    backend = "dense"
    _ENTRY_WORDS = 13  # an amplitude: a dict slot, its int key and complex

    def _execute(self, bits, draw, noise, start=None, fired=None):
        """The interpreter; ``draw`` None (no seed) fails a Born draw. The state
        ``fired`` sees, ``amps``, is shared: no helper changes a map in place."""
        if start is None:
            ops, amps, cl = iter(self._prog), {_register(bits): 1 + 0j}, [0] * self.num_clbits
        else:
            ops, amps, cl = iter(self._prog[start[0]:]), start[1], list(start[2])
        p, q_flip = (noise.depolarizing_per_gate, noise.readout_flip) if noise else (0, 0)

        held = None  # the condition last tested, ``fire`` its result, until a measurement
        for op in ops:
            gate = op.gate
            if gate is None:  # a measurement
                outcome, amps = _measure(amps, op.qubit, draw)
                if noise is not None and draw() < q_flip:
                    outcome ^= 1
                cl[op.clbit] = outcome
                held = None
            else:
                cond = op.condition
                if cond is not None:
                    if cond is not held:
                        held, fire = cond, 1
                        for mb, flip in cond.pairs:
                            fire &= cl[mb] ^ flip
                    if not fire:
                        continue
                t = op.targets
                if gate is _X:
                    amps = _flip(amps, 0, 1 << t[0])
                elif gate is _CX:
                    amps = _flip(amps, 1 << t[0], 1 << t[1])
                elif gate is _CCX:
                    amps = _flip(amps, 1 << t[0] | 1 << t[1], 1 << t[2])
                else:
                    amps = _mix(amps, 1 << t[0], 1 << t[1], _V if gate is _CV else _VDG)
                if noise is not None:
                    for qb in t:
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


def _runner(circuit: Circuit) -> _Runner:
    """Classical runner iff the circuit is permutation-only, else dense."""
    walked = census_walk(circuit)
    if walked[0].permutation_only:
        return ClassicalRunner(circuit, walked)
    return DenseRunner(circuit, walked)


def sample(circuit: Circuit, initial_bits=None, shots: int = 1,
           noise: NoiseModel | None = None, seed: int = 0) -> Histogram:
    """Repeat execution ``shots`` times with per-shot derived seeds.

    Shot s draws from ``np.random.default_rng([seed, s])``, so histograms are
    reproducible and independent of execution order; ``seed`` is an integer
    >= 0 (:func:`_check_seed`). A shot whose uniforms clear their draws'
    bounds in the quiet run ends as that run, any other resumes from a mark of
    it (module docstring).
    """
    return _sample(_runner(circuit), initial_bits, shots, noise, seed)


def _sample(runner: _Runner, initial_bits, shots, noise, seed) -> Histogram:
    """:func:`sample` on a given runner."""
    if not _is_int(shots):
        raise SimulationArgumentError(f"shots must be an integer: {shots!r}")
    shots = operator.index(shots)
    if shots < 1:
        raise SimulationArgumentError("shots must be >= 1")
    seed = _check_seed(seed)  # checked even where no shot draws
    bits = _coerce_bits(initial_bits, runner.num_qubits, noise)
    quiet, bounds, marks = (_quiet_run(runner, bits, noise) if runner._draws(True, noise)
                            else (runner._execute(bits, None, None), (), None))  # one plain run
    d = len(bounds)
    if not d:  # no shot draws: one run
        return Histogram(shots, {_register(quiet): shots})
    import numpy as np
    from .streams import _shot_rows
    taken = np.array([offset for offset, _ in marks])
    counts: dict[tuple[int, ...], int] = {}  # by final clbits
    shot = runner._execute
    for rows in _shot_rows(seed, 0, shots, _draw_bound(runner._static), bounds):
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
