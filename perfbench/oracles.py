"""The benchmark's own oracles and its negative-control mutants.

Nothing here calls the library's checkers (``reference_flags``, the soundness
sweeps, ``Histogram`` validation): every expected value is derived from
Python integers and from the comparator's documented layout, so a defect the
library's checkers share with its builder still shows up as a failed check.
"""
from __future__ import annotations

import random

from qbsc.circuit import Circuit, GateKind, GateOp

FIGURE = "figure"
ALGORITHMIC = "algorithmic"
VARIANTS = (FIGURE, ALGORITHMIC)

# Unit costs of one one-bit compare block: 4 X at 1 plus 2 CCX at 5.
BLOCK_COST = 14


def correction_sites(n: int, variant: str) -> int:
    """Flip-r0 sites: after every second block (figure) or every block past
    the first (algorithmic)."""
    return n // 2 if variant == FIGURE else n - 1


def first_difference(a: int, b: int, n: int) -> int | None:
    """MSB-first index of the first bit where the operands differ."""
    return None if a == b else n - (a ^ b).bit_length()


def expected_class(a: int, b: int) -> str:
    return "Less" if a < b else "Greater" if a > b else "Equal"


def expected_flags(a: int, b: int, n: int, variant: str) -> tuple[int, int]:
    """(r0, r1) after the whole chain.

    A "less" verdict landing in block k is corrected by the first site at a
    loop index i >= k (i in 1..n-1); the site sets r0 and no later site fires.
    Figure sites sit at odd i, so the first candidate is k rounded up to odd.
    """
    if a >= b:
        return (int(a > b), 0)
    k = first_difference(a, b, n)
    if variant == FIGURE:
        corrected = (k | 1) <= n - 1
    else:
        corrected = n >= 2
    return (int(corrected), 1)


def expected_register(a: int, b: int, n: int, variant: str) -> int:
    """Classical register value, clbit 0 (r0) least significant."""
    r0, r1 = expected_flags(a, b, n, variant)
    return r0 | (r1 << 1)


def expected_static_cost(n: int, variant: str) -> int:
    return BLOCK_COST * n + correction_sites(n, variant)


def expected_executed_cost(a: int, b: int, n: int, variant: str) -> int:
    """Blocks run until a verdict lands; a fired correction site costs 1."""
    k = first_difference(a, b, n)
    fired_blocks = n if k is None else k + 1
    r0, r1 = expected_flags(a, b, n, variant)
    return BLOCK_COST * fired_blocks + (1 if r1 and r0 else 0)


def check_compare_payload(payload: dict, a: int, b: int, n: int, variant: str) -> list[str]:
    """Check a ``compare --format json`` document against the oracles."""
    problems = []
    want_r0, want_r1 = expected_flags(a, b, n, variant)
    res = payload.get("resources", {})
    for key, got, want in (
        ("class", payload.get("class"), expected_class(a, b)),
        ("r1", payload.get("r1"), want_r1),
        ("r0", payload.get("r0"), want_r0),
        ("n", payload.get("n"), n),
        ("qubits", res.get("qubits"), 2 * n + 2),
        ("static_cost", res.get("static_cost"), expected_static_cost(n, variant)),
        ("executed_cost", res.get("executed_cost"), expected_executed_cost(a, b, n, variant)),
    ):
        if got != want:
            problems.append(f"{key}: got {got!r}, want {want!r} (n={n}, {variant})")
    return problems


# -- operand generation ------------------------------------------------------

def operand_pair(rng: random.Random, n: int, kind: str) -> tuple[int, int]:
    """Seeded operands whose verdict lands in a chosen block.

    ``first``/``mid``/``last`` differ first at bit 0, n//2 or n-1 (so 1, n//2+1
    or n blocks fire); ``equal`` fires all n blocks; ``random`` is two
    independent draws. Which operand is larger is drawn from ``rng``.
    """
    if kind == "random":
        return rng.getrandbits(n), rng.getrandbits(n)
    a = rng.getrandbits(n)
    if kind == "equal":
        return a, a
    k = {"first": 0, "mid": n // 2, "last": n - 1}[kind]
    b = a ^ (1 << (n - 1 - k))                      # flip bit k
    low = (1 << (n - 1 - k)) - 1                    # bits after k are free
    b = (b & ~low) | (rng.getrandbits(n - 1 - k) if k < n - 1 else 0)
    return a, b


def bits_of(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def initial_bits(a: int, b: int, n: int) -> tuple[int, ...]:
    """Qubit assignment for the builder layout: a bits, b bits, r0, r1."""
    return tuple(int(ch) for ch in bits_of(a, n) + bits_of(b, n)) + (0, 0)


def structured_pairs(n: int, seed: str) -> list[tuple[int, int]]:
    """Pairs covering every verdict position class, both orders, and equality."""
    rng = random.Random(seed)
    pairs = []
    for kind in ("first", "mid", "last"):
        a, b = operand_pair(rng, n, kind)
        pairs += [(a, b), (b, a)]
    pairs.append(operand_pair(rng, n, "equal"))
    return pairs


# -- negative control ----------------------------------------------------------

def _rebuilt(circuit: Circuit, replace: dict[int, GateOp | None]) -> Circuit:
    """Copy ``circuit`` through the public IR, replacing or dropping by index."""
    out = Circuit(circuit.num_qubits, circuit.num_clbits)
    for i, instr in enumerate(circuit.instructions):
        instr = replace.get(i, instr)
        if instr is not None:
            out.append(instr)
    return out


def mutants(circuit: Circuit) -> dict[str, Circuit]:
    """Two broken comparators: one gate dropped, one gate retargeted.

    The dropped gate is the first Toffoli (block 0 computes r0 there); the
    retargeted one is the last Toffoli, whose r1 write goes to r0 instead.
    """
    ccx = [i for i, ins in enumerate(circuit.instructions)
           if isinstance(ins, GateOp) and ins.gate is GateKind.CCX]
    last = circuit.instructions[ccx[-1]]
    r0 = circuit.num_qubits - 2
    moved = GateOp(GateKind.CCX, (last.targets[0], last.targets[1], r0), last.condition)
    return {
        "drop_gate": _rebuilt(circuit, {ccx[0]: None}),
        "retarget_gate": _rebuilt(circuit, {ccx[-1]: moved}),
    }
