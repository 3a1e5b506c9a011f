"""Circuit IR: construction rules, census, structural depth, JSON form."""

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    circuit_from_json,
    circuit_to_json,
    static_census,
    structural_depth,
)
from qbsc.comparator import BuilderVariant, _body, build_1bc
from qbsc.errors import (
    ArityMismatch,
    CircuitError,
    DuplicateTarget,
    IndexOutOfRange,
)
from qbsc.simulate import ClassicalRunner, DenseRunner

from _oracles import brute_force_depth, condition_holds

#: The brute-force depth oracle's gate weights: unit delay, a Toffoli 5.
UNIT_DELAYS = {GateKind.X: 1, GateKind.CX: 1, GateKind.CCX: 5, GateKind.CV: 1, GateKind.CVDG: 1}


def summed(c1: GateCensus, c2: GateCensus) -> GateCensus:
    """Field-wise sum of two censuses of one width, widths kept."""
    assert (c1.width_qubits, c1.width_total) == (c2.width_qubits, c2.width_total)
    return dataclasses.replace(c1, **{f.name: getattr(c1, f.name) + getattr(c2, f.name)
                                      for f in dataclasses.fields(c1)
                                      if not f.name.startswith("width")})


def one_bit_block_circuit() -> Circuit:
    c = Circuit(4, 2)
    for instr in build_1bc(0, 1, 2, 3, 0, 1):
        c.append(instr)
    return c


def fires(cond: ClassicalCondition, clbits: list[int]) -> bool:
    """Whether an X guarded by ``cond`` fires once the register reads
    ``clbits``, on both runners; the reference engine must agree."""
    k = len(clbits)
    c = Circuit(k + 1, k)
    for i in range(k):
        c.measure(i, i)
    c.x(k, cond)
    bits = tuple(clbits) + (0,)
    fired = {ClassicalRunner(c).run(bits).executed_census.x,
             DenseRunner(c).run(bits).executed_census.x}
    assert fired in ({0}, {1}), fired
    fired = fired.pop() == 1
    assert fired == condition_holds(cond, clbits)
    return fired


class TestConstruction:
    def test_empty_circuit_widths(self):
        c = Circuit(4, 2)
        assert (c.num_qubits, c.num_clbits, c.width_total) == (4, 2, 6)
        assert c.instructions == []

    def test_empty_circuit_is_legal(self):
        c = Circuit(0, 0)
        assert c.width_total == 0

    def test_comparator_scale_width(self):
        # the n=10 comparator needs 22 qubits and width 24
        assert Circuit(22, 2).width_total == 24

    def test_negative_width_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(-1, 0)

    def test_append_grows_by_one(self):
        c = Circuit(3, 0)
        c.ccx(0, 1, 2)
        assert len(c.instructions) == 1

    def test_duplicate_target_rejected(self):
        c = Circuit(6, 0)
        with pytest.raises(DuplicateTarget):
            c.cx(5, 5)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_arity_mismatch_rejected(self, kind):
        for count in (kind.arity - 1, kind.arity + 1):
            with pytest.raises(ArityMismatch):
                GateOp(kind, tuple(range(count)))

    def test_qubit_index_out_of_range(self):
        c = Circuit(2, 0)
        with pytest.raises(IndexOutOfRange):
            c.x(2)

    def test_measure_within_widths_is_legal(self):
        c = Circuit(4, 2)
        c.measure(3, 0)
        assert c.instructions == [MeasureOp(3, 0)]

    def test_measure_bad_clbit(self):
        c = Circuit(4, 2)
        with pytest.raises(IndexOutOfRange):
            c.measure(0, 2)

    def test_condition_reads_declared_bits_only(self):
        c = Circuit(2, 1)
        with pytest.raises(IndexOutOfRange):
            c.x(0, condition=ClassicalCondition((0, 1), 0))


class TestClassicalCondition:
    def test_value_must_fit_mask(self):
        with pytest.raises(IndexOutOfRange):
            ClassicalCondition((0, 1), 4)

    def test_register_value_is_little_endian(self):
        # value 2 over bits (0, 1) means clbit1=1, clbit0=0
        cond = ClassicalCondition((0, 1), 2)
        assert fires(cond, [0, 1])
        assert not fires(cond, [1, 0])
        assert not fires(cond, [1, 1])

    def test_masked_subset(self):
        cond = ClassicalCondition((1,), 1)
        assert fires(cond, [0, 1]) and fires(cond, [1, 1])
        assert not fires(cond, [1, 0])

    def test_mask_must_ascend(self):
        with pytest.raises(CircuitError):
            ClassicalCondition((1, 0), 0)

    def test_repeated_clbit_is_a_duplicate(self):
        with pytest.raises(DuplicateTarget, match="repeats a clbit"):
            ClassicalCondition((0, 0), 0)

    def test_negative_clbit_is_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match="negative clbit"):
            ClassicalCondition((-1,), 0)


class TestCensus:
    def test_empty_circuit_all_zero(self):
        census = static_census(Circuit(3, 1))
        assert census == GateCensus(width_qubits=3, width_total=4)

    def test_counts_every_instruction_fired_or_not(self):
        c = Circuit(3, 2)
        c.x(0)
        c.x(1, condition=ClassicalCondition((0, 1), 3))  # could never fire
        c.ccx(0, 1, 2)
        c.measure(2, 0)
        census = static_census(c)
        assert (census.x, census.ccx, census.measure_count) == (2, 1, 1)
        assert census.conditional_x_count == 1

    def test_block_measures_counted_inside_spans_only(self):
        c = Circuit(4, 2)
        c.measure(0, 0)                      # outside any block
        c.barrier(BLOCK_BEGIN)
        c.measure(1, 1)
        c.barrier(BLOCK_END)
        c.measure(2, 0)                      # outside again
        census = static_census(c)
        assert census.measure_count == 3
        assert census.block_measure_count == 1
        assert census.block_count_1bc == 1

    def test_one_bit_block_counts(self):
        census = static_census(one_bit_block_circuit())
        assert (census.x, census.ccx, census.measure_count) == (4, 2, 2)

    def test_additivity_under_concatenation(self):
        c1, c2 = one_bit_block_circuit(), one_bit_block_circuit()
        both = Circuit(4, 2, list(c1.instructions) + list(c2.instructions))
        assert static_census(both) == summed(static_census(c1), static_census(c2))

    def test_total_unit_cost_weights_toffoli_five(self):
        census = static_census(one_bit_block_circuit())
        assert census.total_unit_cost == 4 + 2 * 5


class TestStructuralDepth:
    def test_single_gate(self):
        assert structural_depth(Circuit(1, 0).x(0)) == 1

    def test_disjoint_gates_share_a_layer(self):
        assert structural_depth(Circuit(2, 0).x(0).x(1)) == 1

    def test_shared_qubit_serializes(self):
        assert structural_depth(Circuit(1, 0).x(0).x(0)) == 2

    def test_one_bit_block_is_13(self):
        # X; CCX; X and X in parallel; CCX; X on the shared operand qubits
        c = one_bit_block_circuit()
        assert structural_depth(c) == 13
        assert brute_force_depth(c, UNIT_DELAYS) == 13

    def test_condition_waits_for_its_measurement(self):
        c = Circuit(2, 1)
        c.x(0)
        c.measure(0, 0)
        c.x(1, condition=ClassicalCondition((0,), 1))
        # the measurement takes 0, so it ends with the first X at t=1; without
        # the classical edge the second X could share that layer: depth 1
        assert structural_depth(c) == 2
        assert brute_force_depth(c, UNIT_DELAYS) == 2

    def test_missing_delay_entry(self):
        # no kind lacks a delay: a lone gate of each kind takes its unit cost
        for kind in GateKind:
            c = Circuit(3, 0, [GateOp(kind, tuple(range(kind.arity)))])
            assert structural_depth(c) == kind.unit_cost == UNIT_DELAYS[kind]

    def test_barriers_do_not_schedule(self):
        plain = Circuit(2, 0).x(0).x(1)
        fenced = Circuit(2, 0).x(0).barrier().x(1)
        assert structural_depth(plain) == structural_depth(fenced) == 1


def instruction_strategy(num_qubits=4, num_clbits=2):
    qubits = st.integers(0, num_qubits - 1)
    conditions = st.one_of(
        st.none(),
        st.integers(0, (1 << num_clbits) - 1).map(
            lambda v: ClassicalCondition(tuple(range(num_clbits)), v)),
    )
    gates = st.one_of(
        st.tuples(qubits, conditions).map(lambda t: GateOp(GateKind.X, (t[0],), t[1])),
        st.tuples(st.permutations(range(num_qubits)), conditions).map(
            lambda t: GateOp(GateKind.CX, tuple(t[0][:2]), t[1])),
        st.tuples(st.permutations(range(num_qubits)), conditions).map(
            lambda t: GateOp(GateKind.CCX, tuple(t[0][:3]), t[1])),
        st.tuples(st.permutations(range(num_qubits)), conditions).map(
            lambda t: GateOp(GateKind.CV, tuple(t[0][:2]), t[1])),
    )
    measures = st.tuples(qubits, st.integers(0, num_clbits - 1)).map(
        lambda t: MeasureOp(t[0], t[1]))
    return st.one_of(gates, measures, st.just(BarrierOp(None)))


def circuit_strategy(num_qubits=4, num_clbits=2, max_len=24):
    return st.lists(instruction_strategy(num_qubits, num_clbits), max_size=max_len).map(
        lambda instrs: Circuit(num_qubits, num_clbits, list(instrs)))


class TestDepthAndCensusProperties:
    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy())
    def test_depth_matches_brute_force_path_enumeration(self, circuit):
        assert structural_depth(circuit) == brute_force_depth(circuit, UNIT_DELAYS)

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy(), instruction_strategy())
    def test_appending_never_decreases_depth(self, circuit, instr):
        before = structural_depth(circuit)
        circuit.append(instr)
        assert structural_depth(circuit) >= before

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy())
    def test_depth_bounds(self, circuit):
        depth = structural_depth(circuit)
        per_qubit = [0] * circuit.num_qubits
        total = 0
        for instr in circuit.instructions:
            if isinstance(instr, GateOp):
                for q in instr.targets:
                    per_qubit[q] += UNIT_DELAYS[instr.gate]
                total += UNIT_DELAYS[instr.gate]
        assert max(per_qubit, default=0) <= depth <= total

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy(), circuit_strategy())
    def test_census_additive_over_concatenation(self, c1, c2):
        both = Circuit(c1.num_qubits, c1.num_clbits,
                       list(c1.instructions) + list(c2.instructions))
        assert static_census(both) == summed(static_census(c1), static_census(c2))

    @settings(max_examples=40, deadline=None)
    @given(circuit_strategy())
    def test_census_and_depth_are_pure(self, circuit):
        assert static_census(circuit) == static_census(circuit)
        assert structural_depth(circuit) == structural_depth(circuit)


class TestJsonInterchange:
    def test_schema_field_names(self):
        c = Circuit(3, 2)
        c.ccx(0, 1, 2)
        c.measure(2, 0)
        c.x(2, condition=ClassicalCondition((0, 1), 2))
        doc = circuit_to_json(c)
        assert doc["qubits"] == 3 and doc["clbits"] == 2
        assert doc["instr"][0] == {"g": "ccx", "t": [0, 1, 2]}
        assert doc["instr"][1] == {"m": [2, 0]}
        assert doc["instr"][2] == {"g": "x", "t": [2], "if": {"mask": [0, 1], "eq": 2}}

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy())
    def test_roundtrip(self, circuit):
        assert circuit_from_json(circuit_to_json(circuit)) == circuit

    def test_labels_survive(self):
        c = Circuit(1, 0, labels={0: "a_0"})
        assert circuit_from_json(circuit_to_json(c)).labels == {0: "a_0"}

    def test_unknown_entry_rejected(self):
        with pytest.raises(CircuitError):
            circuit_from_json({"qubits": 1, "clbits": 0, "instr": [{"z": 1}]})

    @pytest.mark.parametrize("doc", [
        {"qubits": 1, "clbits": 0},                                  # missing "instr"
        {"qubits": 1, "clbits": 0, "instr": [{"g": "x", "t": 5}]},   # targets not a list
        {"qubits": 1, "clbits": 0, "instr": [{"g": "h", "t": [0]}]},  # unknown gate
        {"qubits": "two", "clbits": 0, "instr": []},
        {"qubits": 1, "clbits": 0, "instr": ["x"]},
    ])
    def test_malformed_documents_raise_circuit_error(self, doc):
        with pytest.raises(CircuitError):
            circuit_from_json(doc)

    def test_typed_errors_keep_their_class(self):
        with pytest.raises(IndexOutOfRange):
            circuit_from_json({"qubits": 1, "clbits": 0, "instr": [{"g": "x", "t": [3]}]})


class TestIntegerIndices:
    def test_non_integer_width_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(2.5, 0)

    @pytest.mark.parametrize("instr", [
        GateOp(GateKind.X, (0.5,)),
        GateOp(GateKind.CX, (0, "1")),
        MeasureOp(0.5, 0),
        MeasureOp(0, "1"),
    ])
    def test_non_integer_index_rejected(self, instr):
        with pytest.raises(CircuitError):
            Circuit(2, 2).append(instr)

    @pytest.mark.parametrize("mask", [(0.5,), ("1",)])
    def test_non_integer_condition_clbit_rejected(self, mask):
        with pytest.raises(CircuitError):
            ClassicalCondition(mask, 1)

    def test_numpy_integer_indices_accepted(self):
        np = pytest.importorskip("numpy")
        c = Circuit(np.int64(2), np.int32(1))
        c.append(GateOp(GateKind.CX, (np.int64(0), np.int64(1))))
        c.append(MeasureOp(np.int16(1), np.int8(0)))
        assert c == Circuit(2, 1, [GateOp(GateKind.CX, (0, 1)), MeasureOp(1, 0)])

    def test_numpy_index_out_of_range_rejected(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(IndexOutOfRange):
            Circuit(2, 0).append(GateOp(GateKind.X, (np.int64(2),)))

    @pytest.mark.parametrize("entry", [
        {"g": "x", "t": [0.5]},
        {"m": [0, 0.5]},
        {"g": "x", "t": [0], "if": {"mask": [0.5], "eq": 1}},
        {"g": "x", "t": [0], "if": {"mask": [0], "eq": 0.5}},
    ])
    def test_json_non_integer_index_rejected(self, entry):
        with pytest.raises(CircuitError):
            circuit_from_json({"qubits": 1, "clbits": 1, "instr": [entry]})

    # A bool is an int to Python, but export would write `cr == True`, which
    # parse rejects, so parse(export(c)) == c would fail for an accepted c.
    @pytest.mark.parametrize("doc", [
        {"qubits": True, "clbits": 1, "instr": []},
        {"qubits": 1, "clbits": True, "instr": []},
        {"qubits": 1, "clbits": 1, "instr": [{"g": "x", "t": [True]}]},
        {"qubits": 2, "clbits": 2, "instr": [{"m": [True, 0]}]},
        {"qubits": 2, "clbits": 2, "instr": [{"m": [0, False]}]},
        {"qubits": 1, "clbits": 1, "instr": [{"g": "x", "t": [0], "if": {"mask": [False], "eq": 1}}]},
        {"qubits": 1, "clbits": 1, "instr": [{"g": "x", "t": [0], "if": {"mask": [0], "eq": True}}]},
        {"qubits": 2, "clbits": 0, "instr": [], "labels": {True: "a"}},
    ])
    def test_json_bool_rejected(self, doc):
        with pytest.raises(CircuitError):
            circuit_from_json(doc)

    def test_bool_condition_value_rejected(self):
        with pytest.raises(CircuitError):
            ClassicalCondition((0,), True)

    def test_bool_width_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(True, 0)


class TestTableDrivenChecks:
    def test_arity_table(self):
        assert {k.value: k.arity for k in GateKind} == {
            "x": 1, "cx": 2, "ccx": 3, "cv": 2, "cvdg": 2}

    @pytest.mark.parametrize("gate", ["x", None, []])
    def test_gate_that_is_not_a_kind_rejected(self, gate):
        with pytest.raises(CircuitError):
            GateOp(gate, (0,))

    def test_unhashable_target_rejected(self):
        with pytest.raises(CircuitError, match="gate targets must be integers"):
            GateOp(GateKind.CX, (0, []))

    def test_targets_become_a_tuple(self):
        assert GateOp(GateKind.CCX, [0, 1, 2]).targets == (0, 1, 2)

    @pytest.mark.parametrize("targets", [(1, 1, 0), (0, 1, 0), (0, 1, 1)])
    def test_duplicate_target_at_any_position(self, targets):
        with pytest.raises(DuplicateTarget):
            GateOp(GateKind.CCX, targets)

    def test_condition_clbit_out_of_range_names_the_first(self):
        with pytest.raises(IndexOutOfRange, match="clbit 2 outside"):
            Circuit(1, 2).append(GateOp(GateKind.X, (0,), ClassicalCondition((0, 2, 3), 0)))

    @pytest.mark.parametrize("condition", [5, (0,), {"mask": (0,), "value": 1}])
    def test_condition_that_is_not_a_classical_condition_rejected(self, condition):
        with pytest.raises(CircuitError, match="ClassicalCondition"):
            GateOp(GateKind.X, (0,), condition)

    @pytest.mark.parametrize("make", [
        lambda: GateOp(GateKind.X, None),
        lambda: GateOp(GateKind.X, 0),
        lambda: ClassicalCondition(None, 0),
        lambda: ClassicalCondition(1, 0),
    ], ids=["gate-None", "gate-int", "condition-None", "condition-int"])
    def test_indices_that_are_not_a_sequence_rejected(self, make):
        with pytest.raises(CircuitError, match="sequence of integers"):
            make()


class TestSlottedGateOp:
    """``GateOp``, the instruction made in thousands, is a slotted frozen
    value; ``MeasureOp`` and ``BarrierOp`` keep their instance dicts."""

    def test_no_instance_dict(self):
        assert not hasattr(GateOp(GateKind.CX, (0, 1)), "__dict__")
        assert not hasattr(GateOp._trusted(GateKind.CX, (0, 1)), "__dict__")

    @pytest.mark.parametrize("name", ["gate", "targets", "condition"])
    def test_fields_are_frozen(self, name):
        op = GateOp(GateKind.X, (0,), ClassicalCondition((0,), 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(op, name)
        assert op == GateOp(GateKind.X, (0,), ClassicalCondition((0,), 1))

    @pytest.mark.parametrize("kind, targets, condition", [
        (GateKind.X, (0,), None),
        (GateKind.CX, (2, 0), ClassicalCondition((0, 1), 2)),
        (GateKind.CCX, (0, 1, 2), ClassicalCondition((1,), 0)),
        (GateKind.CVDG, (1, 0), None),
    ])
    def test_trusted_equals_checked(self, kind, targets, condition):
        trusted, checked = GateOp._trusted(kind, targets, condition), GateOp(kind, targets, condition)
        assert type(trusted) is GateOp
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.gate, trusted.targets, trusted.condition) == (kind, targets, condition)

    @pytest.mark.parametrize("variant", list(BuilderVariant))
    def test_copies_round_trip_every_gate(self, variant):
        body = _body(64, variant)
        gates = [op for op in body.instructions if isinstance(op, GateOp)]
        assert any(op.condition is not None for op in gates)
        copies = {"pickle": lambda op: pickle.loads(pickle.dumps(op)), "copy": copy.copy,
                  "deepcopy": copy.deepcopy, "replace": dataclasses.replace}
        for name, copy_of in copies.items():
            for op in gates:
                got = copy_of(op)
                assert type(got) is GateOp and got == op and hash(got) == hash(op), (name, op)
        assert pickle.loads(pickle.dumps(body)) == body
        assert copy.deepcopy(body) == body

    def test_measure_and_barrier_stay_weak_referenceable(self):
        for instr in (MeasureOp(0, 1), BarrierOp(BLOCK_BEGIN), BarrierOp()):
            assert weakref.ref(instr)() is instr
        with pytest.raises(TypeError):
            weakref.ref(GateOp(GateKind.X, (0,)))


class TestJsonLoading:
    def _doc(self, instr=(), **extra):
        return {"qubits": 2, "clbits": 2, "instr": list(instr), **extra}

    def test_conditions_shared_per_distinct_mask_and_value(self):
        gate = {"g": "x", "t": [0], "if": {"mask": [0, 1], "eq": 2}}
        other = {"g": "x", "t": [1], "if": {"mask": [0, 1], "eq": 0}}
        loaded = circuit_from_json(self._doc([gate, other, gate, other]))
        conditions = [op.condition for op in loaded.instructions]
        assert conditions[0] is conditions[2] and conditions[1] is conditions[3]
        assert conditions[0] == ClassicalCondition((0, 1), 2)
        assert conditions[1] == ClassicalCondition((0, 1), 0)

    @pytest.mark.parametrize("eq", [1.0, 1.5])
    def test_float_value_rejected_after_an_equal_int(self, eq):
        first = {"g": "x", "t": [0], "if": {"mask": [0], "eq": 1}}
        second = {"g": "x", "t": [0], "if": {"mask": [0], "eq": eq}}
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc([first, second]))

    def test_float_mask_rejected_after_an_equal_int(self):
        first = {"g": "x", "t": [0], "if": {"mask": [1], "eq": 1}}
        second = {"g": "x", "t": [0], "if": {"mask": [1.0], "eq": 1}}
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc([first, second]))

    @pytest.mark.parametrize("name", ["h", "X", ["x"], None])
    def test_unknown_gate_name_rejected(self, name):
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc([{"g": name, "t": [0]}]))

    def test_labels_load_by_index(self):
        loaded = circuit_from_json(self._doc(labels={"1": "b", "0": "a"}))
        assert loaded.labels == {1: "b", 0: "a"}

    def test_label_key_beyond_register_rejected(self):
        with pytest.raises(IndexOutOfRange):
            circuit_from_json(self._doc(labels={"99": "a"}))

    def test_negative_label_key_rejected(self):
        with pytest.raises(IndexOutOfRange):
            circuit_from_json(self._doc(labels={"-1": "a"}))

    def test_non_string_label_name_rejected(self):
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc(labels={"0": 5}))

    # int() reads the last five as 1, 0, 1, 10 and 3; circuit_to_json never writes them
    @pytest.mark.parametrize("key", ["one", "0.5", 0.5, " 1", "-0", "01", "1_0", "\u0663"])
    def test_non_integer_label_key_rejected(self, key):
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc(labels={key: "a"}))

    def test_labels_not_a_mapping_rejected(self):
        with pytest.raises(CircuitError):
            circuit_from_json(self._doc(labels=["a"]))


class TestConstructorChecks:
    @pytest.mark.parametrize("instr", [
        GateOp(GateKind.X, (5,)),
        MeasureOp(0, 3),
        GateOp(GateKind.X, (0,), ClassicalCondition((4,), 0)),
        "junk",
        GateOp(GateKind.X, (True,)),
    ])
    def test_constructor_rejects_like_append(self, instr):
        with pytest.raises(CircuitError) as appended:
            Circuit(2, 1).append(instr)
        with pytest.raises(CircuitError) as constructed:
            Circuit(2, 1, [instr])
        assert type(constructed.value) is type(appended.value)
        assert str(constructed.value) == str(appended.value)

    def test_builders_and_parser_skip_the_check(self, monkeypatch):
        from qbsc import circuit as circuit_module
        from qbsc import qasm
        from qbsc.comparator import build_gqbsc, encode_operands
        from qbsc.gates import lower_circuit

        built = build_gqbsc(encode_operands(5, 3))
        text = qasm.export(built)

        def fail(*args):
            raise AssertionError("checked again")

        monkeypatch.setattr(circuit_module, "_check_instruction", fail)
        assert build_gqbsc(encode_operands(5, 3)) == built
        assert lower_circuit(built).num_qubits == built.num_qubits
        assert qasm.parse(text) == built


class TestLabelChecks:
    """``Circuit`` checks its labels as the JSON loader did: a dict from an
    integer qubit in range to a string, so every accepted circuit writes a
    document that loads back with the same labels."""

    @pytest.mark.parametrize("labels, message", [
        (5, "labels must be a dict or None, got 5"),
        (["a"], "labels must be a dict or None, got ['a']"),
        ({9: "x"}, "label qubit 9 outside [0, 2)"),
        ({-1: "x"}, "label qubit -1 outside [0, 2)"),
        ({0: 3}, "label of qubit 0 must be a string, got 3"),
        ({True: "a"}, "label qubit must be an integer, got True"),
        ({0.0: "a"}, "label qubit must be an integer, got 0.0"),
    ], ids=repr)
    def test_bad_labels_refused_at_construction(self, labels, message):
        with pytest.raises(CircuitError) as refused:
            Circuit(2, 0, labels=labels)
        assert str(refused.value) == message
        # the loader applies the same rule through the constructor
        doc = {"qubits": 2, "clbits": 0, "instr": [], "labels": labels}
        with pytest.raises(CircuitError):
            circuit_from_json(doc)

    def test_decimal_string_key_is_the_loaders_alone(self):
        with pytest.raises(CircuitError, match="^label qubit must be an integer, got '0'$"):
            Circuit(2, 0, labels={"0": "a"})
        assert circuit_from_json({"qubits": 2, "clbits": 0, "instr": [],
                                  "labels": {"0": "a"}}).labels == {0: "a"}

    @pytest.mark.parametrize("labels", [None, {}, {0: "a", 1: ""}, {np.int64(1): "b"}],
                             ids=repr)
    def test_accepted_labels_round_trip(self, labels):
        c = Circuit(2, 0, labels=labels)
        assert circuit_from_json(circuit_to_json(c)).labels == (labels or None)

    def test_loader_checks_each_label_once(self, monkeypatch):
        from qbsc import circuit as circuit_module

        checked = []
        check_int = circuit_module._check_int

        def counting(value, what, size=None):
            if what == "label qubit":
                checked.append(value)
            check_int(value, what, size)

        monkeypatch.setattr(circuit_module, "_check_int", counting)
        assert circuit_from_json({"qubits": 3, "clbits": 0, "instr": [],
                                  "labels": {"2": "c", "0": "a"}}).labels == {2: "c", 0: "a"}
        assert sorted(checked) == [0, 2]

    def test_trusted_circuits_skip_the_check(self, monkeypatch):
        from qbsc import circuit as circuit_module
        from qbsc.comparator import build_gqbsc, encode_operands
        from qbsc.gates import lower_circuit

        def fail(value, what, size=None):
            if what == "label qubit":
                raise AssertionError("checked a label")

        monkeypatch.setattr(circuit_module, "_check_int", fail)
        built = build_gqbsc(encode_operands(5, 3))
        assert lower_circuit(built).labels == built.labels == {
            0: "a_0", 1: "a_1", 2: "a_2", 3: "b_0", 4: "b_1", 5: "b_2", 6: "r_0", 7: "r_1"}


class TestSharedEntries:
    """circuit_from_json makes one object per distinct exact-int entry; an
    equal entry of another type must fail (or load) as it would alone."""

    def _doc(self, *instr):
        return {"qubits": 2, "clbits": 2, "instr": list(instr)}

    LABEL_ERROR = ("barrier label must be None or a non-empty one-line string"
                   " without edge whitespace, got ")

    @pytest.mark.parametrize("first, second, error, message", [
        ({"g": "x", "t": [1]}, {"g": "x", "t": [1.0]}, CircuitError,
         "qubit must be an integer, got 1.0"),
        ({"g": "x", "t": [1]}, {"g": "x", "t": [True]}, CircuitError,
         "qubit must be an integer, got True"),
        ({"g": "cx", "t": [0, 1]}, {"g": "cx", "t": [False, 1]}, CircuitError,
         "qubit must be an integer, got False"),
        ({"m": [0, 0]}, {"m": [0.0, 0]}, CircuitError, "qubit must be an integer, got 0.0"),
        ({"m": [0, 0]}, {"m": [0, False]}, CircuitError, "clbit must be an integer, got False"),
        ({"b": "1bc"}, {"b": 5}, CircuitError, LABEL_ERROR + "5"),
        ({"b": "1bc"}, {"b": ["1bc"]}, CircuitError, LABEL_ERROR + "['1bc']"),
        ({"b": None}, {"b": 0}, CircuitError, LABEL_ERROR + "0"),
        ({"g": "x", "t": [1], "if": {"mask": [0], "eq": 1}},
         {"g": "x", "t": [1], "if": {"mask": [0], "eq": True}}, CircuitError,
         "condition clbit or value must be an integer, got True"),
        # entries of one kind never find another kind's or shape's instruction
        ({"b": "x"}, {"g": "x", "t": []}, ArityMismatch, "x takes 1 qubits, got 0"),
        ({"g": "x", "t": [1], "if": {"mask": [0, 1], "eq": 0}}, {"g": "x", "t": [1, 0, 1, 0]},
         ArityMismatch, "x takes 1 qubits, got 4"),
        ({"g": "x", "t": [1], "if": {"mask": [0, 1], "eq": 0}},
         {"g": "x", "t": [1, 0], "if": {"mask": [1], "eq": 0}},
         ArityMismatch, "x takes 1 qubits, got 2"),
        ({"m": [0, 0]}, {"m": [0, 0, 0]}, CircuitError,
         "malformed circuit JSON (ValueError: too many values to unpack (expected 2))"),
        ({"g": "x", "t": [1]}, {"g": "x", "t": [[1]]}, CircuitError,
         "qubit must be an integer, got [1]"),
    ])
    def test_equal_entry_of_another_type_fails_as_alone(self, first, second, error, message):
        for doc in (self._doc(second), self._doc(first, second)):
            with pytest.raises(CircuitError) as raised:
                circuit_from_json(doc)
            assert type(raised.value) is error
            assert str(raised.value) == message

    def test_numpy_entry_loads_unshared(self):
        np = pytest.importorskip("numpy")
        loaded = circuit_from_json(self._doc({"g": "x", "t": [1]}, {"g": "x", "t": [np.int64(1)]},
                                             {"g": "x", "t": [1]}))
        first, second, third = loaded.instructions
        assert first is third and second is not first and second == first
        assert type(second.targets[0]) is np.int64

    def test_equal_entries_share_one_object(self):
        cond = {"mask": [0, 1], "eq": 2}
        loaded = circuit_from_json(self._doc(
            {"g": "x", "t": [1], "if": cond}, {"m": [0, 1]}, {"b": "1bc"}, {"b": None},
            {"g": "x", "t": [1], "if": dict(cond)}, {"m": [0, 1]}, {"b": "1bc"}, {"b": None},
            {"g": "x", "t": [1]}))
        ops = loaded.instructions
        assert [ops[i] is ops[i + 4] for i in range(4)] == [True] * 4
        assert ops[8] is not ops[0] and ops[8].condition is None

    @pytest.mark.parametrize("variant", ["figure", "algorithmic"])
    def test_loaded_body_has_the_builders_objects(self, variant):
        import json

        from qbsc.comparator import BuilderVariant, Operands, build_gqbsc, encode_operands
        from qbsc.simulate import ClassicalRunner

        body = build_gqbsc(Operands((0,) * 8, (0,) * 8), BuilderVariant(variant))
        loaded = circuit_from_json(json.loads(json.dumps(circuit_to_json(body))))
        assert loaded == body
        assert len({id(op) for op in loaded.instructions}) == len(
            {id(op) for op in body.instructions})
        # the interpreters run the loaded objects as they run the built ones
        built_runner, loaded_runner = ClassicalRunner(body), ClassicalRunner(loaded)
        for a, b in [(0, 0), (5, 200), (200, 5), (255, 254), (77, 77)]:
            bits = encode_operands(format(a, "08b"), format(b, "08b")).initial_qubit_bits()
            assert loaded_runner.run(bits) == built_runner.run(bits), (a, b)


def _shared(circuit: Circuit) -> Circuit:
    """The same circuit with every run of equal instructions made one object."""
    canon: dict = {}
    return Circuit(circuit.num_qubits, circuit.num_clbits,
                   [canon.setdefault(instr, instr) for instr in circuit.instructions])


class TestDepthOnSharedObjects:
    def test_one_object_at_several_positions(self):
        from dataclasses import replace

        gate, meter = GateOp(GateKind.CX, (0, 1), ClassicalCondition((0,), 1)), MeasureOp(1, 0)
        shared = Circuit(3, 1, [gate, meter, GateOp(GateKind.X, (2,)), gate, meter, gate])
        copies = Circuit(3, 1, [replace(op) for op in shared.instructions])
        assert copies == shared
        assert len({id(op) for op in copies.instructions}) == len(copies.instructions)
        # CX ends at 1 and the meter with it, the next CX waits for it: 2, then 3
        assert structural_depth(shared) == structural_depth(copies) == 3
        assert brute_force_depth(copies, UNIT_DELAYS) == 3

    @settings(max_examples=60, deadline=None)
    @given(circuit_strategy())
    def test_shared_depth_matches_brute_force(self, circuit):
        shared = _shared(circuit)
        assert structural_depth(shared) == brute_force_depth(circuit, UNIT_DELAYS)

    def test_missing_delay_entry_on_a_shared_gate(self):
        # the shared CX finds its delay at both positions: X, then CX twice
        gate = GateOp(GateKind.CX, (0, 1))
        circuit = Circuit(2, 0, [GateOp(GateKind.X, (0,)), gate, gate])
        assert structural_depth(circuit) == 3
        assert brute_force_depth(circuit, UNIT_DELAYS) == 3


class TestComparatorDepthAtWidth:
    """The comparator bodies' structural depth in closed form, at widths the
    brute-force oracle cannot reach."""

    @pytest.mark.parametrize("n", [*range(1, 65), 1000])
    def test_closed_form(self, n):
        assert structural_depth(_body(n, BuilderVariant.FIGURE)) == 12 * n + (n + 1) // 2
        assert structural_depth(_body(n, BuilderVariant.ALGORITHMIC)) == (
            13 if n == 1 else 13 * n - 1)
