import json
import math

import pytest

from beamforge.errors import InstanceFormatError, ValidationError
from beamforge.instance import (
    generate_instance,
    meters_to_cm,
    parse_instance,
    serialize_instance,
    validate_instance,
)

from conftest import CWP000_DOC


class TestParse:
    def test_reference_instance_fields(self, cwp000):
        assert cwp000.num_beam_types == 1
        assert cwp000.num_molds == 5
        assert cwp000.horizon == 3
        assert cwp000.num_bar_kinds == 1
        assert cwp000.num_leftover_kinds == 4
        assert cwp000.mold_lengths == [595, 595, 595, 595, 1195]
        assert cwp000.bar_lengths == [1200, 200, 500, 600, 800]
        assert cwp000.stock == [30, 16, 28, 25, 29]
        assert cwp000.overlap_loss == 30
        bt = cwp000.beam_types[0]
        assert bt.lengths == [112, 330]
        assert bt.demands == [5, 10]
        assert bt.curing_time == 1
        assert bt.bars_per_beam == 1

    def test_distinct_mold_lengths_sorted(self, cwp000):
        assert cwp000.distinct_mold_lengths == [595, 1195]
        assert cwp000.num_mold_classes == 2
        assert cwp000.mold_classes[0] == 1
        assert cwp000.mold_classes[4] == 2
        assert cwp000.class_molds[0] == (0, 1, 2, 3)
        assert cwp000.class_molds[1] == (4,)

    def test_zero_demand_is_valid(self):
        doc = dict(CWP000_DOC)
        doc["beam_types"] = [
            {"lengths": [1.12, 3.3], "demands": [0, 0], "curing": 1, "bars_per_beam": 1}
        ]
        inst = parse_instance(json.dumps(doc))
        assert inst.beam_types[0].demands == [0, 0]

    def test_negative_stock_rejected(self):
        doc = dict(CWP000_DOC)
        doc["stock"] = [-1, 16, 28, 25, 29]
        with pytest.raises(ValidationError, match="stock must be nonnegative"):
            parse_instance(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance('{"C": 1,,}')
        assert err.value.position is not None

    def test_missing_key(self):
        doc = dict(CWP000_DOC)
        del doc["epsilon"]
        with pytest.raises(InstanceFormatError, match="epsilon"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [("C", 2), ("M", 4), ("V", 3)])
    def test_count_disagreeing_with_its_list_rejected(self, key, value):
        doc = dict(CWP000_DOC, **{key: value})
        with pytest.raises(ValidationError, match=f"^{key} must equal "):
            parse_instance(json.dumps(doc))

    def test_more_new_bar_kinds_than_bars_rejected(self):
        for v in (-1, 4):
            doc = dict(CWP000_DOC, W=6, V=v)
            with pytest.raises(ValidationError, match="^num_bar_kinds must not exceed [^;]*$"):
                parse_instance(json.dumps(doc))

    def test_three_digit_fraction_rejected(self):
        doc = dict(CWP000_DOC)
        doc["molds"] = [5.955, 5.95, 5.95, 5.95, 11.95]
        with pytest.raises(InstanceFormatError, match="fraction digits"):
            parse_instance(json.dumps(doc))


class TestValidate:
    def test_reference_instance_clean(self, cwp000):
        assert validate_instance(cwp000) == []

    def test_zero_curing_time(self, cwp000_text):
        inst = parse_instance(cwp000_text)
        inst.beam_types[0].curing_time = 0
        violations = validate_instance(inst)
        assert len(violations) == 1
        assert "curing_time" in violations[0]

    def test_duplicate_beam_length(self, cwp000_text):
        inst = parse_instance(cwp000_text)
        inst.beam_types[0].lengths = [112, 112]
        violations = validate_instance(inst)
        assert len(violations) == 1
        assert "distinct" in violations[0]


class TestRoundTrip:
    def test_parse_serialize_exact(self, cwp000, cwp000_text):
        text = serialize_instance(cwp000)
        again = parse_instance(text)
        assert again == cwp000
        assert serialize_instance(again) == text

    def test_meters_helper_exact(self):
        assert meters_to_cm(5.95) == 595
        assert meters_to_cm(12) == 1200
        assert meters_to_cm(0.05) == 5


class TestGenerate:
    def test_horizon_formula_recomputed(self):
        # Recompute the horizon from the emitted data with independent
        # arithmetic: ceil(1.5 * work / capacity) via fractions.
        for seed in (0, 1, 7):
            inst = generate_instance(seed, 1, 5)
            bt = inst.beam_types[0]
            work = bt.curing_time * sum(l * d for l, d in zip(bt.lengths, bt.demands))
            capacity = sum(inst.mold_lengths)
            assert inst.horizon == math.ceil(1.5 * work / capacity)

    def test_ranges_and_stock(self):
        for seed in range(10):
            inst = generate_instance(seed, 3, 15)
            max_bars = max(bt.bars_per_beam for bt in inst.beam_types)
            upper = 2 * inst.horizon * inst.num_molds * max_bars
            assert inst.stock[0] == upper
            for bt in inst.beam_types:
                assert all(17 <= d <= 50 for d in bt.demands)
                assert 1 <= bt.bars_per_beam <= 3
                assert 2 <= bt.num_lengths <= 7
            for e in inst.stock[1:]:
                assert math.ceil(upper / 5) <= e <= upper
            assert set(inst.mold_lengths) <= {595, 1195}
            assert inst.bar_lengths == [1200, 200, 500, 600, 800]

    def test_curing_tied_to_type_index_for_small_c(self):
        inst = generate_instance(3, 3, 15)
        assert [bt.curing_time for bt in inst.beam_types] == [1, 2, 3]
        big = generate_instance(3, 5, 15)
        assert all(1 <= bt.curing_time <= 3 for bt in big.beam_types)

    def test_determinism_byte_identical(self):
        a = serialize_instance(generate_instance(42, 2, 15))
        b = serialize_instance(generate_instance(42, 2, 15))
        assert a == b

    def test_generated_instances_validate(self):
        for seed in range(5):
            inst = generate_instance(seed, 4, 30)
            assert validate_instance(inst) == []

    def test_horizon_covers_makespan_bound(self):
        # The 1.5 factor guarantees the horizon is at least the capacity-based
        # makespan bound.
        for seed in range(8):
            inst = generate_instance(seed, 3, 15)
            work = sum(
                bt.curing_time * sum(l * d for l, d in zip(bt.lengths, bt.demands))
                for bt in inst.beam_types
            )
            assert inst.horizon >= math.ceil(work / sum(inst.mold_lengths))
