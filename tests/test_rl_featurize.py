"""Unit tests for repro.rl.featurize."""

import numpy as np
import pytest

from repro.core import (
    AdvancedCut,
    CutRegistry,
    NodeDescription,
    column_eq,
    column_lt,
)
from repro.rl import Featurizer

#: ``(may_true, may_false)`` for each of the registry's three cuts.
STRADDLES_ALL = np.ones(6)


@pytest.fixture
def registry(mixed_schema):
    reg = CutRegistry(mixed_schema)
    reg.add(column_lt("age", 40))
    reg.add(column_eq("city", 1))
    reg.add(AdvancedCut("adv", 0, lambda c: c["age"] > c["salary"]))
    return reg


@pytest.fixture
def featurizer(mixed_schema, registry):
    return Featurizer(mixed_schema, registry)


class TestDimensions:
    def test_dim_formula(self, mixed_schema, featurizer):
        # 2 numeric cols * 2 + city(4) + level(3) + 2 adv bits + 2*3 cuts
        assert featurizer.dim == 4 + 7 + 2 + 6

    def test_vector_length_matches_dim(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        assert len(featurizer.featurize(desc, STRADDLES_ALL)) == featurizer.dim


class TestEncoding:
    def test_root_bounds_are_0_1(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        vec = featurizer.featurize(desc, STRADDLES_ALL)
        assert vec[0] == 0.0 and vec[1] == 1.0  # age bounds
        assert vec[2] == 0.0 and vec[3] == 1.0  # salary bounds

    def test_split_changes_bounds(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        left, right = desc.split(column_lt("age", 40))
        lvec = featurizer.featurize(left, STRADDLES_ALL)
        rvec = featurizer.featurize(right, STRADDLES_ALL)
        assert lvec[1] == pytest.approx(0.4)  # hi bound 40/100
        assert rvec[0] == pytest.approx(0.4)  # lo bound

    def test_categorical_mask_embedded(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        left, _ = desc.split(column_eq("city", 1))
        vec = featurizer.featurize(left, STRADDLES_ALL)
        city_bits = vec[4:8]
        assert city_bits.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_adv_bits_embedded(self, mixed_schema, featurizer, registry):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        cut = registry.advanced_cuts[0]
        left, right = desc.split(cut)
        lvec = featurizer.featurize(left, STRADDLES_ALL)
        rvec = featurizer.featurize(right, STRADDLES_ALL)
        adv_offset = 4 + 7
        assert lvec[adv_offset] == 1.0 and lvec[adv_offset + 1] == 0.0
        assert rvec[adv_offset] == 0.0 and rvec[adv_offset + 1] == 1.0

    def test_explicit_cut_state_used(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        state = np.zeros(6)
        state[0] = 1.0
        vec = featurizer.featurize(desc, cut_state=state)
        assert vec[-6:].tolist() == state.tolist()

    def test_bad_cut_state_length_raises(self, mixed_schema, featurizer):
        desc = NodeDescription.root(mixed_schema, num_advanced_cuts=1)
        with pytest.raises(ValueError):
            featurizer.featurize(desc, cut_state=np.zeros(3))
