"""Unit tests for payload key/value synthesis and the key registry."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes.majority import MajorityVoteClassifier
from repro.ontology.coppa_ccpa import OBSERVED_LEVEL3
from repro.ontology.nodes import Level3
from repro.services.payloads import BASE_KEYS, STABLE_KEYS, KeyRegistry, PayloadFactory


class TestRegistry:
    def test_register_and_lookup(self):
        registry = KeyRegistry()
        registry.register("email", Level3.CONTACT_INFORMATION)
        assert registry.truth["email"] is Level3.CONTACT_INFORMATION

    def test_conflicting_registration_rejected(self):
        registry = KeyRegistry()
        registry.register("email", Level3.CONTACT_INFORMATION)
        with pytest.raises(ValueError):
            registry.register("email", Level3.NAME)

    def test_re_registration_same_label_ok(self):
        registry = KeyRegistry()
        registry.register("email", Level3.CONTACT_INFORMATION)
        registry.register("email", Level3.CONTACT_INFORMATION)

    def test_opaque_tracking(self):
        registry = KeyRegistry()
        registry.register("xq3", Level3.ALIASES, opaque=True)
        assert "xq3" in registry.opaque


class TestFactory:
    @pytest.fixture(scope="class")
    def factory(self):
        return PayloadFactory()

    def test_registry_scale_matches_paper(self, factory):
        """Paper §1: 3,968 unique data types.  The registry is the key
        population; observed-in-traffic lands close to it."""
        assert 3_500 <= len(factory.registry) <= 5_000

    def test_deterministic(self):
        a, b = PayloadFactory(seed=7), PayloadFactory(seed=7)
        assert a.registry.truth == b.registry.truth

    def test_different_seed_same_truth_semantics(self):
        """Key shapes may differ by seed but labels never conflict."""
        factory = PayloadFactory(seed=99)
        for key, label in list(factory.registry.truth.items())[:50]:
            assert isinstance(label, Level3)

    def test_every_base_key_registered(self, factory):
        for label, keys in BASE_KEYS.items():
            for key in keys:
                assert factory.registry.truth[key] is label

    def test_opaque_fraction_reasonable(self, factory):
        fraction = len(factory.registry.opaque) / len(factory.registry)
        assert 0.03 < fraction < 0.15

    def test_pools_cover_all_categories(self, factory):
        for label in BASE_KEYS:
            assert factory.pool(label)

    def test_pick_keys_from_pool(self, factory):
        rng = random.Random(1)
        picks = factory.pick_keys(Level3.ALIASES, rng, count=5)
        pool = set(factory.pool(Level3.ALIASES))
        assert len(picks) == 5
        assert all(p in pool for p in picks)

    def test_avoid_opaque(self, factory):
        rng = random.Random(2)
        for _ in range(50):
            (pick,) = factory.pick_keys(Level3.ALIASES, rng, avoid_opaque=True)
            assert pick not in factory.registry.opaque

    def test_canonical_picks_are_stable_keys(self, factory):
        rng = random.Random(3)
        for _ in range(20):
            (pick,) = factory.pick_keys(Level3.AGE, rng, canonical=True)
            assert pick in STABLE_KEYS[Level3.AGE]

    def test_keys_for_categories(self, factory):
        keys = factory.keys_for_categories({Level3.AGE})
        assert keys
        assert all(factory.registry.truth[k] is Level3.AGE for k in keys)

    @given(st.sampled_from(sorted(BASE_KEYS, key=lambda l: l.value)))
    @settings(max_examples=20, deadline=None)
    def test_values_generated_for_every_category(self, label):
        factory = PayloadFactory()
        rng = random.Random(0)
        value = factory.make_value(label, rng)
        assert value is not None

    @pytest.mark.parametrize("seed", [52, 102, 163, 182])
    def test_opaque_keys_never_take_a_base_key(self, seed):
        # These seeds draw an opaque key equal to a later category's
        # base key (geo, age, zip, lng); construction must not collide.
        factory = PayloadFactory(seed=seed)
        for label, bases in BASE_KEYS.items():
            for base in bases:
                assert factory.registry.truth[base] is label
                assert base not in factory.registry.opaque


class TestStableKeys:
    """The coverage-critical key contract: every stable key must stay
    correctly and confidently classified by the default pipeline
    classifier.  If this test fails after a classifier change, the
    Table 4 / Figure 3 / Figure 4 exactness guarantees are void."""

    @pytest.fixture(scope="class")
    def classifier(self):
        return MajorityVoteClassifier(confidence_mode="avg")

    def test_stable_keys_cover_all_observed_categories(self):
        assert set(STABLE_KEYS) == set(OBSERVED_LEVEL3)

    def test_every_stable_key_classifies_correctly(self, classifier):
        failures = []
        for label, keys in STABLE_KEYS.items():
            for key in keys:
                verdict = classifier.classify(key)
                if verdict.label is not label or verdict.confidence < 0.8:
                    failures.append((key, label.value, verdict.label, verdict.confidence))
        assert not failures, failures

    def test_stable_keys_are_base_keys(self):
        for label, keys in STABLE_KEYS.items():
            for key in keys:
                assert key in BASE_KEYS[label]
