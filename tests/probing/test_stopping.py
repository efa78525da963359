"""Tests for the MDA stopping rule."""

import pytest

from repro.probing import probes_required, probes_to_rule_out


class TestStoppingRule:
    def test_published_table_values(self):
        # The canonical MDA table at 95% (Augustin et al., E2EMON 2007):
        # having seen k interfaces, send N(k+1) probes in total.
        assert probes_required(1) == 6
        assert probes_required(2) == 11
        assert probes_required(3) == 16
        assert probes_required(4) == 21
        assert probes_required(5) == 27

    def test_paper_quoted_value(self):
        # Section 3.5: "a router has a single nexthop interface at the
        # probability of 95% if 6 probes are responded by a single
        # nexthop interface".
        assert probes_required(1, confidence=0.95) == 6

    def test_monotone_in_observed(self):
        values = [probes_required(k) for k in range(1, 16)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_higher_confidence_needs_more_probes(self):
        assert probes_required(1, 0.99) > probes_required(1, 0.95)

    def test_zero_observed_treated_as_one(self):
        assert probes_required(0) == probes_required(1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            probes_required(-1)

    def test_rule_out_validations(self):
        with pytest.raises(ValueError):
            probes_to_rule_out(1)
        with pytest.raises(ValueError):
            probes_to_rule_out(2, confidence=1.0)
        with pytest.raises(ValueError):
            probes_to_rule_out(2, confidence=0.0)

    def test_statistical_guarantee(self):
        # With j equally-loaded next hops and N(j) probes, the chance of
        # missing a specific hop is at most alpha/j — verify by direct
        # computation of the bound the formula encodes.
        import math

        for j in range(2, 10):
            n = probes_to_rule_out(j, 0.95)
            missing_one = ((j - 1) / j) ** n
            assert missing_one * j <= 0.05 + 1e-9
