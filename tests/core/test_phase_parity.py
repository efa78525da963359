"""Shared-context parity of the per-/24 entry point.

The campaign measures each /24 in a freshly pinned context with a fresh
RNG. The confidence dataset, strict-het re-probing and
cluster-validation reprobing instead measure a *sequence* of /24s
through one Prober, one ``random.Random`` and one running measurement
context: each /24 starts from the clock, nonce, token buckets and radio
tracker the previous one left, and draws from where it left the RNG.
:func:`repro.core.pipeline.measure` must continue such a context on the
compiled engine exactly as the object path does. Every case measures
the same sequence twice, as shipped and with every /24 forced onto the
object Prober (``tests/oracle.py``), and compares everything the
sequence leaves behind.
"""

import dataclasses
import random

import pytest

from repro.analysis.multivantage import vantage_addresses
from repro.core import ExhaustivePolicy, ReprobePolicy
from repro.core.fastengine import FastCampaignEngine, FastPathUnsupported
from repro.core.pipeline import measure
from repro.experiments.common import PROFILES, Workspace
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.obs.metrics import metrics_scope
from repro.probing import Prober, scan
from tests import oracle

SELECTION = 24
INTENSITY = 0.6
CONTEXT_CLOCK = 100.0
CONTEXT_NONCE = 0x5EED
RNG_SEED = 5

#: name → (policy type, destination cap)
POLICIES = {
    "reprobe": (ReprobePolicy, None),
    "reprobe-cap16": (ReprobePolicy, 16),
    "exhaustive-cap12": (ExhaustivePolicy, 12),
}


def _internet(intensity):
    config = tiny_scenario(seed=13)
    if intensity:
        config = dataclasses.replace(
            config, events=EventConfig.at_intensity(intensity)
        )
    internet = SimulatedInternet.from_config(config)
    return internet, scan(internet)


def _end_state(internet, prober, rng, measurements):
    """Everything a measured sequence leaves behind."""
    routers = {
        id(router.rate_limiter): router.router_id
        for router in internet.topology
        if router.rate_limiter is not None
    }
    return {
        "measurements": measurements,
        "rng": rng.getstate(),
        "clock": internet.clock_seconds,
        "nonce": internet._nonce,
        "probe_count": internet.probe_count,
        "stats": prober.stats,
        "buckets": sorted(
            (
                router.router_id,
                router.rate_limiter._tokens,
                router.rate_limiter._last_time,
            )
            for router in internet.topology
            if router.rate_limiter is not None
        ),
        "touched": sorted(
            routers[id(limiter)] for limiter in internet._touched_limiters
        ),
        "radio": dict(internet._radio._last_probe),
        "events": (
            dict(internet.events.counters) if internet.events else None
        ),
    }


def _run_sequence(policy_name, alternate_source, intensity, prober_path):
    """Measure a strided selection of /24s in one context, one RNG and
    one Prober; returns (end state, the simulator, fallbacks counted)."""
    kind, cap = POLICIES[policy_name]
    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet(intensity)
        eligible = snapshot.eligible_slash24s()
        selection = eligible[:: max(1, len(eligible) // SELECTION)]
        source = (
            vantage_addresses(internet, 2)[1] if alternate_source else None
        )
        internet.begin_measurement_context(
            clock_seconds=CONTEXT_CLOCK, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet, source=source)
        rng = random.Random(RNG_SEED)
        policy = kind()
        with metrics_scope() as registry:
            measurements = [
                measure(
                    prober, slash24, snapshot.active_in(slash24), policy,
                    rng, max_destinations=cap,
                )
                for slash24 in selection[:SELECTION]
            ]
        fallbacks = registry.counter_value("campaign.fastpath_fallback")
        return (
            _end_state(internet, prober, rng, measurements),
            internet,
            fallbacks,
        )


@pytest.mark.parametrize("intensity", [0.0, INTENSITY])
@pytest.mark.parametrize(
    "alternate_source", [False, True], ids=["default-source", "vantage-1"]
)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_sequence_matches_prober(policy_name, alternate_source, intensity):
    shipped, internet, fallbacks = _run_sequence(
        policy_name, alternate_source, intensity, prober_path=False
    )
    reference, _, _ = _run_sequence(
        policy_name, alternate_source, intensity, prober_path=True
    )
    # The engine measured every /24 (no silent fallback to the object
    # path, which would make the comparison vacuous).
    assert getattr(internet, "_fast_engine", None) is not None
    assert fallbacks == 0
    for name in reference:
        assert shipped[name] == reference[name], name


def test_sequence_exercises_carried_state():
    """The sequence really carries state from /24 to /24: drained
    buckets, a woken cellular radio and renumbered availability keys."""
    shipped, internet, _ = _run_sequence(
        "exhaustive-cap12", False, INTENSITY, prober_path=False
    )
    assert any(
        tokens < internet.topology.by_id(router_id).rate_limiter.capacity - 1
        for router_id, tokens, _ in shipped["buckets"]
    )
    assert shipped["radio"]
    assert shipped["events"]["renumber"] > 0
    assert shipped["events"]["storm"] > 0


def test_fallback_mid_sequence_restores_rng(monkeypatch):
    """The engine declines one /24 in the middle of the sequence, on its
    third destination (after probing the first two): the RNG is put
    back, the decline is counted, the object path measures the /24, and
    the sequence still ends exactly where the object path's does."""
    reference, _, _ = _run_sequence(
        "exhaustive-cap12", True, INTENSITY, prober_path=True
    )
    internet, snapshot = _internet(INTENSITY)
    eligible = snapshot.eligible_slash24s()
    victim = eligible[:: max(1, len(eligible) // SELECTION)][SELECTION // 2]
    programmed = []
    real = FastCampaignEngine._program_for

    def declining(self, dst, src, local):
        if dst >> 8 == victim.network >> 8:
            programmed.append(dst)
            if len(programmed) == 3:
                raise FastPathUnsupported("declined for the test")
        return real(self, dst, src, local)

    monkeypatch.setattr(FastCampaignEngine, "_program_for", declining)
    shipped, _, fallbacks = _run_sequence(
        "exhaustive-cap12", True, INTENSITY, prober_path=False
    )
    assert len(programmed) == 3
    assert fallbacks == 1
    for name in reference:
        assert shipped[name] == reference[name], name


def _workspace_phases(intensity, prober_path):
    """The three Prober-driven phases of a tiny Workspace: the confidence
    dataset, the reprobe records and the strict-het observations, plus
    the simulator's end state."""
    artifacts = {}
    real = Workspace._probe_artifact

    def capturing(self, name, *args):
        artifacts[name] = real(self, name, *args)
        return artifacts[name]

    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        patch.setattr(Workspace, "_probe_artifact", capturing)
        with Workspace(
            PROFILES["tiny"], workers=1, event_intensity=intensity
        ) as workspace, metrics_scope() as registry:
            workspace.confidence_dataset
            workspace.campaign
            reprobe = workspace.aggregation.reprobe_records
            workspace.strict_het_analyses
            internet = workspace.internet
            return {
                "confidence_dataset": artifacts["confidence-dataset"],
                "reprobe_records": reprobe,
                "strict_het": artifacts["strict-het-observations"],
                "clock": internet.clock_seconds,
                "nonce": internet._nonce,
                "probe_count": internet.probe_count,
                "events": dict(internet.events.counters),
                "fallbacks": registry.counter_value(
                    "campaign.fastpath_fallback"
                ),
            }


def test_workspace_phases_match_prober():
    shipped = _workspace_phases(INTENSITY, prober_path=False)
    reference = _workspace_phases(INTENSITY, prober_path=True)
    assert shipped["reprobe_records"]
    assert shipped["strict_het"]
    assert shipped["fallbacks"] == 0
    for name in reference:
        assert shipped[name] == reference[name], name
