"""Out-of-domain parameters are refused at the public entry points.

Each call raises a :class:`ValueError` naming the parameter and the
value it was given, before any work: no scenario is built, no snapshot
taken and no probe sent. A :class:`Profile` is refused where it is
made, so a workspace never starts building from a bad one.
"""

import dataclasses

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import TerminationPolicy, run_campaign
from repro.experiments import PROFILES, Workspace
from repro.netsim import EventConfig, SimulatedInternet, paper_scenario


def _campaign(**kwargs):
    def call(internet):
        return run_campaign(internet, TerminationPolicy(), seed=1, **kwargs)

    return call


def _profile(**changes):
    def call(_):
        return Workspace(dataclasses.replace(PROFILES["tiny"], **changes))

    return call


#: (id, call on a fresh tiny internet, the error's "name ... got value").
CASES = [
    ("workspace-workers-0",
     lambda _: Workspace(PROFILES["tiny"], workers=0), "workers", "0"),
    ("workspace-workers-fraction",
     lambda _: Workspace(PROFILES["tiny"], workers=1.5), "workers", "1.5"),
    ("workspace-events-above-1",
     lambda _: Workspace(PROFILES["tiny"], event_intensity=1.5),
     "event_intensity", "1.5"),
    ("workspace-events-negative",
     lambda _: Workspace(PROFILES["tiny"], event_intensity=-0.5),
     "event_intensity", "-0.5"),
    ("workspace-events-nan",
     lambda _: Workspace(PROFILES["tiny"], event_intensity=float("nan")),
     "event_intensity", "nan"),
    ("at-intensity-above-1",
     lambda _: EventConfig.at_intensity(1.5), "intensity", "1.5"),
    ("at-intensity-negative",
     lambda _: EventConfig.at_intensity(-0.5), "intensity", "-0.5"),
    ("paper-scale-negative",
     lambda _: paper_scenario(scale=-1.0), "scale", "-1.0"),
    ("paper-scale-zero",
     lambda _: paper_scenario(scale=0.0), "scale", "0.0"),
    ("paper-scale-nan",
     lambda _: paper_scenario(scale=float("nan")), "scale", "nan"),
    ("paper-scale-inf",
     lambda _: paper_scenario(scale=float("inf")), "scale", "inf"),
    ("campaign-max-destinations-negative",
     _campaign(max_destinations_per_slash24=-1),
     "max_destinations_per_slash24", "-1"),
    ("campaign-max-destinations-zero",
     _campaign(max_destinations_per_slash24=0),
     "max_destinations_per_slash24", "0"),
    ("campaign-workers-0", _campaign(workers=0), "workers", "0"),
    ("profile-max-destinations-0", _profile(campaign_max_destinations=0),
     "campaign_max_destinations", "0"),
    ("profile-samples-negative", _profile(confidence_samples_per_block=-1),
     "confidence_samples_per_block", "-1"),
    ("profile-repetitions-fraction", _profile(sampling_repetitions=2.5),
     "sampling_repetitions", "2.5"),
    ("profile-path-addresses-bool", _profile(path_dataset_max_addresses=True),
     "path_dataset_max_addresses", "True"),
    ("profile-scale-zero", _profile(scenario_scale=0.0),
     "scenario_scale", "0.0"),
    ("profile-scale-negative", _profile(scenario_scale=-0.25),
     "scenario_scale", "-0.25"),
    ("profile-scale-nan", _profile(scenario_scale=float("nan")),
     "scenario_scale", "nan"),
    ("profile-scale-inf", _profile(scenario_scale=float("inf")),
     "scenario_scale", "inf"),
]


@pytest.mark.parametrize(
    "call, name, value", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_refused_before_any_work(internet, monkeypatch, call, name, value):
    def no_scan(*args, **kwargs):
        raise AssertionError("the snapshot was taken before the refusal")

    def no_build(*args, **kwargs):
        raise AssertionError("a scenario was built before the refusal")

    monkeypatch.setattr(pipeline_module, "scan", no_scan)
    monkeypatch.setattr(SimulatedInternet, "from_config", no_build)
    with pytest.raises(ValueError) as refusal:
        call(internet)
    message = str(refusal.value)
    assert message.startswith(f"{name} must be "), message
    assert message.endswith(f"got {value}"), message
    assert internet.probe_count == 0


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_every_shipped_profile_constructs(name):
    profile = PROFILES[name]
    assert dataclasses.replace(profile) == profile

