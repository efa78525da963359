"""Out-of-domain parameters are refused at the public entry points.

Each call raises a :class:`ValueError` naming the parameter and the
value it was given, before any work: no scenario is built, no snapshot
taken and no probe sent.
"""

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import TerminationPolicy, run_campaign
from repro.experiments import PROFILES, Workspace
from repro.netsim import EventConfig, paper_scenario


def _campaign(**kwargs):
    def call(internet):
        return run_campaign(internet, TerminationPolicy(), seed=1, **kwargs)

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
]


@pytest.mark.parametrize(
    "call, name, value", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_refused_before_any_work(internet, monkeypatch, call, name, value):
    def no_scan(*args, **kwargs):
        raise AssertionError("the snapshot was taken before the refusal")

    monkeypatch.setattr(pipeline_module, "scan", no_scan)
    with pytest.raises(ValueError) as refusal:
        call(internet)
    message = str(refusal.value)
    assert message.startswith(f"{name} must be "), message
    assert message.endswith(f"got {value}"), message
    assert internet.probe_count == 0

