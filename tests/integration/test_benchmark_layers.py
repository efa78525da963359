"""Contract with the pipeline benchmark (``pipebench/``): its traced run
wraps 14 entry points in ``src`` by owner and attribute name, and reads
the simulator's ``stats()``, so a rename there must fail here rather
than fail every ``--trace`` sample.
"""

import importlib
import time
from pathlib import Path

import pytest

from repro.analysis.scoring import score_pipeline
from repro.experiments.common import PROFILES, Workspace
from repro.obs.metrics import current_metrics

PIPEBENCH = Path(__file__).resolve().parents[2] / "pipebench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``sample`` and ``spans`` modules, imported the
    way ``run.py`` launches them: from the ``pipebench`` directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PIPEBENCH))
        yield (
            importlib.import_module("sample"),
            importlib.import_module("spans"),
        )


def test_every_target_resolves(bench):
    sample, _ = bench
    for owner, attribute, name in sample.layer_targets():
        # spans.installed reads class attributes from the class's own
        # __dict__, so an inherited attribute would not do either.
        found = (
            attribute in owner.__dict__
            if isinstance(owner, type)
            else hasattr(owner, attribute)
        )
        assert found, f"{name}: {owner!r} has no {attribute!r}"


def test_traced_run_opens_every_span(bench, tmp_path):
    sample, spans = bench
    targets = sample.layer_targets()
    recorder = spans.Recorder()
    with spans.installed(recorder, targets), Workspace(
        PROFILES["tiny"], workers=1, store_path=str(tmp_path / "store"),
        event_intensity=0.0,
    ) as workspace:
        internet = workspace.internet
        recorder.probe_counter = lambda: internet.probe_count
        start = time.monotonic()
        workspace.ensure_built()
        score_pipeline(
            internet, workspace.campaign, workspace.aggregation.final_blocks
        )
        layers = sample.layer_metrics(
            recorder, current_metrics(), internet, start, time.monotonic(),
            internet.probe_count,
        )
    opened = {span.name for span in recorder.spans}
    expected = {name for _, _, name in targets}
    assert expected - opened == set()
    # The pipeline reuses route templates, so the rate is above zero.
    assert 0.0 < layers["netsim.forwarder_hit_rate"] <= 1.0
