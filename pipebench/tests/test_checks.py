import json

import pytest

import run
from workloads import FRESH_STORE, PREFILLED_STORE, SCALE

REFERENCE = {"digest": "d" * 64, "probes": 100, "pipeline_probes": 250}


def good(**changes):
    result = {
        "digest": "d" * 64, "measured": 10, "eligible": 10,
        "fallbacks": {}, "probes": 100, "pipeline_probes": 250,
        "store_hits": 0, "store_misses": 10,
    }
    result.update(changes)
    return result


def good_warm(**changes):
    return good(
        pipeline_probes=0, store_hits=10, store_misses=0,
        store_unchanged=True, **changes
    )


def test_a_correct_sample_passes():
    assert run.check(good(), REFERENCE, FRESH_STORE) == []
    assert run.check(good_warm(), REFERENCE, PREFILLED_STORE) == []


def test_each_broken_output_fails_the_sample():
    for broken in (
        {"error": "exit 1: Traceback"},
        good(digest="e" * 64),
        good(measured=9),
        good(fallbacks={"campaign.fastpath_fallback": 1}),
        good(probes=101),
        good(pipeline_probes=249),
    ):
        assert run.check(broken, REFERENCE, FRESH_STORE), broken


def test_warm_must_replay_everything_and_leave_the_store_alone():
    for broken in (
        {**good_warm(), "pipeline_probes": 1},
        {**good_warm(), "store_hits": 9},
        {**good_warm(), "store_unchanged": False},
    ):
        assert run.check(broken, REFERENCE, PREFILLED_STORE), broken


def test_a_fresh_store_must_miss_and_record_every_slash24():
    for broken in (good(store_hits=1), good(store_misses=9)):
        assert run.check(broken, REFERENCE, FRESH_STORE), broken


def committed(tmp_path, monkeypatch, seeds, scale=SCALE):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"scale": scale, "seeds": seeds}))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    monkeypatch.setattr(run, "LEDGER", str(tmp_path / "ledger.json"))


def test_a_committed_seed_is_held_to_its_committed_outputs(
    tmp_path, monkeypatch
):
    committed(tmp_path, monkeypatch, {"7": REFERENCE})
    changed = dict(REFERENCE, digest="e" * 64)
    assert run.reference_for(7, changed) == REFERENCE
    assert not (tmp_path / "ledger.json").exists()

def test_other_seeds_keep_the_first_outputs_seen(tmp_path, monkeypatch):
    committed(tmp_path, monkeypatch, {})
    first = run.reference_for(7, dict(REFERENCE, extra=1))
    assert first == REFERENCE
    later = run.reference_for(7, dict(REFERENCE, digest="e" * 64))
    assert later == REFERENCE
    other_seed = run.reference_for(8, dict(REFERENCE, digest="e" * 64))
    assert other_seed["digest"] == "e" * 64


def test_committed_outputs_of_another_scale_are_refused(
    tmp_path, monkeypatch
):
    committed(tmp_path, monkeypatch, {"7": REFERENCE}, scale=SCALE * 2)
    with pytest.raises(RuntimeError):
        run.reference_for(7, REFERENCE)


def test_the_committed_references_are_at_the_workloads_scale():
    with open(run.REFERENCE) as handle:
        document = json.load(handle)
    assert document["scale"] == SCALE
    assert {"2016", "4242"} <= set(document["seeds"])
    for outputs in document["seeds"].values():
        assert set(outputs) == set(run.REFERENCE_KEYS)
