from digest import digest, outputs_document

MEASUREMENTS = [
    ("10.0.1.0/24", "same-last-hop", {7, 3}, 12),
    ("10.0.0.0/24", "non-hierarchical", {5, 9, 1}, 30),
]
BLOCKS = [(["10.0.1.0/24", "10.0.0.0/24"], {3, 7}), (["10.0.2.0/24"], {4})]
STRICT = {"10.0.0.0/24": True, "10.0.2.0/24": False}


def test_digest_ignores_insertion_order():
    shuffled_strict = dict(reversed(list(STRICT.items())))
    first = digest(outputs_document(MEASUREMENTS, BLOCKS, STRICT))
    second = digest(
        outputs_document(
            list(reversed(MEASUREMENTS)),
            [(list(reversed(m)), set(h)) for m, h in reversed(BLOCKS)],
            shuffled_strict,
        )
    )
    assert first == second


def test_digest_sees_every_output():
    base = digest(outputs_document(MEASUREMENTS, BLOCKS, STRICT))
    changed_probes = [MEASUREMENTS[0], MEASUREMENTS[1][:3] + (31,)]
    changed_block = [BLOCKS[0], (["10.0.2.0/24"], {5})]
    changed_verdict = {**STRICT, "10.0.2.0/24": True}
    for document in (
        outputs_document(changed_probes, BLOCKS, STRICT),
        outputs_document(MEASUREMENTS, changed_block, STRICT),
        outputs_document(MEASUREMENTS, BLOCKS, changed_verdict),
    ):
        assert digest(document) != base
