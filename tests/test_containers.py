"""Containers and answers are pinned: a refactor must leave every byte as it was.

Each case builds one structure kind at a few sizes and compares the SHA-256
of its container, and of its answers to members and non-members, with the
value recorded when the case was added.  A change of hash derivation, probe
order, solver pivots or container layout shows up here as a changed digest.
"""

import hashlib
import warnings

import pytest

from conftest import failing_reductions
from xorfunc import basic, blocked, compact, filters, phf, serial

SIZES = (10, 700, 3000)


def pairs_of(n, r=8):
    return [(b"pin%d" % i, (i * 0x9E3779B97F4A7C15) & ((1 << r) - 1)) for i in range(n)]


def keys_of(n):
    return [b"pin%d" % i for i in range(n)]


def _filter(backend, payload, **extra):
    params = filters.BackendParams(kind=backend, **extra)

    def build(n):
        if payload:
            return filters.build_bloomier(
                pairs_of(n), r=8, s=8, backend_kind=backend, params=params, seed=8
            )
        return filters.build_filter(keys_of(n), s=8, backend_kind=backend, params=params, seed=7)

    return build


def _forced_blocked(n):
    """The first and third block reductions fail, so those blocks overflow."""
    with failing_reductions(1, 3):
        return blocked.build_blocked(pairs_of(n), r=8, seed=4)


CASES = {
    "basic": lambda n: basic.build(pairs_of(n), r=8, seed=1),
    "split-share": lambda n: basic.build(pairs_of(n), r=8, seed=2, split_share=True),
    "compact": lambda n: compact.build_compact(pairs_of(n), r=8, seed=3),
    "blocked": lambda n: blocked.build_blocked(pairs_of(n), r=8, seed=4),
    "blocked-forced": _forced_blocked,
    "filter-basic": _filter("basic", False),
    "filter-compact": _filter("compact", False),
    "filter-blocked": _filter("blocked", False),
    "filter-split-share": _filter("basic", False, split_share=True),
    "bloomier-basic": _filter("basic", True),
    "bloomier-compact": _filter("compact", True),
    "bloomier-blocked": _filter("blocked", True),
    "phf": lambda n: phf.build_phf(keys_of(n), k=4, delta=0.035, seed=5),
    "mphf": lambda n: phf.build_mphf(keys_of(n), k=4, delta=0.035, seed=6),
    "basic-r64": lambda n: basic.build(pairs_of(n, 64), r=64, seed=9),
    "split-share-r64": lambda n: basic.build(pairs_of(n, 64), r=64, seed=10, split_share=True),
}

# (container SHA-256, answers SHA-256), first 16 hex digits each
PINNED = {
    ('basic', 10): ('8c7a126b5baf09d3', '469270529bfc46cf'),
    ('basic', 700): ('b5ca6fb6790d27d8', '7fca60f3064a97fe'),
    ('basic', 3000): ('ab4b15cc7bb20f91', '1f243df05ca8627f'),
    ('basic-r64', 10): ('742ce9b3bcfb3a77', '82dc75461c09d320'),
    ('basic-r64', 700): ('c3aa7a685801d8ef', '93108fa71f4ef070'),
    ('basic-r64', 3000): ('9fd37280619e9a8d', 'b8cc2f97652b9644'),
    ('blocked', 10): ('61b515ad8976ebba', 'aa064cc58abf6d5c'),
    ('blocked', 700): ('71530b9a71609dd3', 'f1cbfb15a83dcf8e'),
    ('blocked', 3000): ('96f6177293338fc4', '7554f74c567ca468'),
    ('blocked-forced', 10): ('e42b133570f8ae29', '0a1e8b598f5b29ba'),
    ('blocked-forced', 700): ('b4fde3d3dc97a425', '2443882962808e32'),
    ('blocked-forced', 3000): ('8c00fea476fee2d6', '66bc28e518d21277'),
    ('bloomier-basic', 10): ('92ff630e2387a6f7', '89e3c78cd6c38e5d'),
    ('bloomier-basic', 700): ('8631c501513ef9c6', '13039d7d5c19c22c'),
    ('bloomier-basic', 3000): ('bd90a23ac01bd37a', '13039d7d5c19c22c'),
    ('bloomier-blocked', 10): ('fe13016739a0f59f', '89e3c78cd6c38e5d'),
    ('bloomier-blocked', 700): ('6688738289f9bd7d', '365c3315563ea5e4'),
    ('bloomier-blocked', 3000): ('5b94147227ee4673', '13039d7d5c19c22c'),
    ('bloomier-compact', 10): ('6e498994f5a0a5b7', '72170ed7fb697ce2'),
    ('bloomier-compact', 700): ('5194e0838ae641af', '13039d7d5c19c22c'),
    ('bloomier-compact', 3000): ('cfa31aeff7198d4c', '19ee6acc3be3a64c'),
    ('compact', 10): ('9de11017153d571e', 'b007957944def72a'),
    ('compact', 700): ('9e80b8c1a9b45c80', 'fe80a5213937bf14'),
    ('compact', 3000): ('4957996352efec23', 'abd69bff188420dd'),
    ('filter-basic', 10): ('4583b1987a04099c', '478d91816e3b923c'),
    ('filter-basic', 700): ('f4e1b7598ee56c4f', '498687e8706564f4'),
    ('filter-basic', 3000): ('cad3756926b54003', '517d7e068c535279'),
    ('filter-blocked', 10): ('139eafb4f2d2ffe7', '6d71173fe02131b2'),
    ('filter-blocked', 700): ('c34028ad3c718e5c', '498687e8706564f4'),
    ('filter-blocked', 3000): ('711838b7cbfb515b', '498687e8706564f4'),
    ('filter-compact', 10): ('3cae6403f0758860', '6d71173fe02131b2'),
    ('filter-compact', 700): ('ec43c03c583e33b6', '498687e8706564f4'),
    ('filter-compact', 3000): ('56cf21a031f5fbe5', 'f4d242fd8f8a852e'),
    ('filter-split-share', 10): ('0d63419979a5abc7', '6d71173fe02131b2'),
    ('filter-split-share', 700): ('f7d13eda3926ffbe', '498687e8706564f4'),
    ('filter-split-share', 3000): ('f80a7625f8435427', 'eecd6f428b35335d'),
    ('mphf', 10): ('5ef676d4ed74d90f', 'a151b577723e74f4'),
    ('mphf', 700): ('5aa4e93971af8bef', '8f6dac36a00f6c29'),
    ('mphf', 3000): ('4892527e31e5c766', '37b2616602a4bd13'),
    ('phf', 10): ('c3eeec9dcaaa8829', '1dfb6495d83b30e4'),
    ('phf', 700): ('e012bdde891b3be1', '08e453c69cd5c2e7'),
    ('phf', 3000): ('03b0d996e968da2d', '5da3cfed47ffac8f'),
    ('split-share', 10): ('7389950a53643832', '351cf7e289db5783'),
    ('split-share', 700): ('b77726c5279b4943', '91b9dde4c71b8ccd'),
    ('split-share', 3000): ('ecf91f3e39b803be', 'a1c83174767209b5'),
    ('split-share-r64', 10): ('762ff8dfdf9bb3b4', 'ee3d5eb9367d134f'),
    ('split-share-r64', 700): ('a1dd4587c7121022', '0f01261ef1afb5ec'),
    ('split-share-r64', 3000): ('622d54ace1741945', 'e658c594ec71251e'),
    # larger systems: many peeling layers, and many blocks in one stacked solve
    ('basic', 20000): ('1a30dc75bdbe333b', '5e6a16f668f8acd2'),
    ('blocked', 20000): ('05d2fba73a2f7988', 'eb47024076265eff'),
    ('phf', 20000): ('92ae77909cc6bbbb', '6235b8677f8449e7'),
}
LARGE = [("basic", 20000), ("blocked", 20000), ("phf", 20000)]


def digests(case, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        structure = CASES[case](n)
    container = serial.serialize(structure)
    queries = keys_of(n)[:150] + [b"absent%d" % i for i in range(150)]
    answers = repr([structure.query(key) for key in queries]).encode()
    return (
        hashlib.sha256(container).hexdigest()[:16],
        hashlib.sha256(answers).hexdigest()[:16],
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_container_and_answers_are_pinned(case, n):
    assert digests(case, n) == PINNED[case, n]


@pytest.mark.parametrize("case,n", LARGE)
def test_large_container_and_answers_are_pinned(case, n):
    assert digests(case, n) == PINNED[case, n]
