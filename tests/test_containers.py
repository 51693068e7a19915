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
    ('basic', 10): ('ccffb66002dd37af', '2db75d047eb7d01e'),
    ('basic', 700): ('11436e76a5b3e03a', '77a3494f67cee5e9'),
    ('basic', 3000): ('c0dd0daac7fb8fd0', '27236a75b4906144'),
    ('basic-r64', 10): ('768e3df24ab6ee17', '0f16407ecdaeffe0'),
    ('basic-r64', 700): ('59e0752b41916eb6', '9acf48da0127e06a'),
    ('basic-r64', 3000): ('92a1d4dc33f68fb0', '4c653d0e45f2c2ac'),
    ('blocked', 10): ('e6e65674b74182c6', '494b8a855ea1c0b1'),
    ('blocked', 700): ('a3a3cc25b28ccfad', '90fac490877163c1'),
    ('blocked', 3000): ('6afe8887daeb1f81', '11fcec35fbe275c0'),
    ('blocked-forced', 10): ('35f489a279ec4da1', '7b64af8e18308144'),
    ('blocked-forced', 700): ('548cd0e44ac32e0d', '7612e35bdfd2698e'),
    ('blocked-forced', 3000): ('ff7ddcba0e56894d', '8c0f7f6fb54ec9a8'),
    ('bloomier-basic', 10): ('1dcb6a736f4e53e4', '89e3c78cd6c38e5d'),
    ('bloomier-basic', 700): ('f1bd21dcea4368a7', '13039d7d5c19c22c'),
    ('bloomier-basic', 3000): ('28ec59986111871c', '13039d7d5c19c22c'),
    ('bloomier-blocked', 10): ('ecf9301b2d1c258d', '89e3c78cd6c38e5d'),
    ('bloomier-blocked', 700): ('e890d1c9b63bddbe', '13039d7d5c19c22c'),
    ('bloomier-blocked', 3000): ('6aef8b1ea6b71a23', '4ef64661e8c32723'),
    ('bloomier-compact', 10): ('c2cc63ad47fd7ca0', '7ff2a78179f2ea07'),
    ('bloomier-compact', 700): ('7199b9583fa96471', '13039d7d5c19c22c'),
    ('bloomier-compact', 3000): ('560ef9934505cd6b', 'cdabc4b96a6ea1d1'),
    ('compact', 10): ('3d8bc6fc60328b28', 'b2d1fc60f6088811'),
    ('compact', 700): ('0b165c52da0186f9', '3ed59c7f32159a18'),
    ('compact', 3000): ('80fa74f67a2d8865', 'dd82b59e339e53fb'),
    ('filter-basic', 10): ('8b2d1b287a04c2da', '6d71173fe02131b2'),
    ('filter-basic', 700): ('a3e2035b1b1e6ccf', '498687e8706564f4'),
    ('filter-basic', 3000): ('0607ebd123094b8d', '498687e8706564f4'),
    ('filter-blocked', 10): ('d890e080158918da', '6d71173fe02131b2'),
    ('filter-blocked', 700): ('48db7c074c8dac0f', '04ab49d65f4cdda3'),
    ('filter-blocked', 3000): ('bbcb1ca6ab50e0e1', 'f4d242fd8f8a852e'),
    ('filter-compact', 10): ('c470fcc85a706103', '6d71173fe02131b2'),
    ('filter-compact', 700): ('4958d01e54b0616b', 'cb3158340a047eff'),
    ('filter-compact', 3000): ('fb8edccbe67e539b', '88ec907482256322'),
    ('filter-split-share', 10): ('fdecd3b4785ad64c', '6d71173fe02131b2'),
    ('filter-split-share', 700): ('07e2c594dd4cffe5', '36a2ad8a6801c545'),
    ('filter-split-share', 3000): ('0f9ebb66e11ba829', '498687e8706564f4'),
    ('mphf', 10): ('071834a0c00c51ce', '0867a5c9373e43cf'),
    ('mphf', 700): ('883c6f904bbb3ffd', '4d618c7e8084f941'),
    ('mphf', 3000): ('3ed327c2a6346856', '4ab4a2dc6fe2f3de'),
    ('phf', 10): ('9fafadd8e38e4dd0', '20af44ac16dd6c50'),
    ('phf', 700): ('6be1bceb6fae05c5', '6b4a5417b9408330'),
    ('phf', 3000): ('9238022ca299b6d5', 'd164013f138dee9d'),
    ('split-share', 10): ('150b7909cf6b4708', 'b0fbad213f7bd2b6'),
    ('split-share', 700): ('a6e02e69ab16ddda', '166d14cca3094009'),
    ('split-share', 3000): ('ad12655b91b45ad2', '8220df91cd34a84a'),
    ('split-share-r64', 10): ('8ac914a677cbad77', '612121c133247d90'),
    ('split-share-r64', 700): ('c5831849a78f8df6', '7f5054b3332b88fb'),
    ('split-share-r64', 3000): ('4b7c7cdc7fd9c53a', 'a8c5c2736b6f08b5'),
    # larger systems: many peeling layers, and many blocks in one stacked solve
    ('basic', 20000): ('5e5f1037aadddf04', '7811ed643f349631'),
    ('blocked', 20000): ('e6b02fffca7d137d', '4d388a2b322ad1ca'),
    ('phf', 20000): ('17f1296bd658ee8d', '2b1ca4bd0343a905'),
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
