"""Every serve network's cache key and CSR arrays, pinned by digest.

``Graph.canonical_hash()`` is the key under which
:class:`repro.service.GossipService` caches plans, so a change to how a
graph is stored must leave it byte-for-byte unchanged.  Each case pins
two hex digests: the canonical hash itself, and a SHA-256 over the
little-endian ``int64`` bytes of ``indptr`` and ``indices`` followed by
``repr(edge_list())``.

:data:`DIGESTS` was computed once and must never be edited.  Print the
current table with::

    PYTHONPATH=src python -m tests.networks.test_graph_digests
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.analysis.sweep import family_instance
from repro.networks.graph import Graph

#: The families the ``serve`` benchmark workload draws its networks from.
SERVE_FAMILIES = ("grid", "torus", "random", "gnp", "random-tree",
                  "caterpillar", "broom", "wheel")
SIZES = (64, 208)


def views_digest(graph: Graph) -> str:
    """SHA-256 over the CSR arrays and the sorted edge list."""
    h = hashlib.sha256()
    h.update(np.asarray(graph.indptr, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(np.asarray(graph.indices, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(repr(graph.edge_list()).encode())
    return h.hexdigest()


def _relabeled() -> Graph:
    graph = family_instance("random", 64)
    # 37 is coprime to 64, so v -> (37 v + 5) mod 64 is a permutation.
    return graph.relabeled([(37 * v + 5) % graph.n for v in range(graph.n)])


def _cases() -> Dict[str, Callable[[], Graph]]:
    cases: Dict[str, Callable[[], Graph]] = {}
    for family in SERVE_FAMILIES:
        for size in SIZES:
            cases[f"{family}:{size}"] = lambda f=family, s=size: family_instance(f, s)
    cases["single-vertex"] = lambda: Graph(1, [])
    cases["relabeled/random:64"] = _relabeled
    return cases


CASES = _cases()

DIGESTS: Dict[str, Tuple[str, str]] = {
    'broom:208': (
        'fd0972d667c15af3559c3816fa9f233f66ea92d2d13a6fdc916c3f63908958fa',
        '2c8e10ceaa518b70be6ee7b653aed44beb16c1bba5dfed0a821e97f87839a1bd',
    ),
    'broom:64': (
        'e5379507e61f99abdf298a64f3f26912af6db920efbc0d7c2af1101c924153ca',
        '2a7f08076acaf26aade7ff63471e951067f240b074cc4716a61bab4cb0ade7ac',
    ),
    'caterpillar:208': (
        'a8551f1ad03b5bb5119a7b835830eb9cc2c157ce873cb3613f034f4c563d39c8',
        '0abf56695423c4fd6331534947bfd06cb6f8017ff1fdbdd8dec8feaf7f3719ab',
    ),
    'caterpillar:64': (
        'c1ad2a4de9b4feb03a2509e090084ece853b5735e928f12c5b51bf90cd2b3e10',
        'fdc0c1c7f6a19c1fcde2009dbaebe382ec88b184a47bcc2aab066819c9b65d3b',
    ),
    'gnp:208': (
        '5155a2cb699acdcbd125ca563e36f4ad12185ac27375d740684d01f9e790b875',
        '7efa0cc7785b7ca169c07cb3cace46fb214e636f67d388f721e89e238b5eca0a',
    ),
    'gnp:64': (
        '161963736eada2365cf2111c1256f5f1d0492e241a49d5493c77b7eb5f15f868',
        'b79a764f339a636942fcb8efd3f187079113449c000f2c5d2324bd506b899be2',
    ),
    'grid:208': (
        '37cfe5aebdc845e0f5b421e0e7d679e2c046b662a3672d8adb8b9b78ebd7c6bf',
        '668568267a238a4ddbbf0fc70b460e269d35da27ceb7b3e880240713cc56f1d3',
    ),
    'grid:64': (
        'af16d58f6264822f40fb099f5e3db7f8a4a47931e3814962023477d9fc0bcc68',
        'c004a5303b6b9f9f423b49cbb54ae91ff4ffe986dbccd35c760bf7e2751a3955',
    ),
    'random-tree:208': (
        '3611ad2d7b95f3a755c6954e2e17e46e44f132487c6d830a875299c7aa54be0a',
        '80b4dd30acc82c73d77dd3eacdb7c140218054f491b8c157033d9a1c4f4edf7d',
    ),
    'random-tree:64': (
        'a2f038bbe6e22172a14c511640d83db2cc8a44489c6675d8f4c28070727e2bcf',
        'dd8308582cd40f093649ea843177bc1ebe88beefa9d2d5a81873349980748c67',
    ),
    'random:208': (
        'd61aa3a3501c2685d396246dc34820dc3fe5a0668ec4c367086a6670ec96867b',
        '29c1f25da34a259a3e8df5b38c8bd3278769869b09e2f9c557f1145edcdc9535',
    ),
    'random:64': (
        '7fdc9c8447c5c1ae02743dd4ec09c10265807bd1de32195cb19b7d344f1d0304',
        '58f560209d58d83440a6f064d7d6dade5a66c328b8227ae082af9bd0f96eafd7',
    ),
    'relabeled/random:64': (
        'a2525cdfec23595e8ac512e09b8e5fe7b4f4a6a0e9e3a3f8dadf30e29de6080f',
        '8d12fe26093dc70d2c966e39be8e1106185e0de67d6a71c0bd0a85ccc3853cbf',
    ),
    'single-vertex': (
        '7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8',
        '7decbf8e6af553a30a0310386185369df8ba3598894abdcb1bbaaf8d5c7b560b',
    ),
    'torus:208': (
        '75cf9922048600b8b7d55774f2de772b1cb5f1f630bc280c41c4082d054f8ac4',
        'fca745762a3121ebd6f784e7a57fa64b1637f78c241dbaa4b046dd0740669839',
    ),
    'torus:64': (
        '93b057628044907aa5da3596f2b6f367502fd1b937e329c7ea5be4da84edf539',
        'e1bf81719a1e8099efab764fed5e3ba7c31d818d97d285699da2c2191a85135b',
    ),
    'wheel:208': (
        'e65e560059f445e06bb32262463a79b9785a7e9dfadd7fb1cc51992b91b5fef4',
        '293f6b148d93a2aedc654d7507c65fc5d255b23e72bf57128a43f864ebd4bc78',
    ),
    'wheel:64': (
        '83d5ba5a7f8499eb80a3beb8c7b6365b20d2341c5ac97e1ede791b6e191ab674',
        '990f4b75ac7e346e65fa723c8ab69fc2ae6034b3ef9358d882172ebfd595de54',
    ),
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cache_key_and_arrays_are_pinned(case):
    graph = CASES[case]()
    assert (graph.canonical_hash(), views_digest(graph)) == DIGESTS[case]


if __name__ == "__main__":
    for key in sorted(CASES):
        g = CASES[key]()
        print(f"    {key!r}: (\n        {g.canonical_hash()!r},\n        {views_digest(g)!r},\n    ),")
