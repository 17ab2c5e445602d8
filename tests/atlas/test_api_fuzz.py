"""Round-trip fuzz tests for the Atlas JSON layer (quarantine-not-crash).

Every mutation a hostile or lossy result feed can produce must either
parse cleanly or raise the structured
:class:`~repro.faults.errors.MalformedResultError` — never a bare
``KeyError``/``AttributeError``/``TypeError``.
"""

import random

import pytest

from repro.atlas.api import traceroute_from_json, traceroute_to_json
from repro.dataplane.traceroute import TracerouteHop, TracerouteResult
from repro.faults import MalformedResultError
from repro.net.ip import IPAddress

pytestmark = pytest.mark.faults


def _document(num_hops=4):
    hops = [
        TracerouteHop(ip=IPAddress.parse(f"10.0.0.{i + 1}"), rtt=1.0 + i)
        for i in range(num_hops)
    ]
    result = TracerouteResult(
        source_asn=65001,
        source_ip=IPAddress.parse("10.1.0.1"),
        destination_ip=IPAddress.parse(f"10.0.0.{num_hops}"),
        hops=hops,
        reached=True,
    )
    return traceroute_to_json(result, probe_id=7)


def _hops(document):
    """The hop list, or [] when an earlier stacked mutation replaced it."""
    result = document.get("result")
    return result if isinstance(result, list) else []


#: Named mutations covering the satellite checklist: missing keys,
#: empty result arrays, non-traceroute types, duplicate hops, plus the
#: shapes the garbler produces.
MUTATIONS = {
    "drop-from_asn": lambda d: {k: v for k, v in d.items() if k != "from_asn"},
    "drop-src_addr": lambda d: {k: v for k, v in d.items() if k != "src_addr"},
    "drop-dst_addr": lambda d: {k: v for k, v in d.items() if k != "dst_addr"},
    "drop-type": lambda d: {k: v for k, v in d.items() if k != "type"},
    "ping-type": lambda d: {**d, "type": "ping"},
    "empty-result": lambda d: {**d, "result": []},
    "result-not-list": lambda d: {**d, "result": "garbled"},
    "hop-not-dict": lambda d: {**d, "result": _hops(d)[:1] + ["junk"]},
    "replies-not-list": lambda d: {
        **d,
        "result": [{"hop": 1, "result": 42}] + _hops(d)[1:],
    },
    "bad-hop-ip": lambda d: {
        **d,
        "result": [{"hop": 1, "result": [{"from": "not.an.ip", "rtt": 1.0}]}],
    },
    "bad-rtt": lambda d: {
        **d,
        "result": [{"hop": 1, "result": [{"from": "10.0.0.1", "rtt": "fast"}]}],
    },
    "bad-asn": lambda d: {**d, "from_asn": "sixty-five"},
    "duplicate-hops": lambda d: {**d, "result": _hops(d) + _hops(d)},
    "null-src": lambda d: {**d, "src_addr": None},
}

class TestMutations:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_quarantines_or_parses(self, name):
        document = MUTATIONS[name](_document())
        try:
            parsed = traceroute_from_json(document)
        except MalformedResultError as error:
            assert error.reason  # structured, not a bare ValueError
        else:
            # The mutations that survive parsing are the benign ones.
            assert name in ("empty-result", "duplicate-hops")
            assert parsed.source_asn == 65001

    def test_empty_result_array_parses_to_no_hops(self):
        parsed = traceroute_from_json(MUTATIONS["empty-result"](_document()))
        assert parsed.hops == []

    def test_duplicate_hops_preserved_for_downstream(self):
        parsed = traceroute_from_json(MUTATIONS["duplicate-hops"](_document(3)))
        assert len(parsed.hops) == 6

    def test_multi_reply_hop_prefers_reply_with_address(self):
        document = _document(2)
        # First reply timed out; second answered.  The seed parser took
        # replies[0] and reported a star — the answering reply must win.
        document["result"][0]["result"] = [
            {"x": "*"},
            {"from": "10.9.9.9", "rtt": 3.25},
        ]
        parsed = traceroute_from_json(document)
        assert parsed.hops[0].ip == IPAddress.parse("10.9.9.9")
        assert parsed.hops[0].rtt == 3.25

    def test_all_star_replies_still_star(self):
        document = _document(2)
        document["result"][0]["result"] = [{"x": "*"}, {"x": "*"}]
        parsed = traceroute_from_json(document)
        assert parsed.hops[0].ip is None


class TestSeededFuzz:
    @pytest.mark.parametrize("seed", [1234, 1235, 1236])
    def test_random_mutations_never_crash_unstructured(self, seed):
        rng = random.Random(seed)
        names = sorted(MUTATIONS)
        for round_number in range(300):
            document = _document(num_hops=rng.randint(0, 6))
            for _ in range(rng.randint(1, 3)):
                document = MUTATIONS[rng.choice(names)](document)
            try:
                traceroute_from_json(document)
            except MalformedResultError:
                pass  # structured quarantine path: acceptable
            # Any other exception type fails the test by propagating.
