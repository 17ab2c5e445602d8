"""Wire-protocol unit tests: request parsing and config equivalence."""

import json

import pytest

from repro.core.pipeline import StudyConfig
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SERVE_COSTS,
    WORKLOADS,
    ProtocolError,
    ServeRequest,
    build_study_config,
    parse_request,
    request_to_dict,
)
from repro.topogen.config import small_config

pytestmark = pytest.mark.serve


def _body(**fields) -> bytes:
    return json.dumps(fields).encode("utf-8")


class TestBuildStudyConfig:
    def test_small_matches_cli_small_path(self):
        """The daemon's quick config must equal `repro study --small`.

        This equality is what makes the daemon-vs-CLI byte-identity
        differential meaningful: both paths feed the pipeline the same
        StudyConfig, so any response divergence is daemon plumbing.
        """
        expected = StudyConfig(topology=small_config(), seed=7)
        expected.num_probes = 400
        expected.probes_per_continent = 25
        expected.active_vp_budget = 40
        expected.max_discovery_targets = 20
        assert build_study_config(seed=7, scale="small") == expected

    def test_full_scale_keeps_defaults(self):
        config = build_study_config(seed=3, scale="full")
        assert config == StudyConfig(seed=3)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ProtocolError, match="scale"):
            build_study_config(seed=0, scale="medium")


class TestParseRequest:
    def test_minimal_study(self):
        request = parse_request(_body(workload="study"))
        assert request == ServeRequest(workload="study")
        assert request.tenant == "anonymous"
        assert request.scale == "small"

    def test_full_request_round_trips_to_dict(self):
        request = parse_request(
            _body(
                workload="check",
                tenant="alice",
                seed=9,
                scale="small",
                stream=True,
                seeds=5,
            )
        )
        assert request.tenant == "alice"
        assert request.stream is True
        assert request.params == {"seeds": 5}
        doc = request_to_dict(request)
        assert doc["workload"] == "check"
        assert doc["tenant"] == "alice"
        assert doc["seeds"] == 5

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            parse_request(b"not json")

    def test_rejects_unknown_workload(self):
        with pytest.raises(ProtocolError, match="workload"):
            parse_request(_body(workload="mine-bitcoin"))

    def test_rejects_unknown_field(self):
        with pytest.raises(ProtocolError, match="unknown"):
            parse_request(_body(workload="study", turbo=True))

    def test_rejects_backend_field(self):
        # There is one route-tree engine; naming a backend is an
        # unknown field like any other.
        with pytest.raises(ProtocolError, match="unknown request field.*backend"):
            parse_request(_body(workload="study", backend="array"))

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_request(_body(workload="study", seed=-1))
        with pytest.raises(ProtocolError, match="seed"):
            parse_request(_body(workload="study", seed=2**31))

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_request(_body(workload="study", seed="zero"))

    def test_check_seeds_bounded(self):
        with pytest.raises(ProtocolError, match="seeds"):
            parse_request(_body(workload="check", seeds=0))
        with pytest.raises(ProtocolError, match="seeds"):
            parse_request(_body(workload="check", seeds=10_000))


class TestCosts:
    def test_every_workload_has_a_cost(self):
        assert set(SERVE_COSTS) == set(WORKLOADS)
        assert all(cost > 0 for cost in SERVE_COSTS.values())

    def test_protocol_version_is_stable(self):
        assert PROTOCOL_VERSION == 1
