"""Unit tests for tracing spans, plus the stage double-count regression."""

import pytest

from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import figure1_layer_configs
from repro.obs import Span, Tracer, current_tracer, flatten, span
from repro.obs.trace import NullSpan

pytestmark = pytest.mark.obs


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in tracer.roots[0].children] == ["inner"]

    def test_failed_flag_set_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.roots[0].failed
        assert tracer.roots[0].duration_s >= 0.0

    def test_stage_timings_counts_top_level_only(self):
        tracer = Tracer()
        with tracer.span("stage"):
            with tracer.span("child"):
                pass
        timings = tracer.stage_timings()
        assert set(timings) == {"stage"}
        # The child's time is inside the stage total, not added to it.
        root = tracer.roots[0]
        assert root.duration_s >= root.children[0].duration_s

    def test_reentered_stage_accumulates(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("loop"):
                pass
        assert tracer.stage_calls() == {"loop": 3}
        assert tracer.stage_timings()["loop"] == pytest.approx(
            tracer.total(), abs=1e-6
        )

    def test_attrs_and_round_trip(self):
        tracer = Tracer()
        with tracer.span("s", layer="Simple", trees=4):
            pass
        restored = Tracer.from_dicts(tracer.to_dicts())
        assert restored[0].attrs == {"layer": "Simple", "trees": 4}
        assert restored[0].name == "s"

    def test_stage_exit_hook_sees_each_top_level_span_close(self):
        closed = []
        tracer = Tracer(on_stage_exit=closed.append)
        with pytest.raises(RuntimeError):
            with tracer.span("a"):
                with tracer.span("child"):
                    pass
                raise RuntimeError("x")
        with tracer.span("b"):
            assert [stage.name for stage in closed] == ["a"]
        assert closed == tracer.roots
        assert closed[0].failed and closed[0].children[0].name == "child"

    def test_self_seconds_never_negative(self):
        parent = Span(name="p", duration_s=1.0)
        parent.children = [Span(name="c", duration_s=2.0)]
        assert parent.self_seconds() == 0.0

    def test_flatten_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [node.name for node in flatten(tracer.roots)] == ["a", "b", "c"]


class TestAmbient:
    def test_span_without_tracer_is_null(self):
        assert current_tracer() is None
        assert isinstance(span("anything"), NullSpan)

    def test_span_targets_innermost_active_tracer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                with span("x"):
                    pass
            with span("y"):
                pass
        assert [root.name for root in inner.roots] == ["x"]
        assert [root.name for root in outer.roots] == ["y"]

    def test_activate_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.activate():
                raise RuntimeError("x")
        assert current_tracer() is None


class TestSerialFallbackSingleCounting:
    """Regression: in-process precompute work counted once.

    With two flat timers the in-process tree builds were booked both
    inside the pipeline's ``figure1`` stage and by the classifier's own
    timing, double-counting the stage.  As spans, the classifier's work
    nests under the open stage span and ``stage_timings`` (top-level
    only) counts it exactly once.
    """

    def test_serial_precompute_nests_under_stage(self, study):
        from repro.perf.parallel import ParallelClassifier

        engine_simple = GaoRexfordEngine(study.inferred, canonical_keys=True)
        engine_complex = GaoRexfordEngine(
            study.inferred,
            partial_transit=study.engine_complex.partial_transit,
            canonical_keys=True,
        )
        layers = figure1_layer_configs(
            engine_simple,
            engine_complex,
            known_complex=study.known_complex,
            siblings=study.siblings,
            first_hops_1=study.first_hops_1,
            first_hops_2=study.first_hops_2,
        )
        classifier = ParallelClassifier()
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("figure1"):
                classifier.classify_layers(study.decisions[:50], layers)
        assert classifier.last_report.trees_computed > 0

        # All classifier spans nested under the stage span ...
        assert [root.name for root in tracer.roots] == ["figure1"]
        nested = {node.name for node in flatten(tracer.roots[0].children)}
        assert "precompute" in nested
        assert "classify_layer" in nested
        # ... so the flat view has one entry and no double-booked time.
        timings = tracer.stage_timings()
        assert set(timings) == {"figure1"}
        stage = tracer.roots[0]
        child_total = sum(child.duration_s for child in stage.children)
        assert child_total <= stage.duration_s + 1e-9
