"""Tests of the harness's own arithmetic (run: ``python -m pytest perfbench -q``)."""

from __future__ import annotations

import pytest

from perfbench.stats import (
    InsufficientSamples,
    counter_delta,
    covered_length,
    hit_rate,
    parse_exposition,
    percentile,
    self_times,
)
from perfbench.spans import LAYER_SPANS, SpanRecorder, resolve
from repro.obs.metrics import MetricsRegistry, validate_exposition


class TestPercentile:
    def test_p90_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 101))  # rank 90 leaves exactly 10 beyond
        assert percentile(samples, 90) == 90
        with pytest.raises(InsufficientSamples):
            percentile(samples[:99], 90)

    def test_median_needs_twenty_samples(self):
        assert percentile(list(range(20)), 50) == 9
        with pytest.raises(InsufficientSamples):
            percentile(list(range(19)), 50)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 80) == 4.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile(list(range(100)), 100)


class TestSelfTime:
    @staticmethod
    def span(span_id, start, end, parent=None):
        return {"id": span_id, "start": start, "end": end, "parent": parent}

    def test_duration_minus_children(self):
        spans = [
            self.span(0, 0.0, 10.0),
            self.span(1, 1.0, 3.0, parent=0),
            self.span(2, 5.0, 9.0, parent=0),
            self.span(3, 6.0, 7.0, parent=2),
        ]
        own = self_times(spans)
        assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
        assert sum(own.values()) == 10.0  # self times tile the root

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(0, 0.0, 10.0),
            self.span(1, 2.0, 6.0, parent=0),
            self.span(2, 4.0, 8.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
        assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([self.span(7, 1.5, 2.0)]) == {7: 0.5}


class TestCounterDeltas:
    @staticmethod
    def scrape(registry: MetricsRegistry) -> dict:
        text = registry.render()
        validate_exposition(text)
        return parse_exposition(text)

    def test_deltas_between_two_scrapes(self):
        registry = MetricsRegistry()
        hits = registry.counter("hyper_cache_hits_total", "hits", labelnames=("cache",))
        waits = registry.histogram("aserve_queue_wait_seconds", "waits")
        hits.labels(cache="results").inc(3)
        before = self.scrape(registry)
        hits.labels(cache="results").inc(5)
        hits.labels(cache="views").inc(2)
        waits.observe(0.25)
        waits.observe(0.5)
        after = self.scrape(registry)
        assert counter_delta(before, after, "hyper_cache_hits_total", cache="results") == 5
        assert counter_delta(before, after, "hyper_cache_hits_total", cache="views") == 2
        assert counter_delta(before, after, "aserve_queue_wait_seconds_sum") == 0.75
        assert counter_delta(before, after, "aserve_queue_wait_seconds_count") == 2
        assert counter_delta(before, after, "absent_total") == 0

    def test_labels_are_order_insensitive(self):
        samples = parse_exposition('m_total{b="2",a="1"} 4\n')
        assert samples[("m_total", frozenset({("a", "1"), ("b", "2")}))] == 4.0

    def test_hit_rate(self):
        assert hit_rate(3, 1) == 0.75
        assert hit_rate(0, 0) == 0.0


class TestSpans:
    def test_every_layer_span_target_exists(self):
        for _name, module_name, path, _value_of in LAYER_SPANS:
            _owner, _attribute, function = resolve(module_name, path)
            assert callable(function), (module_name, path)

    def test_wrapped_calls_nest_and_keep_results(self):
        recorder = SpanRecorder()
        inner = recorder.wrap("inner", lambda x: x * 2)
        outer = recorder.wrap("outer", lambda x: inner(x) + 1, value_of=float)
        assert outer(3) == 7
        by_name = {span[1]: span for span in recorder.spans}
        assert by_name["inner"][4] == by_name["outer"][0]  # parent is the outer span
        assert by_name["outer"][4] is None
        assert by_name["outer"][6] == 7.0
