"""Tests of the benchmark's own arithmetic: the tail-percentile rule, span
self time, conv FLOP and byte counts.  Run with
python3 -m pytest perfbench/test_perfbench.py (no program import needed)."""

import random

import pytest

from layer_metrics import per_layer_names
from measure import conv_cost, percentile, samples_beyond, tail_percentile
from spans import Tracer, covered_length, self_times


class TestPercentileRule:
    def test_p90_needs_ten_samples_above_it(self):
        # n = 92: the p90 sits between sorted[81] and sorted[82], so the ten
        # samples sorted[82:] lie above it.
        assert samples_beyond(92, 90) == 10
        assert tail_percentile(92) == 90
        assert samples_beyond(91, 90) == 9
        assert tail_percentile(91) == 85

    def test_falls_back_in_steps_of_five(self):
        # 45 subjects per maps pass; about 57 steps in a 20 s SAE run.
        assert tail_percentile(45) == 75
        assert samples_beyond(45, 75) >= 10 and samples_beyond(45, 80) < 10
        assert tail_percentile(57) == 80
        assert tail_percentile(26) == 60

    def test_never_below_the_median(self):
        assert tail_percentile(5) == 50

    def test_percentile_interpolates_linearly(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
        assert percentile([7.0], 90) == 7.0
        rng = random.Random(0)
        values = [rng.random() for _ in range(101)]
        assert percentile(values, 90) == sorted(values)[90]


class TestSelfTime:
    def test_nested_children(self):
        # root [0, 10] with children a [1, 3] and b [4, 8]; a has a child
        # [1.5, 2.5] that must not count against root.
        spans = [
            ["root", 0.0, 10.0, -1, "r"],
            ["a", 1.0, 3.0, 0, "r"],
            ["a.inner", 1.5, 2.5, 1, "r"],
            ["b", 4.0, 8.0, 0, "r"],
        ]
        assert self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)], 0.0, 10.0) == 7.0

    def test_tracer_stack_self_times_sum_to_root(self):
        tracer = Tracer()
        root = tracer.begin("root")
        for _ in range(3):
            outer = tracer.begin("outer")
            inner = tracer.begin("inner")
            tracer.end(inner)
            tracer.end(outer)
        tracer.end(root)
        parents = [s[3] for s in tracer.spans]
        assert parents == [-1, 0, 1, 0, 3, 0, 5]
        selfs = self_times(tracer.spans)
        root_span = tracer.spans[0]
        assert sum(selfs) == pytest.approx(root_span[2] - root_span[1])

    def test_end_closes_inner_spans_left_open(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("left-open")
        tracer.end(outer)
        assert all(s[2] is not None for s in tracer.spans)


class TestConvCost:
    def test_sae_first_conv_by_hand(self):
        # SAE enc1 on one pair batch: 450 patches of (2, 15, 15), 16 filters of
        # 2x3x3, valid padding -> (16, 13, 13).  Each output value takes
        # 2 * 3 * 3 = 18 multiply-adds.
        cost = conv_cost("conv", 450, 2, 16, (3, 3), (15, 15), (13, 13))
        outputs = 450 * 16 * 13 * 13
        assert cost["fwd_flop"] == 2 * 18 * outputs == 43_804_800
        assert cost["bwd_flop"] == 2 * cost["fwd_flop"]

    def test_transposed_conv_counts_input_pixels(self):
        # AE dec5 at 145x121: (40, 16, 73, 61) -> (40, 2, 145, 121); every
        # input value scatters into 2 * 3 * 3 outputs.
        cost = conv_cost("conv_transpose", 40, 16, 2, (3, 3), (73, 61), (145, 121))
        assert cost["fwd_flop"] == 2 * (40 * 16 * 73 * 61) * (2 * 9)

    def test_bytes_of_a_tiny_conv(self):
        cost = conv_cost("conv", 1, 1, 1, (3, 3), (5, 5), (3, 3))
        assert cost["fwd_bytes"] == 4 * (25 + 9 + 9)
        assert cost["bwd_bytes"] == 4 * (25 + 9 + 9 + 25 + 9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            conv_cost("pool", 1, 1, 1, (2, 2), (4, 4), (2, 2))


def test_per_layer_names_are_unique():
    names = [n for n, _, _ in per_layer_names()]
    assert len(names) == len(set(names))
    assert "proc.trace_overhead_pct" in names and "nn.sae.dec4.bwd_ms" in names
