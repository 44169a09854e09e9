"""Metrics registry: callback-backed instruments, the exposition, and
its reference parser."""

import math
from dataclasses import fields as dataclass_fields

import pytest

from repro.obs.latency import latency_summary, percentile
from repro.memory.stats import CATEGORIES, DramStats
from repro.obs.registry import MetricsRegistry, parse_exposition, sample


def _read(reg):
    return parse_exposition(reg.exposition())


# ----------------------------------------------------------------------
# instruments


def test_labeled_counter_tracks_series_independently():
    reg = MetricsRegistry()
    reg.counter("ops", labels=("command",),
                fn=lambda: {"get": 2, "set": 2})
    parsed = _read(reg)
    assert sample(parsed, "ops", command="get") == 2
    assert sample(parsed, "ops", command="set") == 2
    assert ("ops", (("command", "delete"),)) not in parsed


def test_gauge_goes_up_and_down():
    reg = MetricsRegistry()
    state = {"depth": 7}
    reg.gauge("depth", fn=lambda: state["depth"])
    assert sample(_read(reg), "depth") == 7
    state["depth"] = 3
    assert sample(_read(reg), "depth") == 3


def test_callback_backed_instruments_read_live_values():
    reg = MetricsRegistry()
    state = {"n": 0}
    reg.counter("live_total", fn=lambda: state["n"])
    assert sample(_read(reg), "live_total") == 0
    state["n"] = 42
    assert sample(_read(reg), "live_total") == 42


def test_duplicate_registration_raises():
    reg = MetricsRegistry()
    reg.counter("x_total", fn=lambda: 0)
    with pytest.raises(ValueError):
        reg.gauge("x_total", fn=lambda: 0)


def test_bad_metric_and_label_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad name", fn=lambda: 0)
    with pytest.raises(ValueError):
        reg.counter("ok_name", labels=("bad-label",), fn=lambda: {})


# ----------------------------------------------------------------------
# exposition


def test_exposition_has_help_and_type_lines():
    reg = MetricsRegistry()
    reg.counter("a_total", "things counted", fn=lambda: 1)
    reg.gauge("b", "a level", fn=lambda: 2)
    text = reg.exposition()
    assert "# HELP a_total things counted" in text
    assert "# TYPE a_total counter" in text
    assert "# TYPE b gauge" in text
    assert text.endswith("\n")


def test_exposition_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("q", labels=("key",), fn=lambda: {'she said "hi"\n': 1})
    parsed = _read(reg)
    assert sample(parsed, "q", key='she said "hi"\n') == 1


def test_label_values_round_trip_through_the_parser():
    """Backslash, quote, newline, and a literal backslash followed by
    ``n`` each parse back to the value that was exposed."""
    values = ["back\\slash", 'quo"te', "new\nline", "a\\nb", "\\\\n",
              'mix \\" \n \\n\\']
    reg = MetricsRegistry()
    reg.gauge("g", labels=("key",),
              fn=lambda: {v: i for i, v in enumerate(values)})
    text = reg.exposition()
    assert 'g{key="a\\\\nb"} 3' in text
    parsed = parse_exposition(text)
    for i, value in enumerate(values):
        assert sample(parsed, "g", key=value) == i
    assert len(parsed) == len(values)


def test_exposition_integer_values_have_no_decimal_point():
    reg = MetricsRegistry()
    reg.counter("n_total", fn=lambda: 3)
    line = [l for l in reg.exposition().splitlines()
            if l.startswith("n_total ")][0]
    assert line == "n_total 3"


def test_exposition_is_sorted_by_name_and_label_value():
    reg = MetricsRegistry()
    reg.counter("b_total", fn=lambda: 2)
    reg.gauge("lag", labels=("stream",), fn=lambda: {"1": 5, "0": 4})
    reg.counter("a_total", fn=lambda: 1)
    samples = [l for l in reg.exposition().splitlines()
               if not l.startswith("#")]
    assert samples == ["a_total 1", "b_total 2",
                       'lag{stream="0"} 4', 'lag{stream="1"} 5']


def test_parse_exposition_handles_inf():
    reg = MetricsRegistry()
    reg.gauge("up_bound", fn=lambda: math.inf)
    reg.gauge("down_bound", fn=lambda: -math.inf)
    text = reg.exposition()
    assert "up_bound +Inf" in text.splitlines()
    parsed = parse_exposition(text)
    assert parsed[("up_bound", ())] == math.inf
    assert parsed[("down_bound", ())] == -math.inf


# ----------------------------------------------------------------------
# reservoir edge cases (shared percentile definitions)


def test_percentile_empty_population_is_zero():
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.99) == 0.0


def test_latency_summary_empty_reservoir():
    assert latency_summary([]) == \
        {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}


def test_percentile_rejects_out_of_range_fraction():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ----------------------------------------------------------------------
# DramStats drift guards: a category added to the dataclass without
# updating CATEGORIES (or total()) must fail here, not silently skew
# Figure 6.


def test_dram_stats_fields_match_categories():
    assert tuple(f.name for f in dataclass_fields(DramStats)) == CATEGORIES


def test_dram_stats_total_covers_every_category():
    stats = DramStats()
    for i, name in enumerate(CATEGORIES, start=1):
        setattr(stats, name, i)
    assert stats.total() == sum(range(1, len(CATEGORIES) + 1))
    assert stats.total() == sum(stats.as_dict().values())
