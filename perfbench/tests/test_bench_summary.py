import pytest

from sessions import expected_rows
from summary import percentile, timing


@pytest.mark.parametrize("p, enough", [(50, 20), (90, 100)])
def test_percentile_needs_ten_samples_beyond_it(p, enough):
    assert percentile(list(range(enough - 1)), p) is None
    assert percentile(list(range(enough)), p) is not None


def test_timing_reports_median_always_and_counts_samples():
    out = timing("tpot_ms", [0.001, 0.003, 0.002])
    assert out == {"tpot_ms.median": 2.0, "tpot_ms.p50": None, "tpot_ms.p90": None,
                   "tpot_ms.samples": 3}


def test_percentiles_of_a_large_sample():
    out = timing("ttft_ms", [i / 1000.0 for i in range(1, 101)])
    assert out["ttft_ms.p50"] == pytest.approx(50.5)
    assert out["ttft_ms.p90"] == pytest.approx(90.1)


def test_expected_rows_reads_the_budget_as_written():
    # 0.35 * 140 is 49.00000000000001 in floating point.
    assert expected_rows("pure_kv", 0.35, 140) == 49
    assert expected_rows("pure_kv", 0.05, 140) == 7
    assert expected_rows("full", 1.0, 140) == 140


def test_benchmark_json_names_catalogued_metrics():
    import json
    from pathlib import Path

    import catalog

    gate = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    for metric in gate["end_to_end"]:
        assert catalog.END_TO_END[metric["name"]] == (metric["unit"], metric["better"])
    for metric in gate["per_layer"]:
        assert catalog.PER_LAYER[metric["name"]][:2] == (metric["unit"], metric["better"])
