"""Lookup-by-content at overflow scale: cuckoo index vs paper Fig. 2.

The legacy dedup directory degrades linearly once resident lines exceed
bucket capacity — every miss walks the full overflow chain. The cuckoo
index (repro.memory.index) bounds every lookup to two buckets plus a
stash, with adaptive fingerprints holding false-positive line reads
down. This bench pins the DRAM-traffic and tail-latency win at ~10x
capacity, and that the cuckoo table completed online resizes mid-run.
"""

import json

from conftest import emit

from repro.analysis.indexbench import render, run_index_bench


def test_dedup_index_cuckoo_beats_legacy(report_dir, scale):
    report = run_index_bench(smoke=(scale <= 1))
    (report_dir / "dedup_index.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    emit(report_dir, "dedup_index", render(report))

    ratios = report["ratios_legacy_over_cuckoo"]
    # structural margin: bounded two-bucket probes vs linear chain walk
    # at ~10x capacity measure 22.98x in DRAM ops (a counter ratio, no
    # clock); the floor pins the overflow-regime win near its real size
    assert ratios["mixed_dram_ops"] >= 15, ratios
    # wall-clock tail follows the DRAM traffic but is noisier
    assert ratios["p99_latency"] >= 1.2, ratios
    # the run starts from a tiny table on purpose: online resizes must
    # have completed while serving the populate/mixed phases
    assert report["cuckoo"]["index"]["resizes_completed"] >= 1
    # physical placement is index-independent: identical resident state
    assert report["legacy"]["resident_lines"] == \
        report["cuckoo"]["resident_lines"]
    # legacy saw the degradation the bench is about
    assert report["legacy"]["store"]["bucket_overflows"] > 0
