"""ISS performance benchmark: writes the ``BENCH_iss.json`` artifact.

Tracks the superblock engine's speedup over the legacy interpreter, the
full-length matmul throughput, the N-lane vector engine, the suite wall
times (serial/parallel/warm-cache), and the cache hit cost, so the ISS
performance trajectory is visible across PRs.
"""

import json


def test_bench_iss(output_dir):
    from repro.runtime.bench import run_bench

    path = output_dir / "BENCH_iss.json"
    report = run_bench(output_path=path, measure_legacy_full=True)

    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["schema"] == "bench-iss/3"

    # Medium-config gate: the superblock engine is >= 6x the legacy
    # interpreter, bit-identical.  (bench-iss/2 implied 3.0 x 2.0
    # through the retired fast engine.)
    medium = data["engine_comparison_medium"]
    assert medium["bit_identical"]
    assert medium["speedup_superblock_over_legacy"] >= 6.0

    superblock = data["superblock"]
    assert superblock["cycles_match_paper"]
    assert superblock["checksum_correct"]
    assert superblock["bit_identical"]
    assert superblock["mips"] > 0

    # The paper-length matmul-int run is >= 10x faster on the default
    # engine than on the legacy interpreter, with bit-identical results
    # (bench-iss/2 implied 5.0 x 2.0).
    legacy_full = data["matmul_full_legacy"]
    assert legacy_full["bit_identical"]
    assert legacy_full["speedup_superblock_over_legacy"] >= 10.0

    vector = data["vector_lanes"]
    assert vector["n1_bit_identical"]
    for n_lanes in (8, 16, 32, 64):
        row = vector[f"n{n_lanes}"]
        assert row["vectorized"]
        assert row["all_correct"]
    assert vector["n32"]["speedup_vs_superblock"] >= 5.0
    suite_vec = vector["suite_8_variants"]
    assert suite_vec["vector_groups"] == 1
    assert suite_vec["vector_lanes"] == 8
    assert suite_vec["all_correct"]

    suite = data["suite_study"]
    assert suite["warm_under_5s"]
    assert suite["warm_cache_hits"] >= 8
    # Parallel must not lose to serial: the cold-suite walls are the
    # medians of alternating serial/parallel pairs, all recorded.  On a
    # single-CPU host the pool would collapse to one worker and the
    # "comparison" would be a serial rerun measured twice, so the bench
    # skips it and flags the skip instead.
    if suite["parallel_comparison_valid"]:
        assert suite["parallel_jobs"] > 1
        assert len(suite["parallel_pairs"]) >= 5
        assert (
            suite["parallel_cold_wall_seconds"]
            < suite["serial_cold_wall_seconds"]
        )
    else:
        assert suite["parallel_jobs"] == 1
        assert suite["parallel_cold_wall_seconds"] is None

    cache = data["cache_entry"]
    assert cache["hit_was_hit"]
    assert cache["hit_wall_seconds"] < cache["miss_wall_seconds"]

    print(json.dumps(report["superblock"], indent=2))
