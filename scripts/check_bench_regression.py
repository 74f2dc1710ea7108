#!/usr/bin/env python3
"""Gate benchmark records produced by the bench binaries.

Batch mode (two args): compares a freshly produced BENCH_batch.json against
the repository's checked-in one on the `seq_over_dp_p50` table (sequential
p50 / data-parallel p50 per kind x index combo -- higher means the dp
pipeline is winning by more).  CI machines are noisy, so only a >25%
relative drop on a combo fails; that is far outside run-to-run jitter and
has only ever meant a real pipeline regression.  Also asserts the fresh
run's `window_rtree_parity_ok` flag, which pins the batch R-tree window
pipeline at >= 0.95x sequential.

Serve mode (one arg, record's "bench" key == "serve"): asserts the
acceptance flags computed by bench_serve itself -- `s7.p99_ok` (read p99
under a sustained update stream within 2x of the read-only baseline,
with a small absolute-slack allowance for scheduler-noise on shared
hosts), `s7.cache_ab.hit_rate_kept_ok` (delta-scoped invalidation keeps
>= 50% of unaffected warm-cache hits; the full-flush baseline keeps
none), and the S8 aggregate A/B bars: `s8.identical` (the
annotation-augmented aggregate path agrees field-for-field with
materialize-then-reduce) and `s8.agg_ok` (it does not lose to
materialize-then-reduce on wall-clock, 1.10 tolerance), and
`knn_mix.seq_parity_ok` (a fresh one-shard engine serves the
k-nearest-heavy S3 mix within 1.25x of the one-request-at-a-time loop,
identical answers).  No baseline
record is needed: the bars are absolute properties of the serving
paths, not machine-relative throughput ratios.

Usage: check_bench_regression.py <fresh.json> [<baseline.json>]
"""

import json
import sys

# A batch-mode combo fails when fresh_ratio < baseline_ratio * (1 - TOLERANCE).
TOLERANCE = 0.25


def check_serve(fresh):
    s7 = fresh.get("s7", {})
    ab = s7.get("cache_ab", {})
    failures = []

    print(f"  s7 read-only p99: {s7.get('read_only_p99_us')} us")
    print(f"  s7 with-updates p99: {s7.get('with_updates_p99_us')} us "
          f"(ratio {s7.get('p99_ratio')})")
    if s7.get("p99_ok") is not True:
        print("  s7.p99_ok: false (want true)")
        failures.append("s7.p99_ok")
    else:
        print("  s7.p99_ok: true")

    if not s7.get("updates_published", 0):
        print("  s7.updates_published: 0 (update stream never ran)")
        failures.append("s7.updates_published")

    print(f"  s7 cache A/B: delta-scoped {ab.get('delta_hit_rate')} vs "
          f"full-flush {ab.get('full_flush_hit_rate')}")
    if ab.get("hit_rate_kept_ok") is not True:
        print("  s7.cache_ab.hit_rate_kept_ok: false (want true)")
        failures.append("s7.cache_ab.hit_rate_kept_ok")
    else:
        print("  s7.cache_ab.hit_rate_kept_ok: true")

    s8 = fresh.get("s8", {})
    print(f"  s8 aggregate A/B: agg {s8.get('agg_ms')} ms vs materialize "
          f"{s8.get('materialize_ms')} ms (speedup {s8.get('speedup')}x)")
    if s8.get("identical") is not True:
        print("  s8.identical: false (want true)")
        failures.append("s8.identical")
    else:
        print("  s8.identical: true")
    if s8.get("agg_ok") is not True:
        print("  s8.agg_ok: false (want true)")
        failures.append("s8.agg_ok")
    else:
        print("  s8.agg_ok: true")

    knn = fresh.get("knn_mix", {})
    one_shard = next(iter(knn.get("series", [])), {})
    print(f"  knn_mix: engine/1-shard {one_shard.get('ms')} ms vs sequential "
          f"{knn.get('sequential_ms')} ms")
    if knn.get("seq_parity_ok") is not True:
        print("  knn_mix.seq_parity_ok: false (want true)")
        failures.append("knn_mix.seq_parity_ok")
    else:
        print("  knn_mix.seq_parity_ok: true")

    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print("OK: serve update-path, aggregate A/B and knn_mix bars hold")
    return 0


def check_batch(fresh, baseline):
    fresh_ratios = fresh.get("seq_over_dp_p50", {})
    base_ratios = baseline.get("seq_over_dp_p50", {})
    if not fresh_ratios:
        print("FAIL: fresh record has no seq_over_dp_p50 table")
        return 1

    failures = []
    for combo, base in sorted(base_ratios.items()):
        got = fresh_ratios.get(combo)
        if got is None:
            # The baseline may predate a combo rename; a missing combo is
            # reported but the floor only applies to ones both records have.
            print(f"  skip {combo}: not in fresh record")
            continue
        floor = base * (1.0 - TOLERANCE)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"  {combo}: fresh {got:.3f} vs baseline {base:.3f} "
              f"(floor {floor:.3f}) {verdict}")
        if got < floor:
            failures.append(combo)

    parity = fresh.get("window_rtree_parity_ok")
    if parity is not True:
        print(f"  window_rtree_parity_ok: {parity!r} (want true)")
        failures.append("window_rtree_parity_ok")
    else:
        print("  window_rtree_parity_ok: true")

    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print("OK: no combo regressed beyond tolerance")
    return 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        fresh = json.load(f)

    if fresh.get("bench") == "serve":
        if len(argv) == 3:
            print("FAIL: serve mode takes no baseline record")
            return 2
        return check_serve(fresh)

    if len(argv) != 3:
        print("FAIL: batch mode needs <fresh.json> <baseline.json>")
        return 2
    with open(argv[2]) as f:
        baseline = json.load(f)
    return check_batch(fresh, baseline)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
