// bench_e2e: the end-to-end serving benchmark.
//
//   bench_e2e --workload <mixed|hot|bulk> --seed <n>
//             [--seconds <s>] [--trace <0|1>] [--trace-file <path>]
//   bench_e2e --smoke
//
// One run mounts a serve::Cluster on the workload's seeded map (three
// times, to time set-up), drives the seeded request stream for --seconds,
// checks every answer against an independent oracle, and prints one JSON
// object as its last stdout line: the end-to-end metrics, or with
// --trace 1 the per-layer metrics (see README.md).  Exits 1 on a wrong
// answer, 2 on bad arguments.

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "layers.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace {

using namespace e2e;
namespace serve = dps::serve;
using serve::Clock;

// Set-ups per run: setup_s is their median.
constexpr std::size_t kSetups = 3;
// Updates a traced run applies after the timed phase, six per shard, so
// every workload reports update cost on its own map.
constexpr std::size_t kProbeUpdates = 24;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
      if (!a.trace && std::string_view(v) != "0") return std::nullopt;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (!have_workload && !a.smoke) return std::nullopt;
  return a;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Bytes held from malloc by the whole process.  The memory metric is built
// on this rather than the resident set: how much freed memory glibc keeps
// depends on how many of its per-thread arenas the dispatcher threads
// happened to touch, which made bulk's peak RSS flip between 90 and 135 MB
// from run to run.
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

RunResult run(const WorkloadSpec& spec, const Args& args) {
  const Clock::time_point origin = Clock::now();
  const Workload wl(spec, args.seed);
  std::vector<Interval> log;

  LiveMap live(wl.lines());
  const double heap0 = heap_bytes();

  // Set-up: Cluster construction, mount, fixed warm-up; the last one serves.
  std::unique_ptr<serve::Cluster> cluster;
  std::vector<double> setup_s, mount_s;
  std::vector<BuildReplay> builds;
  std::vector<double> splits;  // replayed stages over the mount, per set-up
  const std::size_t setups = args.smoke ? 1 : kSetups;
  for (std::size_t i = 0; i < setups; ++i) {
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    cluster = std::make_unique<serve::Cluster>(cluster_options());
    const Clock::time_point c1 = Clock::now();
    // A traced run replays the mount's build stages right after each mount.
    // It also builds them once before it, untimed: the first build after a
    // cluster is torn down pays the page faults of a fresh heap (up to a
    // quarter of its time), so this way the mount and its replay start
    // from alike heaps.
    if (args.trace) replay_mount(wl.lines(), log);
    const Clock::time_point m0 = Clock::now();
    cluster->mount(wl.lines(), mount_options());
    const Clock::time_point m1 = Clock::now();
    if (args.trace) {
      builds.push_back(replay_mount(wl.lines(), log));
      splits.push_back(
          per(builds.back().total_ms(), 1000.0 * seconds_between(m0, m1)));
    }
    const Clock::time_point w0 = Clock::now();
    warm_up(*cluster, wl, spec.warmup_batches);
    const Clock::time_point t1 = Clock::now();
    setup_s.push_back(seconds_between(t0, c1) + seconds_between(m0, m1) +
                      seconds_between(w0, t1));
    mount_s.push_back(seconds_between(m0, m1));
    log.push_back({"mount", m0, m1});
    log.push_back({"warmup", w0, t1});
  }

  // A traced run first serves an untraced reference phase, so it can
  // report its own tracing overhead.
  PhaseResult ref;
  if (args.trace) {
    ref = run_phase(*cluster, wl, Stream::kReference, args.seconds / 2, false);
  }
  const Snapshot before = snapshot(*cluster);
  PhaseResult phase =
      run_phase(*cluster, wl, Stream::kTimed, args.seconds, args.trace);
  const Snapshot after = snapshot(*cluster);
  // The serving stack's heap: everything allocated since the map and the
  // probe's model existed, less the phase's own measurement buffers.
  const double heap_mb =
      (heap_bytes() - heap0 - static_cast<double>(buffer_bytes(phase))) /
      (1 << 20);
  if (args.trace) update_probe(*cluster, wl, live, kProbeUpdates, phase);
  const Snapshot after_updates = snapshot(*cluster);
  const Clock::time_point checked0 = Clock::now();

  // Oracle check.  Every read was served before the first update, on the
  // map as mounted.
  RunResult r;
  r.attempted = phase.requests + ref.requests + phase.update_ms.size();
  r.failed = (phase.requests - phase.ok) + (ref.requests - ref.ok) +
             phase.update_failures;
  const Oracle oracle(wl.lines());
  const std::uint64_t mismatches =
      oracle.mismatches(wl, Stream::kTimed, phase.digests) +
      oracle.mismatches(wl, Stream::kReference, ref.digests);
  r.failed += mismatches;
  r.correct = mismatches == 0;
  std::fprintf(stderr,
               "bench_e2e %s seed %llu: set-up %.1f s (x%zu), timed %.1f s, "
               "updates %zu, oracle check %.1f s, %llu wrong\n",
               std::string(spec.name).c_str(),
               static_cast<unsigned long long>(args.seed),
               std::accumulate(setup_s.begin(), setup_s.end(), 0.0), setups,
               phase.elapsed_s, phase.update_ms.size(),
               seconds_between(checked0, Clock::now()),
               static_cast<unsigned long long>(mismatches));

  if (!args.trace) {
    r.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_us", quantile(phase.latency_us, 0.50), "us"},
        {"latency_p90_us", quantile(phase.latency_us, 0.90), "us"},
        {"throughput_rps", per(phase.ok, phase.elapsed_s), "1/s"},
        {"cpu_us_per_req", per(phase.cpu_s * 1e6, phase.requests), "us"},
        {"heap_mb", heap_mb, "MB"},
    };
    return r;
  }

  TraceInputs in;
  in.wl = &wl;
  in.phase = &phase;
  in.reference_p50_us = quantile(ref.latency_us, 0.5);
  in.before = &before;
  in.after = &after;
  in.after_updates = &after_updates;
  in.mount_s = mount_s;
  in.builds = &builds;
  in.sum_over_mount = median(splits);
  in.oracle = &oracle;
  r.metrics = layer_metrics(in, log);
  // Mount is serial, so its outside-in split must add back up.
  if (const double split = in.sum_over_mount; split < 0.9 || split > 1.1) {
    std::fprintf(stderr,
                 "bench_e2e: replayed build stages sum to %.3f of the mount "
                 "span (want 0.9-1.1)\n",
                 split);
  }
  if (!args.trace_file.empty() &&
      !write_chrome_trace(args.trace_file, origin, log, phase)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                 args.trace_file.c_str());
  }
  return r;
}

// Every workload on a 2k-line map with 1-second phases, traced (which also
// runs the untraced reference phase), oracle on.  Fails on a wrong or
// failed answer, or a per-layer metric missing from any workload.
int smoke() {
  std::set<std::string> first;
  bool ok = true;
  for (const std::string_view name : workload_names()) {
    WorkloadSpec spec;
    find_workload(name, true, spec);
    Args a;
    a.seconds = 1.0;
    a.trace = true;
    a.smoke = true;
    const Clock::time_point t0 = Clock::now();
    const RunResult r = run(spec, a);
    std::set<std::string> names;
    for (const Metric& m : r.metrics) names.insert(m.name);
    if (first.empty()) first = names;
    const bool good = r.correct && r.failed == 0 && names == first &&
                      names.size() == r.metrics.size();
    std::fprintf(stderr, "smoke %-10s %s  attempted=%llu failed=%llu "
                         "metrics=%zu  %.1f s\n",
                 std::string(name).c_str(), good ? "ok  " : "FAIL",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), r.metrics.size(),
                 seconds_between(t0, Clock::now()));
    ok = ok && good;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  WorkloadSpec spec;
  if (!args || (!args->smoke && !find_workload(args->workload, false, spec))) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <mixed|hot|bulk> "
                 "--seed <n> [--seconds <s>] [--trace <0|1>] "
                 "[--trace-file <path>]\n"
                 "       bench_e2e --smoke\n");
    return 2;
  }
  if (args->smoke) return smoke();
  const RunResult r = run(spec, *args);
  print_result(r.correct, r.attempted, r.failed, r.metrics);
  return r.correct ? 0 : 1;
}
