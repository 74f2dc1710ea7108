#pragma once
// The load generator: one sender thread drives the timed phase (open loop
// on a fixed batch schedule, or closed loop); a traced run then probes
// update cost.  It measures from outside only -- clocks around public
// calls -- and, when tracing, keeps one span per call in memory.
//
// One sender thread, not several: two client threads calling
// Cluster::serve concurrently crash in dpv::Arena::deallocate (see
// README.md, "Caveats"), so a concurrent-client workload waits for that
// fix.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/cluster.hpp"
#include "workload.hpp"

namespace e2e {

/// What the oracle needs of one answer: its status, a hash of the exact
/// fields (ids; kNN (distance^2, id) pairs; aggregate count and bbox), and
/// the aggregate sums compared within a relative tolerance.
struct Digest {
  dps::serve::Status status = dps::serve::Status::kOk;
  std::uint64_t hash = 0;
  double length = 0.0, wx = 0.0, wy = 0.0;
};

Digest digest(const dps::serve::Request& rq, const dps::serve::Response& rsp);

/// An engine's busy time: the sum of its stage wall clocks (ms).
double stage_sum(const dps::serve::StageTimes& s);

/// One call into the cluster.  Times are microseconds from the phase start.
struct Span {
  enum Kind : std::uint8_t { kServe, kUpdate } kind = kServe;
  std::uint64_t id = 0;  // batch or update number
  double due_us = 0.0, start_us = 0.0, end_us = 0.0;
  /// kServe: per-replica engine stage time spent in this call (ms), from
  /// ServeMetrics deltas read right after it returned.
  std::vector<double> replica_ms;
};

struct PhaseResult {
  dps::serve::Clock::time_point epoch;  // span time origin
  double elapsed_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::array<std::uint64_t, 5> by_kind{};  // requests per RequestKind
  std::vector<double> latency_us;  // per request; +inf when not kOk
  std::vector<double> lag_us;      // per batch: send time - due time
  std::vector<double> serve_us;    // per batch: serve() call duration
  std::vector<Digest> digests;     // per request, in send order
  /// CPU seconds the program spent in the phase, on all its threads: the
  /// process's CPU time minus the sender's own time outside serve().
  double cpu_s = 0.0;
  // The update probe.
  std::vector<double> update_ms;   // per update, from its call
  std::uint64_t update_failures = 0;
  std::vector<dps::serve::UpdateBatch> updates;  // as applied, in order
  std::vector<Span> spans;                       // trace runs only
};

/// Heap bytes `phase` holds for its own measurements (vector capacities).
std::size_t buffer_bytes(const PhaseResult& phase);

/// Serves `batches` warm-up batches of the warm-up stream back to back.
void warm_up(dps::serve::Cluster& cluster, const Workload& wl,
             std::size_t batches);

/// A timed phase: `seconds` of the workload's loop over `stream`.
PhaseResult run_phase(dps::serve::Cluster& cluster, const Workload& wl,
                      Stream stream, double seconds, bool trace);

/// Applies `count` updates back to back with no reads in flight -- the
/// update cost probe of a traced run.  `live` is the probe's model of the
/// map (updated in place).  Appends to `out.update_ms` / `out.updates` /
/// `out.update_failures` / `out.spans`.
void update_probe(dps::serve::Cluster& cluster, const Workload& wl,
                  LiveMap& live, std::size_t count, PhaseResult& out);

}  // namespace e2e
