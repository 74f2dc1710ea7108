#include "loadgen.hpp"

#include <time.h>

#include <bit>
#include <chrono>
#include <limits>
#include <thread>

namespace e2e {

namespace serve = dps::serve;
using serve::Clock;

namespace {

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Sleeps until shortly before `due`, then yields until it passes: a plain
// sleep woke 60-70 us late on a 4-vCPU x86-64 VM, a third of a mixed
// request's latency.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) std::this_thread::yield();
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Per-replica engine stage totals, read from outside after a call.
std::vector<double> replica_stage_ms(const serve::Cluster& cluster) {
  std::vector<double> out(cluster.shards());
  for (std::size_t s = 0; s < cluster.shards(); ++s) {
    out[s] = stage_sum(cluster.engine(s).metrics().stages);
  }
  return out;
}

void record_batch(const std::vector<serve::Request>& batch,
                  const std::vector<serve::Response>& rsps, double lag_us,
                  PhaseResult& out) {
  for (std::size_t i = 0; i < rsps.size(); ++i) {
    const bool ok = rsps[i].status == serve::Status::kOk;
    out.ok += ok;
    out.latency_us.push_back(ok ? lag_us + rsps[i].latency_us
                                : std::numeric_limits<double>::infinity());
    out.digests.push_back(digest(batch[i], rsps[i]));
    ++out.by_kind[static_cast<std::size_t>(batch[i].kind)];
  }
  out.requests += rsps.size();
  ++out.batches;
}

}  // namespace

double stage_sum(const serve::StageTimes& s) {
  return s.shard_ms + s.window_ms + s.point_ms + s.nearest_ms +
         s.aggregate_ms + s.join_ms + s.merge_ms;
}

Digest digest(const serve::Request& rq, const serve::Response& rsp) {
  Digest d;
  d.status = rsp.status;
  if (rsp.status != serve::Status::kOk) return d;
  Fnv f;
  switch (rq.kind) {
    case serve::RequestKind::kNearest:
      for (const auto& nb : rsp.neighbors) {
        f.mix(std::uint64_t{nb.id});
        f.mix(nb.distance2);
      }
      break;
    case serve::RequestKind::kAggregate:
      f.mix(rsp.aggregate.count);
      f.mix(rsp.aggregate.bbox.xmin);
      f.mix(rsp.aggregate.bbox.ymin);
      f.mix(rsp.aggregate.bbox.xmax);
      f.mix(rsp.aggregate.bbox.ymax);
      d.length = rsp.aggregate.length;
      d.wx = rsp.aggregate.wx;
      d.wy = rsp.aggregate.wy;
      break;
    default:
      for (const auto id : rsp.ids) f.mix(std::uint64_t{id});
      break;
  }
  d.hash = f.h;
  return d;
}

std::size_t buffer_bytes(const PhaseResult& p) {
  std::size_t n = (p.latency_us.capacity() + p.lag_us.capacity() +
                   p.serve_us.capacity() + p.update_ms.capacity()) *
                      sizeof(double) +
                  p.digests.capacity() * sizeof(Digest) +
                  p.updates.capacity() * sizeof(serve::UpdateBatch) +
                  p.spans.capacity() * sizeof(Span);
  for (const serve::UpdateBatch& u : p.updates) {
    n += u.inserts.capacity() * sizeof(Segment) +
         u.deletes.capacity() * sizeof(LineId);
  }
  return n;
}

void warm_up(serve::Cluster& cluster, const Workload& wl, std::size_t batches) {
  for (std::size_t b = 0; b < batches; ++b) {
    cluster.serve(wl.batch(Stream::kWarmup, b));
  }
}

PhaseResult run_phase(serve::Cluster& cluster, const Workload& wl,
                      Stream stream, double seconds, bool trace) {
  const WorkloadSpec& spec = wl.spec();
  PhaseResult out;
  const bool open = spec.loop == Loop::kOpen;
  const std::size_t expect =
      open ? static_cast<std::size_t>(seconds * spec.rate_rps) + spec.batch
           : 1u << 20;
  out.latency_us.reserve(expect);
  out.digests.reserve(expect);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  out.epoch = t0;

  std::vector<double> prev_ms;
  if (trace) prev_ms = replica_stage_ms(cluster);
  const double process0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const double sender0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  double sender_in_serve = 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(open ? spec.batch / spec.rate_rps : 0.0));
  Clock::time_point prev_done = t0;
  for (std::uint64_t b = 0;; ++b) {
    std::vector<serve::Request> batch = wl.batch(stream, b);
    Clock::time_point due;
    if (open) {
      due = t0 + interval * static_cast<long>(b);
      if (due >= end) break;
      wait_until(due);
    } else {
      if (prev_done >= end) break;
      // A closed-loop client sends as soon as its last answer lands; its
      // "lag" is the client's own turnaround between calls.
      due = prev_done;
    }
    const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    const Clock::time_point start = Clock::now();
    const std::vector<serve::Response> rsps = cluster.serve(batch);
    const Clock::time_point done = Clock::now();
    sender_in_serve += cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    const double lag = us_between(due, start);
    out.lag_us.push_back(lag);
    out.serve_us.push_back(us_between(start, done));
    record_batch(batch, rsps, open ? lag : 0.0, out);
    prev_done = done;
    if (trace) {
      std::vector<double> cur = replica_stage_ms(cluster);
      Span sp{Span::kServe, b, us_between(t0, due), us_between(t0, start),
              us_between(t0, done), cur};
      for (std::size_t s = 0; s < cur.size(); ++s) sp.replica_ms[s] -= prev_ms[s];
      prev_ms = std::move(cur);
      out.spans.push_back(std::move(sp));
    }
  }
  out.elapsed_s = us_between(t0, Clock::now()) / 1e6;
  const double sender_idle =
      cpu_s(CLOCK_THREAD_CPUTIME_ID) - sender0 - sender_in_serve;
  out.cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process0 - sender_idle;
  return out;
}

void update_probe(serve::Cluster& cluster, const Workload& wl, LiveMap& live,
                  std::size_t count, PhaseResult& out) {
  // One delete and one insert inside one shard, round robin: each update
  // is one replica's shadow build plus the fallback engine's whole-map
  // delta.  Random multi-shard updates fan their shadow builds out over
  // threads, and the slowest of four on a shared host made the median
  // swing by more than a quarter from run to run.
  const std::vector<dps::geom::Rect>& footprints = cluster.plan().footprints;
  for (std::size_t k = 0; k < count; ++k) {
    std::mt19937_64 g = wl.rng(Stream::kUpdate, k);
    serve::UpdateBatch b = live.next_in(g, footprints[k % footprints.size()]);
    const Clock::time_point start = Clock::now();
    const serve::UpdateResult res = cluster.apply_update(b);
    const Clock::time_point done = Clock::now();
    out.update_ms.push_back(us_between(start, done) / 1000.0);
    out.update_failures += !res.ok();
    out.updates.push_back(std::move(b));
    out.spans.push_back(Span{Span::kUpdate, k, us_between(out.epoch, start),
                             us_between(out.epoch, start),
                             us_between(out.epoch, done), {}});
  }
}

}  // namespace e2e
