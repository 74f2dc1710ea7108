#pragma once
// Scan primitives (section 3.2.1): up/down x inclusive/exclusive x
// (un)segmented, for any associative operator.
//
// Parallel execution uses the classic three-phase blocked scan:
//   1. each lane scans its block and produces a block summary,
//   2. the block summaries are combined serially (there are at most
//      `lanes()` of them),
//   3. each lane rescans its block seeded with its incoming carry.
// Segmented scans run the same machinery on the operator lifted to
// (value, crossed-a-segment-head) pairs, which keeps phase 2 correct when a
// segment group spans block boundaries.
//
// Down-scans are suffix scans within each group (see Figure 8 of the paper).
// They run natively right to left on the same machinery, with the block
// layout mirrored: block b covers [n-hi, n-lo) of the up-scan's [lo, hi),
// so block 0 is the rightmost and carries flow leftward.  A run restarts at
// each group *tail* (the element before a head, or the last element), and
// the carry is combined as op(carry, x), exactly as an up-scan of the
// reversed vector would -- down-scans of floating-point or non-commutative
// operators give the same bits as that formulation, serial or parallel.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "dpv/context.hpp"
#include "dpv/ops.hpp"
#include "dpv/simd.hpp"
#include "dpv/vector.hpp"

namespace dps::dpv {

enum class Dir { kUp, kDown };
enum class Incl { kInclusive, kExclusive };

namespace detail {

// Carry state while scanning left-to-right: the combined value of the
// current run (elements since the most recent segment head) and whether the
// run is non-empty.
template <typename T>
struct Run {
  T value;
  bool nonempty = false;
};

// Segmented up-scan of data[lo, hi) seeded with `carry` (the run flowing in
// from the left).  Writes inclusive or exclusive results into out[lo, hi).
// Returns the run flowing out of the block and whether the block contains a
// segment head (which cuts any incoming run off from later blocks).
template <typename T, typename Op>
std::pair<Run<T>, bool> scan_block(Op op, const Vec<T>& data,
                                   const Flags* flags, std::size_t lo,
                                   std::size_t hi, Run<T> carry, Incl incl,
                                   Vec<T>* out) {
  // Unsegmented u64 +-scans go through the backend kernel table: the output
  // phase is a carry-seeded prefix kernel, the summary phase a reduction.
  // Integer + is exactly associative, so the blocked regrouping is exact.
  // (uint64_t and size_t are listed separately for non-LP64 portability.)
  if constexpr ((std::is_same_v<T, std::uint64_t> ||
                 std::is_same_v<T, std::size_t>) &&
                sizeof(T) == 8 && std::is_same_v<Op, Plus<T>>) {
    if (flags == nullptr && hi > lo) {
      const bool head = (lo == 0);  // i == 0 is always a segment head
      std::uint64_t run = (!head && carry.nonempty)
                              ? static_cast<std::uint64_t>(carry.value)
                              : 0;
      const auto* in = reinterpret_cast<const std::uint64_t*>(data.data() + lo);
      if (out != nullptr) {
        auto* o = reinterpret_cast<std::uint64_t*>(out->data() + lo);
        run = simd::kernels().scan_add_u64(in, o, hi - lo, run,
                                           incl == Incl::kInclusive);
      } else {
        run += simd::kernels().reduce_add_u64(in, hi - lo);
      }
      return {Run<T>{static_cast<T>(run), true}, head};
    }
  }
  bool saw_head = false;
  for (std::size_t i = lo; i < hi; ++i) {
    const bool head = (flags != nullptr && (*flags)[i] != 0) || i == 0;
    if (head) {
      carry = Run<T>{};
      saw_head = true;
    }
    if (out != nullptr && incl == Incl::kExclusive) {
      (*out)[i] = carry.nonempty ? carry.value : Op::identity();
    }
    carry.value = carry.nonempty ? op(carry.value, data[i]) : data[i];
    carry.nonempty = true;
    if (out != nullptr && incl == Incl::kInclusive) (*out)[i] = carry.value;
  }
  return {carry, saw_head};
}

// Segmented down-scan of data[lo, hi), right to left, seeded with `carry`
// (the run flowing in from the right).  The mirror image of `scan_block`:
// returns the run flowing out of the block's left end and whether the block
// contains a group tail (which cuts any incoming run off from later blocks).
template <typename T, typename Op>
std::pair<Run<T>, bool> scan_block_down(Op op, const Vec<T>& data,
                                        const Flags* flags, std::size_t lo,
                                        std::size_t hi, Run<T> carry,
                                        Incl incl, Vec<T>* out) {
  const std::size_t n = data.size();
  bool saw_tail = false;
  for (std::size_t i = hi; i-- > lo;) {
    const bool tail = i + 1 == n || (flags != nullptr && (*flags)[i + 1] != 0);
    if (tail) {
      carry = Run<T>{};
      saw_tail = true;
    }
    if (out != nullptr && incl == Incl::kExclusive) {
      (*out)[i] = carry.nonempty ? carry.value : Op::identity();
    }
    carry.value = carry.nonempty ? op(carry.value, data[i]) : data[i];
    carry.nonempty = true;
    if (out != nullptr && incl == Incl::kInclusive) (*out)[i] = carry.value;
  }
  return {carry, saw_tail};
}

template <typename T, typename Op>
Vec<T> scan_any(Context& ctx, Op op, const Vec<T>& data, const Flags* flags,
                Dir dir, Incl incl) {
  const std::size_t n = data.size();
  Vec<T> out(n);
  // One block of the scan, in its own direction; a down-scan's block b is
  // the mirror [n-hi, n-lo) of the up-scan's block b.
  auto block = [&](std::size_t lo, std::size_t hi, Run<T> carry,
                   Vec<T>* dst) {
    return dir == Dir::kUp
               ? scan_block(op, data, flags, lo, hi, carry, incl, dst)
               : scan_block_down(op, data, flags, n - hi, n - lo, carry, incl,
                                 dst);
  };
  const std::size_t k = ctx.block_count(n);
  if (k <= 1) {
    block(0, n, Run<T>{}, &out);
    return out;
  }
  // Phase 1: per-block summaries (no output writes).  A block that holds a
  // group head (up) or tail (down) cuts off the run flowing into it.
  Vec<Run<T>> run_out(k);
  Vec<std::uint8_t> cuts(k);
  ctx.for_blocks(n, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    auto [run, cut] = block(lo, hi, Run<T>{}, static_cast<Vec<T>*>(nullptr));
    run_out[b] = run;
    cuts[b] = cut ? 1 : 0;
  });
  // Phase 2: serial exclusive combine of block summaries into carries.
  Vec<Run<T>> carry_in(k);
  Run<T> acc{};
  for (std::size_t b = 0; b < k; ++b) {
    carry_in[b] = acc;
    if (cuts[b]) {
      acc = run_out[b];
    } else if (run_out[b].nonempty) {
      acc.value = acc.nonempty ? op(acc.value, run_out[b].value)
                               : run_out[b].value;
      acc.nonempty = true;
    }
  }
  // Phase 3: rescan with carries, writing output.
  ctx.for_blocks(n, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    block(lo, hi, carry_in[b], &out);
  });
  return out;
}

}  // namespace detail

/// Unsegmented scan.  Up = prefix, down = suffix.  One scan primitive.
template <typename T, typename Op>
Vec<T> scan(Context& ctx, Op op, const Vec<T>& data, Dir dir = Dir::kUp,
            Incl incl = Incl::kInclusive) {
  ctx.count(Prim::kScan, data.size());
  return detail::scan_any(ctx, op, data, nullptr, dir, incl);
}

/// Segmented scan (Figure 8).  `flags` marks the first element of each
/// segment group; groups are independent.  One scan primitive.
template <typename T, typename Op>
Vec<T> seg_scan(Context& ctx, Op op, const Vec<T>& data, const Flags& flags,
                Dir dir = Dir::kUp, Incl incl = Incl::kInclusive) {
  assert(data.size() == flags.size() && "segment flags must match data length");
  ctx.count(Prim::kScan, data.size());
  return detail::scan_any(ctx, op, data, &flags, dir, incl);
}

/// Broadcast of each group head's value to the whole group: an inclusive
/// segmented up-scan with the copy operator (the [Hung89] broadcast used in
/// section 4.7).
template <typename T>
Vec<T> seg_broadcast(Context& ctx, const Vec<T>& data, const Flags& flags) {
  return seg_scan(ctx, Copy<T>{}, data, flags, Dir::kUp, Incl::kInclusive);
}

}  // namespace dps::dpv
