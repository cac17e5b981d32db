// Hockney-model interconnect timing shared by xmpi (execution) and perfsim
// (analytic replay). A point-to-point transfer of m bytes over link class c
// costs alpha(c) + m / bandwidth(c); tree collectives pay ceil(log2 P)
// sequential stages.
#pragma once

#include <cmath>

#include "hwmodel/layout.hpp"
#include "hwmodel/machine.hpp"

namespace plin::hw {

class NetworkModel {
 public:
  explicit NetworkModel(NetworkSpec spec) : spec_(spec) {}

  double latency(LinkClass link) const;
  double bandwidth(LinkClass link) const;

  /// One point-to-point transfer (wire time, excluding CPU overhead).
  double transfer_time(LinkClass link, double bytes) const {
    return latency(link) + bytes / bandwidth(link);
  }

  /// CPU time a rank pays per posted message (send or receive side).
  double per_message_overhead() const { return spec_.per_message_overhead_s; }

  /// Number of sequential stages of a binomial tree over `participants`.
  static int tree_depth(int participants) {
    int depth = 0;
    int reach = 1;
    while (reach < participants) {
      reach *= 2;
      ++depth;
    }
    return depth;
  }

  /// Time for a binomial-tree broadcast of `bytes` to `participants` ranks
  /// whose worst pairwise link is `worst`. Used by perfsim; xmpi reproduces
  /// the same number implicitly by executing the tree.
  double tree_bcast_time(double bytes, int participants,
                         LinkClass worst) const {
    if (participants <= 1) return 0.0;
    return tree_depth(participants) *
           (transfer_time(worst, bytes) + per_message_overhead());
  }

  /// Time for a binomial-tree reduction/allreduce of `bytes` (allreduce =
  /// reduce + bcast).
  double tree_reduce_time(double bytes, int participants,
                          LinkClass worst) const {
    return tree_bcast_time(bytes, participants, worst);
  }
  double tree_allreduce_time(double bytes, int participants,
                             LinkClass worst) const {
    return 2.0 * tree_bcast_time(bytes, participants, worst);
  }

  /// Largest power of two <= participants (participants >= 1): the width
  /// of the leading block in the binary-blocks decomposition the scalable
  /// allreduce schedules run on.
  static int floor_pof2(int participants) {
    int pof2 = 1;
    while (pof2 * 2 <= participants) pof2 *= 2;
    return pof2;
  }

  /// Number of blocks in the binary-blocks decomposition of
  /// `participants` (its popcount): the extra fold depth the non-pof2
  /// scalable schedules pay.
  static int block_count(int participants) {
    int blocks = 0;
    while (participants > 0) {
      blocks += participants & 1;
      participants >>= 1;
    }
    return blocks;
  }

  // -- scalable collective schedules (CollectiveMode::kScalable) ------------
  //
  // Analytic mirrors of the xmpi schedules, for the perfsim tier: the
  // executed virtual durations emerge from the same alpha/beta/overhead
  // terms these closed forms sum.

  /// Ring allgather: P-1 sequential steps, each forwarding one
  /// `chunk_bytes` block (every rank sends and receives one block per
  /// step, so per-step cost is one transfer plus both message overheads).
  double ring_allgather_time(double chunk_bytes, int participants,
                             LinkClass worst) const {
    if (participants <= 1) return 0.0;
    return (participants - 1) *
           (transfer_time(worst, chunk_bytes) + 2.0 * per_message_overhead());
  }

  /// Binary-blocks recursive-doubling allreduce: log2(pof2) pairwise
  /// full-vector exchanges inside the leading block (the smaller blocks'
  /// rounds overlap them), then — when P is not a power of two — the
  /// leader chain folds the L blocks right-to-left (L-1 sequential
  /// full-vector hops) and a binomial tree broadcasts the result over all
  /// P ranks.
  double rd_allreduce_time(double bytes, int participants,
                           LinkClass worst) const {
    if (participants <= 1) return 0.0;
    const int pof2 = floor_pof2(participants);
    const double round =
        transfer_time(worst, bytes) + 2.0 * per_message_overhead();
    double total = tree_depth(pof2) * round;
    const int blocks = block_count(participants);
    if (blocks > 1) {
      total += (blocks - 1) * round;  // leader fold chain
      total += tree_bcast_time(bytes, participants, worst);
    }
    return total;
  }

  /// Binary-blocks reduce-scatter + allgather allreduce (vector halving):
  /// each of the two leading-block phases moves bytes * (pof2-1)/pof2
  /// through every rank across log2(pof2) halving rounds. When P is not a
  /// power of two, the cross-block fold adds L-1 sequential scattered-
  /// range hops (each at most bytes/m_b, bounded here by one full-vector
  /// beta term split across the chain) and the distribution phase one
  /// full-vector hop from block 0 to the remainder ranks.
  double rsag_allreduce_time(double bytes, int participants,
                             LinkClass worst) const {
    if (participants <= 1) return 0.0;
    const int pof2 = floor_pof2(participants);
    const int depth = tree_depth(pof2);
    const double fraction =
        static_cast<double>(pof2 - 1) / static_cast<double>(pof2);
    double total = 2.0 * (depth * (latency(worst) +
                                   2.0 * per_message_overhead()) +
                          bytes * fraction / bandwidth(worst));
    const int blocks = block_count(participants);
    if (blocks > 1) {
      // Fold chain: L-1 hops of shrinking scattered ranges (~bytes/pof2
      // each after the leading block's reduce-scatter).
      total += (blocks - 1) * (latency(worst) +
                               2.0 * per_message_overhead() +
                               bytes / (pof2 * bandwidth(worst)));
      // Distribution: one full-vector hop to the ranks past block 0.
      total += transfer_time(worst, bytes) + 2.0 * per_message_overhead();
    }
    return total;
  }

  /// Bruck allgather: ceil(log2 P) doubling rounds; round k ships
  /// min(2^k, P - 2^k) chunks, so the beta term telescopes to the same
  /// ~(P-1) * chunk_bytes per rank the ring moves, with log-depth latency.
  double bruck_allgather_time(double chunk_bytes, int participants,
                              LinkClass worst) const {
    if (participants <= 1) return 0.0;
    double total = 0.0;
    int have = 1;
    while (have < participants) {
      const int quota =
          have < participants - have ? have : participants - have;
      total += transfer_time(worst, quota * chunk_bytes) +
               2.0 * per_message_overhead();
      have += quota;
    }
    return total;
  }

  /// Dissemination barrier over `participants`.
  double barrier_time(int participants, LinkClass worst) const {
    if (participants <= 1) return 0.0;
    return tree_depth(participants) *
           (latency(worst) + per_message_overhead());
  }

  const NetworkSpec& spec() const { return spec_; }

 private:
  NetworkSpec spec_;
};

}  // namespace plin::hw
