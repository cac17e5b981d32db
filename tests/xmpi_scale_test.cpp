// Scale-oriented xmpi tests behind the 100k-rank work (bench_scale):
//
//   * the binary-blocks scalable allreduce schedules are bit-identical to
//     the seed tree at *non-power-of-two* rank counts — including the NaN
//     propagation and maxloc tie contracts — across the reduce-scatter+
//     allgather and recursive-doubling paths;
//   * the Bruck allgather (picked above 128 ranks) produces the same bytes
//     as the tree schedule;
//   * the sparse per-rank PeerCounters agree with a dense mirror, stay
//     O(log P) under the scalable schedules, and reconcile with the
//     aggregate TrafficCounters through RunResult;
//   * the StackPool recycles released stacks instead of mapping new ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"
#include "xmpi/stackpool.hpp"

namespace plin::xmpi {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Like the mini_config of xmpi_collectives_test, but sized to hold the
/// larger rank counts exercised here (fully loaded 2x4-core nodes).
RunConfig scale_config(int ranks, CollectiveMode mode) {
  constexpr int kCoresPerSocket = 4;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 2), kCoresPerSocket);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  config.transport.collectives = mode;
  return config;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Rank r contributes `base` rotated by r plus a rank-dependent epsilon, so
/// every rank's vector is distinct and any NaN in base visits every slot.
std::vector<double> run_allreduce(int ranks, CollectiveMode mode,
                                  const std::vector<double>& base,
                                  ReduceOp op) {
  const std::size_t count = base.size();
  std::vector<double> result;
  Runtime::run(scale_config(ranks, mode), [&](Comm& comm) {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) {
      mine[i] = base[(i + static_cast<std::size_t>(comm.rank())) % count] +
                comm.rank() * 1e-6;
    }
    std::vector<double> out(count);
    comm.allreduce(std::span<const double>(mine), std::span<double>(out), op);
    if (comm.rank() == 0) result = out;
  });
  return result;
}

// ---- non-power-of-two bit-identity -----------------------------------------

TEST(ScalableScaleTest, AllreduceNonPof2BitIdenticalToTree) {
  // P = 3 (two blocks 2+1), 6 (4+2), 12 (8+4), 100 (64+32+4): every
  // non-trivial binary-blocks shape up to three blocks, on both scalable
  // paths — count 130 >= largest block takes reduce-scatter+allgather,
  // count 3 takes recursive doubling — for all three ops, with a NaN in
  // the pool of contributed values (slot 13 of the long vector, slot 1 of
  // the short one) so the asymmetric combine contract is exercised too.
  std::vector<double> long_base(130);
  for (std::size_t i = 0; i < long_base.size(); ++i) {
    long_base[i] = std::sin(static_cast<double>(i) * 0.7) * 1e3;
  }
  long_base[13] = kNaN;
  const std::vector<double> short_base = {2.5, kNaN, -7.0};
  for (const int ranks : {3, 6, 12, 100}) {
    for (const ReduceOp op :
         {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
      expect_bits_equal(
          run_allreduce(ranks, CollectiveMode::kTree, long_base, op),
          run_allreduce(ranks, CollectiveMode::kScalable, long_base, op));
      expect_bits_equal(
          run_allreduce(ranks, CollectiveMode::kTree, short_base, op),
          run_allreduce(ranks, CollectiveMode::kScalable, short_base, op));
    }
  }
}

TEST(ScalableScaleTest, AllreducePaperScale1296BitIdenticalToTree) {
  // The paper's largest campaign rank count: 1296 = 1024 + 256 + 16
  // blocks. One kSum sweep per scalable path keeps the test under a few
  // seconds while pinning bit-identity at a scale the small cases above
  // cannot represent.
  std::vector<double> rsag_base(1030);
  for (std::size_t i = 0; i < rsag_base.size(); ++i) {
    rsag_base[i] = std::cos(static_cast<double>(i) * 0.3) * 41.0;
  }
  expect_bits_equal(
      run_allreduce(1296, CollectiveMode::kTree, rsag_base, ReduceOp::kSum),
      run_allreduce(1296, CollectiveMode::kScalable, rsag_base,
                    ReduceOp::kSum));

  const std::vector<double> rd_base(64, 1.0 / 3.0);
  expect_bits_equal(
      run_allreduce(1296, CollectiveMode::kTree, rd_base, ReduceOp::kSum),
      run_allreduce(1296, CollectiveMode::kScalable, rd_base,
                    ReduceOp::kSum));
}

TEST(ScalableScaleTest, MaxlocContractHoldsAtNonPof2Sizes) {
  // Maxloc rides on the same schedules; its total order (numeric beats
  // NaN, ties take the lowest index) must hold at binary-blocks sizes.
  for (const int ranks : {6, 12, 100}) {
    for (const CollectiveMode mode :
         {CollectiveMode::kTree, CollectiveMode::kScalable}) {
      Comm::MaxLoc tie;
      Comm::MaxLoc nan_loses;
      Runtime::run(scale_config(ranks, mode), [&](Comm& comm) {
        const Comm::MaxLoc t = comm.allreduce_maxloc(4.25, comm.rank());
        const Comm::MaxLoc n = comm.allreduce_maxloc(
            comm.rank() == 2 ? kNaN : 1.0, comm.rank());
        if (comm.rank() == 0) {
          tie = t;
          nan_loses = n;
        }
      });
      EXPECT_EQ(tie.value, 4.25);
      EXPECT_EQ(tie.index, 0);
      EXPECT_EQ(nan_loses.value, 1.0);
      EXPECT_NE(nan_loses.index, 2);
    }
  }
}

TEST(ScalableScaleTest, BruckAllgatherMatchesTreeAbove128Ranks) {
  // 200 ranks crosses kRingAllgatherMaxRanks, so the scalable mode takes
  // the Bruck schedule; allgather is pure concatenation, so the bytes must
  // equal the tree schedule's.
  constexpr int kRanks = 200;
  constexpr std::size_t kChunk = 3;
  std::vector<double> tree_out;
  std::vector<double> bruck_out;
  for (const CollectiveMode mode :
       {CollectiveMode::kTree, CollectiveMode::kScalable}) {
    Runtime::run(scale_config(kRanks, mode), [&](Comm& comm) {
      std::vector<double> mine(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        mine[i] = comm.rank() * 10.0 + static_cast<double>(i);
      }
      std::vector<double> all(kChunk * static_cast<std::size_t>(comm.size()));
      comm.allgather(std::span<const double>(mine), std::span<double>(all));
      if (comm.rank() == comm.size() - 1) {
        (mode == CollectiveMode::kTree ? tree_out : bruck_out) = all;
      }
    });
  }
  ASSERT_EQ(tree_out.size(), kChunk * kRanks);
  expect_bits_equal(tree_out, bruck_out);
}

TEST(ScalableScaleTest, ScalableSchedulesHalveRankZeroTrafficAt144Ranks) {
  // The tree allgather (gather, then bcast) and allreduce (reduce, then
  // bcast) funnel everything through rank 0; the Bruck and reduce-scatter +
  // allgather schedules spread it. Two rounds each of 2 KiB blocks and of
  // a 32 KiB vector; bytes sent plus received by rank 0.
  struct Case {
    const char* name;
    void (*body)(Comm&);
    std::uint64_t tree_bytes;
    std::uint64_t scalable_bytes;
  };
  const Case cases[] = {
      {"allgather",
       [](Comm& comm) {
         std::vector<double> mine(256, comm.rank() + 0.25);
         std::vector<double> all(256 * static_cast<std::size_t>(comm.size()));
         for (int round = 0; round < 2; ++round) {
           comm.allgather(std::span<const double>(mine),
                          std::span<double>(all));
         }
       },
       5304320, 1171456},
      {"allreduce",
       [](Comm& comm) {
         std::vector<double> data(4096, comm.rank() * 1e-3 + 1.0);
         std::vector<double> out(4096);
         for (int round = 0; round < 2; ++round) {
           comm.allreduce(std::span<const double>(data),
                          std::span<double>(out), ReduceOp::kSum);
         }
       },
       1048576, 326144},
  };
  for (const Case& c : cases) {
    const auto root_bytes = [&](CollectiveMode mode) {
      return Runtime::run(scale_config(144, mode), c.body)
          .rank_traffic.front()
          .through_bytes();
    };
    const std::uint64_t tree = root_bytes(CollectiveMode::kTree);
    const std::uint64_t scalable = root_bytes(CollectiveMode::kScalable);
    EXPECT_EQ(tree, c.tree_bytes) << c.name;
    EXPECT_EQ(scalable, c.scalable_bytes) << c.name;
    EXPECT_GE(static_cast<double>(tree), 2.0 * static_cast<double>(scalable))
        << c.name;
  }
}

// ---- sparse per-peer accounting --------------------------------------------

TEST(PeerCountersTest, MatchesDenseMirror) {
  constexpr int kPeers = 37;
  PeerCounters sparse;
  std::vector<PeerTraffic> dense(kPeers);
  for (int i = 0; i < kPeers; ++i) dense[static_cast<std::size_t>(i)].peer = i;
  // Deterministic scatter of sends/recvs over a few peers, out of order
  // and with repeats.
  for (int step = 0; step < 500; ++step) {
    const int peer = (step * 17 + 5) % kPeers;
    const std::uint64_t bytes = static_cast<std::uint64_t>(step % 96);
    auto& mirror = dense[static_cast<std::size_t>(peer)];
    if (step % 3 == 0) {
      sparse.record_recv(peer, bytes);
      mirror.recv_messages += 1;
      mirror.recv_bytes += bytes;
    } else {
      sparse.record_send(peer, bytes);
      mirror.sent_messages += 1;
      mirror.sent_bytes += bytes;
    }
  }
  // Drop untouched peers from the mirror; the sparse map must hold exactly
  // the touched ones, sorted by peer.
  std::vector<PeerTraffic> touched;
  for (const PeerTraffic& p : dense) {
    if (p.sent_messages + p.recv_messages > 0) touched.push_back(p);
  }
  const std::vector<PeerTraffic>& entries = sparse.entries();
  ASSERT_EQ(entries.size(), touched.size());
  EXPECT_EQ(sparse.peer_count(), touched.size());
  EXPECT_TRUE(std::is_sorted(
      entries.begin(), entries.end(),
      [](const PeerTraffic& a, const PeerTraffic& b) { return a.peer < b.peer; }));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].peer, touched[i].peer);
    EXPECT_EQ(entries[i].sent_messages, touched[i].sent_messages);
    EXPECT_EQ(entries[i].sent_bytes, touched[i].sent_bytes);
    EXPECT_EQ(entries[i].recv_messages, touched[i].recv_messages);
    EXPECT_EQ(entries[i].recv_bytes, touched[i].recv_bytes);
  }
}

TEST(PeerCountersTest, RunResultPeerMapsReconcileWithTrafficCounters) {
  // Every send/recv records into both the aggregate TrafficCounters and
  // the sparse peer map, so per rank the map must sum to the aggregates.
  RunConfig config = scale_config(12, CollectiveMode::kScalable);
  config.peer_traffic = true;
  const RunResult run = Runtime::run(config, [](Comm& comm) {
    std::vector<double> data(40, comm.rank() * 0.5);
    std::vector<double> out(40);
    comm.allreduce(std::span<const double>(data), std::span<double>(out),
                   ReduceOp::kSum);
    comm.barrier();
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value(comm.rank(), next, /*tag=*/2);
    (void)comm.recv_value<int>(prev, /*tag=*/2);
  });
  ASSERT_EQ(run.rank_peers.size(), 12u);
  std::uint64_t entries_total = 0;
  std::uint64_t entries_max = 0;
  for (std::size_t rank = 0; rank < run.rank_peers.size(); ++rank) {
    const TrafficCounters& traffic = run.rank_traffic[rank];
    std::uint64_t sent_messages = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_messages = 0;
    std::uint64_t recv_bytes = 0;
    for (const PeerTraffic& peer : run.rank_peers[rank]) {
      sent_messages += peer.sent_messages;
      sent_bytes += peer.sent_bytes;
      recv_messages += peer.recv_messages;
      recv_bytes += peer.recv_bytes;
    }
    EXPECT_EQ(sent_messages,
              traffic.data_messages + traffic.control_messages);
    EXPECT_EQ(sent_bytes, traffic.data_bytes + traffic.control_bytes);
    EXPECT_EQ(recv_messages, traffic.recv_messages);
    EXPECT_EQ(recv_bytes, traffic.recv_bytes);
    entries_total += run.rank_peers[rank].size();
    entries_max = std::max(
        entries_max, static_cast<std::uint64_t>(run.rank_peers[rank].size()));
  }
  EXPECT_EQ(run.peer_entries_total, entries_total);
  EXPECT_EQ(run.peer_entries_max, entries_max);
}

TEST(PeerCountersTest, ScalableSchedulesKeepPeerMapsLogarithmic) {
  // The O(log P)-peers property bench_scale gates on: under the scalable
  // schedules no rank talks to more than a few-dozen peers even at
  // hundreds of ranks (the tree schedules funnel O(P) peers into root).
  const RunResult run = Runtime::run(
      scale_config(200, CollectiveMode::kScalable), [](Comm& comm) {
        std::vector<double> data(8, 1.0);
        std::vector<double> out(8);
        comm.allreduce(std::span<const double>(data), std::span<double>(out),
                       ReduceOp::kSum);
        comm.barrier();
      });
  EXPECT_GT(run.peer_entries_max, 0u);
  EXPECT_LE(run.peer_entries_max, 48u);  // ~2 rounds of log2(200) + slack
}

// ---- stack pool ------------------------------------------------------------

TEST(StackPoolTest, ReleasedStacksAreReused) {
  StackPool& pool = StackPool::instance();
  // Unusual geometry so this test's bucket is not shared with the
  // schedulers of other tests in this binary.
  constexpr std::size_t kBytes = 192 * 1024;
  const StackPool::Stats before = pool.stats();
  StackPool::Allocation first = pool.acquire(kBytes, /*guarded=*/true);
  ASSERT_TRUE(first.valid());
  unsigned char* const sp = first.sp;
  first.sp[0] = 0x5a;  // stacks are writable immediately
  first.sp[first.bytes - 1] = 0xa5;
  pool.release(first);
  EXPECT_FALSE(first.valid());

  StackPool::Allocation second = pool.acquire(kBytes, /*guarded=*/true);
  EXPECT_EQ(second.sp, sp);  // served from the free list, not a new slot
  const StackPool::Stats after = pool.stats();
  EXPECT_EQ(after.served, before.served + 2);
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_GE(after.peak_live, before.live + 1);
  pool.release(second);
  EXPECT_EQ(pool.stats().live, before.live);
}

}  // namespace
}  // namespace plin::xmpi
