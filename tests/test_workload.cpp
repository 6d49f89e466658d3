#include "workload/generator.hpp"
#include "workload/meta_workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/fat_tree.hpp"

namespace mayflower::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})), rng_(11) {}

  net::ThreeTier tree_;
  Rng rng_;
};

TEST_F(WorkloadTest, PlacementRespectsFaultDomains) {
  for (int trial = 0; trial < 200; ++trial) {
    const auto replicas = Catalog::place_replicas(tree_, 3, rng_);
    ASSERT_EQ(replicas.size(), 3u);
    // All distinct racks.
    std::set<int> racks;
    for (const net::NodeId r : replicas) {
      racks.insert(tree_.rack_of(r));
    }
    EXPECT_EQ(racks.size(), 3u);
    // Second replica shares the primary's pod; third is in a different pod.
    EXPECT_EQ(tree_.pod_of(replicas[1]), tree_.pod_of(replicas[0]));
    EXPECT_NE(tree_.pod_of(replicas[2]), tree_.pod_of(replicas[0]));
  }
}

TEST_F(WorkloadTest, PrimaryIsRoughlyUniform) {
  std::vector<int> counts(tree_.hosts.size(), 0);
  constexpr int kTrials = 64000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto replicas = Catalog::place_replicas(tree_, 3, rng_);
    const auto it = std::find(tree_.hosts.begin(), tree_.hosts.end(),
                              replicas[0]);
    ++counts[static_cast<std::size_t>(it - tree_.hosts.begin())];
  }
  const double expected = kTrials / static_cast<double>(tree_.hosts.size());
  for (const int c : counts) EXPECT_NEAR(c, expected, expected * 0.25);
}

// The scan-based placement ReplicaPlacer replaced: a full pass over the
// hosts per draw, kept here as the reference the arithmetic must match.
std::vector<net::NodeId> reference_place(const net::ThreeTier& tree,
                                         std::size_t replication, Rng& rng) {
  const auto& hosts = tree.hosts;
  std::vector<net::NodeId> replicas;
  std::vector<int> used_racks;
  const net::NodeId primary = hosts[rng.next_below(hosts.size())];
  replicas.push_back(primary);
  used_racks.push_back(tree.rack_of(primary));
  auto pick_from = [&](auto&& predicate) -> bool {
    std::vector<net::NodeId> pool;
    for (const net::NodeId h : hosts) {
      const int rack = tree.rack_of(h);
      if (std::find(used_racks.begin(), used_racks.end(), rack) !=
          used_racks.end()) {
        continue;
      }
      if (predicate(h)) pool.push_back(h);
    }
    if (pool.empty()) return false;
    const net::NodeId pick = pool[rng.next_below(pool.size())];
    replicas.push_back(pick);
    used_racks.push_back(tree.rack_of(pick));
    return true;
  };
  if (replication >= 2) {
    pick_from([&](net::NodeId h) {
      return tree.pod_of(h) == tree.pod_of(primary);
    });
  }
  while (replicas.size() < replication) {
    if (!pick_from([&](net::NodeId h) {
          return tree.pod_of(h) != tree.pod_of(primary);
        })) {
      pick_from([](net::NodeId) { return true; });
    }
  }
  return replicas;
}

TEST(ReplicaPlacer, MatchesTheHostScanDrawForDraw) {
  std::vector<net::ThreeTier> trees;
  trees.push_back(net::build_three_tier(net::ThreeTierConfig{}));
  trees.push_back(net::build_three_tier(
      net::ThreeTierConfig::with_oversubscription(8.0)));
  // One pod: every replica past the second takes the any-rack fallback.
  net::ThreeTierConfig one_pod;
  one_pod.pods = 1;
  one_pod.racks_per_pod = 5;
  trees.push_back(net::build_three_tier(one_pod));
  for (const std::uint32_t k : {4u, 8u, 16u}) {
    trees.push_back(
        net::three_tier_from_fat_tree(net::FatTreeConfig{k, 125e6}));
  }
  for (const net::ThreeTier& tree : trees) {
    const ReplicaPlacer placer(tree);
    for (std::size_t replication = 1; replication <= 4; ++replication) {
      for (const std::uint64_t seed : {1u, 7u, 4242u}) {
        Rng a(seed);
        Rng b(seed);
        for (int file = 0; file < 300; ++file) {
          ASSERT_EQ(placer.place(replication, a),
                    reference_place(tree, replication, b))
              << "hosts=" << tree.hosts.size()
              << " replication=" << replication << " seed=" << seed
              << " file=" << file;
        }
        // Same number of draws: the streams stay in step.
        EXPECT_EQ(a.next_u64(), b.next_u64());
      }
    }
  }
}

TEST_F(WorkloadTest, CatalogBuildsRequestedFiles) {
  const Catalog catalog(tree_, CatalogConfig{.num_files = 37}, rng_);
  EXPECT_EQ(catalog.size(), 37u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog.file(i).id, i);
    EXPECT_DOUBLE_EQ(catalog.file(i).bytes, 256e6);
    EXPECT_EQ(catalog.file(i).replicas.size(), 3u);
  }
}

TEST_F(WorkloadTest, ClientNeverLandsOnAReplica) {
  const Catalog catalog(tree_, CatalogConfig{.num_files = 20}, rng_);
  const Locality loc{0.5, 0.3};
  for (int trial = 0; trial < 500; ++trial) {
    const FileMeta& f = catalog.file(rng_.next_below(catalog.size()));
    const net::NodeId client = place_client(tree_, f, loc, rng_);
    EXPECT_EQ(std::find(f.replicas.begin(), f.replicas.end(), client),
              f.replicas.end());
  }
}

TEST_F(WorkloadTest, LocalityBucketsMatchProbabilities) {
  const Catalog catalog(tree_, CatalogConfig{.num_files = 50}, rng_);
  const Locality loc{0.5, 0.3};
  int same_rack = 0, same_pod = 0, other = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const FileMeta& f = catalog.file(rng_.next_below(catalog.size()));
    const net::NodeId client = place_client(tree_, f, loc, rng_);
    const net::NodeId primary = f.primary();
    if (tree_.rack_of(client) == tree_.rack_of(primary)) {
      ++same_rack;
    } else if (tree_.pod_of(client) == tree_.pod_of(primary)) {
      ++same_pod;
    } else {
      ++other;
    }
  }
  EXPECT_NEAR(same_rack / double(kTrials), 0.5, 0.02);
  EXPECT_NEAR(same_pod / double(kTrials), 0.3, 0.02);
  EXPECT_NEAR(other / double(kTrials), 0.2, 0.02);
}

TEST_F(WorkloadTest, JobsArriveAtTheConfiguredRate) {
  const Catalog catalog(tree_, CatalogConfig{.num_files = 50}, rng_);
  GeneratorConfig cfg;
  cfg.lambda_per_server = 0.07;
  cfg.total_jobs = 20000;
  const auto jobs = generate_jobs(tree_, catalog, cfg, rng_);
  ASSERT_EQ(jobs.size(), cfg.total_jobs);
  // System rate = 0.07 * 64 = 4.48 jobs/s.
  const double measured = jobs.size() / jobs.back().arrival_sec;
  EXPECT_NEAR(measured, 4.48, 0.15);
  // Arrival times strictly increase; ids are sequential.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GT(jobs[i].arrival_sec, jobs[i - 1].arrival_sec);
    EXPECT_EQ(jobs[i].id, i);
  }
}

TEST_F(WorkloadTest, FilePopularityIsZipfSkewed) {
  const Catalog catalog(tree_, CatalogConfig{.num_files = 100}, rng_);
  GeneratorConfig cfg;
  cfg.total_jobs = 50000;
  const auto jobs = generate_jobs(tree_, catalog, cfg, rng_);
  std::vector<int> counts(catalog.size(), 0);
  for (const auto& j : jobs) ++counts[j.file];
  // Rank-0 file must dominate; expected mass ratio pmf(0)/pmf(9) = 10^1.1.
  EXPECT_GT(counts[0], counts[9] * 6);
  // Every rank is still reachable in expectation for 50k draws... at least
  // the head of the distribution is.
  EXPECT_GT(counts[1], 0);
}

TEST_F(WorkloadTest, SameSeedSameTrace) {
  const Catalog c1(tree_, CatalogConfig{.num_files = 10}, rng_);
  Rng a(123), b(123);
  GeneratorConfig cfg;
  cfg.total_jobs = 100;
  const auto j1 = generate_jobs(tree_, c1, cfg, a);
  const auto j2 = generate_jobs(tree_, c1, cfg, b);
  for (std::size_t i = 0; i < j1.size(); ++i) {
    EXPECT_EQ(j1[i].file, j2[i].file);
    EXPECT_EQ(j1[i].client, j2[i].client);
    EXPECT_DOUBLE_EQ(j1[i].arrival_sec, j2[i].arrival_sec);
  }
}

// --- metadata-heavy workload (workload/meta_workload.hpp) ---------------

TEST(MetaWorkload, TraceIsDeterministicForAGivenSeed) {
  MetaWorkloadConfig cfg;
  cfg.total_ops = 2000;
  cfg.path_space = 500;
  Rng a(42), b(42);
  const auto t1 = generate_meta_ops(cfg, a);
  const auto t2 = generate_meta_ops(cfg, b);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].kind, t2[i].kind);
    EXPECT_EQ(t1[i].path, t2[i].path);
    EXPECT_DOUBLE_EQ(t1[i].arrival_sec, t2[i].arrival_sec);
  }
}

TEST(MetaWorkload, TraceReferencesOnlyLiveFiles) {
  MetaWorkloadConfig cfg;
  cfg.total_ops = 5000;
  cfg.path_space = 300;  // small space forces delete/recreate cycles
  Rng rng(7);
  const auto trace = generate_meta_ops(cfg, rng);
  ASSERT_EQ(trace.size(), cfg.total_ops);
  std::set<std::string> live;
  double last_arrival = 0.0;
  for (const MetaOp& op : trace) {
    EXPECT_GE(op.arrival_sec, last_arrival);  // arrival-ordered
    last_arrival = op.arrival_sec;
    switch (op.kind) {
      case MetaOpKind::kCreate:
        EXPECT_EQ(live.count(op.path), 0u) << "created a live path";
        live.insert(op.path);
        break;
      case MetaOpKind::kDelete:
        EXPECT_EQ(live.count(op.path), 1u) << "deleted a dead path";
        live.erase(op.path);
        break;
      case MetaOpKind::kLookup:
      case MetaOpKind::kAppend:
        EXPECT_EQ(live.count(op.path), 1u) << "referenced a dead path";
        break;
    }
  }
}

TEST(MetaWorkload, MixRatiosAreRoughlyHonored) {
  MetaWorkloadConfig cfg;
  cfg.total_ops = 20'000;
  cfg.path_space = 100'000;  // huge space: create never falls back
  Rng rng(3);
  const auto trace = generate_meta_ops(cfg, rng);
  double counts[4] = {0, 0, 0, 0};
  for (const MetaOp& op : trace) ++counts[static_cast<std::size_t>(op.kind)];
  const double n = static_cast<double>(cfg.total_ops);
  // The early empty-namespace create fallback skews a hair toward creates.
  EXPECT_NEAR(counts[0] / n, cfg.mix.create, 0.05);
  EXPECT_NEAR(counts[1] / n, cfg.mix.lookup, 0.05);
  EXPECT_NEAR(counts[2] / n, cfg.mix.del, 0.05);
  EXPECT_NEAR(counts[3] / n, cfg.mix.append, 0.05);
}

TEST(MetaWorkload, BurstyArrivalsKeepLongRunRateAndBunchOps) {
  MetaWorkloadConfig cfg;
  cfg.total_ops = 30'000;
  cfg.path_space = 100'000;
  cfg.ops_per_sec = 10'000.0;
  cfg.burst_factor = 8.0;
  cfg.burst_duty = 0.1;
  cfg.burst_len_sec = 0.02;
  Rng rng(5);
  const auto trace = generate_meta_ops(cfg, rng);
  const double span = trace.back().arrival_sec - trace.front().arrival_sec;
  const double realized_rate = static_cast<double>(trace.size()) / span;
  EXPECT_NEAR(realized_rate, cfg.ops_per_sec, cfg.ops_per_sec * 0.25);
  // Burstiness: the squared coefficient of variation of inter-arrival gaps
  // is 1 for plain Poisson and well above for an on/off modulated process.
  double mean = span / static_cast<double>(trace.size() - 1);
  double var = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double gap = trace[i].arrival_sec - trace[i - 1].arrival_sec - mean;
    var += gap * gap;
  }
  var /= static_cast<double>(trace.size() - 2);
  EXPECT_GT(var / (mean * mean), 2.0);
}

TEST(MetaWorkload, PathsFollowDirectoryLayout) {
  MetaWorkloadConfig cfg;
  cfg.dirs = 8;
  EXPECT_EQ(meta_path(cfg, 0), "d000/f0000000");
  EXPECT_EQ(meta_path(cfg, 13), "d005/f0000013");
  EXPECT_EQ(meta_path(cfg, 16), "d000/f0000016");
}

}  // namespace
}  // namespace mayflower::workload
