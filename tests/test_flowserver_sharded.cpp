// The flow store's contract under churn, end to end through the Flowserver
// (the golden and the poll-group check date from the retired edge-sharded
// state plane, which this one store replaced):
//  * decisions replay the golden recorded from the single-shard layout;
//  * churn between decisions is read from the store with no refresh;
//  * a switch crash drops exactly the crashed edge's flows from the view;
//  * staggered poll groups apply the same samples per interval as one sweep.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "golden.hpp"
#include "net/paths.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

class ShardedFlowserverTest : public ::testing::Test {
 protected:
  ShardedFlowserverTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo) {}

  FlowserverConfig sharded_config() {
    FlowserverConfig cfg;
    cfg.seed = 7;
    return cfg;
  }

  // Preloads `n` intra-pod flows (same draw for every server under test).
  void preload(Flowserver& server, std::size_t n) {
    Rng rng(42);
    net::PathCache cache(tree_.topo);
    const std::size_t hosts_per_pod =
        tree_.hosts.size() / tree_.config.pods;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pod = rng.next_below(tree_.config.pods);
      const net::NodeId src =
          tree_.hosts[pod * hosts_per_pod + rng.next_below(hosts_per_pod)];
      net::NodeId dst = src;
      while (dst == src) {
        dst = tree_.hosts[pod * hosts_per_pod +
                          rng.next_below(hosts_per_pod)];
      }
      const auto& paths = cache.get(src, dst);
      server.table().add(static_cast<sdn::Cookie>(1000000 + i),
                         paths[rng.next_below(paths.size())], 256e6,
                         rng.uniform(1e6, 125e6), sim::SimTime{});
    }
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
};

TEST_F(ShardedFlowserverTest, DecisionsMatchLegacyByteForByte) {
  // A churny request stream over a preloaded table must emit the exact
  // decision sequence the retired single-shard layout did (the golden was
  // recorded from it, serial pipeline, batch size one).
  Flowserver server(fabric_, sharded_config());
  preload(server, 256);

  Rng req(9);
  Rng churn(11);
  std::ostringstream out;
  for (int i = 0; i < 32; ++i) {
    // Background churn between decisions: one SETBW on a preloaded flow.
    const auto victim = static_cast<sdn::Cookie>(
        1000000 + churn.next_below(256));
    server.table().setbw(victim, churn.uniform(1e6, 125e6), sim::SimTime{});

    const net::NodeId client = tree_.hosts[req.next_below(tree_.hosts.size())];
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = tree_.hosts[req.next_below(tree_.hosts.size())];
      bool dup = r == client;
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    const auto plan = server.select_for_read(client, reps, 64e6);
    golden::append_plan(out, "req " + std::to_string(i), plan);
    for (const auto& a : plan) server.flow_dropped(a.cookie);
  }
  EXPECT_TRUE(golden::matches_golden("decisions_sharded_churn.txt", out.str()));
}

TEST_F(ShardedFlowserverTest, ChurnIsReadWithoutARefresh) {
  Flowserver server(fabric_, sharded_config());
  preload(server, 64);
  const auto plan =
      server.select_for_read(tree_.hosts[0], {tree_.hosts[20]}, 64e6);
  ASSERT_FALSE(plan.empty());
  const std::uint64_t refreshes = server.view_rebuilds();

  // SETBW on one background flow lands in the store decisions read: the
  // next view shows it without any refresh.
  server.table().setbw(1000000, 9e6, sim::SimTime{});
  EXPECT_DOUBLE_EQ(server.view().find(1000000)->bw_bps, 9e6);
  const auto plan2 =
      server.select_for_read(tree_.hosts[0], {tree_.hosts[20]}, 64e6);
  ASSERT_FALSE(plan2.empty());
  EXPECT_EQ(server.view_rebuilds(), refreshes);
  EXPECT_EQ(server.shard_reloads(), 0u);
}

TEST_F(ShardedFlowserverTest, SwitchCrashDropsOnlyItsFlowsFromTheView) {
  Flowserver server(fabric_, sharded_config());

  // One fabric-started intra-rack flow per rack 0 and rack 1: the crash
  // below must kill rack 0's only, leaving rack 1's believed.
  net::PathCache cache(tree_.topo);
  const auto start = [&](net::NodeId src, net::NodeId dst) {
    const net::Path path = cache.get(src, dst)[0];
    const sdn::Cookie c = fabric_.new_cookie();
    fabric_.install_path(c, path);
    fabric_.start_flow(c, path, 1e9);
    server.table().add(c, path, 1e9, 60e6, sim::SimTime{});
    return c;
  };
  const sdn::Cookie rack0_flow = start(tree_.hosts[0], tree_.hosts[1]);
  const sdn::Cookie rack1_flow = start(tree_.hosts[4], tree_.hosts[5]);

  const auto plan =
      server.select_for_read(tree_.hosts[8], {tree_.hosts[12]}, 64e6);
  ASSERT_FALSE(plan.empty());
  for (const auto& a : plan) server.flow_dropped(a.cookie);
  const std::uint64_t refreshes = server.view_rebuilds();

  // Crash rack 0's edge switch: the failure listener drops rack0_flow from
  // the table — and no other.
  fabric_.fail_switch(tree_.edge_switches[0]);
  EXPECT_EQ(server.table().find(rack0_flow), nullptr);
  ASSERT_NE(server.table().find(rack1_flow), nullptr);

  const net::NetworkView& view = server.view();
  EXPECT_EQ(server.view_rebuilds(), refreshes + 1);  // fault epoch moved
  EXPECT_EQ(view.find(rack0_flow), nullptr);
  EXPECT_NE(view.find(rack1_flow), nullptr);
  EXPECT_FALSE(view.link_up(
      tree_.topo.find_link(tree_.hosts[0], tree_.edge_switches[0])));
}

TEST_F(ShardedFlowserverTest, PollGroupsApplySameSamplesPerInterval) {
  // A rotated poll (poll_groups > 1) must apply the same per-flow samples
  // over one full interval as the legacy single sweep — each edge is still
  // visited exactly once per interval, just on staggered ticks.
  sim::EventQueue events_a, events_b;
  sdn::SdnFabric fabric_a(events_a, tree_.topo);
  sdn::SdnFabric fabric_b(events_b, tree_.topo);
  FlowserverConfig cfg_a = sharded_config();
  FlowserverConfig cfg_b = sharded_config();
  cfg_b.poll_groups = 4;
  Flowserver sweep(fabric_a, cfg_a);
  Flowserver rotated(fabric_b, cfg_b);

  net::PathCache cache(tree_.topo);
  for (int i = 0; i < 8; ++i) {
    const net::NodeId src = tree_.hosts[static_cast<std::size_t>(i) * 4];
    const net::NodeId dst = tree_.hosts[static_cast<std::size_t>(i) * 4 + 1];
    const net::Path path = cache.get(src, dst)[0];
    for (sdn::SdnFabric* fabric : {&fabric_a, &fabric_b}) {
      const sdn::Cookie c = static_cast<sdn::Cookie>(500 + i);
      fabric->install_path(c, path);
      fabric->start_flow(c, path, 1e9);
    }
    sweep.table().add(static_cast<sdn::Cookie>(500 + i), path, 1e9, 60e6,
                      sim::SimTime{});
    rotated.table().add(static_cast<sdn::Cookie>(500 + i), path, 1e9, 60e6,
                        sim::SimTime{});
  }
  sweep.start();
  rotated.start();
  // Two full poll intervals: the first poll of a flow only seeds last_poll
  // bookkeeping; the second yields a measurement.
  events_a.run_until(sim::SimTime::from_seconds(2.1));
  events_b.run_until(sim::SimTime::from_seconds(2.1));

  EXPECT_EQ(sweep.stats_samples(), rotated.stats_samples());
  EXPECT_GT(rotated.stats_samples(), 0u);
  for (int i = 0; i < 8; ++i) {
    const auto* a = sweep.table().find(static_cast<sdn::Cookie>(500 + i));
    const auto* b = rotated.table().find(static_cast<sdn::Cookie>(500 + i));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(a->bw_bps, b->bw_bps) << "flow " << i;
  }
}

}  // namespace
}  // namespace mayflower::flowserver
