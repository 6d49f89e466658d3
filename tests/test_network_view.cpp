// Unit tests of the NetworkView: link facts, believed flows with their
// per-link index, flow mutations and the bounded tentative scope the
// multi-read planner relies on.
#include "net/network_view.hpp"

#include <gtest/gtest.h>

#include "net/tree.hpp"

namespace mayflower::net {
namespace {

class NetworkViewTest : public ::testing::Test {
 protected:
  NetworkViewTest() : tree_(build_three_tier(ThreeTierConfig{})) {
    view_.reset_links(tree_.topo);
  }

  Path path_between(NodeId a, NodeId b) {
    return shortest_paths(tree_.topo, a, b).at(0);
  }

  ThreeTier tree_;
  NetworkView view_;
};

TEST_F(NetworkViewTest, ResetLinksStartsEverythingUpAtConfiguredCapacity) {
  ASSERT_EQ(view_.link_count(), tree_.topo.link_count());
  for (LinkId l = 0; l < static_cast<LinkId>(view_.link_count()); ++l) {
    EXPECT_TRUE(view_.link_up(l));
    EXPECT_DOUBLE_EQ(view_.capacity_bps(l), tree_.topo.link(l).capacity_bps);
    EXPECT_DOUBLE_EQ(view_.tx_rate_bps(l), 0.0);  // no monitor attached
  }
  EXPECT_EQ(view_.flow_count(), 0u);
}

TEST_F(NetworkViewTest, StampRecordsEpochAndBuildTime) {
  view_.stamp(42, sim::SimTime::from_seconds(3.5));
  EXPECT_EQ(view_.epoch(), 42u);
  EXPECT_DOUBLE_EQ(view_.built_at().seconds(), 3.5);
}

TEST_F(NetworkViewTest, PathAliveTracksMarkedDownLinks) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[16]);
  EXPECT_TRUE(view_.path_alive(p));
  view_.mark_link_down(p.links[1]);
  EXPECT_FALSE(view_.path_alive(p));
  EXPECT_FALSE(view_.link_up(p.links[1]));
  // Zero-hop paths (host-local reads) are always alive.
  EXPECT_TRUE(view_.path_alive(Path{}));
}

TEST_F(NetworkViewTest, TxRatesAreIndependentPerLink) {
  view_.set_tx_rate(3, 1.5e6);
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(3), 1.5e6);
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(4), 0.0);
}

TEST_F(NetworkViewTest, FlowsOnLinkAndPathComeBackInKeyOrder) {
  const Path p1 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path p2 = path_between(tree_.hosts[2], tree_.hosts[1]);
  // Insert out of key order; lookups must still return ascending keys.
  view_.add_flow(9, p1, 1e6, 1e6);
  view_.add_flow(4, p2, 1e6, 1e6);
  view_.add_flow(7, p1, 1e6, 1e6);

  // p1 and p2 share the downlink into hosts[1] (the last link).
  const LinkId shared = p1.links.back();
  ASSERT_EQ(shared, p2.links.back());
  const auto on_shared = view_.flows_on_link(shared);
  ASSERT_EQ(on_shared.size(), 3u);
  EXPECT_EQ(on_shared[0]->key, 4u);
  EXPECT_EQ(on_shared[1]->key, 7u);
  EXPECT_EQ(on_shared[2]->key, 9u);

  // flows_on_path deduplicates a flow crossing several of the path's links.
  const auto on_p1 = view_.flows_on_path(p1);
  ASSERT_EQ(on_p1.size(), 3u);  // 9 and 7 fully overlap, 4 joins at the end
  EXPECT_EQ(on_p1[0]->key, 4u);
  EXPECT_EQ(on_p1[1]->key, 7u);
  EXPECT_EQ(on_p1[2]->key, 9u);

  // A disjoint path sees nothing.
  const Path far = path_between(tree_.hosts[40], tree_.hosts[41]);
  EXPECT_TRUE(view_.flows_on_path(far).empty());
}

TEST_F(NetworkViewTest, WriteThroughMutationsUpdateFlowsAndIndex) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.add_flow(1, p, 8e6, 2e6);
  const NetworkView::Flow* f = view_.find(1);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 8e6);

  view_.set_flow_bps(1, 5e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 5e6);
  view_.resize_flow(1, 3e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->size_bytes, 3e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->remaining_bytes, 3e6);
  view_.set_flow_remaining(1, 1e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->size_bytes, 3e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->remaining_bytes, 1e6);

  view_.drop_flow(1);
  EXPECT_EQ(view_.find(1), nullptr);
  EXPECT_TRUE(view_.flows_on_path(p).empty());  // index pruned too
  view_.drop_flow(1);  // idempotent
}

TEST_F(NetworkViewTest, FlowStatsKeyedByCookie) {
  NetworkView::FlowStats s;
  s.bytes_sent = 123.0;
  s.path = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.set_flow_stats(77, s);
  ASSERT_NE(view_.flow_stats(77), nullptr);
  EXPECT_DOUBLE_EQ(view_.flow_stats(77)->bytes_sent, 123.0);
  EXPECT_EQ(view_.flow_stats(78), nullptr);
  EXPECT_EQ(view_.all_flow_stats().size(), 1u);
}

TEST_F(NetworkViewTest, RollbackRestoresPreTentativeState) {
  const Path p1 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path p2 = path_between(tree_.hosts[2], tree_.hosts[3]);
  view_.add_flow(1, p1, 8e6, 2e6);

  view_.begin_tentative();
  EXPECT_TRUE(view_.tentative_active());
  view_.set_flow_bps(1, 9e6);        // mutate an existing flow
  view_.set_flow_bps(1, 1e6);        // twice: undo must keep FIRST-touch state
  view_.set_flow_remaining(1, 3e6);
  view_.add_flow(2, p2, 4e6, 1e6);  // and add a new one
  view_.rollback_tentative();

  EXPECT_FALSE(view_.tentative_active());
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 2e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->remaining_bytes, 8e6);
  EXPECT_EQ(view_.find(2), nullptr);
  EXPECT_TRUE(view_.flows_on_path(p2).empty());
}

TEST_F(NetworkViewTest, RollbackResurrectsDroppedFlow) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.add_flow(1, p, 8e6, 2e6);
  view_.begin_tentative();
  view_.drop_flow(1);
  EXPECT_EQ(view_.find(1), nullptr);
  view_.rollback_tentative();
  ASSERT_NE(view_.find(1), nullptr);
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 2e6);
  ASSERT_EQ(view_.flows_on_path(p).size(), 1u);  // back in the index
}

TEST_F(NetworkViewTest, RefreshLinkStateKeepsBelievedFlows) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.add_flow(1, p, 8e6, 2e6);
  view_.mark_link_down(p.links[0]);
  view_.set_tx_rate(p.links[0], 5e6);
  view_.refresh_link_state(tree_.topo);
  // Link sections are re-initialized (all up, configured capacity, no
  // rates)...
  EXPECT_TRUE(view_.link_up(p.links[0]));
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(p.links[0]), 0.0);
  // ...while the believed-flow section survives untouched.
  ASSERT_NE(view_.find(1), nullptr);
  EXPECT_EQ(view_.flows_on_path(p).size(), 1u);
}

}  // namespace
}  // namespace mayflower::net
