#include "flowserver/flow_state.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "net/topology.hpp"

namespace mayflower::flowserver {
namespace {

sim::SimTime sec(double s) { return sim::SimTime::from_seconds(s); }

net::Path one_link_path(net::LinkId l) {
  net::Path p;
  p.links = {l};
  p.nodes = {0, 1};
  return p;
}

TEST(FlowStateTable, AddRegistersFrozenFlow) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  const net::NetworkView::Flow* f = t.find(1);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->bw_bps, 10.0);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 100.0);
  EXPECT_TRUE(t.tracked(1)->frozen);
  // Freeze horizon = expected completion: 100/10 = 10s.
  EXPECT_EQ(t.tracked(1)->freeze_until, sec(10.0));
}

TEST(FlowStateTable, DropErases) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.drop(1);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.tracked(1), nullptr);
  EXPECT_EQ(t.size(), 0u);
  t.drop(1);  // idempotent
}

TEST(FlowStateTable, FrozenFlowIgnoresBandwidthSamples) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  // Poll at t=1: 5 bytes moved => measured 5 B/s, but the flow is frozen
  // until t=10, so bw stays at the estimate.
  t.update_from_stats(1, 5.0, sec(1.0));
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 10.0);
  // Remaining is refreshed regardless.
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 95.0);
}

TEST(FlowStateTable, ExpiredFreezeAcceptsSamples) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 5.0, sec(1.0));       // frozen, rejected
  t.update_from_stats(1, 60.0, sec(11.0));     // past freeze_until=10
  // Measured: (60-5)/(11-1) = 5.5 B/s.
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 5.5);
  EXPECT_FALSE(t.tracked(1)->frozen);
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 40.0);
}

TEST(FlowStateTable, SetBwRefreezes) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 50.0, sec(11.0));  // unfreezes (measured 50/11)
  ASSERT_FALSE(t.tracked(1)->frozen);
  t.setbw(1, 25.0, sec(11.0));
  EXPECT_TRUE(t.tracked(1)->frozen);
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 25.0);
  // Horizon proportional to remaining (50) / bw (25) = 2s.
  EXPECT_EQ(t.tracked(1)->freeze_until, sec(13.0));
}

TEST(FlowStateTable, FreezeDisabledAcceptsEverySample) {
  FlowStateTable t;
  t.set_freeze_enabled(false);
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  EXPECT_FALSE(t.tracked(1)->frozen);
  t.update_from_stats(1, 5.0, sec(1.0));
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 5.0);
  t.setbw(1, 42.0, sec(2.0));
  EXPECT_FALSE(t.tracked(1)->frozen);  // SETBW does not freeze either
}

TEST(FlowStateTable, StatsForUnknownCookieAreIgnored) {
  FlowStateTable t;
  t.update_from_stats(404, 10.0, sec(1.0));  // must not crash or create
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowStateTable, RemainingNeverGoesNegative) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 150.0, sec(1.0));  // counter overshoot
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 0.0);
}

TEST(FlowStateTable, ResizeAdjustsSizeRemainingAndHorizon) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.resize(1, 40.0, sec(0));
  const net::NetworkView::Flow* f = t.find(1);
  EXPECT_DOUBLE_EQ(f->size_bytes, 40.0);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 40.0);
  EXPECT_EQ(t.tracked(1)->freeze_until, sec(4.0));
}

TEST(FlowStateTable, FlowsOnLinkFiltersByPath) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(2, one_link_path(1), 10.0, 1.0, sec(0));
  net::Path both;
  both.links = {0, 1};
  both.nodes = {0, 1, 2};
  t.add(3, both, 10.0, 1.0, sec(0));
  const net::NetworkView& view = t.view();
  EXPECT_EQ(view.flows_on_link(0).size(), 2u);
  EXPECT_EQ(view.flows_on_link(1).size(), 2u);
  EXPECT_EQ(view.flows_on_link(7).size(), 0u);
}

TEST(FlowStateTable, FlowsOnPathDeduplicates) {
  FlowStateTable t;
  net::Path both;
  both.links = {0, 1};
  both.nodes = {0, 1, 2};
  t.add(1, both, 10.0, 1.0, sec(0));  // crosses both links of the query path
  EXPECT_EQ(t.view().flows_on_path(both).size(), 1u);
}

TEST(FlowStateTable, RemainingClampsAfterResizeOvershoot) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 60.0, sec(1.0));  // counter already carried 60
  t.resize(1, 40.0, sec(1.0));             // multi-read shrinks below that
  t.update_from_stats(1, 70.0, sec(2.0));  // next poll overshoots the size
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 0.0);
}

TEST(FlowStateTable, FlowsOnLinkIteratesInCookieOrder) {
  FlowStateTable t;
  t.add(9, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(2, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(5, one_link_path(0), 10.0, 1.0, sec(0));
  const net::NetworkView& view = t.view();
  const auto flows = view.flows_on_link(0);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0]->key, 2u);
  EXPECT_EQ(flows[1]->key, 5u);
  EXPECT_EQ(flows[2]->key, 9u);
}

TEST(FlowStateTable, EveryOperationLandsInTheViewDecisionsRead) {
  // One flow store: add, SETBW, resize, UPDATEBW and drop all act on the
  // object view() returns — there is no copy to refresh.
  FlowStateTable t;
  const net::NetworkView& view = t.view();
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  ASSERT_EQ(view.flows_on_link(0).size(), 1u);
  EXPECT_EQ(view.flows_on_link(0)[0], t.find(1));
  t.setbw(1, 8.0, sec(1.0));
  EXPECT_DOUBLE_EQ(view.find(1)->bw_bps, 8.0);
  t.resize(1, 60.0, sec(1.0));
  EXPECT_DOUBLE_EQ(view.find(1)->size_bytes, 60.0);
  t.update_from_stats(1, 20.0, sec(2.0));
  EXPECT_DOUBLE_EQ(view.find(1)->remaining_bytes, 40.0);
  t.drop(1);
  EXPECT_EQ(view.flow_count(), 0u);
  EXPECT_TRUE(view.flows_on_link(0).empty());
}

}  // namespace
}  // namespace mayflower::flowserver
