#include "flowserver/multiread.hpp"

#include <gtest/gtest.h>

#include "figure2_fixture.hpp"

namespace mayflower::flowserver {
namespace {

using testing::Figure2;

// Plans read-only against `view`, then commits the plan to the selector's
// table — the Flowserver's evaluate-then-replay sequence for one request.
std::vector<SubflowPlan> plan_then_commit(MultiReadPlanner& planner,
                                          net::NetworkView& view,
                                          net::NodeId client,
                                          const std::vector<net::NodeId>& reps,
                                          double bytes) {
  const std::vector<sdn::Cookie> cookies{900, 901};
  std::vector<SubflowPlan> plans =
      planner.plan_readonly(view, client, reps, bytes, cookies);
  planner.commit_plans(plans, bytes, cookies, sim::SimTime{});
  return plans;
}

TEST(MultiRead, SingleReplicaNeverSplits) {
  Figure2 fig;
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  MultiReadPlanner planner(selector);
  net::NetworkView view = fig.view();
  const auto plans = plan_then_commit(planner, view, fig.D, {fig.S}, 9.0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_DOUBLE_EQ(plans[0].bytes, 9.0);
  EXPECT_NE(fig.table.find(900), nullptr);
  EXPECT_EQ(fig.table.find(901), nullptr);
}

TEST(MultiRead, SplitsWhenReplicasAvoidSharedBottleneck) {
  // Replica S behind Es (best share 3, as in Figure 2) and replica S2
  // behind Ed with a 6-unit uplink. Together: subflow1 = 6 via S2,
  // subflow2 = 3 via S => combined 9 > 6. Split expected, sized so both
  // subflows finish together.
  Figure2 fig;
  const net::NodeId s2 = fig.topo.add_node(net::NodeKind::kHost, "S2");
  fig.topo.add_duplex(s2, fig.Ed, 6.0);
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  MultiReadPlanner planner(selector);
  net::NetworkView view = fig.view();

  const auto plans = plan_then_commit(planner, view, fig.D, {fig.S, s2}, 9.0);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_NE(plans[0].candidate.replica, plans[1].candidate.replica);

  // Greedy first pick: S2 at share 6; second subflow from S at share 3.
  EXPECT_EQ(plans[0].candidate.replica, s2);
  EXPECT_NEAR(plans[0].planned_bps, 6.0, 1e-9);
  EXPECT_EQ(plans[1].candidate.replica, fig.S);
  EXPECT_NEAR(plans[1].planned_bps, 3.0, 1e-9);

  // Sizes proportional to shares: 9 * 6/9 = 6 and 9 * 3/9 = 3.
  EXPECT_NEAR(plans[0].bytes, 6.0, 1e-9);
  EXPECT_NEAR(plans[1].bytes, 3.0, 1e-9);
  EXPECT_NEAR(plans[0].bytes + plans[1].bytes, 9.0, 1e-12);

  // Equal estimated finish times.
  EXPECT_NEAR(plans[0].bytes / plans[0].planned_bps,
              plans[1].bytes / plans[1].planned_bps, 1e-9);

  // Both flows registered with their split sizes.
  ASSERT_NE(fig.table.find(900), nullptr);
  ASSERT_NE(fig.table.find(901), nullptr);
  EXPECT_NEAR(fig.table.find(900)->size_bytes, 6.0, 1e-9);
  EXPECT_NEAR(fig.table.find(901)->size_bytes, 3.0, 1e-9);
}

TEST(MultiRead, RejectsSplitSharingTheBottleneck) {
  // Two replicas behind the same edge switch, and the client's access link
  // is the bottleneck: splitting cannot beat a single flow.
  net::Topology topo;
  const auto s1 = topo.add_node(net::NodeKind::kHost, "s1");
  const auto s2 = topo.add_node(net::NodeKind::kHost, "s2");
  const auto d = topo.add_node(net::NodeKind::kHost, "d");
  const auto es = topo.add_node(net::NodeKind::kEdgeSwitch, "es");
  const auto ed = topo.add_node(net::NodeKind::kEdgeSwitch, "ed");
  topo.add_duplex(s1, es, 10.0);
  topo.add_duplex(s2, es, 10.0);
  topo.add_duplex(es, ed, 10.0);
  topo.add_duplex(ed, d, 3.0);  // client bottleneck

  FlowStateTable table;
  net::PathCache cache(topo);
  ReplicaPathSelector selector(topo, cache, table);
  MultiReadPlanner planner(selector);
  net::NetworkView view = make_decision_view(topo, table);
  const auto plans = plan_then_commit(planner, view, d, {s1, s2}, 9.0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_DOUBLE_EQ(plans[0].bytes, 9.0);
  EXPECT_NEAR(plans[0].planned_bps, 3.0, 1e-9);
  // The rejected subflow never reached the table.
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(901), nullptr);
}

TEST(MultiRead, SplitsAcrossFigure2sTwoAggPaths) {
  // Both replicas behind Es: paths via A and via B have *independent*
  // 3-share bottlenecks, so reading both in parallel doubles throughput.
  Figure2 fig;
  const net::NodeId s2 = fig.topo.add_node(net::NodeKind::kHost, "S2");
  fig.topo.add_duplex(s2, fig.Es, 10.0);
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  MultiReadPlanner planner(selector);
  net::NetworkView view = fig.view();
  const auto plans = plan_then_commit(planner, view, fig.D, {fig.S, s2}, 9.0);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_NEAR(plans[0].planned_bps + plans[1].planned_bps, 6.0, 1e-9);
  // 3:3 shares => even split.
  EXPECT_NEAR(plans[0].bytes, 4.5, 1e-9);
  EXPECT_NEAR(plans[1].bytes, 4.5, 1e-9);
}

TEST(MultiRead, SplitSizingIsConsistentWhenSubflowsShareTwoLinks) {
  // Both subflows funnel through the SAME two links (M->Ed and Ed->D), so
  // subflow 2's candidate computes subflow 1's reduced share across more
  // than one shared link. The bumped list must still carry exactly one
  // entry for subflow 1 (flows_on_path deduplicates; path_shares mins
  // over all shared links) — the planner asserts that invariant, and the
  // split must tile the request and finish both legs together.
  //
  //   S1 --8--> M --10--> Ed --10--> D
  //   S2 --6--> M
  net::Topology topo;
  const auto s1 = topo.add_node(net::NodeKind::kHost, "S1");
  const auto s2 = topo.add_node(net::NodeKind::kHost, "S2");
  const auto d = topo.add_node(net::NodeKind::kHost, "D");
  const auto m = topo.add_node(net::NodeKind::kEdgeSwitch, "M");
  const auto ed = topo.add_node(net::NodeKind::kEdgeSwitch, "Ed");
  topo.add_duplex(s1, m, 8.0);
  topo.add_duplex(s2, m, 6.0);
  topo.add_duplex(m, ed, 10.0);
  topo.add_duplex(ed, d, 10.0);

  FlowStateTable table;
  net::PathCache cache(topo);
  ReplicaPathSelector selector(topo, cache, table);
  MultiReadPlanner planner(selector);

  const double request = 10.0;
  net::NetworkView view = make_decision_view(topo, table);
  const auto plans = plan_then_commit(planner, view, d, {s1, s2}, request);
  ASSERT_EQ(plans.size(), 2u);

  // Greedy pick: S1 at min(8,10,10) = 8. Subflow 2 from S2: max-min on the
  // shared 10-links gives each flow 5, access 6 => b2 = 5 and subflow 1 is
  // bumped 8 -> 5 (the same value on both shared links).
  EXPECT_EQ(plans[0].candidate.replica, s1);
  EXPECT_EQ(plans[1].candidate.replica, s2);
  EXPECT_NEAR(plans[0].planned_bps, 5.0, 1e-9);
  EXPECT_NEAR(plans[1].planned_bps, 5.0, 1e-9);

  // s1 + s2 tiles the request exactly...
  EXPECT_NEAR(plans[0].bytes + plans[1].bytes, request, 1e-12);
  EXPECT_NEAR(plans[0].bytes, 5.0, 1e-9);
  EXPECT_NEAR(plans[1].bytes, 5.0, 1e-9);
  // ...and both subflows finish together at their planned shares.
  EXPECT_NEAR(plans[0].bytes / plans[0].planned_bps,
              plans[1].bytes / plans[1].planned_bps, 1e-9);

  // The committed table agrees with the plan.
  ASSERT_NE(table.find(900), nullptr);
  ASSERT_NE(table.find(901), nullptr);
  EXPECT_NEAR(table.find(900)->bw_bps, 5.0, 1e-9);
  EXPECT_NEAR(table.find(900)->size_bytes, 5.0, 1e-9);
  EXPECT_NEAR(table.find(901)->size_bytes, 5.0, 1e-9);
}

}  // namespace
}  // namespace mayflower::flowserver
