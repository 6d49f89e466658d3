// Multi-replica parallel reads (§4.3).
//
// A read job is split into two subflows only when the combined estimated
// share beats the single best flow:
//   1. pick (replica, path) p1 greedily; tentatively add it to the view,
//   2. pick p2 from the *remaining* replicas (distinct replica avoids the
//      same server-side bottleneck),
//   3. p2's selection may have bumped subflow 1 to b1'; accept the split iff
//      b1' + b2 > b1, sizing S_i = d * b_i / (b1' + b2) so both subflows
//      finish together; otherwise keep the single read.
//
// Planning and committing are separate steps. plan_readonly() runs both
// selection rounds on a view — round 2 sees subflow 1's tentative
// registration — and restores the view before returning, so a rejected leg
// never reaches the table or the flow trace. commit_plans() then applies the
// chosen subflows to the table.
#pragma once

#include <vector>

#include "flowserver/selector.hpp"

namespace mayflower::flowserver {

struct SubflowPlan {
  Candidate candidate;
  double bytes = 0.0;        // portion of the request read via this subflow
  double planned_bps = 0.0;   // share the split sizing assumed
};

// Plans one read request: 1 entry (single read) or 2 (split read).
class MultiReadPlanner {
 public:
  explicit MultiReadPlanner(ReplicaPathSelector& selector)
      : selector_(&selector) {}

  // Plans against `scratch` — the flow store itself or a worker-private copy
  // of it — and leaves it exactly as found (the planning transcript runs
  // inside a view tentative scope and rolls back). Touches no table and no
  // live state, so workers may run it concurrently on their own scratches.
  // `cookies` must provide at least 2 ids; the plan uses the first
  // plans.size(). `stats` (optional) accumulates candidates across both
  // selection rounds. Empty when every replica is unreachable.
  std::vector<SubflowPlan> plan_readonly(
      net::NetworkView& scratch, net::NodeId client,
      const std::vector<net::NodeId>& replicas, double request_bytes,
      const std::vector<sdn::Cookie>& cookies,
      SelectStats* stats = nullptr) const;

  // Commits a plan from plan_readonly to the table: every subflow lands
  // with the full request size (stale-share clamp included); a split then
  // sets subflow 1's adjusted share and both subflows' split sizes.
  void commit_plans(const std::vector<SubflowPlan>& plans,
                    double request_bytes,
                    const std::vector<sdn::Cookie>& cookies, sim::SimTime now);

 private:
  ReplicaPathSelector* selector_;
};

}  // namespace mayflower::flowserver
