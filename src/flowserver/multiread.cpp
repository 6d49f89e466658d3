#include "flowserver/multiread.hpp"

#include <utility>

#include "common/assert.hpp"

namespace mayflower::flowserver {

std::vector<SubflowPlan> MultiReadPlanner::plan_readonly(
    net::NetworkView& scratch, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    const std::vector<sdn::Cookie>& cookies, SelectStats* stats) const {
  MAYFLOWER_ASSERT(cookies.size() >= 2);

  auto best1 =
      selector_->select(scratch, client, replicas, request_bytes, stats);
  if (!best1.has_value()) return {};

  std::vector<SubflowPlan> plans;
  const double b1 = best1->est_bw_bps;

  // Subflow 1 is registered in the scratch view's tentative scope, rolled
  // back before returning: round 2 must see subflow 1's bump, and nothing
  // else must see anything.
  scratch.begin_tentative();
  apply_candidate(scratch, *best1, cookies[0], request_bytes);

  // A zero-hop path cannot be beaten by adding a network subflow.
  if (!best1->path.links.empty()) {
    std::vector<net::NodeId> others;
    for (const net::NodeId r : replicas) {
      if (r != best1->replica) others.push_back(r);
    }
    if (!others.empty()) {
      const auto best2 =
          selector_->select(scratch, client, others, request_bytes, stats);
      if (best2.has_value() && !best2->path.links.empty()) {
        // Subflow 1's adjusted share if subflow 2 landed. best2 itself never
        // needs applying: the accept/reject test and the split sizing are
        // pure arithmetic over (b1_adjusted, b2). bumped holds at most ONE
        // entry per flow: flows_on_path deduplicates, and path_shares
        // already mins over every link the two paths share.
        double b1_adjusted = b1;
        bool matched = false;
        for (const auto& [cookie, bw] : best2->bumped) {
          if (cookie != cookies[0]) continue;
          MAYFLOWER_ASSERT_MSG(!matched,
                               "subflow 1 bumped twice by one candidate");
          matched = true;
          b1_adjusted = bw;
        }
        const double b2 = best2->est_bw_bps;
        const double combined = b1_adjusted + b2;
        if (combined > b1) {
          const double s1 = request_bytes * b1_adjusted / combined;
          const double s2 = request_bytes - s1;
          plans.resize(2);
          plans[0].candidate = std::move(*best1);
          plans[0].bytes = s1;
          plans[0].planned_bps = b1_adjusted;
          plans[1].candidate = std::move(*best2);
          plans[1].bytes = s2;
          plans[1].planned_bps = b2;
        }
      }
    }
  }
  scratch.rollback_tentative();

  if (plans.empty()) {
    plans.resize(1);
    plans[0].candidate = std::move(*best1);
    plans[0].bytes = request_bytes;
    plans[0].planned_bps = b1;
  }
  return plans;
}

void MultiReadPlanner::commit_plans(const std::vector<SubflowPlan>& plans,
                                    double request_bytes,
                                    const std::vector<sdn::Cookie>& cookies,
                                    sim::SimTime now) {
  MAYFLOWER_ASSERT(plans.size() <= 2 && cookies.size() >= plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    selector_->commit(plans[i].candidate, cookies[i], request_bytes, now);
  }
  if (plans.size() == 2) {
    selector_->table().setbw(cookies[0], plans[0].planned_bps, now);
    selector_->table().resize(cookies[0], plans[0].bytes, now);
    selector_->table().resize(cookies[1], plans[1].bytes, now);
  }
}

}  // namespace mayflower::flowserver
