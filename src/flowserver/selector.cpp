#include "flowserver/selector.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mayflower::flowserver {

Candidate evaluate_path(const BandwidthModel& model,
                        const net::NetworkView& view, net::NodeId replica,
                        const net::Path& path, double request_bytes) {
  MAYFLOWER_ASSERT(request_bytes > 0.0);
  Candidate c;
  c.replica = replica;
  c.path = path;
  const BandwidthModel::PathShares shares = model.path_shares(view, path);
  c.est_bw_bps = shares.new_flow_bps;
  MAYFLOWER_ASSERT_MSG(c.est_bw_bps > 0.0, "estimated share must be positive");
  c.cost.own_time = request_bytes / c.est_bw_bps;

  // shares.flows is flows_on_path (cookie order), so the impact term costs
  // O(flows actually sharing the path), not O(table).
  for (std::size_t i = 0; i < shares.flows.size(); ++i) {
    const net::NetworkView::Flow* f = shares.flows[i];
    const double cur = f->bw_bps;
    const double reduced = shares.reduced_bps[i];
    if (reduced < cur) {
      const double r = f->remaining_bytes;
      c.cost.impact += r / reduced - r / cur;
      c.bumped.emplace_back(f->key, reduced);
    }
  }
  c.cost.total = c.cost.own_time + c.cost.impact;
  return c;
}

void apply_candidate(net::NetworkView& view, const Candidate& chosen,
                     sdn::Cookie cookie, double request_bytes) {
  for (const auto& [bumped_cookie, new_bps] : chosen.bumped) {
    if (view.find(bumped_cookie) != nullptr) {
      view.set_flow_bps(bumped_cookie, new_bps);
    }
  }
  view.add_flow(cookie, chosen.path, request_bytes, chosen.est_bw_bps);
}

net::NetworkView make_decision_view(const net::Topology& topo,
                                    const FlowStateTable& table,
                                    std::uint64_t epoch,
                                    sim::SimTime built_at) {
  net::NetworkView view = table.view();
  view.refresh_link_state(topo);
  view.stamp(epoch, built_at);
  return view;
}

std::optional<Candidate> ReplicaPathSelector::select(
    const net::NetworkView& view, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    SelectStats* stats) const {
  std::optional<Candidate> best;
  for (const net::NodeId replica : replicas) {
    // Data flows replica -> client; paths are enumerated in that direction.
    for (const net::Path& p : paths_->get(replica, client)) {
      if (!view.path_alive(p)) continue;
      Candidate c = evaluate_path(model_, view, replica, p, request_bytes);
      if (stats != nullptr) ++stats->candidates_evaluated;
      if (!impact_aware_) c.cost.total = c.cost.own_time;
      if (!best.has_value() || c.cost.total < best->cost.total) {
        best = std::move(c);
      }
    }
  }
  return best;
}

void ReplicaPathSelector::commit(const Candidate& chosen, sdn::Cookie cookie,
                                 double request_bytes, sim::SimTime now) {
  for (const auto& [bumped_cookie, new_bps] : chosen.bumped) {
    const net::NetworkView::Flow* f = table_->find(bumped_cookie);
    if (f == nullptr) continue;  // finished between select() and commit()
    // The reduced share was computed from the state the selection read. A
    // stats poll (or an earlier commit) since then may have *lowered* the
    // flow's share below our estimate; SETBW must never raise a flow above
    // what the fabric currently gives it, so clamp against the table.
    table_->setbw(bumped_cookie, std::min(f->bw_bps, new_bps), now);
  }
  table_->add(cookie, chosen.path, request_bytes, chosen.est_bw_bps, now);
}

}  // namespace mayflower::flowserver
