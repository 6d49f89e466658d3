// NetworkView: everything a control-plane decision is allowed to read — link
// capacities and liveness, per-link transmit rates (edge-uplink
// utilization), the controller's believed per-flow shares, and optionally
// per-transfer data-plane telemetry.
//
// For the Flowserver the flow section is THE flow store: the
// FlowStateTable owns one view and applies every Pseudocode 2 operation
// (add, drop, SETBW, resize, UPDATEBW, fault drops) to it, and decisions
// read that same object. There is no second copy to rebuild or refresh;
// only the link sections are re-overlaid when the fabric's fault epoch or
// the rate monitor moves. Schemes without a flow table (ECMP, Hedera) get
// link-only views from sdn::ViewBuilder. Every consumer of one decision
// batch — the replica/path selector, the multi-read planner, write
// placement and the replica policies — reads the same state; decision
// workers read private copies taken at batch start.
//
// The flow section answers what decisions query: a per-link reverse index
// (LinkIndex) keeps flows_on_link / flows_on_path at O(flows actually
// crossing the links) in key order, and a bounded undo log provides the
// tentative scope the read-only planners (multi-read split, write chain)
// plan inside.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/link_index.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mayflower::net {

class NetworkView {
 public:
  // One believed flow. The key is the fabric cookie (the net layer does not
  // name sdn types).
  struct Flow {
    std::uint64_t key = 0;
    Path path;
    double size_bytes = 0.0;
    double remaining_bytes = 0.0;
    double bw_bps = 0.0;
  };

  // Data-plane telemetry for one active transfer (what an edge switch's
  // per-flow counters legitimately expose); consumed by Hedera-style
  // schedulers that measure rather than believe.
  struct FlowStats {
    double bytes_sent = 0.0;
    Path path;
  };

  // --- link sections ------------------------------------------------------

  // Stamps the view with the epoch and time its link sections were taken.
  void stamp(std::uint64_t epoch, sim::SimTime built_at) {
    epoch_ = epoch;
    built_at_ = built_at;
  }

  // Sizes the link sections from the topology: every link up, at its
  // CONFIGURED capacity. Decisions model the fabric the operator built, not
  // the degraded one (degradations are corrected by the stats resync), so
  // capacity here must stay the configured value. Clears flows and stats.
  void reset_links(const Topology& topo);

  // Re-initializes ONLY the link sections (capacity, liveness, tx rates,
  // data-plane stats) from the topology, leaving the believed-flow section
  // untouched — how a flow store picks up a fault or a new rate sample.
  void refresh_link_state(const Topology& topo);

  void mark_link_down(LinkId link);
  void set_tx_rate(LinkId link, double bps);
  void set_flow_stats(std::uint64_t key, FlowStats stats);

  // --- network facts ----------------------------------------------------

  std::uint64_t epoch() const { return epoch_; }
  sim::SimTime built_at() const { return built_at_; }
  std::size_t link_count() const { return capacity_bps_.size(); }

  bool link_up(LinkId link) const;
  double capacity_bps(LinkId link) const;
  // Measured transmit rate (bytes/s) of `link`; 0 unless a rate monitor
  // populated it at build time.
  double tx_rate_bps(LinkId link) const;
  // True iff every link of `path` is up (zero-hop paths are always alive).
  bool path_alive(const Path& path) const;

  // --- believed flows ---------------------------------------------------

  const Flow* find(std::uint64_t key) const;
  std::size_t flow_count() const { return flows_.size(); }

  // Flows crossing `link`, in key order (deterministic). O(flows on link).
  std::vector<const Flow*> flows_on_link(LinkId link) const;
  // Flows crossing any link of `path`, deduplicated, key order.
  std::vector<const Flow*> flows_on_path(const Path& path) const;

  // --- data-plane telemetry ---------------------------------------------

  const FlowStats* flow_stats(std::uint64_t key) const;
  const std::map<std::uint64_t, FlowStats>& all_flow_stats() const {
    return stats_;
  }

  // --- flow mutations -----------------------------------------------------
  //
  // The flow store's owner applies its committed operations here; planners
  // apply tentative ones inside the scope below. All honor that scope.

  void add_flow(std::uint64_t key, Path path, double size_bytes,
                double bw_bps);
  void set_flow_bps(std::uint64_t key, double bw_bps);
  // Resizes a flow and resets its remaining bytes to the new size.
  void resize_flow(std::uint64_t key, double new_size_bytes);
  // Sets what a stats poll measured as still to move.
  void set_flow_remaining(std::uint64_t key, double remaining_bytes);
  void drop_flow(std::uint64_t key);

  // --- tentative scope (read-only planning) -----------------------------
  //
  // A bounded undo log: first-touch prior state is recorded between begin
  // and rollback, which restores it; scopes do not nest.

  void begin_tentative();
  void rollback_tentative();
  bool tentative_active() const { return tentative_; }

 private:
  void record_undo(std::uint64_t key);

  std::uint64_t epoch_ = 0;
  sim::SimTime built_at_;

  std::vector<double> capacity_bps_;
  std::vector<char> up_;
  std::vector<double> tx_rate_bps_;

  std::map<std::uint64_t, Flow> flows_;
  LinkIndex index_;  // link -> keys of believed flows crossing it
  std::map<std::uint64_t, FlowStats> stats_;

  bool tentative_ = false;
  std::vector<std::pair<std::uint64_t, std::optional<Flow>>> undo_;
};

}  // namespace mayflower::net
