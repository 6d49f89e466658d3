// The Flowserver's view of every Mayflower-related flow in the network.
//
// Implements the bandwidth bookkeeping of Pseudocode 2 (§4.2):
//  * SETBW — after a selection commits, bumped flows get their *estimated*
//    share written and enter the update-freeze state for a period
//    proportional to their expected completion time (T = now + remaining/bw);
//  * UPDATEBW — a stats-poll measurement overwrites the estimate only if the
//    flow is not frozen or its freeze has expired.
//
// One flow store: each believed flow's path, size, remaining bytes and share
// live exactly once, in the net::NetworkView the table owns — the same
// object every decision reads (view()). The table applies every operation
// above to it and keeps beside it only what a decision never reads: the
// freeze horizon, the poll bookkeeping UPDATEBW measures from, and the obs
// hooks. Every mutation here is final — planning that must be undone (a
// rejected multi-read leg, §4.3) happens in a view tentative scope, never
// through the table. The table itself is intentionally non-copyable.
//
// Concurrency: the table is written only by the control thread (commits,
// polls, drops). Decision workers read the view between those writes, or
// private copies of it, and never the table.
#pragma once

#include <cstdint>
#include <map>

#include "net/network_view.hpp"
#include "net/paths.hpp"
#include "obs/observability.hpp"
#include "sdn/switch.hpp"
#include "sim/time.hpp"

namespace mayflower::flowserver {

// What the table tracks for a believed flow beside the store's belief.
struct TrackedFlow {
  bool frozen = false;
  sim::SimTime freeze_until;

  // Poll bookkeeping for measuring bandwidth as delta(bytes)/delta(t).
  double last_poll_bytes = 0.0;
  sim::SimTime last_poll_time;
};

class FlowStateTable {
 public:
  FlowStateTable() = default;
  FlowStateTable(const FlowStateTable&) = delete;
  FlowStateTable& operator=(const FlowStateTable&) = delete;

  // Registers a newly scheduled flow with its estimated share; the new flow
  // starts frozen (its estimate must survive until the next poll cycle).
  // When `freeze_enabled` is false (ablation) flows are never frozen.
  void add(sdn::Cookie cookie, net::Path path, double size_bytes,
           double est_bw_bps, sim::SimTime now);

  // Flow finished or was cancelled (the "drop request" the paper tracks).
  void drop(sdn::Cookie cookie);

  // SETBW: overwrite the share estimate and freeze (Pseudocode 2, 19-23).
  void setbw(sdn::Cookie cookie, double bw_bps, sim::SimTime now);

  // Adjusts a just-registered flow's size (multi-read split sizing, §4.3).
  // Refreshes the freeze horizon to match the new expected completion.
  void resize(sdn::Cookie cookie, double new_size_bytes, sim::SimTime now);

  // UPDATEBW: apply one stats-poll sample (Pseudocode 2, 12-18). The
  // remaining size is always refreshed from the counter, clamped at zero
  // when the sample overshoots the tracked size; the bandwidth only when
  // not frozen (or the freeze expired).
  void update_from_stats(sdn::Cookie cookie, double cumulative_bytes,
                         sim::SimTime now);

  void set_freeze_enabled(bool enabled) { freeze_enabled_ = enabled; }
  bool freeze_enabled() const { return freeze_enabled_; }

  // Attaches the flow tracer (plan registrations, resizes, SETBW, freeze
  // suppressions) and the freeze-suppression counter. Null detaches.
  void set_obs(obs::Observability* hub);

  // Entries whose share is a frozen estimate at `now` (freeze not expired).
  std::size_t frozen_count(sim::SimTime now) const;

  // Cumulative poll updates the freeze state suppressed (UPDATEBW rejected).
  std::uint64_t freeze_suppressed_total() const {
    return freeze_suppressed_total_;
  }

  // The believed flow (path, size, remaining bytes, share), or nullptr.
  const net::NetworkView::Flow* find(sdn::Cookie cookie) const {
    return store_.find(cookie);
  }
  // The freeze and poll state of a tracked flow, or nullptr.
  const TrackedFlow* tracked(sdn::Cookie cookie) const;
  bool contains(sdn::Cookie cookie) const { return find(cookie) != nullptr; }
  std::size_t size() const { return store_.flow_count(); }

  // The flow store as decisions read it. Its link sections are empty until
  // the owner overlays them (Flowserver::view, make_decision_view).
  const net::NetworkView& view() const { return store_; }
  // For the owner's link overlays and the planners' tentative scopes only:
  // believed flows change through the operations above.
  net::NetworkView& view() { return store_; }

 private:
  net::NetworkView store_;
  std::map<sdn::Cookie, TrackedFlow> tracked_;

  bool freeze_enabled_ = true;  // set once at wiring time
  std::uint64_t freeze_suppressed_total_ = 0;
  obs::FlowTracer* trace_ = nullptr;  // set once at wiring time
  obs::Counter freeze_suppressed_;
};

}  // namespace mayflower::flowserver
