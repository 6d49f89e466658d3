#include "flowserver/flow_state.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mayflower::flowserver {

void FlowStateTable::add(sdn::Cookie cookie, net::Path path,
                         double size_bytes, double est_bw_bps,
                         sim::SimTime now) {
  MAYFLOWER_ASSERT(size_bytes > 0.0 && est_bw_bps > 0.0);
  store_.add_flow(cookie, std::move(path), size_bytes, est_bw_bps);
  TrackedFlow t;
  t.last_poll_time = now;
  if (freeze_enabled_) {
    t.frozen = true;
    t.freeze_until = now + sim::SimTime::from_seconds(size_bytes / est_bw_bps);
  }
  tracked_.emplace(cookie, t);
  if (trace_ != nullptr) {
    trace_->flow_planned(cookie, now.seconds(), size_bytes, est_bw_bps);
  }
}

void FlowStateTable::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    trace_ = nullptr;
    freeze_suppressed_ = obs::Counter{};
    return;
  }
  trace_ = &hub->trace;
  freeze_suppressed_ =
      hub->metrics.counter("flowserver.table.freeze_suppressed");
}

std::size_t FlowStateTable::frozen_count(sim::SimTime now) const {
  std::size_t n = 0;
  for (const auto& [cookie, t] : tracked_) {
    if (t.frozen && now <= t.freeze_until) ++n;
  }
  return n;
}

void FlowStateTable::drop(sdn::Cookie cookie) {
  if (tracked_.erase(cookie) == 0) return;
  store_.drop_flow(cookie);
}

const TrackedFlow* FlowStateTable::tracked(sdn::Cookie cookie) const {
  const auto it = tracked_.find(cookie);
  return it == tracked_.end() ? nullptr : &it->second;
}

void FlowStateTable::setbw(sdn::Cookie cookie, double bw_bps,
                           sim::SimTime now) {
  const auto it = tracked_.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != tracked_.end(), "setbw on unknown flow");
  store_.set_flow_bps(cookie, bw_bps);
  if (freeze_enabled_) {
    it->second.frozen = true;
    it->second.freeze_until =
        now + sim::SimTime::from_seconds(store_.find(cookie)->remaining_bytes /
                                         bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_bw_set(cookie, bw_bps);
}

void FlowStateTable::resize(sdn::Cookie cookie, double new_size_bytes,
                            sim::SimTime now) {
  const auto it = tracked_.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != tracked_.end(), "resize on unknown flow");
  store_.resize_flow(cookie, new_size_bytes);
  if (freeze_enabled_ && it->second.frozen) {
    it->second.freeze_until =
        now + sim::SimTime::from_seconds(new_size_bytes /
                                         store_.find(cookie)->bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_resized(cookie, new_size_bytes);
}

void FlowStateTable::update_from_stats(sdn::Cookie cookie,
                                       double cumulative_bytes,
                                       sim::SimTime now) {
  const auto it = tracked_.find(cookie);
  if (it == tracked_.end()) return;  // raced with a drop; counters arrive late
  TrackedFlow& t = it->second;
  const net::NetworkView::Flow& f = *store_.find(cookie);

  // Remaining size always tracks the counter (§4: "remaining sizes of the
  // existing flows are measured through flow stats"), clamped at zero when
  // a sample overshoots the tracked size (multi-read resize can shrink the
  // size below what the counter already carried).
  store_.set_flow_remaining(cookie,
                            std::max(f.size_bytes - cumulative_bytes, 0.0));

  const double dt = (now - t.last_poll_time).seconds();
  const double delta = cumulative_bytes - t.last_poll_bytes;
  t.last_poll_bytes = cumulative_bytes;
  t.last_poll_time = now;
  if (dt <= 0.0) return;

  const bool accept = !t.frozen || now > t.freeze_until;
  if (accept) {
    const double measured = delta / dt;
    if (measured > 0.0) {
      store_.set_flow_bps(cookie, measured);
    }
    t.frozen = false;
  } else {
    // UPDATEBW suppressed: the frozen estimate outranks the measurement.
    ++freeze_suppressed_total_;
    freeze_suppressed_.inc();
    if (trace_ != nullptr) trace_->freeze_hit(cookie);
  }
}

}  // namespace mayflower::flowserver
