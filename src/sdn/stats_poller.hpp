// Periodic task helper: drives the Flowserver's and Sinbad-R's stats
// collection cycles ("periodically fetching from the edge switches the byte
// counters", §3.3.3).
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace mayflower::sdn {

class StatsPoller {
 public:
  using TickFn = std::function<void()>;

  StatsPoller(sim::EventQueue& events, sim::SimTime interval, TickFn on_tick);
  ~StatsPoller();

  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }
  sim::SimTime interval() const { return interval_; }

  // Splits each collection cycle into `n` staggered ticks (fired at
  // interval/n) so a consumer can sweep 1/n of the edge switches per tick:
  // every edge is still polled once per interval, but its samples land on
  // its own tick. Must be set while stopped; 1 restores the single-sweep
  // cycle.
  void set_groups(std::uint32_t n);
  std::uint32_t groups() const { return groups_; }

  // Staggered sub-ticks fired since construction — groups() of them per
  // collection cycle (with groups() == 1 a tick IS a cycle). Use cycles()
  // to compare work per interval across different --poll-groups settings;
  // ticks() counts callback firings.
  std::uint64_t ticks() const { return ticks_; }

  // Completed collection cycles: every edge has been swept exactly
  // cycles() times. Advances once per groups() consecutive ticks, so it is
  // comparable across grouping configurations — ticks() is not (it runs
  // groups() times faster), which is exactly the historical off-by-G bug in
  // work-per-cycle accounting this accessor fixes.
  std::uint64_t cycles() const { return cycles_; }

  // Publishes the sub-tick counter (sdn.poller.ticks) and the cycle counter
  // (sdn.poller.cycles) into `registry`. Per-cycle *work* (samples applied)
  // is histogrammed by the consumer, which is what latency means in a
  // deterministic simulation — see DESIGN.md "Observability".
  void set_metrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) {
      ticks_metric_ = obs::Counter{};
      cycles_metric_ = obs::Counter{};
      return;
    }
    ticks_metric_ = registry->counter("sdn.poller.ticks");
    cycles_metric_ = registry->counter("sdn.poller.cycles");
  }

 private:
  void arm();

  sim::EventQueue* events_;
  sim::SimTime interval_;
  std::uint32_t groups_ = 1;
  TickFn on_tick_;
  sim::EventId pending_;
  std::uint64_t ticks_ = 0;
  std::uint64_t cycles_ = 0;
  // Sub-ticks into the current cycle; cycles_ advances when this reaches
  // groups_. Reset by set_groups() so a regrouped poller starts a fresh
  // sweep instead of crediting a cycle early.
  std::uint32_t subticks_in_cycle_ = 0;
  obs::Counter ticks_metric_;
  obs::Counter cycles_metric_;
  // Bumped by every start()/stop(); armed events fire only if the epoch
  // still matches, so a stop() from inside a tick callback sticks.
  std::uint64_t epoch_ = 0;
  bool running_ = false;
};

}  // namespace mayflower::sdn
