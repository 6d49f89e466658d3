#include "flowserver/flowserver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.hpp"

namespace mayflower::flowserver {

Flowserver::Flowserver(sdn::SdnFabric& fabric, FlowserverConfig config)
    : fabric_(&fabric),
      config_(config),
      paths_(fabric.topology()),
      selector_(fabric.topology(), paths_, table_),
      planner_(selector_),
      chain_planner_(selector_),
      poller_(fabric.events(), config.poll_interval,
              [this] { collect_stats(); }),
      rng_(config.seed),
      telemetry_(config.telemetry) {
  MAYFLOWER_ASSERT_MSG(config_.batch_size >= 1, "batch_size must be >= 1");
  MAYFLOWER_ASSERT_MSG(config_.decision_threads >= 1,
                       "decision_threads must be >= 1");
  MAYFLOWER_ASSERT_MSG(config_.poll_groups >= 1, "poll_groups must be >= 1");
  table_.set_freeze_enabled(config.freeze_enabled);
  selector_.set_impact_aware(config.impact_aware);
  selector_.model().set_zero_hop_bps(config.zero_hop_bps);
  // Failure awareness: a killed transfer's (frozen) estimate must expire —
  // its bandwidth is free again and SETBW state for it would be stale
  // forever. Path liveness itself reaches decisions through the view's
  // snapshot of fabric state, refreshed whenever the fault epoch moves.
  fabric_->add_flow_failure_listener([this](sdn::Cookie cookie) {
    table_.drop(cookie);
    telemetry_.forget(cookie);
  });
  // "Edge switch" in the polling sense: any switch with attached hosts. This
  // also covers hand-built topologies that do not label tiers.
  const net::Topology& topo = fabric.topology();
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind == net::NodeKind::kHost) continue;
    for (const net::LinkId l : topo.in_links(n)) {
      if (topo.node(topo.link(l).from).kind == net::NodeKind::kHost) {
        edge_switches_.push_back(n);
        break;
      }
    }
  }
  if (config_.poll_groups > 1) {
    poller_.set_groups(static_cast<std::uint32_t>(config_.poll_groups));
  }
  if (config_.obs == nullptr) return;
  obs::MetricsRegistry& m = config_.obs->metrics;
  table_.set_obs(config_.obs);
  poller_.set_metrics(&m);
  selections_metric_ = m.counter("flowserver.selections");
  split_reads_metric_ = m.counter("flowserver.split_reads");
  // Per-cycle work: counter samples applied in one collection cycle. In a
  // deterministic simulation this is what "poll tick latency" means — the
  // wall-clock cost is O(samples) through the per-edge index.
  poll_samples_hist_ = m.histogram(
      "flowserver.poll.samples_per_tick",
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  poll_applied_metric_ = m.counter("flowserver.poll.applied");
  poll_deferred_mouse_metric_ = m.counter("flowserver.poll.deferred_mouse");
  poll_deferred_budget_metric_ = m.counter("flowserver.poll.deferred_budget");
  poll_promotions_metric_ = m.counter("flowserver.poll.promotions");
  poll_demotions_metric_ = m.counter("flowserver.poll.demotions");
  poll_elephants_gauge_ = m.gauge("flowserver.poll.elephants");
  poll_mice_gauge_ = m.gauge("flowserver.poll.mice");
  write_chains_metric_ = m.counter("flowserver.write.chains");
  write_hops_metric_ = m.counter("flowserver.write.hops");
  write_truncated_metric_ = m.counter("flowserver.write.truncated");
  write_bottleneck_hist_ = m.histogram("flowserver.write.bottleneck_bps",
                                       {1e6, 1e7, 1e8, 1e9, 1e10});
}

void Flowserver::start() { poller_.start(); }
void Flowserver::stop() { poller_.stop(); }

const net::NetworkView& Flowserver::view() {
  net::NetworkView& v = table_.view();
  const std::uint64_t samples = monitor_ != nullptr ? monitor_->samples() : 0;
  if (links_built_ && fabric_->state_epoch() == seen_fabric_epoch_ &&
      samples == seen_monitor_samples_) {
    return v;
  }
  // O(links), and never reset_links: that would wipe the believed flows.
  v.refresh_link_state(fabric_->topology());
  fabric_->snapshot_liveness_into(v);
  if (monitor_ != nullptr) monitor_->snapshot_into(v);
  v.stamp(++view_epoch_, fabric_->events().now());
  seen_fabric_epoch_ = fabric_->state_epoch();
  seen_monitor_samples_ = samples;
  links_built_ = true;
  ++view_rebuilds_;
  return v;
}

ReadAssignment Flowserver::to_assignment(const Candidate& c,
                                         sdn::Cookie cookie,
                                         double bytes) const {
  ReadAssignment a;
  a.cookie = cookie;
  a.replica = c.replica;
  a.path = c.path;
  a.bytes = bytes;
  a.est_bw_bps = c.est_bw_bps;
  return a;
}

void Flowserver::audit_decision(const SelectStats& stats,
                                const CostBreakdown& cost, sim::SimTime now,
                                bool split) {
  if (config_.obs == nullptr) return;
  obs::DecisionAudit audit;
  audit.time_sec = now.seconds();
  audit.candidates = static_cast<std::uint32_t>(stats.candidates_evaluated);
  audit.own_time_sec = cost.own_time;
  audit.impact_sec = cost.impact;
  audit.frozen_flows = static_cast<std::uint32_t>(table_.frozen_count(now));
  audit.freeze_suppressed = table_.freeze_suppressed_total();
  audit.split = split;
  config_.obs->trace.decision(audit);
}

std::vector<net::NodeId> Flowserver::reachable_replicas(
    net::NodeId client, const std::vector<net::NodeId>& replicas) {
  std::vector<net::NodeId> live;
  live.reserve(replicas.size());
  for (const net::NodeId r : replicas) {
    for (const net::Path& p : paths_.get(r, client)) {
      if (table_.view().path_alive(p)) {
        live.push_back(r);
        break;
      }
    }
  }
  return live;
}

std::vector<ReadAssignment> Flowserver::finish_chain(
    const std::vector<ChainHopPlan>& plans,
    const std::vector<sdn::Cookie>& cookies, std::size_t requested_hops,
    double bytes, const SelectStats& stats, sim::SimTime now) {
  std::vector<ReadAssignment> out;
  out.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ReadAssignment a = to_assignment(plans[i].candidate, cookies[i], bytes);
    // A chain moves as one unit: report the jointly-scheduled rate, not the
    // hop's standalone share.
    a.est_bw_bps = plans[i].planned_bps;
    out.push_back(std::move(a));
  }
  if (plans.size() < requested_hops) {
    ++write_truncated_;
    write_truncated_metric_.inc();
  }
  if (!plans.empty()) {
    ++write_chains_;
    write_hops_ += plans.size();
    write_chains_metric_.inc();
    write_hops_metric_.inc(plans.size());
    write_bottleneck_hist_.observe(plans[0].planned_bps);
    audit_decision(stats, plans[0].candidate.cost, now, false);
  }
  return out;
}

void Flowserver::enqueue_read(net::NodeId client,
                              std::vector<net::NodeId> replicas, double bytes,
                              PlanCallback done, ReplicaChooser chooser) {
  enqueue(read_request(client, std::move(replicas), bytes, std::move(done),
                       std::move(chooser)));
}

void Flowserver::post_read(net::NodeId client,
                           std::vector<net::NodeId> replicas, double bytes,
                           PlanCallback done, ReplicaChooser chooser) {
  post(read_request(client, std::move(replicas), bytes, std::move(done),
                    std::move(chooser)));
}

void Flowserver::enqueue_write(std::vector<net::NodeId> chain, double bytes,
                               PlanCallback done) {
  enqueue(write_request(std::move(chain), bytes, std::move(done)));
}

void Flowserver::post_write(std::vector<net::NodeId> chain, double bytes,
                            PlanCallback done) {
  post(write_request(std::move(chain), bytes, std::move(done)));
}

Flowserver::PendingRead Flowserver::read_request(
    net::NodeId client, std::vector<net::NodeId> replicas, double bytes,
    PlanCallback done, ReplicaChooser chooser) {
  PendingRead p;
  p.client = client;
  p.replicas = std::move(replicas);
  p.bytes = bytes;
  p.chooser = std::move(chooser);
  p.done = std::move(done);
  return p;
}

Flowserver::PendingRead Flowserver::write_request(
    std::vector<net::NodeId> chain, double bytes, PlanCallback done) {
  MAYFLOWER_ASSERT_MSG(chain.size() >= 2, "a write chain needs >= 2 hosts");
  PendingRead p;
  p.client = chain.front();
  p.replicas = std::move(chain);
  p.bytes = bytes;
  p.write = true;
  p.done = std::move(done);
  return p;
}

void Flowserver::enqueue(PendingRead p) {
  bool size_triggered = false;
  bool arm_window = false;
  std::uint64_t gen = 0;
  {
    common::MutexLock lock(queue_mu_);
    queue_.push_back(std::move(p));
    size_triggered = queue_.size() >= config_.batch_size;
    if (!size_triggered && !drain_armed_) {
      drain_armed_ = true;
      arm_window = true;
      gen = drain_gen_;
    }
  }
  if (size_triggered) {
    drain();
    return;
  }
  if (arm_window) {
    fabric_->events().schedule_in(config_.batch_window, [this, gen] {
      // A size-triggered drain may have already flushed the batch this
      // event was armed for; in that case the generation moved on.
      if (!drain_generation_is(gen)) return;
      drain();
    });
  }
}

void Flowserver::post(PendingRead p) {
  common::MutexLock lock(queue_mu_);
  queue_.push_back(std::move(p));
}

std::vector<ReadAssignment> Flowserver::plan_write(
    const std::vector<net::NodeId>& chain, double bytes) {
  std::vector<ReadAssignment> out;
  enqueue_write(chain, bytes, [&out](std::vector<ReadAssignment> plan) {
    out = std::move(plan);
  });
  drain();  // no-op when the enqueue already size-triggered the batch
  return out;
}

std::size_t Flowserver::drain() {
  std::deque<PendingRead> batch;
  {
    common::MutexLock lock(queue_mu_);
    drain_armed_ = false;
    ++drain_gen_;
    if (queue_.empty()) return 0;
    batch.swap(queue_);
  }

  // One view for the whole batch. A fault or rate sample since the last
  // overlay refreshes its link sections here — never mid-batch.
  view();
  const sim::SimTime now = fabric_->events().now();

  std::vector<Decided> results;
  results.reserve(batch.size());
  decide_batch(batch, now, results);

  // Bulk path install: one fabric call, one install-metrics flush for the
  // whole batch. Must precede the callbacks — they start the flows.
  std::vector<sdn::SdnFabric::PathInstall> installs;
  for (const Decided& d : results) {
    for (const ReadAssignment& a : d.plan) {
      installs.push_back({a.cookie, &a.path});
    }
  }
  fabric_->install_paths(installs);

  for (Decided& d : results) {
    if (d.done) d.done(std::move(d.plan));
  }
  return batch.size();
}

void Flowserver::decide_batch(std::deque<PendingRead>& batch,
                              sim::SimTime now,
                              std::vector<Decided>& results) {
  net::NetworkView& view = table_.view();

  // --- pre-phase (serial, batch order) ----------------------------------
  // Everything order-sensitive that is NOT the evaluation itself happens
  // here: chooser policies run against the batch view, and multiread slots
  // pre-draw their cookie pair so cookie assignment is independent of which
  // worker later evaluates the slot.
  std::vector<Slot> slots(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingRead& req = batch[i];
    Slot& s = slots[i];
    s.client = req.client;
    s.bytes = req.bytes;
    if (req.replicas.empty()) {
      s.unavailable = true;
      continue;
    }
    if (req.write) {
      // Write slots pre-draw every hop cookie here — cookie assignment must
      // not depend on which worker evaluates the chain — burning the draws
      // even for hops that go unrouted.
      s.write = true;
      s.replicas = req.replicas;
      s.cookies.reserve(s.replicas.size() - 1);
      for (std::size_t h = 0; h + 1 < s.replicas.size(); ++h) {
        s.cookies.push_back(fabric_->new_cookie());
      }
      continue;
    }
    if (req.chooser != nullptr) {
      const std::vector<net::NodeId> live =
          reachable_replicas(req.client, req.replicas);
      if (live.empty()) {
        s.unavailable = true;
        continue;
      }
      s.replicas.assign(1, req.chooser(req.client, live, view));
      continue;
    }
    s.replicas = req.replicas;
    if (config_.multiread_enabled && s.replicas.size() > 1) {
      s.multiread = true;
      s.cookies = {fabric_->new_cookie(), fabric_->new_cookie()};
    }
  }

  // --- evaluate (parallel, against the batch-start view) -----------------
  // Nothing writes the flow store until the replay below. Single-path slots
  // read it directly (select() is pure). Multiread and write slots plan
  // inside a view tentative scope that plan_readonly rolls back, so each
  // slot sees exactly the batch-start state regardless of which worker runs
  // it or in what order — that is the determinism argument. One worker
  // plans on the store itself; a pool gives each worker a scratch copy.
  const auto evaluate = [this, &slots, &view](net::NetworkView& scratch,
                                              std::size_t i) {
    Slot& s = slots[i];
    if (s.unavailable) return;
    if (s.write) {
      s.chain = chain_planner_.plan_readonly(
          scratch, s.replicas, units::Bytes{s.bytes}, s.cookies, &s.stats);
    } else if (s.multiread) {
      s.plans = planner_.plan_readonly(scratch, s.client, s.replicas, s.bytes,
                                       s.cookies, &s.stats);
    } else {
      s.best = selector_.select(view, s.client, s.replicas, s.bytes,
                                &s.stats);
    }
  };
  if (config_.decision_threads == 1) {
    for (std::size_t i = 0; i < slots.size(); ++i) evaluate(view, i);
  } else {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<common::WorkerPool>(config_.decision_threads);
    }
    std::vector<net::NetworkView> scratch(config_.decision_threads, view);
    pool_->parallel_for(slots.size(),
                        [&evaluate, &scratch](std::size_t worker,
                                              std::size_t i) {
                          evaluate(scratch[worker], i);
                        });
  }

  // --- replay (serial, batch order) --------------------------------------
  // Commits go to the table with the usual stale-share clamp, so a slot
  // planned against the batch-start state can never raise a flow above what
  // an earlier slot's commit already lowered it to.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& s = slots[i];
    Decided d;
    d.done = std::move(batch[i].done);
    ++selections_;
    selections_metric_.inc();
    if (s.unavailable) {
      results.push_back(std::move(d));
      continue;
    }
    if (s.write) {
      chain_planner_.commit_plans(s.chain, units::Bytes{s.bytes}, s.cookies,
                                  now);
      d.plan = finish_chain(s.chain, s.cookies, s.cookies.size(), s.bytes,
                            s.stats, now);
      results.push_back(std::move(d));
      continue;
    }
    if (s.multiread) {
      planner_.commit_plans(s.plans, s.bytes, s.cookies, now);
      const bool split = s.plans.size() == 2;
      if (split) {
        ++split_reads_;
        split_reads_metric_.inc();
        if (config_.obs != nullptr) {
          config_.obs->trace.mark_split(s.cookies[0]);
          config_.obs->trace.mark_split(s.cookies[1]);
        }
      }
      for (std::size_t k = 0; k < s.plans.size(); ++k) {
        d.plan.push_back(to_assignment(s.plans[k].candidate, s.cookies[k],
                                       s.plans[k].bytes));
      }
      if (!s.plans.empty()) {
        audit_decision(s.stats, s.plans[0].candidate.cost, now, split);
      }
    } else if (s.best.has_value()) {
      // Single-path slots draw their cookie at replay, in batch order, and
      // only on success.
      const sdn::Cookie cookie = fabric_->new_cookie();
      selector_.commit(*s.best, cookie, s.bytes, now);
      d.plan.push_back(to_assignment(*s.best, cookie, s.bytes));
      audit_decision(s.stats, s.best->cost, now, false);
    }
    results.push_back(std::move(d));
  }
}

std::vector<ReadAssignment> Flowserver::select_for_read(
    net::NodeId client, const std::vector<net::NodeId>& replicas,
    double bytes) {
  std::vector<ReadAssignment> out;
  enqueue_read(client, replicas, bytes,
               [&out](std::vector<ReadAssignment> plan) {
                 out = std::move(plan);
               });
  drain();  // no-op when the enqueue already size-triggered the batch
  return out;
}

void Flowserver::flow_dropped(sdn::Cookie cookie) {
  table_.drop(cookie);
  telemetry_.forget(cookie);
}

net::NodeId Flowserver::best_write_target(
    net::NodeId writer, const std::vector<net::NodeId>& candidates) {
  MAYFLOWER_ASSERT(!candidates.empty());
  const net::NetworkView& v = view();
  // The ranking itself is a stateless policy over the view (the model-based
  // default or an injected ranker such as policy::MeasuredWritePlacement);
  // only the tie-break draw lives here. Ties are common (an idle fabric
  // offers every candidate the same share) and MUST break randomly:
  // deterministic ties would stack every file's replicas onto the same few
  // hosts.
  const std::vector<net::NodeId> ties =
      write_ranker_ != nullptr
          ? write_ranker_(writer, candidates, v)
          : rank_write_targets_by_model(selector_.model(), paths_, writer,
                                        candidates, v);
  MAYFLOWER_ASSERT(!ties.empty());
  return ties[rng_.next_below(ties.size())];
}

void Flowserver::collect_stats() {
  ++polls_;
  const std::uint64_t samples_before = stats_samples_;
  const sim::SimTime now = fabric_->events().now();
  // Poll rotation: tick t sweeps the edges whose index lands in group
  // t mod poll_groups, so a full cycle of ticks covers every edge exactly
  // once. poll_groups 1 degenerates to one full sweep.
  const std::uint64_t groups = config_.poll_groups;
  const std::uint64_t group = (polls_ - 1) % groups;
  const std::uint64_t cycle = (polls_ - 1) / groups;
  const bool adaptive = telemetry_.active();
  if (adaptive) telemetry_.begin_tick(cycle);

  // This tick's edges, in sweep order. Under a binding samples budget the
  // start position rotates by cycle so flows of later-indexed edges are not
  // systematically the ones past the cutoff.
  std::vector<std::size_t> sweep;
  sweep.reserve(edge_switches_.size() / groups + 1);
  for (std::size_t i = 0; i < edge_switches_.size(); ++i) {
    if (i % groups == group) sweep.push_back(i);
  }
  if (adaptive && config_.telemetry.samples_budget > 0 && !sweep.empty()) {
    std::rotate(sweep.begin(),
                sweep.begin() + static_cast<std::ptrdiff_t>(
                                    cycle % sweep.size()),
                sweep.end());
  }

  for (const std::size_t i : sweep) {
    const net::NodeId edge = edge_switches_[i];
    // A crashed switch answers no polls; its flows were killed with it and
    // the failure listener already dropped their table entries.
    if (!fabric_->switch_up(edge)) continue;
    // Indexed poll: each edge returns exactly its own flows (cookie order),
    // so a full cycle costs O(applied samples), not O(edges x fabric flows).
    for (const sdn::FlowStatsRecord& rec :
         fabric_->poll_edge_flow_stats(edge)) {
      if (!rec.active) {
        // Final counter of a finished flow: the drop request usually beat us
        // here; dropping again is harmless. Final counters bypass the
        // telemetry budget — they arrive as flow-removed notifications, not
        // polled samples, and dropping state must never be deferred.
        ++stats_samples_;
        table_.drop(rec.cookie);
        telemetry_.forget(rec.cookie);
        continue;
      }
      const net::NetworkView::Flow* f = table_.find(rec.cookie);
      // Estimator audit: how far is the share the table believes (frozen
      // estimate or last accepted measurement) from the rate the data plane
      // is actually giving the flow right now? Sampled before UPDATEBW so
      // the freeze's effect on belief accuracy is visible — and sampled for
      // DEFERRED flows too, so the audit series keeps full-rate cadence and
      // budget points stay comparable (the audit is experiment
      // instrumentation, not controller work the budget accounts for).
      if (config_.obs != nullptr && rec.rate_bps > 0.0 && f != nullptr) {
        config_.obs->trace.belief_error_sample(
            std::abs(f->bw_bps - rec.rate_bps) / rec.rate_bps);
      }
      if (adaptive && f != nullptr) {
        // Classification signal: the flow's byte delta over the window since
        // its last APPLIED sample (a deferred mouse accumulates window, so
        // its next applied sample still measures the true average rate).
        const TrackedFlow& t = *table_.tracked(rec.cookie);
        const double window = (now - t.last_poll_time).seconds();
        const double window_rate =
            window > 0.0 ? (rec.bytes - t.last_poll_bytes) / window
                         : rec.rate_bps;
        const double edge_cap =
            f->path.links.empty()
                ? 0.0
                : fabric_->topology().link(f->path.links.front()).capacity_bps;
        const AdaptiveTelemetry::Verdict verdict =
            telemetry_.admit(rec.cookie, window_rate, edge_cap);
        if (verdict == AdaptiveTelemetry::Verdict::kDeferMouse) {
          poll_deferred_mouse_metric_.inc();
          continue;
        }
        if (verdict == AdaptiveTelemetry::Verdict::kDeferBudget) {
          poll_deferred_budget_metric_.inc();
          continue;
        }
      }
      poll_applied_metric_.inc();
      ++stats_samples_;
      table_.update_from_stats(rec.cookie, rec.bytes, now);
    }
  }
  if (adaptive && config_.obs != nullptr) {
    poll_promotions_metric_.inc(telemetry_.promotions() - flushed_promotions_);
    poll_demotions_metric_.inc(telemetry_.demotions() - flushed_demotions_);
    flushed_promotions_ = telemetry_.promotions();
    flushed_demotions_ = telemetry_.demotions();
    poll_elephants_gauge_.set(static_cast<double>(telemetry_.elephants()));
    poll_mice_gauge_.set(static_cast<double>(telemetry_.mice()));
  }
  poll_samples_hist_.observe(
      static_cast<double>(stats_samples_ - samples_before));
}

}  // namespace mayflower::flowserver
