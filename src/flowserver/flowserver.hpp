// The Flowserver service (§3.3.3): the filesystem-facing RPC surface of the
// SDN controller application.
//
// Responsibilities, as in the paper:
//  * keep per-flow bandwidth/remaining estimates (FlowStateTable), refreshed
//    by periodic flow-stats polls of the edge switches;
//  * answer replica-selection requests by running the replica–path selection
//    algorithm (plus the multi-read split when profitable) and installing the
//    chosen paths into the switches;
//  * track flow add/drop requests in between polls so estimates stay usable
//    without polling at very short intervals.
//
// Decisions run through one pipeline: requests enqueue, a decision batch
// drains them against the table's flow store as it stands at batch start
// (its link sections re-overlaid only when a fault or a rate sample moved
// them), every request is planned read-only against that state, commits
// replay in batch order into the table, and all chosen paths are installed
// via the fabric's bulk API with a single metrics flush. The synchronous
// entry points are batches of one.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/worker_pool.hpp"
#include "flowserver/multiread.hpp"
#include "flowserver/selector.hpp"
#include "flowserver/telemetry.hpp"
#include "flowserver/writechain.hpp"
#include "sdn/fabric.hpp"
#include "sdn/link_rate_monitor.hpp"
#include "sdn/stats_poller.hpp"

namespace mayflower::flowserver {

struct FlowserverConfig {
  sim::SimTime poll_interval = sim::SimTime::from_seconds(1.0);
  bool multiread_enabled = true;
  bool freeze_enabled = true;   // ablation: disable the update-freeze state
  bool impact_aware = true;     // ablation: drop Eq. 2's existing-flow term
  double zero_hop_bps = 12e9;   // modelled rate for host-local reads
  std::uint64_t seed = 0x5eedULL;  // tie-breaking randomness (placement)
  // Admission batching: a drain fires as soon as `batch_size` requests are
  // queued, or `batch_window` after the first one, whichever comes first.
  // batch_size 1 keeps every entry point synchronous (batch-of-one).
  std::size_t batch_size = 1;
  sim::SimTime batch_window = sim::SimTime::from_millis(5.0);
  // Decision parallelism, >= 1: every request of a batch is evaluated
  // against the batch-start view, which nothing writes before the commit
  // replay (1 = inline on the control thread, N = a worker pool of N), and
  // commits replay serially in batch order, so decisions are byte-identical
  // at every thread count by construction. Within a batch, decision i does
  // not see decision i-1 — only the commit replay's stale-share clamp does.
  std::size_t decision_threads = 1;
  // Stats-poll rotation: split each poll_interval into this many staggered
  // ticks, each sweeping 1/poll_groups of the edge switches. Every edge is
  // still polled once per interval; only the tick its samples land on
  // changes (1 = one full sweep per interval).
  std::size_t poll_groups = 1;
  // Adaptive budgeted telemetry (Floware-style, DESIGN.md §14): classify
  // flows as elephants vs mice from per-poll byte deltas, apply elephant
  // samples every cycle, mouse samples every telemetry.mouse_period cycles,
  // and at most telemetry.samples_budget samples per staggered tick. The
  // default config keeps the layer inactive: every sample applied every
  // cycle.
  TelemetryConfig telemetry;
  // Optional observability hub (not owned): selection audits, freeze
  // suppression, poll-cycle work all land here. Null measures nothing.
  obs::Observability* obs = nullptr;
};

// One subflow the client should fetch: `bytes` from `replica` along `path`.
struct ReadAssignment {
  sdn::Cookie cookie = 0;
  net::NodeId replica = net::kInvalidNode;
  net::Path path;           // replica -> client
  double bytes = 0.0;
  double est_bw_bps = 0.0;
};

class Flowserver {
 public:
  // Receives the finished plan for one queued read (empty = unavailable).
  using PlanCallback = std::function<void(std::vector<ReadAssignment>)>;
  // External replica policy hook for the batched path: picks one of
  // `replicas` (all of which have at least one live path to `client` in the
  // view) reading utilization/liveness from the batch's view.
  using ReplicaChooser = std::function<net::NodeId(
      net::NodeId client, const std::vector<net::NodeId>& replicas,
      const net::NetworkView& view)>;
  // External write-placement policy hook (policy::MeasuredWritePlacement):
  // ranks candidate hosts for a new replica against the view and returns
  // the tied-best band; best_write_target() breaks the tie with the seeded
  // Rng. Null keeps the historical model-based ranking.
  using WriteRanker = std::function<std::vector<net::NodeId>(
      net::NodeId writer, const std::vector<net::NodeId>& candidates,
      const net::NetworkView& view)>;

  Flowserver(sdn::SdnFabric& fabric, FlowserverConfig config);

  Flowserver(const Flowserver&) = delete;
  Flowserver& operator=(const Flowserver&) = delete;

  // Begins periodic stats collection. Idempotent.
  void start();
  void stop();

  // --- batched admission ------------------------------------------------

  // Queues one read request. `chooser`, when set, fixes the replica via an
  // external policy (evaluated against the batch's view at decision time);
  // when null the selector optimizes replica and path jointly. The batch
  // drains immediately once config.batch_size requests are queued, else
  // config.batch_window after the first enqueue; `done` runs from the drain
  // with the plan (empty when every replica is unreachable).
  void enqueue_read(net::NodeId client, std::vector<net::NodeId> replicas,
                    double bytes, PlanCallback done,
                    ReplicaChooser chooser = nullptr) EXCLUDES(queue_mu_);

  // Producer-thread-safe enqueue: pushes the request and nothing else — no
  // batch-window timer (the event queue is control-thread-only by design).
  // Posted requests are decided by the next control-thread drain(). This is
  // the only Flowserver entry point callable off the control thread.
  void post_read(net::NodeId client, std::vector<net::NodeId> replicas,
                 double bytes, PlanCallback done = nullptr,
                 ReplicaChooser chooser = nullptr) EXCLUDES(queue_mu_);

  // Queues one replication-chain write: `chain` is the host sequence the
  // bytes traverse (writer, primary, replica, ...; consecutive hosts
  // distinct), at least 2 nodes. The decision enters the same batch as
  // reads — one view, same commit replay — and the plan holds one
  // assignment per routed hop in chain order (path chain[i] -> chain[i+1]),
  // every hop SETBW'd to the chain bottleneck so it finishes together. An
  // unreachable hop truncates the plan; an empty plan means even the first
  // hop is unreachable.
  void enqueue_write(std::vector<net::NodeId> chain, double bytes,
                     PlanCallback done) EXCLUDES(queue_mu_);

  // Producer-thread-safe write enqueue (see post_read).
  void post_write(std::vector<net::NodeId> chain, double bytes,
                  PlanCallback done = nullptr) EXCLUDES(queue_mu_);

  // Decides everything queued right now against one view and installs all
  // chosen paths through the fabric's bulk API. Returns the number of
  // requests decided.
  std::size_t drain() EXCLUDES(queue_mu_);

  std::size_t queued() const EXCLUDES(queue_mu_) {
    common::MutexLock lock(queue_mu_);
    return queue_.size();
  }

  // --- synchronous wrappers (batch-of-one) ------------------------------

  // RPC from a client about to read `bytes` replicated on `replicas`:
  // performs replica+path selection (split across two replicas when
  // profitable), installs the paths in the switches, registers the flows.
  // The caller then starts each assignment via fabric().start_flow(cookie,
  // path, bytes, ...) and reports completion with flow_dropped(). An empty
  // replica list yields an empty plan (kUnavailable), not an assert.
  std::vector<ReadAssignment> select_for_read(
      net::NodeId client, const std::vector<net::NodeId>& replicas,
      double bytes);

  // Synchronous wrapper (batch-of-one) for enqueue_write.
  std::vector<ReadAssignment> plan_write(const std::vector<net::NodeId>& chain,
                                         double bytes);

  // Flow drop notification (read finished or aborted).
  void flow_dropped(sdn::Cookie cookie);

  // Extension (§3.3): Sinbad-like collaborative replica placement. Ranks
  // `candidates` by the max-min share a write flow from `writer` would get
  // over its best path and returns the winner. The paper's nameserver
  // places replicas statically but notes it "would be relatively
  // straightforward" to make the decision collaboratively — this is that
  // hook.
  net::NodeId best_write_target(net::NodeId writer,
                                const std::vector<net::NodeId>& candidates);

  // Installs/clears the write-placement ranking best_write_target uses.
  void set_write_ranker(WriteRanker ranker) {
    write_ranker_ = std::move(ranker);
  }

  // One stats-collection cycle (also runs on the poll timer).
  void collect_stats();

  // --- the decision view --------------------------------------------------

  // The table's flow store as decisions read it, with its link sections
  // (liveness, monitor rates) re-overlaid first if the fabric's state epoch
  // (faults) or the rate monitor's sample count moved. Polls, drops and
  // commits change the store itself, so they never stale it.
  const net::NetworkView& view();
  // Link-section refreshes so far (the first view() is one).
  std::uint64_t view_rebuilds() const { return view_rebuilds_; }
  // Always 0: there is no second copy of the flows to reload. Kept for
  // readers that still export it.
  std::uint64_t shard_reloads() const { return 0; }

  // Attaches a rate monitor whose per-link tx rates are overlaid on the
  // view (Sinbad-R's utilization signal). Not owned; null detaches.
  void set_rate_monitor(const sdn::LinkRateMonitor* monitor) {
    monitor_ = monitor;
    links_built_ = false;
  }

  sdn::SdnFabric& fabric() { return *fabric_; }
  FlowStateTable& table() { return table_; }
  const FlowserverConfig& config() const { return config_; }

  // Telemetry for tests/benchmarks.
  std::uint64_t selections() const { return selections_; }
  std::uint64_t split_reads() const { return split_reads_; }
  std::uint64_t write_chains() const { return write_chains_; }
  std::uint64_t write_hops() const { return write_hops_; }
  std::uint64_t write_truncated() const { return write_truncated_; }
  std::uint64_t polls() const { return polls_; }
  // Per-flow counter samples APPLIED across all polls (deferred samples are
  // not counted — they are the saved cost): with the fabric's per-edge index
  // this totals O(applied samples) per cycle, independent of the number of
  // edge switches swept.
  std::uint64_t stats_samples() const { return stats_samples_; }
  // The adaptive telemetry layer's books: classification counts, deferred
  // samples, promotions/demotions. Inactive (all zeros) by default.
  const AdaptiveTelemetry& telemetry() const { return telemetry_; }

 private:
  struct PendingRead {
    net::NodeId client = net::kInvalidNode;
    // Read requests: the replicas holding the data. Write requests: the
    // replication-chain host sequence (writer first).
    std::vector<net::NodeId> replicas;
    double bytes = 0.0;
    bool write = false;      // plan_write decision kind
    ReplicaChooser chooser;  // null: joint replica+path optimization
    PlanCallback done;
  };

  static PendingRead read_request(net::NodeId client,
                                  std::vector<net::NodeId> replicas,
                                  double bytes, PlanCallback done,
                                  ReplicaChooser chooser);
  static PendingRead write_request(std::vector<net::NodeId> chain,
                                   double bytes, PlanCallback done);
  // The admission body of enqueue_read/enqueue_write: queues `p`, drains at
  // once when the batch is full, else arms the batch-window drain.
  void enqueue(PendingRead p) EXCLUDES(queue_mu_);
  // The producer-thread-safe body of post_read/post_write: the locked push.
  void post(PendingRead p) EXCLUDES(queue_mu_);

  ReadAssignment to_assignment(const Candidate& c, sdn::Cookie cookie,
                               double bytes) const;

  // Records one committed selection in the decision-audit trace.
  void audit_decision(const SelectStats& stats, const CostBreakdown& cost,
                      sim::SimTime now, bool split);

  // Replicas with at least one live path to `client` in the current view,
  // original order preserved.
  std::vector<net::NodeId> reachable_replicas(
      net::NodeId client, const std::vector<net::NodeId>& replicas);

  // One decided request: the plan to hand back plus its completion callback.
  struct Decided {
    PlanCallback done;
    std::vector<ReadAssignment> plan;
  };

  // One batch slot of the decision pipeline. The serial pre-phase fills the
  // request half (effective replicas, pre-drawn cookies); the parallel
  // evaluate phase fills the result half; the serial replay consumes it.
  struct Slot {
    net::NodeId client = net::kInvalidNode;
    double bytes = 0.0;
    std::vector<net::NodeId> replicas;  // effective (chooser already applied)
    bool unavailable = false;           // no replicas / none reachable
    bool multiread = false;
    bool write = false;                 // replicas holds the chain nodes
    std::vector<sdn::Cookie> cookies;   // pre-drawn (multiread/write slots)
    std::optional<Candidate> best;      // single-path result
    std::vector<SubflowPlan> plans;     // multiread result
    std::vector<ChainHopPlan> chain;    // write result
    SelectStats stats;
  };

  // Turns a routed chain into plan assignments (est_bw reports the chain
  // bottleneck) and records the write books. `requested_hops` is what the
  // caller asked for — fewer routed hops means the chain was truncated by an
  // unreachable host.
  std::vector<ReadAssignment> finish_chain(
      const std::vector<ChainHopPlan>& plans,
      const std::vector<sdn::Cookie>& cookies, std::size_t requested_hops,
      double bytes, const SelectStats& stats, sim::SimTime now);

  // The decision pipeline: serial pre-phase + evaluation against the
  // batch-start view + in-order commit replay.
  void decide_batch(std::deque<PendingRead>& batch, sim::SimTime now,
                    std::vector<Decided>& results);

  // Did the armed batch-window event survive to its firing time?
  bool drain_generation_is(std::uint64_t gen) const EXCLUDES(queue_mu_) {
    common::MutexLock lock(queue_mu_);
    return gen == drain_gen_;
  }

  sdn::SdnFabric* fabric_;
  FlowserverConfig config_;
  net::PathCache paths_;
  FlowStateTable table_;
  ReplicaPathSelector selector_;
  MultiReadPlanner planner_;
  WriteChainPlanner chain_planner_;
  sdn::StatsPoller poller_;
  Rng rng_;
  WriteRanker write_ranker_;
  std::vector<net::NodeId> edge_switches_;
  std::uint64_t selections_ = 0;
  std::uint64_t split_reads_ = 0;
  std::uint64_t write_chains_ = 0;
  std::uint64_t write_hops_ = 0;
  std::uint64_t write_truncated_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t stats_samples_ = 0;
  AdaptiveTelemetry telemetry_;
  // Totals already flushed into the promotion/demotion counters (the metric
  // handles take deltas once per tick, not one inc per transition).
  std::uint64_t flushed_promotions_ = 0;
  std::uint64_t flushed_demotions_ = 0;

  // Link-section state of the view.
  const sdn::LinkRateMonitor* monitor_ = nullptr;
  bool links_built_ = false;
  std::uint64_t view_epoch_ = 0;
  std::uint64_t view_rebuilds_ = 0;
  std::uint64_t seen_fabric_epoch_ = 0;
  std::uint64_t seen_monitor_samples_ = 0;

  // Admission queue. Guarded so producer threads can post_read() while the
  // control thread drains; everything else in the Flowserver stays
  // control-thread-only. Lock order: queue_mu_ is a leaf — nothing is
  // called while it is held.
  mutable common::Mutex queue_mu_;
  std::deque<PendingRead> queue_ GUARDED_BY(queue_mu_);
  // A batch_window drain event is pending.
  bool drain_armed_ GUARDED_BY(queue_mu_) = false;
  // Invalidates armed events once drained.
  std::uint64_t drain_gen_ GUARDED_BY(queue_mu_) = 0;

  // Decision workers (decision_threads > 1 only), created on the first
  // drain.
  std::unique_ptr<common::WorkerPool> pool_;

  // Observability (no-ops until config.obs is set).
  obs::Counter selections_metric_;
  obs::Counter split_reads_metric_;
  obs::Histogram poll_samples_hist_;  // per-cycle samples applied (work/tick)
  // Adaptive-telemetry metrics (flowserver.poll.*; zero while the layer is
  // inactive).
  obs::Counter poll_applied_metric_;
  obs::Counter poll_deferred_mouse_metric_;
  obs::Counter poll_deferred_budget_metric_;
  obs::Counter poll_promotions_metric_;
  obs::Counter poll_demotions_metric_;
  obs::Gauge poll_elephants_gauge_;
  obs::Gauge poll_mice_gauge_;
  // Write-path metrics (flowserver.write.*).
  obs::Counter write_chains_metric_;
  obs::Counter write_hops_metric_;
  obs::Counter write_truncated_metric_;
  obs::Histogram write_bottleneck_hist_;
};

}  // namespace mayflower::flowserver
