// Micro-benchmark: belief error vs telemetry budget (DESIGN.md §14).
//
// A mouse-heavy 10k-flow workload on a k=16 fat-tree (1024 hosts, 8-host
// racks — flows spread wide so selection's O(flows-on-link) impact term
// stays cheap at this population):
//
//  * racks 0..99 hold the mice — per rack, four source hosts each serve 25
//    concurrent intra-rack readers, so every mouse gets ~5 MB/s of a
//    saturated 125 MB/s uplink (below the 6.25 MB/s mouse threshold).
//    Mice churn: each read completes after ~30 s and restarts after a
//    per-reader staggered gap (0/1.5/3 s), so the competitor count on
//    every uplink — and with it every mouse's true rate — fluctuates
//    continuously, and stale beliefs show up as belief error;
//  * rack 100 holds the elephants — one persistent lone reader plus a churn
//    elephant sharing the persistent flow's client downlink in a ~3 s on /
//    2 s off cycle, toggling the persistent flow between 62.5 and
//    125 MB/s. Elephants are exactly the flows adaptive telemetry must keep
//    polling at full rate to track.
//
// The same seeded workload runs under a sweep of telemetry configs (full
// rate, mouse-period only, and constrained budgets). Flow placement is
// forced (one replica, one intra-rack path), so the fluid simulation — and
// with it the belief-error sampling cadence — is identical across configs;
// rows differ only in which samples the budgeted sweep applies. Belief
// error is sampled at instrumentation (full) rate for deferred flows too,
// so each row's mean/p99 measures exactly the staleness its config buys.
//
// stdout is deterministic (pure simulation, no wall clock): CI reruns the
// binary and diffs. Acceptance (exit code): at least one sweep row applies
// >= 5x fewer samples per poll cycle than full-rate polling while keeping
// its belief-error mean within 2x of the full-rate mean (plus a small
// absolute floor so near-zero baselines don't make the ratio degenerate).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "flowserver/flowserver.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"
#include "obs/observability.hpp"

namespace mayflower::flowserver {
namespace {

constexpr std::size_t kMouseRacks = 100;   // racks 0..99
constexpr std::size_t kSourcesPerRack = 4;
std::size_t g_mice_per_source = 25;        // 100 * 4 * 25 = 10000 mice
constexpr double kMouseBytes = 150e6;      // ~30 s at the ~5 MB/s share
constexpr double kElephantBytes = 1e12;    // persistent: never completes
constexpr double kChurnBytes = 187.5e6;    // ~3 s at its 62.5 MB/s share
constexpr double kChurnGapSec = 2.0;
constexpr double kWarmupSec = 8.0;
constexpr double kEndSec = 24.0;

struct SweepRow {
  const char* label;
  std::size_t budget;
  std::size_t mouse_period;
};

struct RowResult {
  double applied_per_cycle = 0.0;
  double belief_mean = 0.0;
  double belief_p99 = 0.0;
  std::uint64_t deferred_mouse = 0;
  std::uint64_t deferred_budget = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  std::size_t belief_samples = 0;
};

// One client reading one forced replica; re-issued on completion so the
// population (and the rack's fair-share split) churns for the whole run.
void start_looping_read(Flowserver& server, sdn::SdnFabric& fabric,
                        net::NodeId client, net::NodeId replica, double bytes,
                        double restart_gap_sec) {
  const auto plan = server.select_for_read(client, {replica}, bytes);
  MAYFLOWER_ASSERT(plan.size() == 1);
  const ReadAssignment& a = plan.front();
  fabric.start_flow(
      a.cookie, a.path, a.bytes,
      [&server, &fabric, client, replica, bytes,
       restart_gap_sec](sdn::Cookie c, sim::SimTime) {
        server.flow_dropped(c);
        const auto restart = [&server, &fabric, client, replica, bytes,
                              restart_gap_sec] {
          start_looping_read(server, fabric, client, replica, bytes,
                             restart_gap_sec);
        };
        if (restart_gap_sec > 0.0) {
          fabric.events().schedule_in(
              sim::SimTime::from_seconds(restart_gap_sec), restart);
        } else {
          restart();
        }
      });
}

RowResult run_row(const net::ThreeTier& tree, const SweepRow& row) {
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);
  obs::Observability hub;

  FlowserverConfig cfg;
  cfg.telemetry.samples_budget = row.budget;
  cfg.telemetry.mouse_period = row.mouse_period;
  cfg.obs = &hub;
  Flowserver server(fabric, cfg);
  server.start();

  const std::size_t hosts_per_rack = tree.config.hosts_per_rack;
  Rng rng(0xD1CEULL);
  // Mice: in each mouse rack, hosts 0..3 serve, hosts 4..7 read. Initial
  // sizes are drawn uniformly so completions (and replacements) spread
  // evenly instead of arriving in one synchronized wave; the per-reader
  // restart gap cycles 0/1.5/3 s so uplink competitor counts fluctuate.
  for (std::size_t rack = 0; rack < kMouseRacks; ++rack) {
    const auto host = [&](std::size_t h) {
      return tree.hosts[rack * hosts_per_rack + h];
    };
    for (std::size_t s = 0; s < kSourcesPerRack; ++s) {
      for (std::size_t i = 0; i < g_mice_per_source; ++i) {
        const double first = kMouseBytes * rng.uniform(0.2, 1.0);
        start_looping_read(server, fabric, host(kSourcesPerRack + s),
                           host(s), first, 1.5 * static_cast<double>(i % 3));
      }
    }
  }
  // Elephants in rack 100: persistent lone reader plus the on/off churn
  // flow sharing the persistent reader's downlink (toggling its true rate
  // between 125 and 62.5 MB/s).
  const auto ehost = [&](std::size_t h) {
    return tree.hosts[kMouseRacks * hosts_per_rack + h];
  };
  start_looping_read(server, fabric, ehost(1), ehost(0), kElephantBytes, 0.0);
  start_looping_read(server, fabric, ehost(1), ehost(2), kChurnBytes,
                     kChurnGapSec);

  // Warmup: classification converges and the initial all-elephant cohort
  // demotes; measure applied samples and belief error after it.
  events.run_until(sim::SimTime::from_seconds(kWarmupSec + 0.25));
  const std::uint64_t samples0 = server.stats_samples();
  const std::uint64_t cycles0 =
      server.polls() / server.config().poll_groups;
  const std::size_t beliefs0 = hub.trace.belief_errors().size();

  events.run_until(sim::SimTime::from_seconds(kEndSec + 0.25));
  RowResult r;
  const std::uint64_t cycles =
      server.polls() / server.config().poll_groups - cycles0;
  MAYFLOWER_ASSERT(cycles > 0);
  r.applied_per_cycle =
      static_cast<double>(server.stats_samples() - samples0) /
      static_cast<double>(cycles);
  const std::vector<double>& beliefs = hub.trace.belief_errors();
  const std::vector<double> window(beliefs.begin() +
                                       static_cast<std::ptrdiff_t>(beliefs0),
                                   beliefs.end());
  const Summary s = summarize(window);
  r.belief_mean = s.mean;
  r.belief_p99 = s.p99;
  r.belief_samples = window.size();
  r.deferred_mouse = server.telemetry().deferred_mouse();
  r.deferred_budget = server.telemetry().deferred_budget();
  r.demotions = server.telemetry().demotions();
  r.promotions = server.telemetry().promotions();
  server.stop();
  return r;
}

int sweep_main() {
  const net::ThreeTier tree =
      net::three_tier_from_fat_tree(net::FatTreeConfig{16, 125e6});
  const SweepRow rows[] = {
      {"full-rate", 0, 1},
      {"period=8", 0, 8},
      {"budget=1000", 1000, 8},
      {"budget=500", 500, 8},
  };

  std::printf("micro_telemetry: belief error vs poll budget "
              "(%zu mice + 2 elephants on a k=16 fat-tree, "
              "%0.f s window after %0.f s "
              "warmup)\n",
              kMouseRacks * kSourcesPerRack * g_mice_per_source,
              kEndSec - kWarmupSec, kWarmupSec);
  std::vector<RowResult> results;
  for (const SweepRow& row : rows) {
    results.push_back(run_row(tree, row));
  }

  const RowResult& full = results.front();
  bool bar_met = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RowResult& r = results[i];
    const double reduction =
        r.applied_per_cycle > 0.0 ? full.applied_per_cycle / r.applied_per_cycle
                                  : 0.0;
    // Near-zero baselines make a pure ratio degenerate; the floor keeps the
    // bar meaningful when full-rate belief error is already tiny.
    const double belief_cap = 2.0 * full.belief_mean + 0.02;
    const bool qualifies = i > 0 && reduction >= 5.0 &&
                           r.belief_mean <= belief_cap;
    bar_met |= qualifies;
    std::printf("row %-12s budget %-5zu period %zu  applied/cycle %8.1f  "
                "reduction %5.2fx  belief mean %.4f p99 %.4f "
                "(%zu samples)\n",
                rows[i].label, rows[i].budget, rows[i].mouse_period,
                r.applied_per_cycle, reduction, r.belief_mean, r.belief_p99,
                r.belief_samples);
    std::printf("row %-12s deferred mouse %llu budget %llu  demotions %llu "
                "promotions %llu%s\n",
                rows[i].label,
                static_cast<unsigned long long>(r.deferred_mouse),
                static_cast<unsigned long long>(r.deferred_budget),
                static_cast<unsigned long long>(r.demotions),
                static_cast<unsigned long long>(r.promotions),
                qualifies ? "  [meets 5x/2x bar]" : "");
  }
  // The sampling cadence is instrumentation-rate for every config, so each
  // row must have seen exactly as many belief samples as full-rate polling;
  // a mismatch means a config changed the simulation itself.
  bool cadence_ok = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].belief_samples != full.belief_samples) {
      std::printf("FAIL: row %s saw %zu belief samples vs full-rate %zu\n",
                  rows[i].label, results[i].belief_samples,
                  full.belief_samples);
      cadence_ok = false;
    }
  }
  if (!bar_met) {
    std::printf("FAIL: no sweep row reached 5x sample reduction within 2x "
                "full-rate belief error\n");
  }
  std::printf("%s\n", (bar_met && cadence_ok) ? "PASS" : "FAIL");
  return (bar_met && cadence_ok) ? 0 : 1;
}

}  // namespace
}  // namespace mayflower::flowserver

int main(int argc, char** argv) {
  // Undocumented scale override for local profiling; CI runs the default.
  if (argc > 1) {
    mayflower::flowserver::g_mice_per_source =
        static_cast<std::size_t>(std::atoi(argv[1]));
  }
  return mayflower::flowserver::sweep_main();
}
