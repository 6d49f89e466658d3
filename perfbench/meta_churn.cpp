// meta-churn: the sharded metadata plane under an open-loop create / lookup /
// delete / append mix with 4 KB bodies (workload::generate_meta_ops), served
// by nearest+ECMP so the Flowserver stays out of the measurement.
//
// The generated trace is valid in arrival order, but as an open loop it can
// issue a delete while an earlier op on the same path is still in flight,
// and such an append then fails with kNotFound through no fault of the
// program. The benchmark's clients therefore order ops per path: an op on a
// path is issued only after the path's create was acknowledged, a delete is
// held until the ops in flight on its path have finished, and a re-create
// waits for the delete. Latency is timed from issue.
#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fs/cluster.hpp"
#include "workload/meta_workload.hpp"

namespace perfbench {
namespace {

using workload::MetaOpKind;

constexpr std::size_t kOps = 20'000;
constexpr double kOpsPerSec = 20'000.0;
constexpr std::size_t kShards = 4;
constexpr double kServiceUs = 50.0;
constexpr std::size_t kClientHosts = 8;
constexpr std::uint64_t kBodyBytes = 4096;
constexpr std::size_t kWarmupOps = 1000;
constexpr double kStationarityBound = 0.10;
constexpr std::uint64_t kMaxMinEvery = 997;

struct PathState {
  bool live = false;      // create acknowledged, no delete issued since
  bool creating = false;
  bool deleting = false;
  std::size_t inflight = 0;
  std::deque<std::size_t> waiting;  // trace indices, arrival order
};

const char* kind_name(MetaOpKind k) {
  switch (k) {
    case MetaOpKind::kCreate: return "create";
    case MetaOpKind::kLookup: return "lookup";
    case MetaOpKind::kDelete: return "delete";
    case MetaOpKind::kAppend: return "append";
  }
  return "?";
}

}  // namespace

RoundResult meta_churn_round(std::uint64_t seed, const RoundMode& mode) {
  Tracer* const tr = mode.tracer;
  RoundResult out;
  const std::int64_t t_setup = now_ns();
  auto setup_span = std::make_unique<Scope>(tr, SpanName::kSetup);

  std::vector<workload::MetaOp> trace;
  {
    Scope s(tr, SpanName::kGenerate);
    workload::MetaWorkloadConfig wc;
    wc.total_ops = kOps;
    wc.ops_per_sec = kOpsPerSec;
    Rng rng(splitmix64(seed ^ 0x3e7ac4u));
    trace = workload::generate_meta_ops(wc, rng);
  }
  obs::MetricsRegistry registry;
  std::unique_ptr<fs::Cluster> cluster;
  {
    Scope s(tr, SpanName::kPopulate);
    fs::ClusterConfig cc;
    cc.fabric = net::ThreeTierConfig::with_oversubscription(8.0);
    cc.scheme = fs::FsScheme::kNearestEcmp;
    cc.seed = seed;
    cc.meta_shards = kShards;
    cc.meta_partition = fs::meta::Partition::kHash;
    cc.meta_service_time = sim::SimTime::from_micros(kServiceUs);
    cc.client.meta_cache_ttl = sim::SimTime{};
    cluster = std::make_unique<fs::Cluster>(cc);
    if (tr != nullptr) cluster->fabric().flow_sim().set_metrics(&registry);
  }
  const auto& hosts = cluster->tree().hosts;
  sim::EventQueue& events = cluster->events();

  // Per-op samples in trace order (body appends after their create), so the
  // pooled vector is independent of completion order.
  struct Sample {
    double latency = -1.0;
    MetaOpKind kind = MetaOpKind::kCreate;
  };
  std::vector<Sample> samples(kOps);
  std::vector<double> body_latency(kOps, -1.0);
  std::unordered_map<std::string, PathState> paths;
  std::set<std::string> expected_live;
  std::size_t pending = kOps;  // trace ops + body appends not yet completed

  std::function<void(const std::string&)> pump;
  const auto finish = [&](std::size_t i, bool ok) {
    --pending;
    if (!ok) ++out.failed;
    PathState& ps = paths[trace[i].path];
    --ps.inflight;
    pump(trace[i].path);
  };
  const auto issue = [&](std::size_t i) {
    const workload::MetaOp& op = trace[i];
    PathState& ps = paths[op.path];
    ++ps.inflight;
    fs::Client& c = cluster->client_at(hosts[i % kClientHosts]);
    const double t0 = events.now().seconds();
    samples[i].kind = op.kind;
    Scope call(tr, SpanName::kClientCall);
    switch (op.kind) {
      case MetaOpKind::kCreate:
        ps.creating = true;
        c.create(op.path, [&, i, t0](fs::Status st, const fs::FileInfo&) {
          const std::string& path = trace[i].path;
          PathState& p = paths[path];
          p.creating = false;
          if (st == fs::Status::kOk) {
            samples[i].latency = events.now().seconds() - t0;
            p.live = true;
            expected_live.insert(path);
            // The small-file body: one more op on the path, in flight until
            // acknowledged, so a later delete waits for it.
            ++pending;
            ++p.inflight;
            ++out.attempted;
            const double tb = events.now().seconds();
            cluster->client_at(hosts[i % kClientHosts])
                .append(path,
                        fs::ExtentList(fs::Extent::pattern(
                            splitmix64(seed ^ i), kBodyBytes)),
                        [&, i, tb](fs::Status as, const fs::AppendResp&) {
                          if (as == fs::Status::kOk) {
                            body_latency[i] = events.now().seconds() - tb;
                          }
                          finish(i, as == fs::Status::kOk);
                        });
          }
          finish(i, st == fs::Status::kOk);
        });
        break;
      case MetaOpKind::kLookup:
        c.stat(op.path, [&, i, t0](fs::Status st, const fs::FileInfo&) {
          if (st == fs::Status::kOk) {
            samples[i].latency = events.now().seconds() - t0;
          }
          finish(i, st == fs::Status::kOk);
        });
        break;
      case MetaOpKind::kDelete:
        ps.deleting = true;
        c.remove(op.path, [&, i, t0](fs::Status st) {
          PathState& p = paths[trace[i].path];
          p.deleting = false;
          if (st == fs::Status::kOk) {
            samples[i].latency = events.now().seconds() - t0;
            p.live = false;
            expected_live.erase(trace[i].path);
          }
          finish(i, st == fs::Status::kOk);
        });
        break;
      case MetaOpKind::kAppend:
        c.append(op.path,
                 fs::ExtentList(fs::Extent::pattern(
                     splitmix64(seed ^ (i << 20)), kBodyBytes)),
                 [&, i, t0](fs::Status st, const fs::AppendResp&) {
                   if (st == fs::Status::kOk) {
                     samples[i].latency = events.now().seconds() - t0;
                   }
                   finish(i, st == fs::Status::kOk);
                 });
        break;
    }
  };
  // Issues the waiting ops of `path` in arrival order while the head may go.
  pump = [&](const std::string& path) {
    PathState& ps = paths[path];
    while (!ps.waiting.empty()) {
      const std::size_t i = ps.waiting.front();
      bool ready = false;
      switch (trace[i].kind) {
        case MetaOpKind::kCreate:
          ready = !ps.live && !ps.creating && !ps.deleting && ps.inflight == 0;
          break;
        case MetaOpKind::kLookup:
        case MetaOpKind::kAppend:
          ready = ps.live && !ps.deleting;
          break;
        case MetaOpKind::kDelete:
          ready = ps.live && !ps.deleting && ps.inflight == 0;
          break;
      }
      if (!ready) return;
      ps.waiting.pop_front();
      issue(i);
    }
  };

  out.attempted = kOps;
  for (std::size_t i = 0; i < kOps; ++i) {
    events.schedule_at(sim::SimTime::from_seconds(trace[i].arrival_sec),
                       [&, i] {
                         paths[trace[i].path].waiting.push_back(i);
                         pump(trace[i].path);
                       });
  }
  setup_span.reset();
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
  run_measured(events, cluster->fabric().flow_sim(), cluster->tree().topo,
               mode, kMaxMinEvery, [&] { return pending > 0; }, out);
  if (pending > 0) {
    out.failed += pending;
    out.errors.push_back("metadata ops left unfinished");
  }

  for (std::size_t i = kWarmupOps; i < kOps; ++i) {
    if (samples[i].latency >= 0.0) {
      out.jct.push_back(samples[i].latency);
      out.by_kind[kind_name(samples[i].kind)].push_back(samples[i].latency);
    }
    if (body_latency[i] >= 0.0) {
      out.jct.push_back(body_latency[i]);
      out.by_kind["append"].push_back(body_latency[i]);
    }
  }
  check_stationary({out.jct}, kStationarityBound, out.errors);

  // The namespace must hold exactly the acknowledged creates minus the
  // acknowledged deletes.
  bool listed = false;
  {
    Scope call(tr, SpanName::kClientCall);
    cluster->client_at(hosts[0]).list(
        [&](fs::Status st, std::vector<std::string> names) {
          listed = true;
          std::sort(names.begin(), names.end());
          if (st != fs::Status::kOk ||
              !std::equal(names.begin(), names.end(), expected_live.begin(),
                          expected_live.end())) {
            out.errors.push_back(strfmt(
                "nameserver lists %zu files, expected %zu", names.size(),
                expected_live.size()));
          }
        });
  }
  while (!listed && !events.empty()) events.step();
  if (!listed) out.errors.push_back("listing never completed");

  if (tr != nullptr) {
    auto& L = out.layer;
    program_counters(registry, nullptr, 0, L);
    double fetches = 0.0;
    double retries = 0.0;
    for (const auto& router : cluster->meta_routers()) {
      fetches += static_cast<double>(router->map_fetches());
      retries += static_cast<double>(router->wrong_shard_retries());
    }
    L["fs.meta.map_fetches"] = fetches;
    L["fs.meta.wrong_shard_retries"] = retries;
    client_counters(*cluster,
                    std::set<net::NodeId>(hosts.begin(),
                                          hosts.begin() + kClientHosts),
                    L);
    L["fs.kv.bytes_per_op"] =
        kv_bytes_on_disk(*cluster) / static_cast<double>(out.attempted);
  }
  return out;
}

}  // namespace perfbench
