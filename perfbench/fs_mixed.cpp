// fs-mixed: the full fs::Cluster (Mayflower scheme, Flowserver reached over
// RPC, measured write placement, Flowserver-planned pipelined chains). The
// set-up creates and appends a catalog through the real write path; the
// measured phase is an open-loop mix of whole-file reads of that catalog and
// create+append writes of new files. Every read is checked for its full size
// and, in the checked round, for sampled 4 KiB slices of the appended
// content.
#include <memory>
#include <set>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fs/cluster.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCatalogFiles = 64;
constexpr std::uint64_t kFileBytes = 256'000'000;
constexpr std::size_t kJobs = 6000;
constexpr std::size_t kWarmupJobs = 200;
constexpr double kLambdaPerHost = 0.05;  // jobs/s per host, reads + writes
constexpr double kWriteFraction = 0.25;
constexpr double kZipfSkew = 1.1;
constexpr double kStationarityBound = 0.10;
constexpr std::uint64_t kMaxMinEvery = 499;
constexpr std::uint64_t kSlice = 4096;

// Content seed of catalog file `i` / new file of job `j`: each file's bytes
// are a distinct deterministic pattern, so a read can be checked against it.
std::uint64_t catalog_content(std::uint64_t seed, std::size_t i) {
  return splitmix64(seed ^ (0xca7a1000ULL + i));
}
std::uint64_t write_content(std::uint64_t seed, std::size_t j) {
  return splitmix64(seed ^ (0x3717e000ULL + j));
}

struct Job {
  double arrival_sec = 0.0;
  bool write = false;
  std::size_t file = 0;  // catalog index (reads)
  net::NodeId host = net::kInvalidNode;
};

}  // namespace

RoundResult fs_mixed_round(std::uint64_t seed, const RoundMode& mode) {
  Tracer* const tr = mode.tracer;
  RoundResult out;
  const std::int64_t t_setup = now_ns();
  auto setup_span = std::make_unique<Scope>(tr, SpanName::kSetup);

  obs::MetricsRegistry registry;
  std::unique_ptr<fs::Cluster> cluster;
  std::vector<workload::FileMeta> catalog(kCatalogFiles);
  std::vector<std::string> names(kCatalogFiles);
  std::set<net::NodeId> client_hosts;
  std::vector<Job> jobs;
  {
    Scope s(tr, SpanName::kPopulate);
    fs::ClusterConfig cc;
    cc.fabric = net::ThreeTierConfig::with_oversubscription(8.0);
    cc.scheme = fs::FsScheme::kMayflower;
    cc.write_placement = policy::WritePlacementKind::kMeasured;
    cc.collaborative_placement = true;
    cc.write_pipeline = true;
    cc.seed = seed;
    cluster = std::make_unique<fs::Cluster>(cc);
    if (tr != nullptr) cluster->fabric().flow_sim().set_metrics(&registry);

    // Catalog: every file created and appended by a random writer host,
    // all at once, through the chain-planned write path.
    Rng writers(splitmix64(seed ^ 0x5e7u));
    const auto& hosts = cluster->tree().hosts;
    std::size_t acked = 0;
    for (std::size_t i = 0; i < kCatalogFiles; ++i) {
      names[i] = strfmt("cat-%03zu", i);
      const net::NodeId writer = hosts[writers.next_below(hosts.size())];
      client_hosts.insert(writer);
      fs::Client& c = cluster->client_at(writer);
      Scope call(tr, SpanName::kClientCall);
      c.create(names[i], [&, i, writer](fs::Status st, const fs::FileInfo& info) {
        if (st != fs::Status::kOk) {
          out.errors.push_back("catalog create failed");
          return;
        }
        catalog[i].id = static_cast<std::uint32_t>(i);
        catalog[i].bytes = static_cast<double>(kFileBytes);
        catalog[i].replicas = info.replicas;
        cluster->client_at(writer).append(
            names[i],
            fs::ExtentList(
                fs::Extent::pattern(catalog_content(seed, i), kFileBytes)),
            [&](fs::Status as, const fs::AppendResp&) {
              if (as != fs::Status::kOk) {
                out.errors.push_back("catalog append failed");
              }
              ++acked;
            });
      });
    }
    while (acked < kCatalogFiles && out.errors.empty() &&
           !cluster->events().empty()) {
      cluster->events().step();
    }
  }
  {
    Scope s(tr, SpanName::kGenerate);
    Rng rng(splitmix64(seed ^ 0xf5a1edULL));
    const ZipfSampler zipf(kCatalogFiles, kZipfSkew);
    const auto& tree = cluster->tree();
    const double rate =
        kLambdaPerHost * static_cast<double>(tree.hosts.size());
    double t = cluster->events().now().seconds();
    jobs.resize(kJobs);
    for (Job& j : jobs) {
      t += rng.exponential(rate);
      j.arrival_sec = t;
      j.write = rng.next_double() < kWriteFraction;
      if (j.write) {
        j.host = tree.hosts[rng.next_below(tree.hosts.size())];
      } else {
        j.file = zipf.sample(rng);
        j.host = workload::place_client(tree, catalog[j.file],
                                        workload::Locality{0.5, 0.3}, rng);
      }
      client_hosts.insert(j.host);
    }
  }

  std::vector<double> durations(kJobs, -1.0);
  std::size_t done = 0;
  for (std::size_t jid = 0; jid < kJobs; ++jid) {
    const Job& job = jobs[jid];
    cluster->events().schedule_at(
        sim::SimTime::from_seconds(job.arrival_sec), [&, jid] {
          const Job& j = jobs[jid];
          fs::Client& c = cluster->client_at(j.host);
          Scope call(tr, SpanName::kClientCall);
          if (!j.write) {
            c.read_file(names[j.file], [&, jid](fs::Status st,
                                                fs::ReadResult r) {
              const Job& rj = jobs[jid];
              ++done;
              if (st != fs::Status::kOk || r.file_size != kFileBytes ||
                  r.data.size() != kFileBytes) {
                ++out.failed;
                out.errors.push_back(strfmt("read of %s returned %llu bytes",
                                            names[rj.file].c_str(),
                                            static_cast<unsigned long long>(
                                                r.data.size())));
                return;
              }
              durations[jid] = cluster->events().now().seconds() -
                               rj.arrival_sec;
              if (mode.checks) {
                const fs::ExtentList expect(fs::Extent::pattern(
                    catalog_content(seed, rj.file), kFileBytes));
                const std::uint64_t offsets[] = {
                    0, splitmix64(seed ^ jid) % (kFileBytes - kSlice),
                    kFileBytes - kSlice};
                for (const std::uint64_t off : offsets) {
                  if (!r.data.slice(off, kSlice)
                           .content_equals(expect.slice(off, kSlice))) {
                    out.errors.push_back(
                        strfmt("read of %s: bytes at %llu differ",
                               names[rj.file].c_str(),
                               static_cast<unsigned long long>(off)));
                  }
                }
              }
            });
            return;
          }
          const std::string name = strfmt("new-%05zu", jid);
          c.create(name, [&, jid, name](fs::Status st, const fs::FileInfo&) {
            if (st != fs::Status::kOk) {
              ++done;
              ++out.failed;
              out.errors.push_back("create failed");
              return;
            }
            const Job& wj = jobs[jid];
            cluster->client_at(wj.host).append(
                name,
                fs::ExtentList(
                    fs::Extent::pattern(write_content(seed, jid), kFileBytes)),
                [&, jid](fs::Status as, const fs::AppendResp& resp) {
                  ++done;
                  if (as != fs::Status::kOk || resp.new_size != kFileBytes) {
                    ++out.failed;
                    out.errors.push_back("append failed");
                    return;
                  }
                  durations[jid] = cluster->events().now().seconds() -
                                   jobs[jid].arrival_sec;
                });
          });
        });
  }
  setup_span.reset();
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
  run_measured(cluster->events(), cluster->fabric().flow_sim(),
               cluster->tree().topo, mode, kMaxMinEvery,
               [&] { return done < kJobs; }, out);

  out.attempted = kJobs;
  for (std::size_t jid = kWarmupJobs; jid < kJobs; ++jid) {
    if (durations[jid] < 0.0) continue;
    out.jct.push_back(durations[jid]);
    out.by_kind[jobs[jid].write ? "append" : "read"].push_back(durations[jid]);
  }
  if (done < kJobs) {
    out.failed += kJobs - done;
    out.errors.push_back("jobs left unfinished");
  }
  check_stationary({out.jct}, kStationarityBound, out.errors);

  if (tr != nullptr) {
    auto& L = out.layer;
    program_counters(registry, cluster->flow_server(),
                     cluster->tree().edge_switches.size(), L);
    double chain_appends = 0.0;
    double relay_failed = 0.0;
    for (const net::NodeId h : cluster->tree().hosts) {
      chain_appends +=
          static_cast<double>(cluster->dataserver_at(h).chain_appends());
      relay_failed +=
          static_cast<double>(cluster->dataserver_at(h).relay_failures());
    }
    L["fs.ds.chain_appends"] = chain_appends;
    L["fs.ds.relay_failed"] = relay_failed;
    client_counters(*cluster, client_hosts, L);
    // Metadata ops: a create and an append per catalog file and per write
    // job, one lookup per read job.
    std::size_t writes = 0;
    for (const Job& j : jobs) writes += j.write ? 1 : 0;
    const double meta_ops =
        static_cast<double>(2 * kCatalogFiles + kJobs + writes);
    L["fs.kv.bytes_per_op"] = kv_bytes_on_disk(*cluster) / meta_ops;
  }
  return out;
}

}  // namespace perfbench
