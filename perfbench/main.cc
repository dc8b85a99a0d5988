// perfbench: one step of the cold/warm pipeline benchmark. run.py runs the
// steps, each in a fresh process, and aggregates their results.
//
//   perfbench --step build  --workload W --seed N --scratch DIR
//       one cold build of W's datasets into DIR, then one checked warm
//       replay pass over it;
//   perfbench --step fill   --workload W --seed N --scratch DIR
//       one cold build into DIR, kept for the replay step;
//   perfbench --step replay --workload W --seed N --scratch DIR --seconds S
//       warm replay passes over DIR for S seconds;
//   perfbench --step trace  --workload W --seed N --scratch DIR
//       the traced run: per-layer probes (probes.cc).
//
// Drives the simulator only through its public calls (analysis::LoadOrRun,
// the analysis::Compute* functions, base::PhaseNanos) and, in the traced
// run, through the layer probes. Prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. Every line
// starting with "[det]" is a deterministic count that must repeat exactly
// between two runs with the same seed (run.py --selftest checks).
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/dataset_cache.h"
#include "analysis/experiments.h"
#include "base/io.h"
#include "base/phase.h"
#include "base/threads.h"
#include "bench/common.h"
#include "perfbench.h"

namespace perfbench {

std::uint64_t Allocs() { return clouddns::bench::AllocCount(); }

namespace {

namespace analysis = clouddns::analysis;
namespace base = clouddns::base;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 20201027;

/// Digests of each dataset's cold output (Table 3 row, Figure 1 shares,
/// pipeline counts and the stored capture's CRC32C) at the default seed
/// and full scale. A change to any simulated or analyzed byte shows here.
const std::map<std::string, std::string>& ReferenceDigests() {
  static const std::map<std::string, std::string> digests = {
      {"nl_2020", "afb97f42810df8aa-332d6435"},
      {"nz_2020", "4b7d0d667cc1d7aa-e12fa383"},
      {"root_2018", "f8a246bbdd3f0b71-1899ef9b"},
      {"root_2019", "9db8c4444edc16fe-2615e2cc"},
      {"root_2020", "6394ef6136f55195-31bc5bac"},
  };
  return digests;
}

struct Args {
  std::string step;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  std::string scratch;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return false;
      }
    } else if (key == "--step") {
      args.step = value;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.scratch.empty() &&
         (args.step == "build" || args.step == "fill" ||
          args.step == "replay" || args.step == "trace");
}

std::vector<Dataset> DatasetsOf(const std::string& workload) {
  if (workload == "cold_cctld" || workload == "warm_replay") {
    return {{Vantage::kNl, 2020, "nl_2020"}, {Vantage::kNz, 2020, "nz_2020"}};
  }
  if (workload == "cold_root") {
    return {{Vantage::kRoot, 2018, "root_2018"},
            {Vantage::kRoot, 2019, "root_2019"},
            {Vantage::kRoot, 2020, "root_2020"}};
  }
  return {};
}

ScenarioConfig ConfigOf(const Dataset& dataset, std::uint64_t seed) {
  ScenarioConfig config =
      clouddns::bench::StandardConfig(dataset.vantage, dataset.year);
  config.seed = seed;
  return config;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The Table 3 and Figure 1 numbers of one dataset.
struct Analysis {
  analysis::DatasetStats stats;
  std::vector<analysis::ProviderShare> shares;
};

Analysis Analyze(const ScenarioResult& result) {
  return {analysis::ComputeDatasetStats(result),
          analysis::ComputeCloudShares(result)};
}

/// Canonical text of a dataset's results: what the cold and warm loads
/// must agree on and what the reference digest covers.
std::string Render(const ScenarioResult& result, const Analysis& analysis) {
  char buf[256];
  std::string out;
  const auto& s = analysis.stats;
  std::snprintf(buf, sizeof buf,
                "table3 %" PRIu64 " %" PRIu64 " %" PRIu64 " %.9g %" PRIu64
                " %.9g\n",
                s.queries_total, s.queries_valid, s.resolvers_exact,
                s.resolvers_hll, s.ases_exact, s.ases_hll);
  out += buf;
  for (const auto& share : analysis.shares) {
    std::snprintf(buf, sizeof buf, "figure1 %s %" PRIu64 " %.9g\n",
                  std::string(clouddns::cloud::ToString(share.provider))
                      .c_str(),
                  share.queries, share.share);
    out += buf;
  }
  const auto& r = result.robustness;
  std::snprintf(buf, sizeof buf,
                "counts issued=%" PRIu64 " records=%zu leaf=%" PRIu64
                " upstream=%" PRIu64 " retransmits=%" PRIu64
                " timeouts=%" PRIu64 " failovers=%" PRIu64
                " served_stale=%" PRIu64 "\n",
                result.client_queries_issued, result.records.size(),
                result.leaf_queries, r.upstream_queries, r.retransmits,
                r.timeouts, r.failovers, r.served_stale);
  out += buf;
  return out;
}

bool StorageClean(const ScenarioResult& result) {
  return result.storage == base::io::StorageCounters{};
}

/// Failed/attempted bookkeeping: one operation per dataset load.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[gate] FAILED %s\n", what.c_str());
    }
  }
};

/// One cold LoadOrRun with the library's phase counters around it.
struct ColdLoad {
  ScenarioResult result;
  std::uint64_t wall_ns = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t io_ns = 0;
  std::uint64_t allocs = 0;
};

ColdLoad RunCold(const ScenarioConfig& config, const std::string& dir) {
  ColdLoad load;
  const std::uint64_t setup0 = base::PhaseNanos(base::Phase::kSetup);
  const std::uint64_t encode0 = base::PhaseNanos(base::Phase::kEncode);
  const std::uint64_t io0 = base::PhaseNanos(base::Phase::kIo);
  const std::uint64_t allocs0 = Allocs();
  const std::uint64_t t0 = NowNs();
  load.result = analysis::LoadOrRun(config, dir);
  load.wall_ns = NowNs() - t0;
  load.allocs = Allocs() - allocs0;
  load.setup_ns = base::PhaseNanos(base::Phase::kSetup) - setup0;
  load.encode_ns = base::PhaseNanos(base::Phase::kEncode) - encode0;
  load.io_ns = base::PhaseNanos(base::Phase::kIo) - io0;
  return load;
}

/// Checks a freshly built dataset: clean storage counters and, at the
/// default seed and full scale, the reference digest. Returns the render.
std::string CheckCold(const Dataset& dataset, const ColdLoad& load,
                      const std::string& dir, const Args& args, Gate& gate) {
  const std::string render = Render(load.result, Analyze(load.result));
  std::vector<std::uint8_t> capture;
  const std::string capture_path =
      dir + "/" + analysis::CacheKey(load.result.config) + ".cdns";
  bool ok = base::io::ReadFileBytes(capture_path, capture).ok();
  char digest[64];
  std::snprintf(digest, sizeof digest, "%016" PRIx64 "-%08x", Fnv1a(render),
                base::io::Crc32c(capture));
  std::printf("[det] %s digest %s allocs %" PRIu64 "\n",
              dataset.label.c_str(), digest, load.allocs);
  for (std::size_t at = 0; at < render.size();) {
    const std::size_t eol = render.find('\n', at);
    std::printf("[det] %s %s\n", dataset.label.c_str(),
                render.substr(at, eol - at).c_str());
    at = eol + 1;
  }
  if (!StorageClean(load.result)) ok = false;
  const bool full_scale = std::getenv("CLOUDDNS_QUERIES") == nullptr;
  if (args.seed == kDefaultSeed && full_scale) {
    const auto it = ReferenceDigests().find(dataset.label);
    if (it == ReferenceDigests().end() || it->second != digest) {
      std::fprintf(stderr, "[gate] %s digest %s != reference %s\n",
                   dataset.label.c_str(), digest,
                   it == ReferenceDigests().end() ? "(none)"
                                                  : it->second.c_str());
      ok = false;
    }
  }
  gate.Record(ok, dataset.label + " cold build (storage counters, digest)");
  return render;
}

/// Cumulative CPU time the hypervisor stole from this machine's CPUs
/// (/proc/stat "steal", in clock ticks summed over CPUs). A diagnostic for
/// shared hosts: builds that lost much time to steal read slow.
std::uint64_t StealTicks() {
  std::uint64_t steal = 0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      steal = v[7];
    }
    std::fclose(f);
  }
  return steal;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += gate.failed == 0 && gate.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gate.attempted);
  out += ", \"failed\": " + std::to_string(gate.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
}

/// Replay passes over a filled cache: LoadOrRun from the warm cache (frame
/// verify, columnar decode, file IO) plus the Table 3 and Figure 1
/// analyses, each checked against the cold build's render digest. Runs at
/// least one pass and until `seconds` have passed. Returns each pass's
/// records per second.
std::vector<double> RunReplay(const std::vector<Dataset>& datasets,
                              const Args& args,
                              const std::vector<std::uint64_t>& cold_digests,
                              double seconds, Gate& gate) {
  std::vector<double> rates;
  const std::uint64_t start = NowNs();
  do {
    std::vector<ScenarioResult> results;
    std::vector<Analysis> analyses;
    std::uint64_t records = 0;
    const std::uint64_t allocs0 = Allocs();
    const std::uint64_t t0 = NowNs();
    for (const Dataset& dataset : datasets) {
      results.push_back(
          analysis::LoadOrRun(ConfigOf(dataset, args.seed), args.scratch));
      analyses.push_back(Analyze(results.back()));
      records += results.back().records.size();
    }
    const std::uint64_t pass_ns = NowNs() - t0;
    if (rates.empty()) {
      std::printf("[det] replay pass records %" PRIu64 " allocs %" PRIu64 "\n",
                  records, Allocs() - allocs0);
    }
    rates.push_back(static_cast<double>(records) /
                    (static_cast<double>(pass_ns) * 1e-9));
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      gate.Record(StorageClean(results[d]) &&
                      Fnv1a(Render(results[d], analyses[d])) ==
                          cold_digests[d],
                  datasets[d].label + " warm replay equals cold build");
    }
  } while (static_cast<double>(NowNs() - start) * 1e-9 < seconds);
  std::printf("[replay] %zu warm replay passes, median %.0f records/s "
              "(min %.0f, max %.0f)\n",
              rates.size(), Median(rates),
              *std::min_element(rates.begin(), rates.end()),
              *std::max_element(rates.begin(), rates.end()));
  return rates;
}

/// One cold build of every dataset into the scratch directory, each
/// checked. Returns the build's metrics; `cold_digests` gets each
/// dataset's render digest.
std::vector<Metric> RunBuild(const std::vector<Dataset>& datasets,
                             const Args& args,
                             std::vector<std::uint64_t>& cold_digests,
                             Gate& gate) {
  std::uint64_t wall_ns = 0, setup_ns = 0, allocs = 0, issued = 0;
  const std::uint64_t steal0 = StealTicks();
  for (const Dataset& dataset : datasets) {
    ColdLoad load = RunCold(ConfigOf(dataset, args.seed), args.scratch);
    wall_ns += load.wall_ns;
    setup_ns += load.setup_ns;
    allocs += load.allocs;
    issued += load.result.client_queries_issued;
    cold_digests.push_back(
        Fnv1a(CheckCold(dataset, load, args.scratch, args, gate)));
  }
  const double rss = clouddns::bench::PeakRssMb();
  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  const double qps = static_cast<double>(issued) / wall_s;
  std::printf("[cold] build: %.3fs wall, %" PRIu64
              " client queries, %.0f q/s (wall clock), setup %.3fs, "
              "%.1f MiB peak, %.2f CPU-s stolen\n",
              wall_s, issued, qps, static_cast<double>(setup_ns) * 1e-9, rss,
              static_cast<double>(StealTicks() - steal0) /
                  static_cast<double>(sysconf(_SC_CLK_TCK)));
  return {{"setup_s", static_cast<double>(setup_ns) * 1e-9, "s"},
          {"wall_s", wall_s, "s"},
          {"allocs_per_client_query",
           static_cast<double>(allocs) / static_cast<double>(issued), "count"},
          {"peak_rss_mb", rss, "MiB"},
          {"cold_client_qps", qps, "1/s"}};
}

std::string DigestFile(const Args& args) {
  return args.scratch + "/cold_digests.txt";
}

/// The traced run: one cold build, one warm load and analysis, and every
/// layer probe, per dataset. Reports the per-layer metrics.
std::vector<Metric> RunTraced(const std::vector<Dataset>& datasets,
                              const Args& args, std::size_t threads,
                              Gate& gate) {
  ProbeTotals probes;
  std::uint64_t setup_ns = 0, simulate_ns = 0, encode_ns = 0, io_ns = 0;
  std::uint64_t load_ns = 0, scan_ns = 0, scan_allocs = 0, scan_records = 0;
  std::uint64_t replay_allocs = 0;
  std::uint64_t issued = 0, upstream = 0, leaf = 0, records = 0;
  std::uint64_t cold_wall_total_ns = 0;
  for (const Dataset& dataset : datasets) {
    const std::string dir = args.scratch + "/trace";
    const ScenarioConfig config = ConfigOf(dataset, args.seed);
    std::string cold_render;
    std::uint64_t cold_wall_ns = 0, cold_simulate_ns = 0;
    {
      ColdLoad load = RunCold(config, dir);
      cold_render = CheckCold(dataset, load, dir, args, gate);
      cold_wall_ns = load.wall_ns;
      cold_wall_total_ns += load.wall_ns;
      const std::uint64_t booked = load.setup_ns + load.encode_ns + load.io_ns;
      cold_simulate_ns = load.wall_ns > booked ? load.wall_ns - booked : 0;
      setup_ns += load.setup_ns;
      simulate_ns += cold_simulate_ns;
      encode_ns += load.encode_ns;
      io_ns += load.io_ns;
      issued += load.result.client_queries_issued;
      upstream += load.result.robustness.upstream_queries;
      leaf += load.result.leaf_queries;
      records += load.result.records.size();
      std::printf("[stage] %s cold wall %.3fs = setup %.3fs + simulate %.3fs "
                  "+ encode %.3fs + io %.3fs\n",
                  dataset.label.c_str(), cold_wall_ns * 1e-9,
                  load.setup_ns * 1e-9, cold_simulate_ns * 1e-9,
                  load.encode_ns * 1e-9, load.io_ns * 1e-9);
    }
    const std::uint64_t load_allocs0 = Allocs();
    const std::uint64_t t0 = NowNs();
    const ScenarioResult warm = analysis::LoadOrRun(config, dir);
    load_ns += NowNs() - t0;
    const std::uint64_t scan_allocs0 = Allocs();
    const std::uint64_t t1 = NowNs();
    const Analysis scanned = Analyze(warm);
    scan_ns += NowNs() - t1;
    scan_allocs += Allocs() - scan_allocs0;
    replay_allocs += Allocs() - load_allocs0;
    scan_records += warm.records.size();
    gate.Record(StorageClean(warm) && Render(warm, scanned) == cold_render,
                dataset.label + " warm replay equals cold build");

    const ProbeTotals before = probes;
    RunProbes(dataset, warm, probes);
    // Probe-side estimate of the simulate stage: the schedule replay plus
    // every client resolve at the probe's mean cost, spread over the
    // worker threads. Far off the measured stage = a probe has drifted.
    const double resolve_ns_each =
        static_cast<double>(probes.resolve_ns - before.resolve_ns) /
        static_cast<double>(probes.resolves - before.resolves);
    const double client_resolves =
        static_cast<double>(warm.config.client_queries) *
        (1.0 + warm.config.warmup_fraction);
    const double estimate_s =
        (static_cast<double>(probes.schedule_ns - before.schedule_ns) +
         resolve_ns_each * client_resolves) *
        1e-9 / static_cast<double>(threads);
    std::printf("[stage] %s simulate %.3fs measured vs %.3fs probe estimate "
                "(schedule + %.0f resolves x %.0f ns / %zu threads)\n",
                dataset.label.c_str(), cold_simulate_ns * 1e-9, estimate_s,
                client_resolves, resolve_ns_each, threads);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  auto per = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  double agreement = 1.0;
  {
    const double a = static_cast<double>(probes.auth_packets);
    double distance = 0;
    for (std::size_t i = 0; i < probes.auth_hist.size(); ++i) {
      distance += std::abs(static_cast<double>(probes.auth_hist[i]) / a -
                           static_cast<double>(probes.capture_hist[i]) / a);
    }
    agreement = 1.0 - 0.5 * distance;
  }
  return {
      {"pipeline.cold_client_qps", per(issued, cold_wall_total_ns) * 1e9,
       "1/s"},
      {"pipeline.replay_records_per_s",
       per(scan_records, load_ns + scan_ns) * 1e9, "1/s"},
      {"cloud.setup_s", setup_ns * 1e-9, "s"},
      {"zone.build_ns_per_name", per(probes.zone_build_ns, probes.zone_names),
       "ns"},
      {"zone.sign_ns_per_name", per(probes.zone_sign_ns, probes.zone_names),
       "ns"},
      {"cloud.simulate_s", simulate_ns * 1e-9, "s"},
      {"cloud.schedule_ns_per_query",
       per(probes.schedule_ns, probes.schedule_queries), "ns"},
      {"cloud.upstream_per_client_query", per(upstream, issued), "count"},
      {"cloud.leaf_per_client_query", per(leaf, issued), "count"},
      {"cloud.captured_per_client_query", per(records, issued), "count"},
      {"zone.lookup_ns", per(probes.lookup_ns, probes.lookups), "ns"},
      {"zone.lookup_allocs", per(probes.lookup_allocs, probes.lookups),
       "count"},
      {"server.auth_ns_per_packet", per(probes.auth_ns, probes.auth_packets),
       "ns"},
      {"server.auth_allocs_per_packet",
       per(probes.auth_allocs, probes.auth_packets), "count"},
      {"server.auth_capture_agreement", agreement, "ratio"},
      {"server.leaf_ns_per_packet", per(probes.leaf_ns, probes.leaf_packets),
       "ns"},
      {"sim.network_ns_per_query",
       per(probes.network_ns, probes.network_queries), "ns"},
      {"resolver.resolve_ns", per(probes.resolve_ns, probes.resolves), "ns"},
      {"resolver.self_ns",
       per(probes.resolve_ns - probes.resolve_handler_ns, probes.resolves),
       "ns"},
      {"resolver.allocs_per_resolve",
       per(probes.resolve_allocs, probes.resolves), "count"},
      {"resolver.upstream_per_resolve",
       per(probes.resolve_upstream, probes.resolves), "count"},
      {"capture.encode_s", encode_ns * 1e-9, "s"},
      {"capture.encode_ns_per_record",
       per(probes.encode_ns, probes.codec_records), "ns"},
      {"capture.bytes_per_record",
       per(probes.encoded_bytes, probes.codec_records), "bytes"},
      {"base.io_s", io_ns * 1e-9, "s"},
      {"capture.decode_ns_per_record",
       per(probes.decode_ns, probes.codec_records), "ns"},
      {"base.frame_gbps", per(probes.encoded_bytes, probes.frame_ns), "GB/s"},
      {"analysis.load_s", load_ns * 1e-9, "s"},
      {"analysis.allocs_per_replayed_record", per(replay_allocs, scan_records),
       "count"},
      {"capture.merge_ns_per_record",
       per(probes.merge_ns, probes.codec_records), "ns"},
      {"entrada.scan_s", scan_ns * 1e-9, "s"},
      {"entrada.scan_ns_per_record", per(scan_ns, scan_records), "ns"},
      {"entrada.allocs_per_record", per(scan_allocs, scan_records), "count"},
  };
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --step <build|fill|replay|trace> "
                 "--workload <cold_cctld|cold_root|warm_replay> --scratch DIR "
                 "[--seed N] [--seconds S]\n");
    return 2;
  }
  const std::vector<Dataset> datasets = DatasetsOf(args.workload);
  if (datasets.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // run.py pins CLOUDDNS_THREADS; this is the count the simulator uses.
  const std::size_t threads = clouddns::base::EffectiveThreads(0);
  std::printf("[perfbench] step %s workload %s seed %" PRIu64
              " threads %zu queries %s\n",
              args.step.c_str(), args.workload.c_str(), args.seed, threads,
              std::getenv("CLOUDDNS_QUERIES") != nullptr
                  ? std::getenv("CLOUDDNS_QUERIES")
                  : "standard");
  Gate gate;
  std::vector<Metric> metrics;
  if (args.step == "trace") {
    metrics = RunTraced(datasets, args, threads, gate);
  } else if (args.step == "replay") {
    std::vector<std::uint64_t> cold_digests;
    if (std::FILE* f = std::fopen(DigestFile(args).c_str(), "r")) {
      unsigned long long digest = 0;
      while (std::fscanf(f, "%llx", &digest) == 1) {
        cold_digests.push_back(digest);
      }
      std::fclose(f);
    }
    if (cold_digests.size() != datasets.size()) {
      std::fprintf(stderr, "perfbench: no cold digests in %s; run the fill "
                           "step first\n",
                   DigestFile(args).c_str());
      return 2;
    }
    const std::vector<double> rates =
        RunReplay(datasets, args, cold_digests, args.seconds, gate);
    metrics = {{"peak_rss_mb", clouddns::bench::PeakRssMb(), "MiB"},
               {"replay_records_per_s", Median(rates), "1/s"}};
  } else {
    std::vector<std::uint64_t> cold_digests;
    metrics = RunBuild(datasets, args, cold_digests, gate);
    if (args.step == "build") {
      (void)RunReplay(datasets, args, cold_digests, 0, gate);
    } else if (std::FILE* f = std::fopen(DigestFile(args).c_str(), "w")) {
      for (std::uint64_t digest : cold_digests) {
        std::fprintf(f, "%016" PRIx64 "\n", digest);
      }
      std::fclose(f);
    }
  }
  PrintResult(gate, metrics);
  return 0;
}
