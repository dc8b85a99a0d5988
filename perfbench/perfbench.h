// Shared pieces of the cold/warm pipeline benchmark (perfbench): the
// datasets each workload runs, the allocation counter, a monotonic clock,
// and the per-layer probes of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/scenario.h"

namespace perfbench {

using clouddns::cloud::ScenarioConfig;
using clouddns::cloud::ScenarioResult;
using clouddns::cloud::Vantage;

/// One Table 3 cell the benchmark builds, stores and analyzes.
struct Dataset {
  Vantage vantage;
  int year;
  std::string label;  ///< "nl_2020", "root_2018", ...
};

/// Heap allocations made by every thread since process start (the counting
/// operator new lives in main.cc).
std::uint64_t Allocs();

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Running totals of the per-layer probes over a workload's datasets. Times
/// are nanoseconds of the probed calls; counts are exact and deterministic.
struct ProbeTotals {
  // zone: build and sign the scenario's zone images.
  std::uint64_t zone_names = 0;
  std::uint64_t zone_build_ns = 0;
  std::uint64_t zone_sign_ns = 0;
  // zone: Zone::Lookup over captured qnames.
  std::uint64_t lookups = 0;
  std::uint64_t lookup_ns = 0;
  std::uint64_t lookup_allocs = 0;
  // server: AuthServer::HandlePacket on re-encoded captured queries.
  std::uint64_t auth_packets = 0;
  std::uint64_t auth_ns = 0;
  std::uint64_t auth_allocs = 0;
  /// (rcode, tc) -> count, for the probe's responses and for the captured
  /// records of the same sample. Index = rcode * 2 + tc; index 32 counts
  /// unanswered queries.
  std::vector<std::uint64_t> auth_hist = std::vector<std::uint64_t>(33, 0);
  std::vector<std::uint64_t> capture_hist = std::vector<std::uint64_t>(33, 0);
  // server: LeafAuthService::HandlePacket.
  std::uint64_t leaf_packets = 0;
  std::uint64_t leaf_ns = 0;
  // sim: Network::Query minus the time inside the handlers.
  std::uint64_t network_queries = 0;
  std::uint64_t network_ns = 0;
  // resolver: RecursiveResolver::Resolve on the client schedule.
  std::uint64_t resolves = 0;
  std::uint64_t resolve_ns = 0;
  std::uint64_t resolve_handler_ns = 0;
  std::uint64_t resolve_allocs = 0;
  std::uint64_t resolve_upstream = 0;
  // cloud: schedule replay (samplers, diurnal warp, WorkloadGenerator::Next)
  // for every shard, over the scenario's client queries.
  std::uint64_t schedule_queries = 0;
  std::uint64_t schedule_ns = 0;
  // capture: columnar codec, framing and shard merge over the capture.
  std::uint64_t codec_records = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t frame_ns = 0;  ///< Verifying the framed encoded bytes.
  std::uint64_t merge_ns = 0;
};

/// Runs every layer probe on one dataset: `result` is the dataset's
/// pipeline output (its capture supplies the probes' query inputs).
/// Prints the deterministic counts and the rcode/TC histograms of this
/// dataset and adds its timings to `totals`.
void RunProbes(const Dataset& dataset, const ScenarioResult& result,
               ProbeTotals& totals);

}  // namespace perfbench
