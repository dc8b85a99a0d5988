// Per-layer probes of the traced run. Each probe calls one module's public
// functions with inputs taken from the dataset under test and times every
// call. The authoritative side is rebuilt from the public zone builders
// with the sizes and addresses RunScenario uses; the rcode/TC histogram of
// the auth probe, printed beside the captured one, shows when that rebuild
// drifts from what the scenario actually serves.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset_cache.h"
#include "base/io.h"
#include "capture/columnar.h"
#include "capture/merge.h"
#include "cloud/fleet.h"
#include "cloud/workload.h"
#include "dns/message.h"
#include "perfbench.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "sim/diurnal.h"
#include "sim/network.h"
#include "sim/random.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace perfbench {
namespace {

using namespace clouddns;

/// Captured records replayed by the zone, auth, leaf and network probes
/// (every k-th record, so a probe costs well under a second per dataset).
constexpr std::size_t kProbeSample = 60'000;

dns::Name N(const std::string& text) { return *dns::Name::Parse(text); }

/// Times every HandlePacket of the wrapped handler, so the resolver and
/// network probes can subtract the time spent inside the servers.
class TimedHandler final : public sim::PacketHandler {
 public:
  explicit TimedHandler(sim::PacketHandler& inner) : inner_(inner) {}

  void HandlePacket(const sim::PacketContext& ctx,
                    const dns::WireBuffer& query,
                    dns::WireBuffer& response) override {
    const std::uint64_t t0 = NowNs();
    inner_.HandlePacket(ctx, query, response);
    ns_ += NowNs() - t0;
  }
  using sim::PacketHandler::HandlePacket;

  [[nodiscard]] std::uint64_t ns() const { return ns_; }

 private:
  sim::PacketHandler& inner_;
  std::uint64_t ns_ = 0;
};

/// The scenario's zone images for one vantage and year, built and signed
/// the way RunScenario does it.
struct Zones {
  std::vector<net::IpAddress> root_v4, root_v6;
  std::vector<zone::NameserverSpec> nl_ns, nz_ns;
  std::shared_ptr<const zone::Zone> root;
  std::vector<std::shared_ptr<const zone::Zone>> nl, nz;
};

std::vector<zone::NameserverSpec> NsSet(const std::string& tld,
                                        std::size_t count,
                                        const std::string& v4_stem,
                                        const std::string& v6_stem) {
  std::vector<zone::NameserverSpec> ns_set;
  for (std::size_t s = 0; s < count; ++s) {
    ns_set.push_back(
        {N("ns" + std::to_string(s + 1) + ".dns." + tld),
         {*net::IpAddress::Parse(v4_stem + std::to_string(s + 1)),
          *net::IpAddress::Parse(v6_stem + std::to_string(s + 1))}});
  }
  return ns_set;
}

Zones BuildZones(const ScenarioConfig& config, ProbeTotals& totals) {
  Zones zones;
  const int yi = config.year - 2018;
  const double zs = config.zone_scale;
  const bool root_vantage = config.vantage == Vantage::kRoot;
  zones.nl_ns = NsSet("nl", yi == 2 ? 3 : 4, "194.0.28.", "2001:678:2c::");
  zones.nz_ns = NsSet("nz", 7, "197.0.29.", "2001:dce:2c::");
  for (std::size_t letter = 0; letter < (root_vantage ? 13u : 2u); ++letter) {
    zones.root_v4.push_back(net::IpAddress(
        net::Ipv4Address(198, 41, static_cast<std::uint8_t>(letter), 4)));
    zones.root_v6.push_back(*net::IpAddress::Parse(
        "2001:500:" + std::to_string(letter + 1) + "::53"));
  }

  const std::uint64_t build0 = NowNs();
  zone::ZoneBuildConfig root_config;
  root_config.negative_ttl = 86400;
  for (std::size_t letter = 0; letter < zones.root_v4.size(); ++letter) {
    root_config.nameservers.push_back(
        {N(std::string(1, static_cast<char>('a' + letter)) +
           ".root-servers.example"),
         {zones.root_v4[letter], zones.root_v6[letter]}});
  }
  zone::Zone root = zone::MakeZoneSkeleton(root_config);
  zone::AddDelegation(root, N("nl"), zones.nl_ns, true, 172800);
  zone::AddDelegation(root, N("nz"), zones.nz_ns, true, 172800);
  if (root_vantage) {
    for (int i = 0; i < 120; ++i) {
      const std::string tld = "tld" + std::to_string(i);
      zone::AddDelegation(
          root, N(tld),
          {{N("ns1.nic." + tld),
            {net::IpAddress(net::Ipv4Address(
                 0x65400000u + static_cast<std::uint32_t>(i) * 8)),
             net::IpAddress(*net::Ipv6Address::Parse(
                 "2001:db9:" + std::to_string(i) + "::53"))}}},
          i % 2 == 0, 172800);
    }
  }
  auto apex = [](const std::string& tld,
                 const std::vector<zone::NameserverSpec>& ns_set,
                 std::size_t domains) {
    zone::ZoneBuildConfig apex_config;
    apex_config.apex = N(tld);
    apex_config.nameservers = ns_set;
    zone::Zone apex_zone = zone::MakeZoneSkeleton(apex_config);
    zone::PopulateDelegations(apex_zone, domains, "dom", 0.55,
                              net::Ipv4Address(100, 70, 0, 0));
    return apex_zone;
  };
  zone::Zone nl = apex("nl", zones.nl_ns,
                       static_cast<std::size_t>((yi == 2 ? 5.9e6 : 5.8e6) * zs));
  zone::Zone nz =
      apex("nz", zones.nz_ns, static_cast<std::size_t>(140e3 * zs));
  zone::AddDelegation(nz, N("cyca.nz"), {{N("ns.cycb.nz"), {}}}, false);
  zone::AddDelegation(nz, N("cycb.nz"), {{N("ns.cyca.nz"), {}}}, false);
  const std::size_t per_sub =
      static_cast<std::size_t>((yi == 0 ? 580e3 : 570e3) * zs) / 5;
  std::vector<zone::Zone> subs;
  const char* sub_labels[] = {"co", "net", "org", "ac", "govt"};
  for (std::size_t sub = 0; sub < 5; ++sub) {
    zone::ZoneBuildConfig sub_config;
    sub_config.apex = N(std::string(sub_labels[sub]) + ".nz");
    sub_config.nameservers = zones.nz_ns;
    subs.push_back(zone::MakeZoneSkeleton(sub_config));
    zone::PopulateDelegations(
        subs.back(), per_sub, "dom", 0.55,
        net::Ipv4Address(0x64480000u + static_cast<std::uint32_t>(sub) *
                                           0x10000u));
    zone::AddDelegation(nz, subs.back().apex(), zones.nz_ns, true);
  }
  totals.zone_build_ns += NowNs() - build0;
  std::uint64_t names = root.name_count() + nl.name_count() + nz.name_count();
  for (const zone::Zone& sub : subs) names += sub.name_count();
  totals.zone_names += names;

  const std::uint64_t sign0 = NowNs();
  for (zone::Zone& sub : subs) zone::SignZone(sub);
  zone::SignZone(nz);
  zone::SignZone(nl);
  zone::SignZone(root);
  totals.zone_sign_ns += NowNs() - sign0;

  zones.root = std::make_shared<const zone::Zone>(std::move(root));
  zones.nl = {std::make_shared<const zone::Zone>(std::move(nl))};
  zones.nz = {std::make_shared<const zone::Zone>(std::move(nz))};
  for (zone::Zone& sub : subs) {
    zones.nz.push_back(std::make_shared<const zone::Zone>(std::move(sub)));
  }
  std::printf("[det] %s zone names %" PRIu64 "\n",
              std::string(cloud::ToString(config.vantage)).c_str(), names);
  return zones;
}

std::unique_ptr<server::AuthServer> MakeServer(
    const std::string& name,
    const std::vector<std::shared_ptr<const zone::Zone>>& zones) {
  server::AuthServerConfig config;
  config.name = name;
  config.capture_enabled = false;
  auto server = std::make_unique<server::AuthServer>(config);
  for (const auto& zone : zones) server->Serve(zone);
  return server;
}

/// Every k-th captured record, walking the shards in order.
std::vector<const capture::CaptureRecord*> Sample(
    const capture::ShardedCapture& records) {
  const std::size_t stride =
      std::max<std::size_t>(1, (records.size() + kProbeSample - 1) /
                                   kProbeSample);
  std::vector<const capture::CaptureRecord*> sample;
  std::size_t index = 0;
  for (std::size_t s = 0; s < records.shard_count(); ++s) {
    for (const capture::CaptureRecord& record : records.shard(s)) {
      if (index++ % stride == 0) sample.push_back(&record);
    }
  }
  return sample;
}

void EncodeQuery(const capture::CaptureRecord& record, dns::Message& message,
                 dns::WireBuffer& wire) {
  std::optional<dns::EdnsInfo> edns;
  if (record.has_edns) {
    edns = dns::EdnsInfo{record.edns_udp_size, record.do_bit, 0};
  }
  message.ResetAsQueryFor(static_cast<std::uint16_t>(record.src_port),
                          record.qname, record.qtype, edns);
  message.EncodeInto(wire);
}

sim::PacketContext ContextOf(const capture::CaptureRecord& record) {
  sim::PacketContext ctx;
  ctx.src = {record.src, record.src_port};
  ctx.transport = record.transport;
  ctx.time_us = record.time_us;
  ctx.handshake_rtt_us = record.tcp_handshake_rtt_us;
  return ctx;
}

/// Histogram slot of a response: rcode * 2 + TC (rcodes are 4 bits).
/// kDroppedSlot counts queries the server did not answer.
std::size_t Slot(std::uint8_t rcode, bool tc) {
  return (rcode & 0x0fu) * 2u + (tc ? 1u : 0u);
}
constexpr std::size_t kDroppedSlot = 32;

void ProbeZoneLookups(const Zones& zones,
                      const std::vector<const capture::CaptureRecord*>& sample,
                      const std::string& label, ProbeTotals& totals) {
  std::vector<const zone::Zone*> all = {zones.root.get()};
  for (const auto& z : zones.nl) all.push_back(z.get());
  for (const auto& z : zones.nz) all.push_back(z.get());
  std::vector<std::uint64_t> status(5, 0);
  const std::uint64_t allocs0 = Allocs();
  for (const capture::CaptureRecord* record : sample) {
    const zone::Zone* best = nullptr;
    for (const zone::Zone* z : all) {
      if (record->qname.IsSubdomainOf(z->apex()) &&
          (best == nullptr ||
           z->apex().LabelCount() > best->apex().LabelCount())) {
        best = z;
      }
    }
    const std::uint64_t t0 = NowNs();
    const zone::LookupResult result = best->Lookup(record->qname, record->qtype);
    totals.lookup_ns += NowNs() - t0;
    ++status[static_cast<std::size_t>(result.status)];
  }
  totals.lookup_allocs += Allocs() - allocs0;
  totals.lookups += sample.size();
  std::printf("[det] %s zone.lookup answer %" PRIu64 " delegation %" PRIu64
              " nxdomain %" PRIu64 " nodata %" PRIu64 " notinzone %" PRIu64
              "\n",
              label.c_str(), status[0], status[1], status[2], status[3],
              status[4]);
}

void ProbeAuth(server::AuthServer& server,
               const std::vector<const capture::CaptureRecord*>& sample,
               const std::string& label, ProbeTotals& totals) {
  std::vector<std::uint64_t> probe(kDroppedSlot + 1, 0);
  std::vector<std::uint64_t> captured(kDroppedSlot + 1, 0);
  dns::Message message;
  dns::WireBuffer wire, response;
  for (const capture::CaptureRecord* record : sample) {
    EncodeQuery(*record, message, wire);
    const sim::PacketContext ctx = ContextOf(*record);
    const std::uint64_t allocs0 = Allocs();
    const std::uint64_t t0 = NowNs();
    server.HandlePacket(ctx, wire, response);
    totals.auth_ns += NowNs() - t0;
    totals.auth_allocs += Allocs() - allocs0;
    const std::size_t slot =
        response.size() < 4
            ? kDroppedSlot
            : Slot(response[3], ((response[2] >> 1) & 1) != 0);
    ++probe[slot];
    ++captured[Slot(static_cast<std::uint8_t>(record->rcode), record->tc)];
  }
  totals.auth_packets += sample.size();
  std::printf("[auth] %s rcode/TC histogram: probe vs captured (%zu queries)\n",
              label.c_str(), sample.size());
  for (std::size_t slot = 0; slot <= kDroppedSlot; ++slot) {
    if (probe[slot] == 0 && captured[slot] == 0) continue;
    const std::string name =
        slot == kDroppedSlot ? std::string("dropped")
                   : std::string(dns::ToString(
                         static_cast<dns::Rcode>(slot / 2))) +
                         (slot % 2 == 1 ? "+TC" : "");
    std::printf("[det] %s auth %-14s probe %8" PRIu64 " captured %8" PRIu64
                "\n",
                label.c_str(), name.c_str(), probe[slot], captured[slot]);
    totals.auth_hist[slot] += probe[slot];
    totals.capture_hist[slot] += captured[slot];
  }
}

void ProbeLeaf(const std::vector<const capture::CaptureRecord*>& sample,
               ProbeTotals& totals) {
  server::LeafAuthService leaf(server::LeafAuthConfig{});
  dns::Message message;
  dns::WireBuffer wire, response;
  for (const capture::CaptureRecord* record : sample) {
    EncodeQuery(*record, message, wire);
    const sim::PacketContext ctx = ContextOf(*record);
    const std::uint64_t t0 = NowNs();
    leaf.HandlePacket(ctx, wire, response);
    totals.leaf_ns += NowNs() - t0;
  }
  totals.leaf_packets += sample.size();
}

/// The probe's network plane: the rebuilt servers behind timing wrappers,
/// anycast from a few sites, with the leaf service as the default route.
struct Plane {
  sim::LatencyModel latency;
  std::vector<sim::SiteId> sites;
  std::vector<std::unique_ptr<server::AuthServer>> servers;
  server::LeafAuthService leaf{server::LeafAuthConfig{}};
  std::vector<std::unique_ptr<TimedHandler>> timed;
  std::unique_ptr<sim::Network> network;

  [[nodiscard]] std::uint64_t HandlerNs() const {
    std::uint64_t ns = 0;
    for (const auto& handler : timed) ns += handler->ns();
    return ns;
  }
};

void BuildPlane(const Zones& zones, Plane& plane) {
  const double coords[][2] = {{0, 0}, {-42, 8}, {60, 34}, {-48, 52},
                              {88, 46}, {18, 58}};
  for (const auto& xy : coords) {
    plane.sites.push_back(plane.latency.AddSite(
        {"S" + std::to_string(plane.sites.size()), xy[0], xy[1], 1.0, 0.0}));
  }
  plane.network = std::make_unique<sim::Network>(plane.latency);
  auto serve = [&plane](std::unique_ptr<server::AuthServer> server,
                        const std::vector<net::IpAddress>& addresses) {
    plane.timed.push_back(std::make_unique<TimedHandler>(*server));
    for (const net::IpAddress& address : addresses) {
      for (sim::SiteId site : plane.sites) {
        plane.network->RegisterServer(address, site, *plane.timed.back());
      }
    }
    plane.servers.push_back(std::move(server));
  };
  std::vector<net::IpAddress> root_addresses = zones.root_v4;
  root_addresses.insert(root_addresses.end(), zones.root_v6.begin(),
                        zones.root_v6.end());
  serve(MakeServer("root", {zones.root}), root_addresses);
  for (const auto* ns_set : {&zones.nl_ns, &zones.nz_ns}) {
    std::vector<net::IpAddress> addresses;
    for (const auto& ns : *ns_set) {
      addresses.insert(addresses.end(), ns.addresses.begin(),
                       ns.addresses.end());
    }
    serve(MakeServer("tld", ns_set == &zones.nl_ns ? zones.nl : zones.nz),
          addresses);
  }
  plane.timed.push_back(std::make_unique<TimedHandler>(plane.leaf));
  plane.network->SetDefaultRoute(plane.sites[1], *plane.timed.back());
}

void ProbeNetwork(Plane& plane, const net::IpAddress& v4,
                  const net::IpAddress& v6,
                  const std::vector<const capture::CaptureRecord*>& sample,
                  ProbeTotals& totals) {
  dns::Message message;
  dns::WireBuffer wire;
  sim::Network::SendResult result;
  std::uint64_t query_ns = 0;
  const std::uint64_t handler0 = plane.HandlerNs();
  for (const capture::CaptureRecord* record : sample) {
    EncodeQuery(*record, message, wire);
    const std::uint64_t t0 = NowNs();
    plane.network->Query({record->src, record->src_port}, plane.sites[0],
                         record->src.is_v4() ? v4 : v6, record->transport,
                         wire, record->time_us, result);
    query_ns += NowNs() - t0;
  }
  totals.network_ns += query_ns - (plane.HandlerNs() - handler0);
  totals.network_queries += sample.size();
}

/// The client workload RunScenario gives one fleet at this vantage.
cloud::WorkloadSpec SpecFor(const ScenarioConfig& config,
                            const cloud::Fleet& fleet) {
  const int yi = config.year - 2018;
  const double zs = config.zone_scale;
  cloud::WorkloadSpec spec;
  double vantage_junk = 1.0;
  if (config.vantage == Vantage::kNl) {
    vantage_junk = yi == 0 ? 0.55 : (yi == 1 ? 0.58 : 0.72);
    spec.suffixes = {{N("nl"),
                      static_cast<std::size_t>(
                          (config.year == 2020 ? 5.9e6 : 5.8e6) * zs),
                      1.0, "dom"}};
  } else if (config.vantage == Vantage::kNz) {
    vantage_junk = yi == 0 ? 1.95 : (yi == 1 ? 1.10 : 2.15);
    const auto second = static_cast<std::size_t>(140e3 * zs);
    const auto per_sub = static_cast<std::size_t>(
        (config.year == 2018 ? 580e3 : 570e3) * zs / 5);
    spec.suffixes = {{N("nz"), second, 0.25, "dom"},
                     {N("co.nz"), per_sub, 0.45, "dom"},
                     {N("net.nz"), per_sub, 0.10, "dom"},
                     {N("org.nz"), per_sub, 0.10, "dom"},
                     {N("ac.nz"), per_sub, 0.06, "dom"},
                     {N("govt.nz"), per_sub, 0.04, "dom"}};
  } else {
    spec.suffixes = {
        {N("nl"), static_cast<std::size_t>(5.8e6 * zs), 0.04, "dom"},
        {N("nz"), static_cast<std::size_t>(140e3 * zs), 0.01, "dom"}};
    for (int i = 0; i < 120; ++i) {
      spec.suffixes.push_back({N("tld" + std::to_string(i)),
                               static_cast<std::size_t>(40e3 * zs) + 20,
                               1.0 / std::pow(i + 2.0, 0.8), "dom"});
    }
    const double base_chromium = yi == 1 ? 0.22 : 0.38;
    spec.chromium_fraction =
        base_chromium *
        (fleet.provider == cloud::Provider::kOther
             ? 1.0
             : cloud::ProfileFor(fleet.provider, config.year)
                   .root_junk_multiplier);
  }
  spec.junk_fraction = std::min(0.9, fleet.junk_fraction * vantage_junk);
  return spec;
}

/// Replays the client schedule the way each scenario shard does: every
/// shard draws the whole global sequence (time, fleet, engine) and asks its
/// own generator for the queries whose engine it owns. With `resolve` set,
/// shard 0's queries are also resolved by the fleets' engines, each
/// Resolve timed.
void ProbeSchedule(const ScenarioConfig& config,
                   std::vector<cloud::Fleet>& fleets, Plane& plane,
                   const std::string& label, ProbeTotals& totals) {
  std::vector<cloud::WorkloadSpec> specs;
  std::vector<double> weights;
  std::vector<sim::DiscreteSampler> engine_samplers;
  std::vector<std::vector<std::size_t>> owner(fleets.size());
  std::size_t counter = 0;
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    specs.push_back(SpecFor(config, fleets[f]));
    weights.push_back(fleets[f].client_weight);
    engine_samplers.emplace_back(fleets[f].engine_weights);
    for (std::size_t e = 0; e < fleets[f].engines.size(); ++e) {
      owner[f].push_back(counter++ % config.shards);
    }
  }
  const sim::DiscreteSampler fleet_sampler(weights);
  const sim::TimeUs start = cloud::WeekStart(config.vantage, config.year);
  const sim::TimeUs end = start + cloud::WindowLength(config.vantage);
  const std::uint64_t total =
      analysis::EffectiveQueryBudget(config.client_queries);
  const auto warmup = static_cast<std::uint64_t>(
      static_cast<double>(total) * config.warmup_fraction);
  const sim::TimeUs warmup_span =
      std::min<sim::TimeUs>(sim::kMicrosPerDay, end - start);
  const sim::DiurnalWarp diurnal(start, end, config.diurnal_amplitude);

  std::uint64_t sink = 0;
  std::uint64_t upstream = 0, allocs = 0, resolves = 0, answered = 0;
  for (std::size_t shard = 0; shard < config.shards; ++shard) {
    std::vector<cloud::WorkloadGenerator> generators;
    for (std::size_t f = 0; f < fleets.size(); ++f) {
      generators.emplace_back(
          specs[f], sim::SubstreamSeed(config.seed ^ (0xabcdull + f), shard));
    }
    const bool resolve = shard == 0;
    sim::Rng rng(config.seed ^ 0x10adull);
    const std::uint64_t t0 = NowNs();
    std::uint64_t resolve_ns = 0;
    for (std::uint64_t i = 0; i < total + warmup; ++i) {
      const sim::TimeUs t =
          i < warmup ? start - warmup_span + (warmup_span * i) / warmup
                     : diurnal.TimeOf(i - warmup, total) + rng.NextBelow(1000);
      const std::size_t f = fleet_sampler.Sample(rng);
      const std::size_t e = engine_samplers[f].Sample(rng);
      if (owner[f][e] != shard) continue;
      const cloud::ClientQuery query = generators[f].Next();
      sink += query.qname.LabelCount();
      if (!resolve) continue;
      const std::uint64_t handler0 = plane.HandlerNs();
      const std::uint64_t allocs0 = Allocs();
      const std::uint64_t r0 = NowNs();
      const auto result =
          fleets[f].engines[e]->Resolve(query.qname, query.qtype, t);
      const std::uint64_t elapsed = NowNs() - r0;
      allocs += Allocs() - allocs0;
      resolve_ns += elapsed;
      totals.resolve_ns += elapsed;
      totals.resolve_handler_ns += plane.HandlerNs() - handler0;
      upstream += static_cast<std::uint64_t>(result.upstream_queries);
      answered += result.rcode == dns::Rcode::kNoError ? 1 : 0;
      ++resolves;
    }
    totals.schedule_ns += NowNs() - t0 - resolve_ns;
  }
  totals.schedule_queries += total;
  totals.resolves += resolves;
  totals.resolve_allocs += allocs;
  totals.resolve_upstream += upstream;
  std::printf("[det] %s schedule draws %" PRIu64 " x %zu shards sink %" PRIu64
              "\n",
              label.c_str(), total + warmup, config.shards, sink);
  std::printf("[det] %s resolver resolves %" PRIu64 " noerror %" PRIu64
              " upstream %" PRIu64 " allocs %" PRIu64 "\n",
              label.c_str(), resolves, answered, upstream, allocs);
}

void ProbeCodec(const ScenarioResult& result, const std::string& label,
                ProbeTotals& totals) {
  const capture::CaptureBuffer flat = result.records.FlattenCopy();
  std::uint64_t t0 = NowNs();
  const std::vector<std::uint8_t> bytes = capture::EncodeColumnar(flat);
  totals.encode_ns += NowNs() - t0;

  t0 = NowNs();
  const std::optional<capture::CaptureBuffer> decoded =
      capture::DecodeColumnar(bytes);
  totals.decode_ns += NowNs() - t0;

  const std::vector<std::uint8_t> framed =
      base::io::WrapFrame(base::io::kTagCapture, bytes);
  std::vector<std::uint8_t> payload;
  bool was_framed = false;
  t0 = NowNs();
  const base::io::IoStatus status = base::io::UnwrapFrame(
      framed, base::io::kTagCapture, payload, was_framed);
  totals.frame_ns += NowNs() - t0;

  std::vector<capture::CaptureBuffer> shards;
  for (std::size_t s = 0; s < result.records.shard_count(); ++s) {
    shards.push_back(result.records.shard(s));
  }
  t0 = NowNs();
  const capture::CaptureBuffer merged = capture::MergeShards(std::move(shards));
  totals.merge_ns += NowNs() - t0;

  totals.codec_records += flat.size();
  totals.encoded_bytes += bytes.size();
  const bool roundtrip = decoded.has_value() && *decoded == flat &&
                         status.ok() && was_framed && payload == bytes &&
                         merged == flat;
  std::printf("[det] %s codec records %zu bytes %zu roundtrip %s\n",
              label.c_str(), flat.size(), bytes.size(),
              roundtrip ? "ok" : "MISMATCH");
}

}  // namespace

void RunProbes(const Dataset& dataset, const ScenarioResult& result,
               ProbeTotals& totals) {
  const ScenarioConfig& config = result.config;
  const std::string& label = dataset.label;
  ProbeCodec(result, label, totals);

  const Zones zones = BuildZones(config, totals);
  const std::vector<const capture::CaptureRecord*> sample =
      Sample(result.records);
  ProbeZoneLookups(zones, sample, label, totals);

  const bool root = config.vantage == Vantage::kRoot;
  const auto& captured_zones =
      root ? std::vector<std::shared_ptr<const zone::Zone>>{zones.root}
           : (config.vantage == Vantage::kNl ? zones.nl : zones.nz);
  auto server = MakeServer("probe", captured_zones);
  ProbeAuth(*server, sample, label, totals);
  ProbeLeaf(sample, totals);

  Plane plane;
  BuildPlane(zones, plane);
  const auto& ns = config.vantage == Vantage::kNz ? zones.nz_ns : zones.nl_ns;
  ProbeNetwork(plane, root ? zones.root_v4[1] : ns[0].addresses[0],
               root ? zones.root_v6[1] : ns[0].addresses[1], sample, totals);

  cloud::FleetBuildContext ctx;
  ctx.latency = &plane.latency;
  ctx.network = plane.network.get();
  ctx.root_v4 = zones.root_v4;
  ctx.root_v6 = zones.root_v6;
  ctx.resolver_sites = plane.sites;
  ctx.fleet_scale = config.fleet_scale;
  ctx.seed = config.seed;
  ctx.qmin_off = config.qmin_override_off;
  net::AsDatabase asdb;
  cloud::RegisterProviderAses(asdb);
  std::vector<cloud::Fleet> fleets;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    fleets.push_back(cloud::BuildProviderFleet(
        cloud::ProfileFor(provider, config.year), ctx));
  }
  fleets.push_back(cloud::BuildOtherFleet(
      config.year,
      static_cast<std::size_t>((root ? 46000 : 39000) * config.as_scale), asdb,
      ctx));
  ProbeSchedule(config, fleets, plane, label, totals);
}

}  // namespace perfbench
