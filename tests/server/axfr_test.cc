// Zone-transfer (AXFR) tests: server-side gating and client-side
// reassembly through the simulated network.
#include "server/axfr.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "server/auth_server.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::server {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

struct AxfrFixture {
  AxfrFixture() {
    site = latency.AddSite({"AMS", 0, 0, 1.0, 0.0});
    client_site = latency.AddSite({"FRA", 8, 0, 1.0, 0.0});
    network = std::make_unique<sim::Network>(latency);

    zone::ZoneBuildConfig config;
    config.apex = N("nl");
    config.nameservers = {
        {N("ns1.dns.nl"), {*net::IpAddress::Parse("194.0.28.1")}}};
    auto nl = zone::MakeZoneSkeleton(config);
    zone::PopulateDelegations(nl, 40, "dom", 0.5,
                              net::Ipv4Address(100, 70, 0, 0));
    master_zone = std::make_shared<const zone::Zone>(std::move(nl));

    AuthServerConfig server_config;
    server_config.axfr_allow = {*net::Prefix::Parse("10.9.0.0/16")};
    primary = std::make_unique<AuthServer>(server_config);
    primary->Serve(master_zone);
    network->RegisterServer(*net::IpAddress::Parse("194.0.28.1"), site,
                            *primary);
  }

  AxfrResult Fetch(const char* source, const char* apex = "nl") {
    return AxfrFetch(*network, {*net::IpAddress::Parse(source), 40000},
                     client_site, *net::IpAddress::Parse("194.0.28.1"),
                     N(apex));
  }

  sim::LatencyModel latency;
  sim::SiteId site, client_site;
  std::unique_ptr<sim::Network> network;
  std::shared_ptr<const zone::Zone> master_zone;
  std::unique_ptr<AuthServer> primary;
};

TEST(AxfrTest, TransfersFullZoneToAllowedSecondary) {
  AxfrFixture f;
  auto result = f.Fetch("10.9.1.1");
  ASSERT_TRUE(result.zone.has_value()) << result.error;
  EXPECT_EQ(result.zone->apex(), N("nl"));
  EXPECT_EQ(result.zone->record_count(), f.master_zone->record_count());
  EXPECT_EQ(result.zone->name_count(), f.master_zone->name_count());

  // The transferred replica answers identically to the primary.
  for (int i : {0, 13, 39}) {
    dns::Name child = N(("dom" + std::to_string(i) + ".nl").c_str());
    auto a = f.master_zone->Lookup(child.Child("www"), dns::RrType::kA);
    auto b = result.zone->Lookup(child.Child("www"), dns::RrType::kA);
    EXPECT_EQ(a.status, b.status);
    EXPECT_TRUE(std::ranges::equal(a.records, b.records));
    EXPECT_TRUE(std::ranges::equal(a.ds, b.ds));
  }
  auto nx = result.zone->Lookup(N("nope.nl"), dns::RrType::kA);
  EXPECT_EQ(nx.status, zone::LookupStatus::kNxDomain);
}

TEST(AxfrTest, RefusesDisallowedSources) {
  AxfrFixture f;
  auto result = f.Fetch("203.0.113.5");
  EXPECT_FALSE(result.zone.has_value());
  EXPECT_NE(result.error.find("REFUSED"), std::string::npos);
}

TEST(AxfrTest, RefusesZonesItDoesNotServe) {
  AxfrFixture f;
  auto result = f.Fetch("10.9.1.1", "nz");
  EXPECT_FALSE(result.zone.has_value());
}

TEST(AxfrTest, NonApexNameRefused) {
  AxfrFixture f;
  auto result = f.Fetch("10.9.1.1", "dom3.nl");
  EXPECT_FALSE(result.zone.has_value());
}

TEST(AxfrTest, UdpAxfrIsTruncatedToForceTcp) {
  AxfrFixture f;
  dns::Message query = dns::Message::MakeQuery(1, N("nl"), dns::RrType::kAxfr);
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.9.1.1"), 40000};
  ctx.transport = dns::Transport::kUdp;
  auto wire = f.primary->HandlePacket(ctx, query.Encode());
  auto response = dns::Message::Decode(wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.tc);
  EXPECT_TRUE(response->answers.empty());
}

TEST(AxfrTest, TransfersAreNotCaptured) {
  // The study's capture stream is query traffic; bulk transfers between
  // the operator's own servers must not pollute it.
  AxfrFixture f;
  auto result = f.Fetch("10.9.1.1");
  ASSERT_TRUE(result.zone.has_value());
  EXPECT_TRUE(f.primary->captured().empty());
}

TEST(AxfrTest, SignedZoneTransfersSignatures) {
  AxfrFixture f;
  zone::ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("197.0.29.1")}}};
  auto nz = zone::MakeZoneSkeleton(config);
  zone::SignZone(nz);
  auto signed_zone = std::make_shared<const zone::Zone>(std::move(nz));

  AuthServerConfig server_config;
  server_config.axfr_allow = {*net::Prefix::Parse("10.9.0.0/16")};
  AuthServer primary(server_config);
  primary.Serve(signed_zone);
  f.network->RegisterServer(*net::IpAddress::Parse("197.0.29.1"), f.site,
                            primary);

  auto result = AxfrFetch(*f.network,
                          {*net::IpAddress::Parse("10.9.1.1"), 40000},
                          f.client_site, *net::IpAddress::Parse("197.0.29.1"),
                          N("nz"));
  ASSERT_TRUE(result.zone.has_value()) << result.error;
  EXPECT_TRUE(result.zone->IsSigned());
  EXPECT_FALSE(result.zone->Find(N("nz"), dns::RrType::kRrsig).empty());
}

TEST(AxfrTest, NamesAndTransferOrderAreIdenticalAcrossBuilds) {
  // Names() and the AXFR stream walk the zone in its own storage order.
  // Two builds from the same inputs must produce the same order, or the
  // signer's targets and the transferred stream would depend on more
  // than the zone's content.
  auto build = [] {
    zone::ZoneBuildConfig config;
    config.apex = N("nl");
    config.nameservers = {
        {N("ns1.dns.nl"), {*net::IpAddress::Parse("194.0.28.1")}}};
    auto nl = zone::MakeZoneSkeleton(config);
    zone::PopulateDelegations(nl, 20, "dom", 0.5,
                              net::Ipv4Address(100, 70, 0, 0));
    zone::SignZone(nl);
    return std::make_shared<const zone::Zone>(std::move(nl));
  };
  auto transfer = [](std::shared_ptr<const zone::Zone> zone) {
    AuthServerConfig config;
    config.axfr_allow = {*net::Prefix::Parse("10.9.0.0/16")};
    AuthServer server(config);
    server.Serve(std::move(zone));
    dns::Message query =
        dns::Message::MakeQuery(7, N("nl"), dns::RrType::kAxfr);
    sim::PacketContext ctx;
    ctx.src = {*net::IpAddress::Parse("10.9.1.1"), 40000};
    ctx.transport = dns::Transport::kTcp;
    auto response =
        dns::Message::Decode(server.HandlePacket(ctx, query.Encode()));
    return response ? response->answers : std::vector<dns::ResourceRecord>{};
  };
  auto first = build();
  auto second = build();
  EXPECT_EQ(first->Names(), second->Names());
  const auto stream = transfer(first);
  // SOA, every record but the SOA, SOA.
  ASSERT_EQ(stream.size(), first->record_count() + 1);
  EXPECT_EQ(stream, transfer(second));
}

}  // namespace
}  // namespace clouddns::server
