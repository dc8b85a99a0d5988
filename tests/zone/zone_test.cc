#include "zone/zone.h"

#include <gtest/gtest.h>

#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

Zone MakeNlZone() {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}},
      {N("ns2.dns.nl"), {*net::IpAddress::Parse("192.0.2.54")}},
  };
  Zone zone = MakeZoneSkeleton(config);
  AddDelegation(zone, N("example.nl"),
                {{N("ns1.example.nl"), {*net::IpAddress::Parse("198.51.100.1")}},
                 {N("ns2.example.nl"), {*net::IpAddress::Parse("198.51.100.2")}}},
                /*with_ds=*/true);
  AddDelegation(zone, N("unsigned.nl"),
                {{N("ns1.unsigned.nl"), {*net::IpAddress::Parse("198.51.100.9")}}},
                /*with_ds=*/false);
  return zone;
}

TEST(ZoneTest, RejectsOutOfZoneRecords) {
  Zone zone(N("nl"));
  EXPECT_THROW(zone.Add(dns::MakeA(N("example.nz"),
                                   net::Ipv4Address(1, 2, 3, 4), 60)),
               std::invalid_argument);
}

TEST(ZoneTest, ApexSoaAndNsAnswer) {
  Zone zone = MakeNlZone();
  auto soa = zone.Lookup(N("nl"), dns::RrType::kSoa);
  EXPECT_EQ(soa.status, LookupStatus::kAnswer);
  ASSERT_EQ(soa.records.size(), 1u);

  auto ns = zone.Lookup(N("nl"), dns::RrType::kNs);
  EXPECT_EQ(ns.status, LookupStatus::kAnswer);
  EXPECT_EQ(ns.records.size(), 2u);
}

TEST(ZoneTest, DelegationReturnsReferralWithGlue) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("www.example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(*result.cut, N("example.nl"));
  EXPECT_EQ(result.records.size(), 2u);  // the NS set
  std::vector<dns::ResourceRecord> glue;
  zone.AppendGlue(result, glue);
  EXPECT_EQ(glue.size(), 2u);            // in-zone glue A records
  EXPECT_EQ(result.ds.size(), 1u);       // signed child
}

TEST(ZoneTest, DelegationAtCutItself) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(*result.cut, N("example.nl"));
}

TEST(ZoneTest, DsQueryAtCutIsAnsweredByParent) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nl"), dns::RrType::kDs);
  EXPECT_EQ(result.status, LookupStatus::kAnswer);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, dns::RrType::kDs);
}

TEST(ZoneTest, DsQueryForUnsignedChildIsNoData) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("unsigned.nl"), dns::RrType::kDs);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
  EXPECT_FALSE(result.soa.empty());
}

TEST(ZoneTest, NxDomainForUnregisteredName) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("definitely-not-registered.nl"),
                            dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  ASSERT_EQ(result.soa.size(), 1u);
  EXPECT_EQ(result.soa[0].type, dns::RrType::kSoa);
}

TEST(ZoneTest, NoDataForExistingNameWrongType) {
  Zone zone = MakeNlZone();
  // ns1.dns.nl exists with an A record but has no MX.
  auto result = zone.Lookup(N("ns1.dns.nl"), dns::RrType::kMx);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST(ZoneTest, EmptyNonTerminalIsNoDataNotNxDomain) {
  Zone zone = MakeNlZone();
  // "dns.nl" exists only as the parent of ns1/ns2.dns.nl.
  auto result = zone.Lookup(N("dns.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST(ZoneTest, NotInZone) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nz"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNotInZone);
}

TEST(ZoneTest, NameBelowDelegationIsReferralNotNxDomain) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("deep.under.example.nl"), dns::RrType::kAaaa);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
}

TEST(ZoneTest, AnyQueryReturnsAllRecords) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("nl"), dns::RrType::kAny);
  EXPECT_EQ(result.status, LookupStatus::kAnswer);
  EXPECT_GE(result.records.size(), 3u);  // SOA + 2 NS at least
}

TEST(ZoneTest, MoveTransfersContentAndDenialCache) {
  // Zone holds a directly-embedded mutex guarding the lazy denial cache;
  // the explicit move operations must carry the zone's content (and any
  // already-built cache snapshot) across without touching the mutex.
  Zone source = MakeNlZone();
  const std::size_t names = source.name_count();
  const std::size_t records = source.record_count();
  auto warm = source.DenialNeighbors(N("bbb.nl"));  // build the cache

  Zone moved(std::move(source));
  EXPECT_EQ(moved.name_count(), names);
  EXPECT_EQ(moved.record_count(), records);
  auto after_move = moved.DenialNeighbors(N("bbb.nl"));
  EXPECT_EQ(after_move.prev, warm.prev);
  EXPECT_EQ(after_move.next, warm.next);

  Zone assigned(N("nl"));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.name_count(), names);
  EXPECT_EQ(assigned.Lookup(N("nl"), dns::RrType::kSoa).status,
            LookupStatus::kAnswer);
  // The moved-into zone still accepts writes and invalidates its cache.
  AddDelegation(assigned, N("ccc.nl"),
                {{N("ns1.ccc.nl"), {*net::IpAddress::Parse("198.51.100.77")}}},
                /*with_ds=*/false);
  EXPECT_EQ(assigned.DenialNeighbors(N("cca.nl")).next, N("ccc.nl"));
}

TEST(ZoneTest, RootZoneDelegatesTlds) {
  ZoneBuildConfig config;
  config.apex = dns::Name{};
  config.nameservers = {
      {N("b.root-servers.net"), {*net::IpAddress::Parse("199.9.14.201")}}};
  Zone root = MakeZoneSkeleton(config);
  AddDelegation(root, N("nl"),
                {{N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}},
                true);

  auto result = root.Lookup(N("www.example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(*result.cut, N("nl"));

  auto junk = root.Lookup(N("hjkdfs"), dns::RrType::kA);
  EXPECT_EQ(junk.status, LookupStatus::kNxDomain);
}

TEST(ZoneBuilderTest, PopulateDelegationsCounts) {
  ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, 100, "dom", 0.5, net::Ipv4Address(10, 50, 0, 0));

  // Every domain is a delegation with 2-4 NS records plus glue; all have
  // IPv4 glue and most carry AAAA glue too.
  int ds_count = 0;
  int aaaa_glue = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    dns::Name child = N(("dom" + std::to_string(i) + ".nz").c_str());
    auto result = zone.Lookup(child.Child("www"), dns::RrType::kA);
    ASSERT_EQ(result.status, LookupStatus::kDelegation) << i;
    EXPECT_GE(result.records.size(), 2u);
    EXPECT_LE(result.records.size(), 4u);
    std::vector<dns::ResourceRecord> glue;
    zone.AppendGlue(result, glue);
    EXPECT_GE(glue.size(), result.records.size());
    for (const auto& rr : glue) {
      aaaa_glue += rr.type == dns::RrType::kAaaa;
    }
    ds_count += static_cast<int>(result.ds.size());
  }
  EXPECT_EQ(ds_count, 50);  // exactly the configured signed fraction
  EXPECT_GT(aaaa_glue, 100);  // ~80% of domains ship AAAA glue
}

}  // namespace
}  // namespace clouddns::zone
