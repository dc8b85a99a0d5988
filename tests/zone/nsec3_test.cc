#include "zone/nsec3.h"

#include <gtest/gtest.h>

#include <set>

#include "dns/message.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

TEST(Base32HexTest, EncodesKnownVectors) {
  // RFC 4648 §10 test vectors (base32hex, padding stripped).
  EXPECT_EQ(Base32HexEncode({}), "");
  EXPECT_EQ(Base32HexEncode({'f'}), "co");
  EXPECT_EQ(Base32HexEncode({'f', 'o'}), "cpng");
  EXPECT_EQ(Base32HexEncode({'f', 'o', 'o'}), "cpnmu");
  EXPECT_EQ(Base32HexEncode({'f', 'o', 'o', 'b'}), "cpnmuog");
  EXPECT_EQ(Base32HexEncode({'f', 'o', 'o', 'b', 'a'}), "cpnmuoj1");
  EXPECT_EQ(Base32HexEncode({'f', 'o', 'o', 'b', 'a', 'r'}), "cpnmuoj1e8");
}

TEST(Base32HexTest, RoundTripsRandomBytes) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 64; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(i * 37 + 11));
    auto decoded = Base32HexDecode(Base32HexEncode(bytes));
    ASSERT_TRUE(decoded.has_value()) << i;
    EXPECT_EQ(*decoded, bytes);
  }
}

TEST(Base32HexTest, DecodeRejectsBadInput) {
  EXPECT_FALSE(Base32HexDecode("w").has_value());   // 'w' beyond alphabet
  EXPECT_FALSE(Base32HexDecode("c=").has_value());
  // Nonzero leftover padding bits.
  EXPECT_FALSE(Base32HexDecode("cp1").has_value());
  // Uppercase is accepted (DNS names are case-insensitive).
  EXPECT_EQ(*Base32HexDecode("CO"), (std::vector<std::uint8_t>{'f'}));
}

TEST(Nsec3HashTest, DeterministicSaltedIterated) {
  std::vector<std::uint8_t> salt = {0xaa, 0xbb};
  auto h1 = Nsec3Hash(N("example.nl"), salt, 5);
  auto h2 = Nsec3Hash(N("example.nl"), salt, 5);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1.size(), 20u);  // SHA-1-sized

  EXPECT_NE(Nsec3Hash(N("example.nl"), salt, 6), h1);      // iterations
  EXPECT_NE(Nsec3Hash(N("example.nl"), {0xcc}, 5), h1);    // salt
  EXPECT_NE(Nsec3Hash(N("example2.nl"), salt, 5), h1);     // name
  // Hashing is case-insensitive like name comparison.
  EXPECT_EQ(Nsec3Hash(N("EXAMPLE.NL"), salt, 5), h1);
}

TEST(Nsec3HashTest, OwnerNameIsBase32HexLabelUnderApex) {
  dns::Name owner = Nsec3OwnerName(N("www.example.nl"), N("nl"), {0x01}, 3);
  EXPECT_EQ(owner.LabelCount(), 2u);
  EXPECT_TRUE(owner.IsSubdomainOf(N("nl")));
  EXPECT_EQ(owner.Label(0).size(), 32u);  // 20 bytes -> 32 base32 chars
  EXPECT_TRUE(Base32HexDecode(owner.Label(0)).has_value());
}

Zone MakeChainedZone(std::size_t domains = 10) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("194.0.28.1")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, domains, "dom", 0.5,
                      net::Ipv4Address(100, 70, 0, 0));
  AddNsec3Chain(zone);
  return zone;
}

TEST(Nsec3ChainTest, ParamAtApexAndOneRecordPerName) {
  Zone plain = MakeChainedZone();
  EXPECT_FALSE(plain.Find(N("nl"), dns::RrType::kNsec3Param).empty());

  // Count NSEC3 records and the names they certify.
  std::size_t nsec3_count = 0;
  for (const auto& name : plain.Names()) {
    nsec3_count += plain.Find(name, dns::RrType::kNsec3).size();
  }
  EXPECT_GT(nsec3_count, 10u);
}

TEST(Nsec3ChainTest, ChainIsCircularAndSorted) {
  Zone zone = MakeChainedZone();
  // Collect (hash, next) pairs.
  std::set<std::vector<std::uint8_t>> hashes;
  std::set<std::vector<std::uint8_t>> nexts;
  for (const auto& name : zone.Names()) {
    for (const auto& rr : zone.Find(name, dns::RrType::kNsec3)) {
      auto hash = Base32HexDecode(rr.name.Label(0));
      ASSERT_TRUE(hash.has_value());
      hashes.insert(*hash);
      nexts.insert(std::get<dns::Nsec3Rdata>(rr.rdata).next_hashed_owner);
    }
  }
  // A circular chain: the set of next-pointers equals the set of owners.
  EXPECT_EQ(hashes, nexts);
}

TEST(Nsec3ChainTest, TypeBitmapsReflectOwnerTypes) {
  Zone zone = MakeChainedZone();
  auto apex_owner = Nsec3OwnerName(N("nl"), N("nl"), {0xab, 0xcd}, 5);
  const auto rrset = zone.Find(apex_owner, dns::RrType::kNsec3);
  ASSERT_FALSE(rrset.empty());
  const auto& rdata = std::get<dns::Nsec3Rdata>(rrset.front().rdata);
  auto has = [&rdata](dns::RrType t) {
    return std::find(rdata.types.begin(), rdata.types.end(), t) !=
           rdata.types.end();
  };
  EXPECT_TRUE(has(dns::RrType::kSoa));
  EXPECT_TRUE(has(dns::RrType::kNs));
  EXPECT_FALSE(has(dns::RrType::kMx));
}

TEST(Nsec3ChainTest, CoveringRecordFoundForNonexistentNames) {
  Zone zone = MakeChainedZone(20);
  for (const char* junk : {"nope.nl", "zzz.nl", "a.nl", "qq.dom3.nl"}) {
    const auto* covering = FindCoveringNsec3(zone, N(junk));
    ASSERT_NE(covering, nullptr) << junk;
    // The covering interval must actually bracket the target hash.
    auto target = Nsec3Hash(N(junk), {0xab, 0xcd}, 5);
    auto own = Base32HexDecode(covering->name.Label(0));
    ASSERT_TRUE(own.has_value());
    const auto& next =
        std::get<dns::Nsec3Rdata>(covering->rdata).next_hashed_owner;
    bool wraps = next < *own;
    if (wraps) {
      EXPECT_TRUE(target > *own || target < next) << junk;
    } else {
      EXPECT_TRUE(*own < target && target < next) << junk;
    }
  }
}

TEST(Nsec3ChainTest, ExistingNamesHaveNoCoveringRecord) {
  Zone zone = MakeChainedZone();
  EXPECT_EQ(FindCoveringNsec3(zone, N("nl")), nullptr);
  EXPECT_EQ(FindCoveringNsec3(zone, N("dom3.nl")), nullptr);
}

TEST(Nsec3ChainTest, ZoneWithoutChainReturnsNull) {
  ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("197.0.29.1")}}};
  Zone zone = MakeZoneSkeleton(config);
  EXPECT_EQ(FindCoveringNsec3(zone, N("nope.nz")), nullptr);
}

TEST(Nsec3ChainTest, Nsec3RecordsSurviveWireRoundTrip) {
  Zone zone = MakeChainedZone();
  auto apex_owner = Nsec3OwnerName(N("nl"), N("nl"), {0xab, 0xcd}, 5);
  const auto rrset = zone.Find(apex_owner, dns::RrType::kNsec3);
  ASSERT_FALSE(rrset.empty());

  dns::Message msg;
  msg.header.qr = true;
  msg.questions.push_back(
      dns::Question{N("nope.nl"), dns::RrType::kA, dns::RrClass::kIn});
  msg.authorities.push_back(rrset.front());
  auto decoded = dns::Message::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->authorities.front(), rrset.front());
}

}  // namespace
}  // namespace clouddns::zone
