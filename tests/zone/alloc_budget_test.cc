// Allocation budget of the cold exchange path (DESIGN.md §10): decoding
// an upstream referral into a warmed message and looking a name up in a
// zone must not touch the heap. This binary replaces the global operator
// new with a counting one, so each assertion is an exact count taken
// around the call under test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dns/message.h"
#include "zone/dnssec.h"
#include "zone/zone.h"
#include "zone/zone_builder.h"

// Sanitizer runtimes interpose the allocator themselves; the counting hook
// is left out there and the tests skip (the same rule as bench/common.h).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLOUDDNS_TEST_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLOUDDNS_TEST_COUNT_ALLOCS 0
#else
#define CLOUDDNS_TEST_COUNT_ALLOCS 1
#endif
#else
#define CLOUDDNS_TEST_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if CLOUDDNS_TEST_COUNT_ALLOCS
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace clouddns {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

/// Heap allocations made by `fn`.
template <class Fn>
std::uint64_t AllocsDuring(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

#define SKIP_WITHOUT_COUNTER()                                         \
  if (!CLOUDDNS_TEST_COUNT_ALLOCS) {                                   \
    GTEST_SKIP() << "allocation counting is off under sanitizers";     \
  }

TEST(AllocBudgetTest, WarmDecodeOfReferralDoesNotAllocate) {
  SKIP_WITHOUT_COUNTER();
#ifdef CLOUDDNS_AUDIT
  GTEST_SKIP() << "the wire auditor re-walks every decoded message";
#endif
  // A TLD referral as a resolver receives it: NS set in authority, A and
  // AAAA glue in additional, EDNS. Names are mixed-case and longer than
  // any small-string buffer, but within dns::Name's inline capacity.
  const dns::Name cut = N("Example-Registrant.NL");
  dns::Message referral = dns::Message::MakeQuery(
      0x4242, N("WWW.Example-Registrant.NL"), dns::RrType::kA,
      dns::EdnsInfo{1232, true, 0});
  referral.header.qr = true;
  for (const char* host : {"NS1.Example-Registrant.NL",
                           "NS2.Example-Registrant.NL"}) {
    referral.authorities.push_back(dns::MakeNs(cut, N(host), 86400));
    referral.additionals.push_back(
        dns::MakeA(N(host), net::Ipv4Address(192, 0, 2, 53), 86400));
    referral.additionals.push_back(dns::MakeAaaa(
        N(host), *net::Ipv6Address::Parse("2001:db8::53"), 86400));
  }
  const dns::WireBuffer wire = referral.Encode();

  dns::Message scratch;
  ASSERT_TRUE(dns::Message::DecodeInto(wire.data(), wire.size(), scratch));
  bool ok = false;
  EXPECT_EQ(AllocsDuring([&] {
              ok = dns::Message::DecodeInto(wire.data(), wire.size(),
                                            scratch);
            }),
            0u);
  ASSERT_TRUE(ok);
  EXPECT_EQ(scratch.authorities, referral.authorities);
  EXPECT_EQ(scratch.additionals, referral.additionals);
}

TEST(AllocBudgetTest, ZoneLookupDoesNotAllocateForAnyStatus) {
  SKIP_WITHOUT_COUNTER();
  zone::ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {{N("ns1.nameserver-operator.nl"),
                         {*net::IpAddress::Parse("192.0.2.53"),
                          *net::IpAddress::Parse("2001:db8::53")}}};
  zone::Zone zone = zone::MakeZoneSkeleton(config);
  zone::AddDelegation(
      zone, N("example-registrant.nl"),
      {{N("ns1.example-registrant.nl"),
        {*net::IpAddress::Parse("198.51.100.1")}},
       {N("ns2.example-registrant.nl"),
        {*net::IpAddress::Parse("198.51.100.2")}}},
      /*with_ds=*/true);
  zone::SignZone(zone);

  struct Probe {
    dns::Name qname;
    dns::RrType qtype;
    zone::LookupStatus expected;
  };
  const std::vector<Probe> probes = {
      {N("NS1.Nameserver-Operator.NL"), dns::RrType::kA,
       zone::LookupStatus::kAnswer},
      {N("WWW.Example-Registrant.NL"), dns::RrType::kA,
       zone::LookupStatus::kDelegation},
      {N("Not-Registered-Here.NL"), dns::RrType::kA,
       zone::LookupStatus::kNxDomain},
      {N("NS1.Nameserver-Operator.NL"), dns::RrType::kMx,
       zone::LookupStatus::kNoData},
      {N("WWW.Example-Registrant.NZ"), dns::RrType::kA,
       zone::LookupStatus::kNotInZone},
  };
  for (const Probe& probe : probes) {
    zone::LookupResult result;
    EXPECT_EQ(AllocsDuring([&] {
                result = zone.Lookup(probe.qname, probe.qtype);
              }),
              0u)
        << probe.qname.ToString();
    EXPECT_EQ(result.status, probe.expected) << probe.qname.ToString();
  }
}

TEST(AllocBudgetTest, ReferralAssemblyIntoWarmSectionsDoesNotAllocate) {
  SKIP_WITHOUT_COUNTER();
  // The server appends the borrowed NS set and the glue into response
  // sections whose capacity survives across packets.
  zone::ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {{N("ns1.nameserver-operator.nl"),
                         {*net::IpAddress::Parse("192.0.2.53")}}};
  zone::Zone zone = zone::MakeZoneSkeleton(config);
  zone::AddDelegation(
      zone, N("example-registrant.nl"),
      {{N("ns1.example-registrant.nl"),
        {*net::IpAddress::Parse("198.51.100.1"),
         *net::IpAddress::Parse("2001:db8:1::1")}},
       {N("ns2.example-registrant.nl"),
        {*net::IpAddress::Parse("198.51.100.2")}}},
      /*with_ds=*/false);

  std::vector<dns::ResourceRecord> authorities, additionals;
  authorities.reserve(8);
  additionals.reserve(8);
  const dns::Name qname = N("WWW.Example-Registrant.NL");
  EXPECT_EQ(AllocsDuring([&] {
              authorities.clear();
              additionals.clear();
              const zone::LookupResult result =
                  zone.Lookup(qname, dns::RrType::kA);
              authorities.insert(authorities.end(), result.records.begin(),
                                 result.records.end());
              zone.AppendGlue(result, additionals);
            }),
            0u);
  EXPECT_EQ(authorities.size(), 2u);
  EXPECT_EQ(additionals.size(), 3u);  // two A, one AAAA
}

}  // namespace
}  // namespace clouddns
