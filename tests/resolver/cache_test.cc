#include "resolver/cache.h"

#include <gtest/gtest.h>

namespace clouddns::resolver {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

void PutA(DnsCache& cache, const dns::Name& qname, sim::TimeUs expires) {
  const dns::ResourceRecord record =
      dns::MakeA(N("x.nl"), net::Ipv4Address(1, 2, 3, 4), 300);
  cache.Put(qname, dns::RrType::kA, dns::Rcode::kNoError, {&record, 1},
            expires);
}

TEST(DnsCacheTest, HitWithinTtlMissAfter) {
  DnsCache cache(100);
  PutA(cache, N("x.nl"), 1000);
  EXPECT_NE(cache.Get(N("x.nl"), dns::RrType::kA, 500), nullptr);
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kA, 1000), nullptr);
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kA, 2000), nullptr);
}

TEST(DnsCacheTest, TypeAndNameAreBothKeyed) {
  DnsCache cache(100);
  PutA(cache, N("x.nl"), 1000);
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kAaaa, 1), nullptr);
  EXPECT_EQ(cache.Get(N("y.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, CaseInsensitiveKeys) {
  DnsCache cache(100);
  PutA(cache, N("X.NL"), 1000);
  EXPECT_NE(cache.Get(N("x.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, NxDomainMatchesAnyType) {
  DnsCache cache(100);
  cache.PutNxDomain(N("gone.nl"), 1000);
  EXPECT_TRUE(cache.IsNxDomain(N("gone.nl"), 500));
  EXPECT_FALSE(cache.IsNxDomain(N("gone.nl"), 1500));
  EXPECT_FALSE(cache.IsNxDomain(N("other.nl"), 500));
}

TEST(DnsCacheTest, LruEvictsOldestFirst) {
  DnsCache cache(3);
  PutA(cache, N("a.nl"), ~0ull);
  PutA(cache, N("b.nl"), ~0ull);
  PutA(cache, N("c.nl"), ~0ull);
  // Touch a.nl so b.nl becomes the LRU victim.
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);
  PutA(cache, N("d.nl"), ~0ull);

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_EQ(cache.Get(N("b.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_NE(cache.Get(N("d.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, OverwriteRefreshesEntry) {
  DnsCache cache(10);
  PutA(cache, N("a.nl"), 100);
  PutA(cache, N("a.nl"), 5000);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1000), nullptr);
}

TEST(DnsCacheTest, TracksHitsAndMisses) {
  DnsCache cache(10);
  PutA(cache, N("a.nl"), 1000);
  (void)cache.Get(N("a.nl"), dns::RrType::kA, 1);
  (void)cache.Get(N("a.nl"), dns::RrType::kA, 1);
  (void)cache.Get(N("b.nl"), dns::RrType::kA, 1);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(InfraCacheTest, DeepestEnclosingWalksUp) {
  InfraCache infra;
  ZoneEntry root;
  root.apex = dns::Name{};
  root.expires_at = ~0ull;
  infra.Put(root, 0);
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = ~0ull;
  infra.Put(nl, 0);
  ZoneEntry example;
  example.apex = N("example.nl");
  example.expires_at = ~0ull;
  infra.Put(example, 0);

  EXPECT_EQ(infra.DeepestEnclosing(N("www.example.nl"), 1)->apex,
            N("example.nl"));
  EXPECT_EQ(infra.DeepestEnclosing(N("other.nl"), 1)->apex, N("nl"));
  EXPECT_TRUE(infra.DeepestEnclosing(N("example.com"), 1)->apex.IsRoot());
}

TEST(InfraCacheTest, ExpiredEntriesAreDropped) {
  InfraCache infra;
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = 100;
  infra.Put(nl, 0);
  EXPECT_NE(infra.Get(N("nl"), 50), nullptr);
  EXPECT_EQ(infra.Get(N("nl"), 100), nullptr);
  EXPECT_EQ(infra.size(), 0u);  // erased on expiry
}

TEST(InfraCacheTest, PutOverwritesByApex) {
  InfraCache infra;
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = ~0ull;
  nl.ds = ZoneEntry::Ds::kAbsent;
  infra.Put(nl, 0);
  nl.ds = ZoneEntry::Ds::kPresent;
  infra.Put(nl, 0);
  EXPECT_EQ(infra.size(), 1u);
  EXPECT_EQ(infra.Get(N("nl"), 1)->ds, ZoneEntry::Ds::kPresent);
}


TEST(DnsCacheTest, LruEvictionOrderIsExactUnderMixedTouches) {
  DnsCache cache(4);
  PutA(cache, N("a.nl"), ~0ull);
  PutA(cache, N("b.nl"), ~0ull);
  PutA(cache, N("c.nl"), ~0ull);
  PutA(cache, N("d.nl"), ~0ull);
  // Recency after touches: a > c > d > b (b is the victim, then d).
  EXPECT_NE(cache.Get(N("c.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);

  PutA(cache, N("e.nl"), ~0ull);
  EXPECT_EQ(cache.Get(N("b.nl"), dns::RrType::kA, 1), nullptr);
  PutA(cache, N("f.nl"), ~0ull);
  EXPECT_EQ(cache.Get(N("d.nl"), dns::RrType::kA, 1), nullptr);

  EXPECT_EQ(cache.size(), 4u);
  for (const char* alive : {"a.nl", "c.nl", "e.nl", "f.nl"}) {
    EXPECT_NE(cache.Get(N(alive), dns::RrType::kA, 1), nullptr) << alive;
  }
}

TEST(DnsCacheTest, ServeStaleHitRefreshesRecencyUnderLru) {
  DnsCache cache(2, /*retain_expired=*/true);
  PutA(cache, N("a.nl"), 1000);
  PutA(cache, N("b.nl"), 1000);

  // Both expired: a plain Get misses but retains the entry, and the
  // expired-miss deliberately does not refresh recency.
  EXPECT_EQ(cache.Get(N("a.nl"), dns::RrType::kA, 2000), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  // A stale hit IS a use: it refreshes recency, so the untouched b.nl is
  // the LRU victim when capacity is exceeded.
  const CachedAnswer* stale =
      cache.GetStale(N("a.nl"), dns::RrType::kA, 2000, 5000);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->rcode, dns::Rcode::kNoError);
  EXPECT_EQ(cache.stale_hits(), 1u);

  PutA(cache, N("c.nl"), ~0ull);
  EXPECT_EQ(cache.GetStale(N("b.nl"), dns::RrType::kA, 2000, 5000), nullptr);
  EXPECT_NE(cache.GetStale(N("a.nl"), dns::RrType::kA, 2000, 5000), nullptr);

  // Outside the serve-stale window the entry is dead even when retained:
  // expires_at=1000 + max_stale=5000 <= now=6000.
  EXPECT_EQ(cache.GetStale(N("a.nl"), dns::RrType::kA, 6000, 5000), nullptr);
}

}  // namespace
}  // namespace clouddns::resolver
