// Expired-entry reclaim in the resolver caches: DnsCache frees the expired
// run at its LRU tail on every lookup, InfraCache sweeps expired slots
// before its slot deque grows. Neither may change what a lookup returns;
// these tests pin that against a reference model of the keep-dead-until-
// touched cache, and check that memory follows the live state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "../testutil.h"
#include "resolver/cache.h"
#include "resolver/resolver.h"

namespace clouddns::resolver {
namespace {

using testutil::N;

dns::Name Named(const std::string& text) { return *dns::Name::Parse(text); }

/// The DnsCache semantics without reclaim: an expired entry stays until
/// its own key is looked up (then it is erased and counted as a miss),
/// overwritten, or evicted from the LRU tail by capacity.
class ReferenceCache {
 public:
  struct Entry {
    std::string key;
    dns::Rcode rcode = dns::Rcode::kNoError;
    std::vector<dns::ResourceRecord> records;
    sim::TimeUs expires_at = 0;
  };

  ReferenceCache(std::size_t max_entries, bool retain_expired)
      : max_entries_(max_entries), retain_expired_(retain_expired) {}

  void Put(const std::string& key, dns::Rcode rcode,
           std::vector<dns::ResourceRecord> records, sim::TimeUs expires_at) {
    auto it = FindKey(key);
    if (it != lru_.end()) lru_.erase(it);
    lru_.push_front(Entry{key, rcode, std::move(records), expires_at});
    while (lru_.size() > max_entries_) lru_.pop_back();
  }

  /// The live entry for `key`, or nullptr; counts hits and misses when
  /// `count` is set (IsNxDomain does not count).
  const Entry* Get(const std::string& key, sim::TimeUs now, bool count) {
    auto it = FindKey(key);
    const Entry* hit = nullptr;
    if (it != lru_.end()) {
      if (it->expires_at > now) {
        lru_.splice(lru_.begin(), lru_, it);
        hit = &lru_.front();
      } else if (!retain_expired_) {
        lru_.erase(it);
      }
    }
    if (count) ++(hit != nullptr ? hits_ : misses_);
    return hit;
  }

  /// Length of the run of entries expired at `now` at the LRU tail.
  [[nodiscard]] std::size_t DeadTail(sim::TimeUs now) const {
    std::size_t run = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it, ++run) {
      if (it->expires_at > now) break;
    }
    return run;
  }

  [[nodiscard]] std::size_t Live(sim::TimeUs now) const {
    std::size_t live = 0;
    for (const Entry& entry : lru_) live += entry.expires_at > now;
    return live;
  }

  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::list<Entry>::iterator FindKey(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) return it;
    }
    return lru_.end();
  }

  std::size_t max_entries_;
  bool retain_expired_;
  std::list<Entry> lru_;  ///< Front is most recently used.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct ModelRun {
  std::uint64_t seed;
  std::size_t capacity;
  bool retain_expired;
};

// Keeps the padding bytes out of the test names gtest prints.
void PrintTo(const ModelRun& run, std::ostream* os) {
  *os << "seed " << run.seed << ", capacity " << run.capacity
      << (run.retain_expired ? ", retain_expired" : "");
}

class DnsCacheModelTest : public ::testing::TestWithParam<ModelRun> {};

TEST_P(DnsCacheModelTest, LookupsMatchKeepDeadUntilTouchedReference) {
  const ModelRun run = GetParam();
  DnsCache cache(run.capacity, run.retain_expired);
  ReferenceCache model(run.capacity, run.retain_expired);
  std::mt19937_64 rng(run.seed);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };

  // Eight names × {A, AAAA, NXDOMAIN} against a capacity of a few entries:
  // evictions, overwrites, live and dead entries all mix. TTLs straddle
  // the clock step, so a good share of entries dies before reuse.
  std::vector<dns::Name> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back(Named("n" + std::to_string(i) + ".nl"));
  }
  const dns::RrType types[] = {dns::RrType::kA, dns::RrType::kAaaa};
  auto key = [](std::size_t name, const char* tag) {
    return std::to_string(name) + "/" + tag;
  };
  auto type_tag = [](dns::RrType type) {
    return type == dns::RrType::kA ? "A" : "AAAA";
  };

  sim::TimeUs now = 0;
  std::uint32_t serial = 0;
  std::size_t reclaimed_steps = 0;
  for (int step = 0; step < 20000; ++step) {
    now += below(4);  // non-decreasing, with repeats
    const std::size_t name = below(names.size());
    const dns::RrType type = types[below(2)];
    const std::uint64_t op = below(10);
    bool looked_up = false;
    if (op < 3) {
      std::vector<dns::ResourceRecord> records;
      const std::uint64_t count = below(3);
      for (std::uint64_t r = 0; r < count; ++r) {
        ++serial;
        records.push_back(dns::MakeA(
            names[name],
            net::Ipv4Address(10, static_cast<std::uint8_t>(serial >> 16),
                             static_cast<std::uint8_t>(serial >> 8),
                             static_cast<std::uint8_t>(serial)),
            60));
      }
      const auto rcode = below(4) == 0 ? dns::Rcode::kServFail
                                       : dns::Rcode::kNoError;
      const sim::TimeUs expires_at = now + 1 + below(40);
      cache.Put(names[name], type, rcode, records, expires_at);
      model.Put(key(name, type_tag(type)), rcode, std::move(records),
                expires_at);
    } else if (op < 4) {
      const sim::TimeUs expires_at = now + 1 + below(40);
      cache.PutNxDomain(names[name], expires_at);
      model.Put(key(name, "NX"), dns::Rcode::kNxDomain, {}, expires_at);
    } else if (op < 9) {
      const CachedAnswer* got = cache.Get(names[name], type, now);
      const ReferenceCache::Entry* want =
          model.Get(key(name, type_tag(type)), now, /*count=*/true);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        EXPECT_EQ(got->rcode, want->rcode) << "step " << step;
        EXPECT_EQ(got->records, want->records) << "step " << step;
        EXPECT_EQ(got->expires_at, want->expires_at) << "step " << step;
      }
      looked_up = true;
    } else {
      const bool got = cache.IsNxDomain(names[name], now);
      const bool want =
          model.Get(key(name, "NX"), now, /*count=*/false) != nullptr;
      ASSERT_EQ(got, want) << "step " << step;
      looked_up = true;
    }

    ASSERT_EQ(cache.hits(), model.hits()) << "step " << step;
    ASSERT_EQ(cache.misses(), model.misses()) << "step " << step;
    ASSERT_GE(cache.size(), model.Live(now)) << "step " << step;
    ASSERT_LE(cache.size(), model.size()) << "step " << step;
    if (run.retain_expired) {
      ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    } else if (looked_up) {
      // A lookup leaves the cache holding exactly the reference's entries
      // minus the expired run at the reference's LRU tail.
      ASSERT_EQ(cache.size(), model.size() - model.DeadTail(now))
          << "step " << step;
      reclaimed_steps += cache.size() < model.size();
    }
  }
  // The dead tail is not a corner case here: the reclaim fired often.
  if (!run.retain_expired) {
    EXPECT_GT(reclaimed_steps, 1000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DnsCacheModelTest,
    ::testing::Values(ModelRun{1, 3, false}, ModelRun{2, 4, false},
                      ModelRun{3, 6, false}, ModelRun{4, 24, false},
                      ModelRun{5, 4, true}),
    [](const ::testing::TestParamInfo<ModelRun>& info) {
      return "Seed" + std::to_string(info.param.seed) + "Cap" +
             std::to_string(info.param.capacity) +
             (info.param.retain_expired ? "Retain" : "");
    });

TEST(InfraCacheReclaimTest, PointerTakenAtNowSurvivesSweepingPut) {
  InfraCache infra;
  // 63 short-lived zones plus one long-lived one fill the slot deque to
  // the size at which the first sweep is due (64 slots).
  for (int i = 0; i < 63; ++i) {
    ZoneEntry entry;
    entry.apex = Named("z" + std::to_string(i) + ".nl");
    entry.ns_names = {Named("ns1.z" + std::to_string(i) + ".nl")};
    entry.expires_at = 100;
    infra.Put(std::move(entry), 0);
  }
  ZoneEntry keep;
  keep.apex = N("keep.nl");
  keep.ns_names = {N("ns1.keep.nl"), N("ns2.keep.nl")};
  keep.v4_addresses = {*net::IpAddress::Parse("192.0.2.1")};
  keep.expires_at = 10'000;
  infra.Put(keep, 0);
  ASSERT_EQ(infra.size(), 64u);

  const sim::TimeUs now = 500;
  ZoneEntry* held = infra.Get(N("keep.nl"), now);
  ASSERT_NE(held, nullptr);

  // This Put needs a new slot, finds no free one, and sweeps the 63
  // zones that expired at `now` before growing the deque.
  ZoneEntry fresh;
  fresh.apex = N("fresh.nl");
  fresh.expires_at = 10'000;
  infra.Put(std::move(fresh), now);
  EXPECT_EQ(infra.size(), 2u);
  EXPECT_EQ(infra.Peek(N("z0.nl")), nullptr);  // reclaimed, not just expired

  // The held pointer still names the same live entry, intact.
  EXPECT_EQ(infra.Get(N("keep.nl"), now), held);
  EXPECT_EQ(held->apex, N("keep.nl"));
  EXPECT_EQ(held->ns_names, keep.ns_names);
  EXPECT_EQ(held->v4_addresses, keep.v4_addresses);
  EXPECT_NE(infra.Get(N("fresh.nl"), now), nullptr);

  // Refilling the swept slots leaves the held entry where it was.
  for (int i = 0; i < 62; ++i) {
    ZoneEntry entry;
    entry.apex = Named("z" + std::to_string(i) + ".nl");
    entry.expires_at = 10'000;
    infra.Put(std::move(entry), now);
  }
  EXPECT_EQ(infra.size(), 64u);
  EXPECT_EQ(infra.Get(N("keep.nl"), now), held);
}

TEST(ResolverReclaimTest, CachesStayBoundedOverEightDaysOfDistinctNames) {
  // One fresh delegation per query, 345.6 s apart, across eight simulated
  // days. Leaf answers live 300 s and delegations a day, so at any moment
  // about one answer and ~250 zone cuts are live; without the reclaim the
  // answer cache would hold every name ever asked and the infra cache
  // every zone ever visited (2000 each).
  constexpr int kQueries = 2000;
  testutil::MiniInternet net(kQueries, /*sign_zones=*/false);
  ResolverConfig config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  config.hosts = {host};
  RecursiveResolver resolver(*net.network, std::move(config),
                             net.RootHintsV4(), net.RootHintsV6());

  const sim::TimeUs start = 1'000'000;
  const sim::TimeUs step = 8 * sim::kMicrosPerDay / kQueries;
  std::size_t max_answers = 0;
  std::size_t max_zones = 0;
  for (int i = 0; i < kQueries; ++i) {
    const auto result = resolver.Resolve(
        Named("www.dom" + std::to_string(i) + ".nl"), dns::RrType::kA,
        start + static_cast<sim::TimeUs>(i) * step);
    ASSERT_EQ(result.rcode, dns::Rcode::kNoError) << i;
    max_answers = std::max(max_answers, resolver.cache().size());
    max_zones = std::max(max_zones, resolver.infra_cache().size());
  }
  // The answer cache frees each expired answer on the next lookup; the
  // infra cache sweeps before its deque exceeds twice the live count.
  EXPECT_LE(max_answers, 2u);
  EXPECT_LE(max_zones, 2u * 252u + 2u);
  EXPECT_GE(max_zones, 250u);
}

}  // namespace
}  // namespace clouddns::resolver
