#include "zone/dnssec.h"

#include <span>

#include "base/threads.h"

namespace clouddns::zone {
namespace {

std::uint64_t Fnv1a(std::string_view text, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kZskSeed = 0x5a534b5a534b5a53ull;
constexpr std::uint64_t kKskSeed = 0x4b534b4b534b4b53ull;
constexpr std::uint64_t kSigSeed = 0x5349475349475349ull;

// Fixed validity window: the simulation clock always falls inside it, so
// mock signatures never "expire" mid-run.
constexpr std::uint32_t kInception = 1514764800;   // 2018-01-01
constexpr std::uint32_t kExpiration = 1735689600;  // 2025-01-01

std::vector<std::uint8_t> HashBytes(std::uint64_t h, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(h >> (8 * (i % 8)));
    if (i % 8 == 7) h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  return out;
}

}  // namespace

std::uint16_t ZskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(
      dns::PresentationHash(zone_apex, kZskSeed));
}

std::uint16_t KskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(
      dns::PresentationHash(zone_apex, kKskSeed));
}

std::vector<std::uint8_t> MockSignature(const dns::Name& signer,
                                        const dns::Name& owner,
                                        dns::RrType type) {
  std::uint64_t h = dns::PresentationHash(signer, kSigSeed);
  h = dns::PresentationHash(owner, h);
  h = Fnv1a(ToString(type), h);
  return HashBytes(h, 256);  // RSA-2048 signature size
}

std::vector<dns::ResourceRecord> MakeApexDnskeys(const dns::Name& zone_apex,
                                                 std::uint32_t ttl) {
  auto make_key = [&zone_apex, ttl](std::uint16_t flags, std::uint64_t seed) {
    dns::DnskeyRdata key;
    key.flags = flags;
    key.protocol = 3;
    key.algorithm = kMockAlgorithm;
    key.public_key = HashBytes(dns::PresentationHash(zone_apex, seed), 256);
    return dns::ResourceRecord{zone_apex, dns::RrType::kDnskey,
                               dns::RrClass::kIn, ttl, std::move(key)};
  };
  return {make_key(257, kKskSeed), make_key(256, kZskSeed)};
}

dns::ResourceRecord MakeDs(const dns::Name& child_apex, std::uint32_t ttl) {
  dns::DsRdata ds;
  ds.key_tag = KskTagFor(child_apex);
  ds.algorithm = kMockAlgorithm;
  ds.digest_type = 2;  // SHA-256
  ds.digest = HashBytes(dns::PresentationHash(child_apex, kKskSeed), 32);
  return dns::ResourceRecord{child_apex, dns::RrType::kDs, dns::RrClass::kIn,
                             ttl, std::move(ds)};
}

void SignZone(Zone& zone, std::uint32_t dnskey_ttl) {
  for (auto& key : MakeApexDnskeys(zone.apex(), dnskey_ttl)) {
    zone.Add(std::move(key));
  }
  // Sign every RRset present after key insertion. Collect first: Add()
  // mutates the container we'd be iterating.
  struct Target {
    dns::Name owner;
    dns::RrType type;
    std::uint32_t ttl;
  };
  // One target per (owner, type): an owner's records are grouped by type,
  // so a repeat of the type just seen is the same RRset.
  std::vector<Target> targets;
  for (const auto& name : zone.Names()) {
    const std::span<const dns::ResourceRecord> records = zone.RecordsAt(name);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const dns::ResourceRecord& rr = records[i];
      if (rr.type == dns::RrType::kRrsig) continue;
      if (i > 0 && records[i - 1].type == rr.type) continue;
      targets.push_back({rr.name, rr.type, rr.ttl});
    }
  }
  // Signature computation is pure (a function of signer/owner/type alone),
  // so it fans out over the shared pool into slots indexed by target.
  // Insertion stays serial and in target order below — the RRSIG vector
  // order at each owner/type IS the Add order, and that order is part of
  // the zone's byte image, so it must not depend on worker scheduling.
  std::vector<dns::RrsigRdata> sigs(targets.size());
  base::ThreadPool::Shared().ParallelFor(
      targets.size(), base::EffectiveThreads(0), [&](std::size_t i) {
        const Target& target = targets[i];
        dns::RrsigRdata sig;
        sig.type_covered = static_cast<std::uint16_t>(target.type);
        sig.algorithm = kMockAlgorithm;
        sig.labels = static_cast<std::uint8_t>(target.owner.LabelCount());
        sig.original_ttl = target.ttl;
        sig.expiration = kExpiration;
        sig.inception = kInception;
        sig.key_tag = target.type == dns::RrType::kDnskey
                          ? KskTagFor(zone.apex())
                          : ZskTagFor(zone.apex());
        sig.signer = zone.apex();
        sig.signature = MockSignature(zone.apex(), target.owner, target.type);
        sigs[i] = std::move(sig);
      });
  for (std::size_t i = 0; i < targets.size(); ++i) {
    zone.Add(dns::ResourceRecord{targets[i].owner, dns::RrType::kRrsig,
                                 dns::RrClass::kIn, targets[i].ttl,
                                 std::move(sigs[i])});
  }
}

bool VerifyRrsig(const dns::RrsigRdata& sig, const dns::Name& owner,
                 dns::RrType type) {
  if (sig.algorithm != kMockAlgorithm) return false;
  if (sig.type_covered != static_cast<std::uint16_t>(type)) return false;
  return sig.signature == MockSignature(sig.signer, owner, type);
}

bool VerifyDsMatchesKey(const dns::DsRdata& ds, const dns::Name& child_apex) {
  return ds.key_tag == KskTagFor(child_apex) &&
         ds.digest ==
             HashBytes(dns::PresentationHash(child_apex, kKskSeed), 32);
}

}  // namespace clouddns::zone
