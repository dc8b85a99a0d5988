#include "zone/nsec3.h"

#include <algorithm>
#include <map>

namespace clouddns::zone {
namespace {

constexpr char kAlphabet[] = "0123456789abcdefghijklmnopqrstuv";

int AlphabetIndex(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  char lower = dns::AsciiLower(c);
  if (lower >= 'a' && lower <= 'v') return lower - 'a' + 10;
  return -1;
}

/// 20-byte deterministic mock hash (SHA-1-sized) over raw bytes.
std::vector<std::uint8_t> MockDigest(const std::vector<std::uint8_t>& data) {
  std::uint64_t h1 = 1469598103934665603ull;
  std::uint64_t h2 = 0x9e3779b97f4a7c15ull;
  for (std::uint8_t byte : data) {
    h1 = (h1 ^ byte) * 1099511628211ull;
    h2 = (h2 + byte) * 6364136223846793005ull + 1442695040888963407ull;
  }
  std::vector<std::uint8_t> out(20);
  std::uint64_t h3 = h1 ^ (h2 << 1);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(h1 >> (8 * i));
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(8 + i)] =
      static_cast<std::uint8_t>(h2 >> (8 * i));
  for (int i = 0; i < 4; ++i) out[static_cast<std::size_t>(16 + i)] =
      static_cast<std::uint8_t>(h3 >> (8 * i));
  return out;
}

}  // namespace

std::string Base32HexEncode(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve((bytes.size() * 8 + 4) / 5);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (std::uint8_t byte : bytes) {
    buffer = (buffer << 8) | byte;
    bits += 8;
    while (bits >= 5) {
      out += kAlphabet[(buffer >> (bits - 5)) & 0x1f];
      bits -= 5;
    }
  }
  if (bits > 0) {
    out += kAlphabet[(buffer << (5 - bits)) & 0x1f];
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> Base32HexDecode(
    std::string_view text) {
  std::vector<std::uint8_t> out;
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    int value = AlphabetIndex(c);
    if (value < 0) return std::nullopt;
    buffer = (buffer << 5) | static_cast<std::uint32_t>(value);
    bits += 5;
    if (bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(buffer >> (bits - 8)));
      bits -= 8;
    }
  }
  // Leftover bits must be zero padding.
  if (bits > 0 && (buffer & ((1u << bits) - 1)) != 0) return std::nullopt;
  return out;
}

std::vector<std::uint8_t> Nsec3Hash(const dns::Name& name,
                                    const std::vector<std::uint8_t>& salt,
                                    std::uint16_t iterations) {
  // RFC 5155 §5: IH(0) = H(owner-wire || salt); IH(k) = H(IH(k-1) || salt).
  std::vector<std::uint8_t> input;
  dns::WireWriter writer(input);
  writer.WriteName(name, /*compress=*/false);
  // Canonicalize: wire names are case-preserving, hashing is not.
  for (auto& byte : input) {
    byte = static_cast<std::uint8_t>(
        dns::AsciiLower(static_cast<char>(byte)));
  }
  input.insert(input.end(), salt.begin(), salt.end());
  std::vector<std::uint8_t> digest = MockDigest(input);
  for (std::uint16_t i = 0; i < iterations; ++i) {
    digest.insert(digest.end(), salt.begin(), salt.end());
    digest = MockDigest(digest);
  }
  return digest;
}

dns::Name Nsec3OwnerName(const dns::Name& name, const dns::Name& zone_apex,
                         const std::vector<std::uint8_t>& salt,
                         std::uint16_t iterations) {
  return zone_apex.Child(
      Base32HexEncode(Nsec3Hash(name, salt, iterations)));
}

void AddNsec3Chain(Zone& zone, const Nsec3ChainConfig& config) {
  // Hash every existing owner name and sort by hash value; the chain's
  // next pointers wrap around.
  struct Entry {
    std::vector<std::uint8_t> hash;
    dns::Name owner;
  };
  std::vector<Entry> entries;
  for (const auto& name : zone.Names()) {
    entries.push_back(
        {Nsec3Hash(name, config.salt, config.iterations), name});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.hash < b.hash; });

  zone.Add(dns::ResourceRecord{
      zone.apex(), dns::RrType::kNsec3Param, dns::RrClass::kIn, config.ttl,
      dns::Nsec3ParamRdata{1, 0, config.iterations, config.salt}});

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    const Entry& next = entries[(i + 1) % entries.size()];

    dns::Nsec3Rdata rdata;
    rdata.hash_algorithm = 1;
    rdata.iterations = config.iterations;
    rdata.salt = config.salt;
    rdata.next_hashed_owner = next.hash;
    std::vector<dns::RrType> types;
    for (const auto& rr : zone.RecordsAt(entry.owner)) {
      types.push_back(rr.type);
    }
    std::sort(types.begin(), types.end());
    types.erase(std::unique(types.begin(), types.end()), types.end());
    rdata.types = std::move(types);

    zone.Add(dns::ResourceRecord{
        zone.apex().Child(Base32HexEncode(entry.hash)), dns::RrType::kNsec3,
        dns::RrClass::kIn, config.ttl, std::move(rdata)});
  }
}

const dns::ResourceRecord* FindCoveringNsec3(const Zone& zone,
                                             const dns::Name& qname) {
  const auto params = zone.Find(zone.apex(), dns::RrType::kNsec3Param);
  if (params.empty()) return nullptr;
  const auto& param = std::get<dns::Nsec3ParamRdata>(params.front().rdata);

  std::vector<std::uint8_t> target =
      Nsec3Hash(qname, param.salt, param.iterations);
  dns::Name owner = zone.apex().Child(Base32HexEncode(target));
  // Exact match means the name exists (no covering record needed).
  if (!zone.Find(owner, dns::RrType::kNsec3).empty()) return nullptr;

  // Walk the chain records; covering = hash(owner) < target < next, with
  // wrap-around for the last interval. Linear scan: denial lookups are
  // rare relative to zone size in our use, and the zone's sorted-name
  // cache keys on owner names, not hash order.
  const dns::ResourceRecord* wrap_candidate = nullptr;
  for (const auto& name : zone.Names()) {
    for (const auto& rr : zone.Find(name, dns::RrType::kNsec3)) {
      auto own_hash = Base32HexDecode(rr.name.Label(0));
      if (!own_hash) continue;
      const auto& next_hash =
          std::get<dns::Nsec3Rdata>(rr.rdata).next_hashed_owner;
      if (*own_hash < target && target < next_hash) return &rr;
      // Last interval: next wraps to the smallest hash.
      if (next_hash < *own_hash &&
          (target > *own_hash || target < next_hash)) {
        wrap_candidate = &rr;
      }
    }
  }
  return wrap_candidate;
}

}  // namespace clouddns::zone
