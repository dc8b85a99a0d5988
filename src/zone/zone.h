// An authoritative DNS zone: the record database one authoritative server
// answers from, with the lookup semantics RFC 1034 §4.3.2 requires —
// answers, referrals at zone cuts, NXDOMAIN, and NODATA.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/mutex.h"
#include "base/open_table.h"
#include "base/thread_annotations.h"
#include "dns/name.h"
#include "dns/record.h"
#include "dns/types.h"

namespace clouddns::zone {

/// What a lookup found; drives how the server builds its response.
enum class LookupStatus {
  kAnswer,      ///< Records of the requested type exist at the name.
  kDelegation,  ///< The name is at/under a zone cut: return the referral.
  kNxDomain,    ///< The name does not exist in the zone.
  kNoData,      ///< The name exists but has no records of that type.
  kNotInZone,   ///< The name is not under this zone's apex at all.
};

/// A lookup's outcome, borrowed from the zone: the spans and `cut` point
/// into the Zone's own storage and stay valid while the zone is alive and
/// not modified. Zones are built once and then shared read-only, so a
/// server can append straight from these views into its response.
struct LookupResult {
  LookupStatus status = LookupStatus::kNotInZone;
  /// kAnswer: the matching RRset (every record at the name for ANY).
  /// kDelegation: the cut's NS RRset.
  std::span<const dns::ResourceRecord> records;
  /// kDelegation: DS records of the child, for DO=1 referrals.
  std::span<const dns::ResourceRecord> ds;
  /// kNxDomain / kNoData: the zone SOA for the negative response.
  std::span<const dns::ResourceRecord> soa;
  /// kDelegation: owner name of the zone cut.
  const dns::Name* cut = nullptr;
};

class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}

  // Movable (builders return zones by value) but not copyable: the
  // denial cache's mutex is held directly, so the moves are spelled out
  // in zone.cc — they lock the source while stealing its cache.
  Zone(Zone&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  Zone& operator=(Zone&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

  [[nodiscard]] const dns::Name& apex() const { return apex_; }

  /// Adds one record. The record's name must be at or under the apex.
  /// Throws std::invalid_argument otherwise.
  void Add(dns::ResourceRecord record);

  /// Convenience: number of distinct owner names (the "zone size" the
  /// paper's Table 2 reports counts registered domains; see builders).
  [[nodiscard]] std::size_t name_count() const { return owner_count_; }
  [[nodiscard]] std::size_t record_count() const { return record_count_; }

  /// Performs the RFC 1034 lookup algorithm for qname/qtype. Allocates
  /// nothing: the result borrows the zone's RRsets.
  [[nodiscard]] LookupResult Lookup(const dns::Name& qname,
                                    dns::RrType qtype) const;

  /// Appends the glue of a kDelegation result: the A then AAAA RRsets of
  /// each in-zone nameserver, in NS-set order. No-op for other statuses.
  void AppendGlue(const LookupResult& referral,
                  std::vector<dns::ResourceRecord>& out) const;

  /// Direct RRset access (exact name + type), no cut processing; empty
  /// when the name has no records of that type.
  [[nodiscard]] std::span<const dns::ResourceRecord> Find(
      const dns::Name& name, dns::RrType type) const;

  /// All names in the zone (owners and empty non-terminals), in the order
  /// Add first registered them. Used by the signer and zone transfer.
  [[nodiscard]] std::vector<dns::Name> Names() const;

  /// All records at a name: grouped by type in ascending type order, Add
  /// order within a type.
  [[nodiscard]] std::span<const dns::ResourceRecord> RecordsAt(
      const dns::Name& name) const;

  /// True when the zone has an apex DNSKEY (i.e. it was signed).
  [[nodiscard]] bool IsSigned() const;

  /// The NSEC neighbours of a nonexistent name: the greatest existing name
  /// canonically before `qname` and the least one after (wrapping to the
  /// apex past the zone's last name, per RFC 4034 §6.1 ordering). Used by
  /// the server to serve *range* denials, which is what makes aggressive
  /// NSEC caching (RFC 8198) possible at resolvers.
  struct DenialRange {
    dns::Name prev;
    dns::Name next;
  };
  [[nodiscard]] DenialRange DenialNeighbors(const dns::Name& qname) const;

 private:
  /// One name of the zone: an owner, or an empty non-terminal (no
  /// records). Records are kept grouped by type, so an RRset and the ANY
  /// answer are both contiguous spans of `records`.
  struct Node {
    dns::Name name;
    std::vector<dns::ResourceRecord> records;
  };

  /// The node whose name is the flat label range [flat, flat + size)
  /// hashing to `hash`, or nullptr.
  [[nodiscard]] const Node* FindNode(std::uint64_t hash,
                                     const std::uint8_t* flat,
                                     std::size_t size) const;
  [[nodiscard]] const Node* FindNode(const dns::Name& name) const {
    return FindNode(name.CachedHash(), name.FlatData(), name.FlatSize());
  }
  /// Registers `name` and every missing ancestor up to the apex (so
  /// NXDOMAIN vs NODATA is an existence check); returns `name`'s node.
  std::uint32_t Intern(const dns::Name& name);

  dns::Name apex_;
  /// Nodes in first-registration order, indexed by name hash. Names are
  /// compared on flat label bytes; no lookup builds a string key.
  std::vector<Node> nodes_;
  base::OpenTable index_;
  std::size_t owner_count_ = 0;
  std::size_t record_count_ = 0;
  // Canonically sorted owner names, built lazily for DenialNeighbors and
  // invalidated by Add. Zones are shared read-only across parallel scenario
  // shards, so the cache is handed out as an immutable snapshot under a
  // lock; the search itself runs lock-free on the snapshot.
  [[nodiscard]] std::shared_ptr<const std::vector<dns::Name>> SortedNames()
      const EXCLUDES(denial_mutex_);
  mutable base::Mutex denial_mutex_;
  mutable std::shared_ptr<const std::vector<dns::Name>> sorted_names_
      GUARDED_BY(denial_mutex_);
};

}  // namespace clouddns::zone
