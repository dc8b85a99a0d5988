#include "zone/zone.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include <algorithm>
#include <stdexcept>

namespace clouddns::zone {
namespace {

/// The records of one type inside a node's type-grouped record vector.
std::span<const dns::ResourceRecord> TypeRange(
    const std::vector<dns::ResourceRecord>& records, dns::RrType type) {
  auto first = std::partition_point(
      records.begin(), records.end(),
      [type](const dns::ResourceRecord& rr) { return rr.type < type; });
  auto last = std::partition_point(
      first, records.end(),
      [type](const dns::ResourceRecord& rr) { return rr.type == type; });
  return {first, last};
}

}  // namespace

// Moves lock the *source* zone's mutex while stealing its denial cache;
// the destination is under construction (or exclusively owned by the
// caller), so its own mutex needs no lock. The analysis cannot model
// "other's mutex guards other's member", hence the escape hatch.
Zone::Zone(Zone&& other) noexcept
    : apex_(std::move(other.apex_)),
      nodes_(std::move(other.nodes_)),
      index_(std::move(other.index_)),
      owner_count_(other.owner_count_),
      record_count_(other.record_count_) {
  base::MutexLock lock(other.denial_mutex_);
  sorted_names_ = std::move(other.sorted_names_);
  other.owner_count_ = 0;
  other.record_count_ = 0;
}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  apex_ = std::move(other.apex_);
  nodes_ = std::move(other.nodes_);
  index_ = std::move(other.index_);
  owner_count_ = other.owner_count_;
  record_count_ = other.record_count_;
  other.owner_count_ = 0;
  other.record_count_ = 0;
  base::MutexLock lock(other.denial_mutex_);
  sorted_names_ = std::move(other.sorted_names_);
  return *this;
}

const Zone::Node* Zone::FindNode(std::uint64_t hash, const std::uint8_t* flat,
                                 std::size_t size) const {
  const std::uint32_t index = index_.Find(hash, [&](std::uint32_t i) {
    const dns::Name& name = nodes_[i].name;
    return name.FlatSize() == size &&
           dns::Name::FlatEquals(name.FlatData(), flat, size);
  });
  return index == base::OpenTable::kNil ? nullptr : &nodes_[index];
}

std::uint32_t Zone::Intern(const dns::Name& name) {
  // Suffixes of `name` are trailing slices of its flat bytes; walk them
  // from `name` up to the apex, stopping at the first one already present
  // (its ancestors are then present too). A Name is built only for a
  // suffix that is actually inserted.
  const std::uint8_t* p = name.FlatData();
  const std::uint8_t* const end = p + name.FlatSize();
  std::uint32_t owner = base::OpenTable::kNil;
  for (std::size_t labels = name.LabelCount();; --labels) {
    const auto size = static_cast<std::size_t>(end - p);
    const std::uint64_t hash =
        p == name.FlatData() ? name.CachedHash() : dns::Name::HashFlat(p, size);
    const Node* found = FindNode(hash, p, size);
    std::uint32_t index;
    if (found != nullptr) {
      index = static_cast<std::uint32_t>(found - nodes_.data());
    } else {
      index = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{name.Suffix(labels), {}});
      index_.Insert(hash, index);
    }
    if (owner == base::OpenTable::kNil) owner = index;
    if (found != nullptr || labels == apex_.LabelCount()) break;
    p += 1 + *p;
  }
  return owner;
}

void Zone::Add(dns::ResourceRecord record) {
  {
    base::MutexLock lock(denial_mutex_);
    sorted_names_.reset();
  }
  if (!record.name.IsSubdomainOf(apex_)) {
    const dns::Name& name = record.name;
    throw std::invalid_argument(
        // lint:allow(hot-alloc): error path only; an out-of-zone record is a caller bug, never a query
        "Zone::Add: " + name.ToString() + " outside zone " + apex_.ToString());
  }
  std::vector<dns::ResourceRecord>& records =
      nodes_[Intern(record.name)].records;
  if (records.empty()) ++owner_count_;
  // Keep the node grouped by type: insert after the last record of the
  // same or a lower type.
  const dns::RrType type = record.type;
  records.insert(
      std::partition_point(
          records.begin(), records.end(),
          [type](const dns::ResourceRecord& rr) { return rr.type <= type; }),
      std::move(record));
  ++record_count_;
}

std::span<const dns::ResourceRecord> Zone::Find(const dns::Name& name,
                                                dns::RrType type) const {
  const Node* node = FindNode(name);
  if (node == nullptr) return {};
  return TypeRange(node->records, type);
}

std::vector<dns::Name> Zone::Names() const {
  std::vector<dns::Name> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) out.push_back(node.name);
  return out;
}

std::span<const dns::ResourceRecord> Zone::RecordsAt(
    const dns::Name& name) const {
  const Node* node = FindNode(name);
  if (node == nullptr) return {};
  return node->records;
}

bool Zone::IsSigned() const {
  return !Find(apex_, dns::RrType::kDnskey).empty();
}

std::shared_ptr<const std::vector<dns::Name>> Zone::SortedNames() const {
  base::MutexLock lock(denial_mutex_);
  if (!sorted_names_) {
    auto sorted = std::make_shared<std::vector<dns::Name>>(Names());
    std::sort(sorted->begin(), sorted->end());
    sorted_names_ = std::move(sorted);
  }
  return sorted_names_;
}

Zone::DenialRange Zone::DenialNeighbors(const dns::Name& qname) const {
  auto sorted = SortedNames();
  DenialRange range;
  range.prev = apex_;
  range.next = apex_;  // wrap by default
  if (sorted->empty()) return range;
  auto it = std::lower_bound(sorted->begin(), sorted->end(), qname);
  range.prev = it == sorted->begin() ? sorted->front() : *std::prev(it);
  range.next = it == sorted->end() ? apex_ : *it;
  return range;
}

void Zone::AppendGlue(const LookupResult& referral,
                      std::vector<dns::ResourceRecord>& out) const {
  if (referral.status != LookupStatus::kDelegation) return;
  for (const auto& ns_rr : referral.records) {
    const auto& target = std::get<dns::NsRdata>(ns_rr.rdata).nameserver;
    if (!target.IsSubdomainOf(apex_)) continue;
    const Node* node = FindNode(target);
    if (node == nullptr) continue;
    const auto a = TypeRange(node->records, dns::RrType::kA);
    out.insert(out.end(), a.begin(), a.end());
    const auto aaaa = TypeRange(node->records, dns::RrType::kAaaa);
    out.insert(out.end(), aaaa.begin(), aaaa.end());
  }
}

LookupResult Zone::Lookup(const dns::Name& qname, dns::RrType qtype) const {
  LookupResult result;
  if (!qname.IsSubdomainOf(apex_)) {
    result.status = LookupStatus::kNotInZone;
    return result;
  }

  // Walk qname's suffixes from the apex down. Every name in the zone has
  // all its ancestors registered, so the first missing suffix proves
  // qname does not exist; the first suffix below the apex with an NS
  // RRset is the enclosing cut, and cuts take precedence over data below
  // them.
  const std::uint8_t* const flat = qname.FlatData();
  const std::size_t size = qname.FlatSize();
  const std::size_t labels = qname.LabelCount();
  std::uint8_t starts[dns::Name::kMaxWireLength / 2 + 1];
  {
    const std::uint8_t* p = flat;
    for (std::size_t i = 0; i < labels; ++i) {
      starts[i] = static_cast<std::uint8_t>(p - flat);
      p += 1 + *p;
    }
  }
  const Node* node = nullptr;
  for (std::size_t depth = apex_.LabelCount(); depth <= labels; ++depth) {
    const std::size_t start = depth == 0 ? size : starts[labels - depth];
    const std::uint64_t hash =
        depth == labels ? qname.CachedHash()
                        : dns::Name::HashFlat(flat + start, size - start);
    node = FindNode(hash, flat + start, size - start);
    if (node == nullptr) break;
    if (depth == apex_.LabelCount()) continue;
    const auto ns_set = TypeRange(node->records, dns::RrType::kNs);
    if (ns_set.empty()) continue;
    // Querying the cut itself for DS stays authoritative at the parent
    // (RFC 4035 §3.1.4.1); everything else is a referral.
    if (depth == labels && qtype == dns::RrType::kDs) break;
    result.status = LookupStatus::kDelegation;
    result.cut = &node->name;
    result.records = ns_set;
    result.ds = TypeRange(node->records, dns::RrType::kDs);
    return result;
  }

  auto attach_soa = [this, &result] {
    result.soa = Find(apex_, dns::RrType::kSoa);
  };

  if (node == nullptr) {
    result.status = LookupStatus::kNxDomain;
    attach_soa();
    return result;
  }

  if (qtype == dns::RrType::kAny) {
    result.records = node->records;
    result.status = result.records.empty() ? LookupStatus::kNoData
                                           : LookupStatus::kAnswer;
    if (result.records.empty()) attach_soa();
    return result;
  }

  result.records = TypeRange(node->records, qtype);
  // CNAME at the name answers any type (we only chase one level; our zones
  // never chain CNAMEs).
  if (result.records.empty()) {
    result.records = TypeRange(node->records, dns::RrType::kCname);
  }
  if (!result.records.empty()) {
    result.status = LookupStatus::kAnswer;
    return result;
  }
  result.status = LookupStatus::kNoData;
  attach_soa();
  return result;
}

}  // namespace clouddns::zone
