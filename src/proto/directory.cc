#include "proto/directory.h"

#include <algorithm>
#include <stdexcept>

namespace p4p::proto {

namespace {

/// One RFC 2782 weighted selection from `candidates` (non-empty): records
/// with weight 0 are ordered first, a running-sum threshold is drawn in
/// [0, total] inclusive, and the first record whose cumulative weight
/// reaches it wins. A zero-weight record is selected exactly when the
/// threshold lands on 0 — "a very small probability", never zero.
std::size_t SelectWeighted(const std::vector<const SrvRecord*>& candidates,
                           std::mt19937_64& rng) {
  std::vector<std::size_t> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i]->weight == 0) order.push_back(i);
  }
  // The RFC leaves the arrangement of zero-weight records unspecified;
  // shuffling them keeps the all-zero case uniform instead of sticky.
  std::shuffle(order.begin(), order.end(), rng);
  long long total = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i]->weight != 0) {
      order.push_back(i);
      total += candidates[i]->weight;
    }
  }
  std::uniform_int_distribution<long long> pick(0, total);
  long long threshold = pick(rng);
  for (const std::size_t i : order) {
    threshold -= candidates[i]->weight;
    if (threshold <= 0) return i;
  }
  return order.back();
}

}  // namespace

std::string P4pServiceName(const std::string& domain) {
  return "_p4p._tcp." + domain;
}

void PortalDirectory::AddRecord(const std::string& domain, SrvRecord record) {
  if (domain.empty() || record.target.empty()) {
    throw std::invalid_argument("PortalDirectory: empty domain or target");
  }
  if (record.port == 0) {
    throw std::invalid_argument("PortalDirectory: port must be nonzero");
  }
  if (record.priority < 0 || record.weight < 0) {
    throw std::invalid_argument("PortalDirectory: negative priority or weight");
  }
  std::lock_guard<std::mutex> lock(mu_);
  records_[domain].push_back(std::move(record));
}

std::size_t PortalDirectory::RemoveRecord(const std::string& domain,
                                          const std::string& target,
                                          std::uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(domain);
  if (it == records_.end()) return 0;
  auto& recs = it->second;
  const auto removed = recs.size();
  recs.erase(std::remove_if(recs.begin(), recs.end(),
                            [&](const SrvRecord& r) {
                              return r.target == target && r.port == port;
                            }),
             recs.end());
  const std::size_t count = removed - recs.size();
  if (recs.empty()) records_.erase(it);
  return count;
}

std::optional<SrvRecord> PortalDirectory::Resolve(const std::string& domain,
                                                  std::mt19937_64& rng) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(domain);
  if (it == records_.end() || it->second.empty()) return std::nullopt;

  // Lowest priority class.
  int best_priority = it->second.front().priority;
  for (const auto& r : it->second) best_priority = std::min(best_priority, r.priority);

  std::vector<const SrvRecord*> candidates;
  for (const auto& r : it->second) {
    if (r.priority == best_priority) candidates.push_back(&r);
  }
  return *candidates[SelectWeighted(candidates, rng)];
}

std::vector<SrvRecord> PortalDirectory::Records(const std::string& domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(domain);
  return it == records_.end() ? std::vector<SrvRecord>{} : it->second;
}

std::size_t PortalDirectory::domain_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

}  // namespace p4p::proto
