// Portal discovery — "there are various ways to obtain the IP address of
// the iTracker of a network; one possibility is through DNS query (using
// DNS SRV with symbolic name p4p)" (Section 3).
//
// PortalDirectory is the resolver-side substitute: SRV-style records
// (priority, weight, target, port) registered under a domain, resolved with
// standard SRV semantics — lowest priority wins, ties broken by weighted
// random selection. The symbolic service name is "_p4p._tcp.<domain>".
//
// Failover clients want the whole RFC 2782 sequence, not one record:
// ResolveOrdering() returns every record of the domain, priority classes
// ascending, each class ordered by repeated weighted selection without
// replacement (zero-weight records placed first within a class, so they
// keep the RFC's "very small probability of being selected"). Records
// carry no replica freshness, so failover clients walk SRV order alone.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace p4p::proto {

struct SrvRecord {
  std::string target;       ///< host of the portal
  std::uint16_t port = 0;
  int priority = 0;         ///< lower is preferred
  int weight = 1;           ///< tie-break weight within a priority class
};

/// The symbolic SRV name for a domain's portal, e.g. "_p4p._tcp.isp-b.net".
std::string P4pServiceName(const std::string& domain);

/// Thread-safe: records may be added or removed while failover clients
/// resolve concurrently.
class PortalDirectory {
 public:
  /// Registers a record for `domain`. Throws std::invalid_argument for
  /// empty domain/target, zero port, or negative priority/weight. Weight 0
  /// is valid per RFC 2782 (selectable, with a very small probability).
  void AddRecord(const std::string& domain, SrvRecord record);

  /// Removes every record of `domain` matching (target, port) — the hook
  /// for health-driven directory updates. Returns the number removed.
  std::size_t RemoveRecord(const std::string& domain, const std::string& target,
                           std::uint16_t port);

  /// Resolves per SRV semantics. Returns std::nullopt for unknown domains.
  std::optional<SrvRecord> Resolve(const std::string& domain,
                                   std::mt19937_64& rng) const;

  /// The full failover sequence: every record of the domain, priority
  /// classes ascending, weighted-random order within each class (RFC 2782's
  /// repeated selection without replacement). Empty for unknown domains.
  std::vector<SrvRecord> ResolveOrdering(const std::string& domain,
                                         std::mt19937_64& rng) const;

  /// All records for a domain, in registration order.
  std::vector<SrvRecord> Records(const std::string& domain) const;

  std::size_t domain_count() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<SrvRecord>> records_;
};

}  // namespace p4p::proto
