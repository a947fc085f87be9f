// Fault-tolerant transport over a replicated portal.
//
// P4P is opt-in infrastructure: applications must keep working when an
// iTracker replica is slow, overloaded, or gone (Sections 3-4 of the
// paper). ResilientPortalClient is the client half of that contract — a
// Transport that walks the full RFC 2782 SRV ordering from PortalDirectory
// instead of pinning one record, tracks per-endpoint health with a
// three-state circuit breaker, and spends a bounded retry budget with
// jittered exponential backoff before giving up with a typed
// PortalUnavailableError. It plugs in under PortalClient/CachingPortalClient
// unchanged, which is where stale-view degradation takes over.
//
// Circuit breaker per endpoint:
//
//       consecutive failures >= threshold
//   closed ------------------------------> open
//     ^                                      | cooldown elapsed
//     |  probe succeeds                      v
//     +---------------------------------- half-open
//                 probe fails: back to open (fresh cooldown)
//
// While open, the endpoint is skipped instantly — a dead primary costs
// nothing after the breaker trips, instead of a connect timeout per
// request. Half-open admits exactly one probe; concurrent callers keep
// using the other replicas until the probe settles.
//
// Determinism: the wall clock, the sleep function, and the RNG seed are all
// injectable, so every retry/backoff/breaker decision is reproducible under
// the virtual clock in tests.
#pragma once

#include <functional>
#include <map>
#include <mutex>

#include "proto/directory.h"
#include "proto/transport.h"

namespace p4p::proto {

enum class CircuitState { kClosed, kOpen, kHalfOpen };

struct ResilientClientOptions {
  /// Consecutive failures that trip an endpoint's breaker open.
  int failure_threshold = 3;
  /// How long an open breaker rejects instantly before half-open probing.
  double open_cooldown_seconds = 5.0;
  /// Total transport attempts one Call() may spend across all replicas.
  int max_attempts = 6;
  /// Wall-clock budget for one Call(), backoff sleeps included.
  double request_deadline_seconds = 2.0;
  /// Backoff between full passes over the ordering: initial * factor^pass,
  /// capped, then scaled by a jitter factor drawn from [1-jitter, 1+jitter].
  double backoff_initial_seconds = 0.05;
  double backoff_factor = 2.0;
  double backoff_max_seconds = 1.0;
  double backoff_jitter = 0.5;
  /// Seed for SRV shuffling and backoff jitter (deterministic failover).
  std::uint64_t rng_seed = 0x9e3779b97f4a7c15ull;
};

/// Thread-safe: any number of threads may Call() concurrently; breaker
/// state is shared so one thread's discovery that a replica died benefits
/// every other thread immediately.
class ResilientPortalClient final : public Transport {
 public:
  /// Builds the per-attempt channel to one replica. Invoked per attempt so
  /// a dead endpoint fails at connect time, not with a poisoned cached
  /// socket; throwing from the factory counts as that endpoint failing.
  using TransportFactory = std::function<std::unique_ptr<Transport>(const SrvRecord&)>;

  /// `directory` must outlive the client. `clock` returns seconds
  /// (monotonic) and `sleeper` blocks for the given seconds; both default
  /// to the real steady clock and are injectable for virtual-clock tests.
  ResilientPortalClient(const PortalDirectory* directory, std::string domain,
                        TransportFactory factory, ResilientClientOptions options = {},
                        std::function<double()> clock = {},
                        std::function<void(double)> sleeper = {});

  /// Sends the request to the first healthy replica in SRV order, failing
  /// over within the retry budget/deadline. Throws PortalUnavailableError
  /// when no replica answered (carrying the strongest retry-after hint
  /// seen); other exceptions only for non-retryable local errors.
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override;

  /// Breaker state of one endpoint (kClosed for never-seen endpoints).
  CircuitState endpoint_state(const std::string& target, std::uint16_t port) const;

  /// Total transport attempts across all Call()s.
  std::uint64_t attempt_count() const;
  /// Calls answered by a replica other than the first one tried.
  std::uint64_t failover_count() const;
  /// Closed->open breaker transitions.
  std::uint64_t breaker_open_count() const;
  /// Half-open probes that closed a breaker again.
  std::uint64_t breaker_close_count() const;
  /// Endpoint attempts skipped because the breaker was open.
  std::uint64_t breaker_skip_count() const;
  /// UnavailableResp answers (server-side shedding) seen.
  std::uint64_t unavailable_count() const;

 private:
  struct EndpointHealth {
    CircuitState state = CircuitState::kClosed;
    int consecutive_failures = 0;
    double open_until = 0.0;
    bool probe_in_flight = false;
  };
  using EndpointKey = std::pair<std::string, std::uint16_t>;

  /// Whether this endpoint may be tried now; flips open -> half-open when
  /// the cooldown elapsed. Called under mu_.
  bool AdmitLocked(EndpointHealth& health, double now);
  void RecordSuccessLocked(EndpointHealth& health);
  void RecordFailureLocked(EndpointHealth& health, double now);

  const PortalDirectory* directory_;
  std::string domain_;
  TransportFactory factory_;
  ResilientClientOptions options_;
  std::function<double()> clock_;
  std::function<void(double)> sleeper_;

  mutable std::mutex mu_;
  std::mt19937_64 rng_;  // guarded by mu_
  std::map<EndpointKey, EndpointHealth> endpoints_;
  std::uint64_t attempts_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t breaker_closes_ = 0;
  std::uint64_t breaker_skips_ = 0;
  std::uint64_t unavailables_ = 0;
};

}  // namespace p4p::proto
