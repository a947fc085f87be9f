#include "proto/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "proto/messages.h"

namespace p4p::proto {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealSleep(double seconds) {
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// Server-side shedding answer? Returns the retry-after hint in seconds.
std::optional<double> UnavailableHint(std::span<const std::uint8_t> response) {
  if (response.size() < 2 || response[0] != kProtocolVersion ||
      response[1] != static_cast<std::uint8_t>(MsgType::kUnavailable)) {
    return std::nullopt;
  }
  const auto decoded = Decode(response);
  if (!decoded) return std::nullopt;
  const auto* busy = std::get_if<UnavailableResp>(&*decoded);
  if (busy == nullptr) return std::nullopt;
  return busy->retry_after_ms / 1000.0;
}

}  // namespace

ResilientPortalClient::ResilientPortalClient(const PortalDirectory* directory,
                                             std::string domain,
                                             TransportFactory factory,
                                             ResilientClientOptions options,
                                             std::function<double()> clock,
                                             std::function<void(double)> sleeper)
    : directory_(directory), domain_(std::move(domain)), factory_(std::move(factory)),
      options_(options), clock_(std::move(clock)), sleeper_(std::move(sleeper)),
      rng_(options.rng_seed) {
  if (directory_ == nullptr) {
    throw std::invalid_argument("ResilientPortalClient: null directory");
  }
  if (domain_.empty()) {
    throw std::invalid_argument("ResilientPortalClient: empty domain");
  }
  if (!factory_) {
    throw std::invalid_argument("ResilientPortalClient: null transport factory");
  }
  if (options_.failure_threshold < 1 || options_.max_attempts < 1) {
    throw std::invalid_argument(
        "ResilientPortalClient: failure_threshold and max_attempts must be >= 1");
  }
  if (!(options_.backoff_factor >= 1.0)) {
    throw std::invalid_argument("ResilientPortalClient: backoff_factor must be >= 1");
  }
  if (options_.backoff_jitter < 0.0 || options_.backoff_jitter >= 1.0) {
    throw std::invalid_argument("ResilientPortalClient: jitter must be in [0, 1)");
  }
  if (!clock_) clock_ = SteadySeconds;
  if (!sleeper_) sleeper_ = RealSleep;
}

bool ResilientPortalClient::AdmitLocked(EndpointHealth& health, double now) {
  switch (health.state) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      if (now < health.open_until) return false;
      // Cooldown elapsed: this caller becomes the half-open probe.
      health.state = CircuitState::kHalfOpen;
      health.probe_in_flight = false;
      return true;
    case CircuitState::kHalfOpen:
      // One probe at a time; everyone else keeps using the other replicas.
      return !health.probe_in_flight;
  }
  return false;
}

void ResilientPortalClient::RecordSuccessLocked(EndpointHealth& health) {
  if (health.state == CircuitState::kHalfOpen) ++breaker_closes_;
  health.state = CircuitState::kClosed;
  health.consecutive_failures = 0;
  health.probe_in_flight = false;
}

void ResilientPortalClient::RecordFailureLocked(EndpointHealth& health, double now) {
  ++health.consecutive_failures;
  if (health.state == CircuitState::kHalfOpen) {
    // Failed probe: straight back to open with a fresh cooldown.
    health.state = CircuitState::kOpen;
    health.open_until = now + options_.open_cooldown_seconds;
    health.probe_in_flight = false;
  } else if (health.state == CircuitState::kClosed &&
             health.consecutive_failures >= options_.failure_threshold) {
    health.state = CircuitState::kOpen;
    health.open_until = now + options_.open_cooldown_seconds;
    ++breaker_opens_;
  }
}

std::vector<std::uint8_t> ResilientPortalClient::Call(
    std::span<const std::uint8_t> request) {
  const double deadline = clock_() + options_.request_deadline_seconds;
  double backoff = options_.backoff_initial_seconds;
  double retry_hint = 0.0;  // strongest server retry-after seen
  int attempts_made = 0;
  int skips_this_call = 0;

  while (true) {
    std::vector<SrvRecord> ordering;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ordering = directory_->ResolveOrdering(domain_, rng_);
    }
    if (ordering.empty()) {
      throw PortalUnavailableError("ResilientPortalClient: no SRV records for '" +
                                   domain_ + "'");
    }

    int attempted_this_pass = 0;
    double earliest_reopen = deadline;
    for (const auto& record : ordering) {
      if (attempts_made >= options_.max_attempts) break;
      if (attempts_made > 0 && clock_() >= deadline) break;

      const EndpointKey key{record.target, record.port};
      bool probing = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto& health = endpoints_[key];
        const double now = clock_();
        if (!AdmitLocked(health, now)) {
          ++breaker_skips_;
          ++skips_this_call;
          earliest_reopen = std::min(earliest_reopen, health.open_until);
          continue;
        }
        if (health.state == CircuitState::kHalfOpen) {
          health.probe_in_flight = true;
          probing = true;
        }
        ++attempts_;
      }
      (void)probing;
      ++attempts_made;
      ++attempted_this_pass;

      try {
        auto transport = factory_(record);
        if (!transport) {
          throw std::runtime_error("transport factory returned null");
        }
        auto response = transport->Call(request);
        if (const auto hint = UnavailableHint(response)) {
          // Shedding is a live-but-overloaded signal: it still counts
          // against the breaker (a replica that always sheds is as useless
          // as a dead one) and raises the inter-pass backoff floor.
          retry_hint = std::max(retry_hint, *hint);
          std::lock_guard<std::mutex> lock(mu_);
          ++unavailables_;
          RecordFailureLocked(endpoints_[key], clock_());
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          RecordSuccessLocked(endpoints_[key]);
          if (attempts_made > 1 || skips_this_call > 0) ++failovers_;
        }
        return response;
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(mu_);
        RecordFailureLocked(endpoints_[key], clock_());
      }
    }

    const double now = clock_();
    if (attempted_this_pass == 0 && attempts_made < options_.max_attempts &&
        now < deadline) {
      // Every replica's breaker is open: fail fast and tell the caller when
      // the earliest one reopens — degraded mode must not burn the deadline.
      throw PortalUnavailableError(
          "ResilientPortalClient: all replicas open-circuited",
          std::max(retry_hint, std::max(0.0, earliest_reopen - now)));
    }
    if (attempts_made >= options_.max_attempts) {
      throw PortalUnavailableError("ResilientPortalClient: retry budget exhausted",
                                   retry_hint);
    }
    if (now >= deadline) {
      throw PortalUnavailableError("ResilientPortalClient: request deadline exceeded",
                                   retry_hint);
    }

    double jitter = 1.0;
    if (options_.backoff_jitter > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      std::uniform_real_distribution<double> u(1.0 - options_.backoff_jitter,
                                               1.0 + options_.backoff_jitter);
      jitter = u(rng_);
    }
    // The server's retry-after hint floors the backoff; the deadline caps it.
    const double sleep =
        std::min(std::max(backoff * jitter, retry_hint), deadline - now);
    if (sleep > 0) sleeper_(sleep);
    backoff = std::min(backoff * options_.backoff_factor, options_.backoff_max_seconds);
  }
}

CircuitState ResilientPortalClient::endpoint_state(const std::string& target,
                                                   std::uint16_t port) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(EndpointKey{target, port});
  return it == endpoints_.end() ? CircuitState::kClosed : it->second.state;
}

std::uint64_t ResilientPortalClient::attempt_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}
std::uint64_t ResilientPortalClient::failover_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failovers_;
}
std::uint64_t ResilientPortalClient::breaker_open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_opens_;
}
std::uint64_t ResilientPortalClient::breaker_close_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_closes_;
}
std::uint64_t ResilientPortalClient::breaker_skip_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_skips_;
}
std::uint64_t ResilientPortalClient::unavailable_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unavailables_;
}

}  // namespace p4p::proto
