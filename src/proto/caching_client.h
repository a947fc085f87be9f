// Version-aware caching wrapper over PortalClient.
//
// The interface is designed so that "network information should be
// aggregated and allow caching to avoid handling per client query to
// networks" (Section 4): responses carry the iTracker's price version, so
// an appTracker can serve thousands of peer selections from one fetched
// view, refreshing on a TTL and keeping the old data when the version has
// not moved. TTL refreshes are conditional: the client presents its held
// version token and the portal answers with a ~16-byte NotModified when
// prices have not changed, so a steady-state refresh costs neither a
// matrix encode nor a matrix transfer.
//
// Degradation: when a TTL refresh fails (the transport throws because the
// portal is down, or a follower answers UnavailableResp), the client enters stale-while-unreachable mode: the expired matrix keeps
// serving, bounded by a staleness budget, instead of the error tearing
// through to peer selection. Every later access retries the refresh; the
// first success clears the staleness. Only when the budget is spent (or no
// matrix was ever fetched) does the failure surface — at which point
// AppTracker falls back to native selection.
#pragma once

#include <functional>
#include <optional>

#include "proto/service.h"

namespace p4p::proto {

class CachingPortalClient {
 public:
  /// `clock` returns the current time in seconds (monotonic); injectable
  /// for tests and simulations. Rows/views older than `ttl_seconds` are
  /// refetched on access. `max_stale_serves` bounds how many accesses the
  /// expired matrix may serve while every replica is unreachable
  /// (0 disables stale serving: refresh failures throw immediately).
  CachingPortalClient(std::unique_ptr<Transport> transport,
                      std::function<double()> clock, double ttl_seconds = 60.0,
                      std::size_t max_stale_serves = 256);

  /// Cached row of p-distances from `from`.
  std::vector<double> GetPDistances(core::Pid from);
  /// Cached full-mesh view.
  const core::PDistanceMatrix& GetExternalView();

  /// As GetExternalView, but failure-tolerant: returns nullptr instead of
  /// throwing when no usable view exists (never fetched and unreachable, or
  /// staleness budget spent). The AppTracker probe for degraded mode.
  const core::PDistanceMatrix* TryGetExternalView();

  /// Forces the next access to refetch unconditionally (dropping the held
  /// matrix, its version token, and any staleness state — so that refetch
  /// is a full TCP transfer, never a UDP validation of a forgotten token).
  void Invalidate();

  /// Enables the validate-via-UDP fast path: a TTL refresh first asks the
  /// UDP validation server (one datagram each way); only when UDP yields no
  /// answer — drops, corruption, dead server — does the refresh fall back
  /// to the TCP conditional request. Zero behavior change on failure: every
  /// UDP outcome that is not a clean NotModified for the held version is
  /// re-checked authoritatively over TCP. Reconfiguring the validation path
  /// also resets the staleness streak: the operator just changed how the
  /// client reaches the portal, so the degraded-mode budget starts afresh.
  void EnableUdpValidation(std::unique_ptr<UdpValidationClient> udp);
  bool validate_via_udp() const { return udp_ != nullptr; }

  /// Full matrix transfers (cold fetches and version-miss refreshes).
  std::size_t fetch_count() const { return fetch_count_; }
  /// Accesses served from the in-memory cache within the TTL.
  std::size_t hit_count() const { return hit_count_; }
  /// TTL refreshes answered NotModified (cached matrix kept).
  std::size_t validation_count() const { return validation_count_; }
  /// TTL refreshes validated over UDP (subset of validation_count).
  std::size_t udp_validation_count() const { return udp_validation_count_; }
  /// UDP validation attempts that fell back to the TCP path.
  std::size_t udp_fallback_count() const { return udp_fallback_count_; }

  /// Currently serving an expired matrix because replicas are unreachable.
  bool stale() const { return stale_streak_ > 0; }
  /// Consecutive stale serves since the last successful refresh (the value
  /// bounded by `max_stale_serves`).
  std::size_t stale_serve_count() const { return stale_streak_; }
  /// How many more accesses the expired matrix may serve before refresh
  /// failures surface to the caller — the unspent staleness budget. Equals
  /// `max_stale_serves` when healthy; hits 0 exactly when the next failed
  /// refresh throws.
  std::size_t stale_serves_remaining() const {
    return stale_streak_ >= max_stale_serves_ ? 0 : max_stale_serves_ - stale_streak_;
  }
  /// Cumulative accesses ever served stale (monotone; benches report this).
  std::size_t stale_served_total() const { return stale_served_total_; }

 private:
  struct CachedView {
    core::PDistanceMatrix view{0};
    std::uint64_t version = 0;
    double fetched_at = 0.0;
  };

  /// The TTL-expired refresh: UDP validation, then conditional TCP. Throws
  /// on transport failure (stale handling is the caller's).
  void Refresh(double now);

  PortalClient client_;
  std::function<double()> clock_;
  double ttl_;
  std::size_t max_stale_serves_;
  std::unique_ptr<UdpValidationClient> udp_;
  std::optional<CachedView> view_;
  std::size_t fetch_count_ = 0;
  std::size_t hit_count_ = 0;
  std::size_t validation_count_ = 0;
  std::size_t udp_validation_count_ = 0;
  std::size_t udp_fallback_count_ = 0;
  std::size_t stale_streak_ = 0;
  std::size_t stale_served_total_ = 0;
};

}  // namespace p4p::proto
