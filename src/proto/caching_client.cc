#include "proto/caching_client.h"

#include <stdexcept>

namespace p4p::proto {

CachingPortalClient::CachingPortalClient(std::unique_ptr<Transport> transport,
                                         std::function<double()> clock,
                                         double ttl_seconds,
                                         std::size_t max_stale_serves)
    : client_(std::move(transport)), clock_(std::move(clock)), ttl_(ttl_seconds),
      max_stale_serves_(max_stale_serves) {
  if (!clock_) {
    throw std::invalid_argument("CachingPortalClient: null clock");
  }
  if (!(ttl_seconds > 0)) {
    throw std::invalid_argument("CachingPortalClient: ttl must be positive");
  }
}

void CachingPortalClient::Refresh(double now) {
  // TTL expired but we still hold a matrix: validate it with the version
  // token instead of re-transferring it. The UDP fast path goes first when
  // enabled — one datagram each way instead of a TCP round trip.
  if (udp_) {
    const auto answer = udp_->Validate(view_->version);
    if (answer && answer->not_modified && answer->version == view_->version) {
      ++validation_count_;
      ++udp_validation_count_;
      view_->fetched_at = now;
      return;
    }
    if (!answer) ++udp_fallback_count_;
    // A revalidate redirect (or any surprising answer) falls through to
    // the TCP conditional request, which re-checks authoritatively.
  }
  auto fresh = client_.GetExternalViewIfModified(view_->version);
  if (!fresh) {
    ++validation_count_;
    view_->fetched_at = now;
    return;
  }
  ++fetch_count_;
  view_ = CachedView{std::move(fresh->first), fresh->second, now};
}

const core::PDistanceMatrix& CachingPortalClient::GetExternalView() {
  const double now = clock_();
  if (view_ && now - view_->fetched_at <= ttl_) {
    ++hit_count_;
    return view_->view;
  }
  if (view_) {
    try {
      Refresh(now);
      stale_streak_ = 0;
    } catch (const std::exception&) {
      // Portal unreachable (or shedding): keep serving the expired matrix
      // within the staleness budget. fetched_at is left alone, so each
      // subsequent access retries the refresh — recovery is as prompt as
      // the portal's return, and the budget stays a hard cap.
      if (stale_streak_ >= max_stale_serves_) throw;
      ++stale_streak_;
      ++stale_served_total_;
    }
    return view_->view;
  }
  auto [view, version] = client_.GetExternalViewWithVersion();
  ++fetch_count_;
  view_ = CachedView{std::move(view), version, now};
  return view_->view;
}

const core::PDistanceMatrix* CachingPortalClient::TryGetExternalView() {
  try {
    return &GetExternalView();
  } catch (const std::exception&) {
    return nullptr;
  }
}

std::vector<double> CachingPortalClient::GetPDistances(core::Pid from) {
  const auto& view = GetExternalView();
  if (from < 0 || from >= view.size()) {
    throw std::out_of_range("CachingPortalClient: PID out of range");
  }
  std::vector<double> row(static_cast<std::size_t>(view.size()));
  for (core::Pid j = 0; j < view.size(); ++j) {
    row[static_cast<std::size_t>(j)] = view.at(from, j);
  }
  return row;
}

void CachingPortalClient::Invalidate() {
  view_.reset();
  stale_streak_ = 0;
}

void CachingPortalClient::EnableUdpValidation(std::unique_ptr<UdpValidationClient> udp) {
  if (!udp) {
    throw std::invalid_argument("CachingPortalClient: null UDP validation client");
  }
  udp_ = std::move(udp);
  // New validation path, fresh degraded-mode budget: stale serves that
  // accumulated against the old configuration must not count against the
  // new one.
  stale_streak_ = 0;
}

}  // namespace p4p::proto
