#include "proto/service.h"

#include <cstring>
#include <stdexcept>

namespace p4p::proto {

namespace {

/// Aliases a buffer owned by `owner` as a SharedResponse (no copy).
template <typename Owner>
SharedResponse Alias(const std::shared_ptr<Owner>& owner,
                     const std::vector<std::uint8_t>& bytes) {
  return SharedResponse(owner, &bytes);
}

}  // namespace

SharedResponse ServeDistances(const std::shared_ptr<const SnapshotFrameSet>& frames,
                              const Message& request) {
  if (const auto* req = std::get_if<GetExternalViewReq>(&request)) {
    // A token matching either the current version or the view's content
    // version earns NotModified: in the latter case the client's cached
    // bytes are still bit-identical to external_view (only the counter
    // moved), so re-sending the matrix would be pure waste.
    if (req->if_version != 0 && (req->if_version == frames->version ||
                                 req->if_version == frames->view_version)) {
      return Alias(frames, frames->not_modified);
    }
    return frames->external_view;
  }
  if (const auto* req = std::get_if<GetPDistancesReq>(&request)) {
    if (req->from < 0 || static_cast<std::size_t>(req->from) >= frames->row_versions.size()) {
      return Share(Encode(ErrorMsg{"unknown PID"}));
    }
    const std::uint64_t stamp = frames->row_versions[static_cast<std::size_t>(req->from)];
    if (req->if_version != 0 &&
        (req->if_version == frames->version || req->if_version == stamp)) {
      return Alias(frames, frames->not_modified);
    }
    return Share(RowFrameFromView(frames->view(), req->from, stamp));
  }
  return nullptr;
}

ITrackerService::ITrackerService(const core::ITracker* tracker,
                                 const core::PolicyRegistry* policy,
                                 const core::CapabilityRegistry* capabilities,
                                 const core::PidMap* pid_map)
    : tracker_(tracker), policy_(policy), capabilities_(capabilities),
      pid_map_(pid_map) {
  if (tracker_ == nullptr) {
    throw std::invalid_argument("ITrackerService: null tracker");
  }
}

std::shared_ptr<const ITrackerService::EncodedState>
ITrackerService::encoded_state() const {
  // Fast path: the published buffers match the tracker's current snapshot.
  const auto snap = tracker_->snapshot();
  auto state = state_.load(std::memory_order_acquire);
  if (state && state->frames.version == snap->version) return state;

  // Encode once for this version; concurrent readers keep serving the old
  // buffers until the swap, and at most one thread pays the encode.
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  state = state_.load(std::memory_order_acquire);
  if (state && state->frames.version == snap->version) return state;

  auto next = std::make_shared<EncodedState>();
  next->snap = snap;
  SnapshotFrameSet& frames = next->frames;
  const int n = snap->view.size();
  frames.version = snap->version;
  frames.num_pids = n;
  frames.not_modified = Encode(NotModifiedResp{snap->version});

  // Content stamping: diff each row's raw doubles against the previous
  // state's snapshot (byte compare — tolerant of NaN, and exact, since the
  // encoder is a bit-faithful function of these bytes). Unchanged rows keep
  // their previous content version, and so their frame bytes: conditional
  // clients holding a row's content token still earn NotModified across
  // no-op version bumps.
  const auto prev = state;
  const bool diffable = prev && prev->snap && prev->snap->view.size() == n &&
                        prev->frames.row_versions.size() == static_cast<std::size_t>(n);
  frames.row_versions.assign(static_cast<std::size_t>(n), snap->version);
  bool any_row_changed = !diffable;
  for (core::Pid i = 0; diffable && i < n; ++i) {
    const auto values = snap->view.row(i);
    const auto prev_values = prev->snap->view.row(i);
    if (std::memcmp(values.data(), prev_values.data(),
                    static_cast<std::size_t>(n) * sizeof(double)) == 0) {
      frames.row_versions[static_cast<std::size_t>(i)] =
          prev->frames.row_versions[static_cast<std::size_t>(i)];
    } else {
      any_row_changed = true;
    }
  }

  if (!any_row_changed && n > 0) {
    // Version bumped but no price byte moved: the whole matrix is stable,
    // so the view frame (and its content stamp) carries over verbatim.
    frames.view_version = prev->frames.view_version;
    frames.external_view = prev->frames.external_view;
  } else {
    frames.view_version = snap->version;
    frames.external_view = Share(EncodeViewFrame(n, snap->version, snap->view.values()));
  }

  state_.store(next, std::memory_order_release);
  return next;
}

std::shared_ptr<const ITrackerService::EncodedPolicy>
ITrackerService::encoded_policy() const {
  const std::uint64_t version = policy_->version();
  auto cached = policy_cache_.load(std::memory_order_acquire);
  if (cached && cached->version == version) return cached;

  std::lock_guard<std::mutex> lock(rebuild_mu_);
  cached = policy_cache_.load(std::memory_order_acquire);
  if (cached && cached->version == version) return cached;

  auto next = std::make_shared<EncodedPolicy>();
  next->version = version;
  GetPolicyResp resp;
  resp.thresholds = policy_->thresholds();
  resp.time_of_day = policy_->time_of_day_policies();
  next->bytes = Encode(resp);
  policy_cache_.store(next, std::memory_order_release);
  return next;
}

std::uint64_t ITrackerService::price_version() const { return tracker_->version(); }

void ITrackerService::ResetEncodedState() const {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  state_.store(nullptr, std::memory_order_release);
  policy_cache_.store(nullptr, std::memory_order_release);
}

SnapshotFrameSet ITrackerService::ExportFrames() const {
  SnapshotFrameSet out = encoded_state()->frames;
  if (policy_ != nullptr) out.policy = encoded_policy()->bytes;
  return out;
}

std::optional<std::vector<std::uint8_t>> ITrackerService::HandleValidationDatagram(
    std::span<const std::uint8_t> datagram) const {
  const auto request = DecodeValidationRequest(datagram);
  if (!request) return std::nullopt;
  // version() is the cheap atomic counter; unlike snapshot() it never
  // triggers a matrix rebuild, so the UDP answer stays O(1) even when the
  // writer is republishing faster than anyone reads the matrix.
  const std::uint64_t version = tracker_->version();
  const auto status = (request->if_version != 0 && request->if_version == version)
                          ? ValidationStatus::kNotModified
                          : ValidationStatus::kRevalidateOverTcp;
  return EncodeValidationResponse(request->nonce, status,
                                  Encode(NotModifiedResp{version}));
}

SharedResponse ITrackerService::TryServeCached(const Message& request) const {
  if (std::holds_alternative<GetExternalViewReq>(request) ||
      std::holds_alternative<GetPDistancesReq>(request)) {
    const auto state = encoded_state();
    return ServeDistances(std::shared_ptr<const SnapshotFrameSet>(state, &state->frames),
                          request);
  }
  if (std::holds_alternative<GetPolicyReq>(request) && policy_ != nullptr) {
    const auto policy = encoded_policy();
    return Alias(policy, policy->bytes);
  }
  return nullptr;
}

Message ITrackerService::Dispatch(const Message& request) const {
  // Views, rows and an offered policy are served by TryServeCached.
  if (std::holds_alternative<GetPolicyReq>(request)) {
    return ErrorMsg{"policy interface not offered"};
  }
  if (const auto* req = std::get_if<GetCapabilityReq>(&request)) {
    if (capabilities_ == nullptr) return ErrorMsg{"capability interface not offered"};
    GetCapabilityResp resp;
    resp.capabilities = capabilities_->Query(req->type, req->content_id);
    return resp;
  }
  if (const auto* req = std::get_if<GetPidMapReq>(&request)) {
    if (pid_map_ == nullptr) return ErrorMsg{"pid-map interface not offered"};
    GetPidMapResp resp;
    if (const auto mapping = pid_map_->lookup(req->client_ip)) {
      resp.found = true;
      resp.pid = mapping->pid;
      resp.as_number = mapping->as_number;
    }
    return resp;
  }
  return ErrorMsg{"unexpected message type"};
}

SharedResponse ITrackerService::HandleShared(
    std::span<const std::uint8_t> request) const {
  const auto decoded = Decode(request);
  if (!decoded) return Share(Encode(ErrorMsg{"malformed request"}));
  if (auto cached = TryServeCached(*decoded)) return cached;
  return Share(Encode(Dispatch(*decoded)));
}

std::vector<std::uint8_t> ITrackerService::Handle(
    std::span<const std::uint8_t> request) const {
  return *HandleShared(request);
}

PortalClient::PortalClient(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  if (!transport_) {
    throw std::invalid_argument("PortalClient: null transport");
  }
}

Message PortalClient::Call(const Message& request) {
  const auto bytes = transport_->Call(Encode(request));
  auto decoded = Decode(bytes);
  if (!decoded) {
    throw std::runtime_error("PortalClient: malformed response");
  }
  if (const auto* err = std::get_if<ErrorMsg>(&*decoded)) {
    throw std::runtime_error("PortalClient: server error: " + err->message);
  }
  if (const auto* busy = std::get_if<UnavailableResp>(&*decoded)) {
    // A replica that cannot serve yet: retryable by contract, so surface it
    // as the typed error the failover/staleness layers key on.
    throw PortalUnavailableError("PortalClient: server unavailable",
                                 busy->retry_after_ms / 1000.0);
  }
  return std::move(*decoded);
}

std::vector<double> PortalClient::GetPDistances(core::Pid from) {
  const auto resp = Call(GetPDistancesReq{from});
  const auto* r = std::get_if<GetPDistancesResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  return r->distances;
}

core::PDistanceMatrix PortalClient::GetExternalView() {
  return GetExternalViewWithVersion().first;
}

namespace {

core::PDistanceMatrix MatrixFromResp(const GetExternalViewResp& r) {
  core::PDistanceMatrix m(r.num_pids);
  for (core::Pid i = 0; i < r.num_pids; ++i) {
    for (core::Pid j = 0; j < r.num_pids; ++j) {
      m.set(i, j,
            r.distances[static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(r.num_pids) +
                        static_cast<std::size_t>(j)]);
    }
  }
  return m;
}

}  // namespace

std::pair<core::PDistanceMatrix, std::uint64_t>
PortalClient::GetExternalViewWithVersion() {
  const auto resp = Call(GetExternalViewReq{});
  const auto* r = std::get_if<GetExternalViewResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  return {MatrixFromResp(*r), r->version};
}

std::optional<std::pair<core::PDistanceMatrix, std::uint64_t>>
PortalClient::GetExternalViewIfModified(std::uint64_t known_version) {
  const auto resp = Call(GetExternalViewReq{known_version});
  if (std::get_if<NotModifiedResp>(&resp) != nullptr) return std::nullopt;
  const auto* r = std::get_if<GetExternalViewResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  return std::make_pair(MatrixFromResp(*r), r->version);
}

GetPolicyResp PortalClient::GetPolicy() {
  const auto resp = Call(GetPolicyReq{});
  const auto* r = std::get_if<GetPolicyResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  return *r;
}

std::vector<core::Capability> PortalClient::GetCapabilities(
    core::CapabilityType type, const std::string& content_id) {
  const auto resp = Call(GetCapabilityReq{type, content_id});
  const auto* r = std::get_if<GetCapabilityResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  return r->capabilities;
}

std::optional<core::PidMapping> PortalClient::GetPidMapping(
    const std::string& client_ip) {
  const auto resp = Call(GetPidMapReq{client_ip});
  const auto* r = std::get_if<GetPidMapResp>(&resp);
  if (r == nullptr) throw std::runtime_error("PortalClient: wrong response type");
  if (!r->found) return std::nullopt;
  return core::PidMapping{r->pid, r->as_number};
}

}  // namespace p4p::proto
