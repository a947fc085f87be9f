// The portal service: binds an ITracker (plus policy/capability registries
// and the PID map) to the wire protocol, and a typed client for
// applications. This realizes Figure 3 of the paper: appTrackers (or peers
// in trackerless systems) query iTracker portals for policy and
// p-distances.
//
// Serving path: the p-distance view response is encoded once per price
// version into a shared byte buffer keyed on the tracker's PriceSnapshot
// version. The steady-state request path is: decode the (tiny) request ->
// one atomic snapshot load -> cache version check -> write the pre-encoded
// bytes. A per-PID row is cut out of that view frame when a client asks
// for it (RowFrameFromView), so a version nobody reads a row of costs no
// row frames. Clients presenting a current version token get a ~16-byte
// NotModifiedResp instead of the matrix. This is the paper's Section 4
// mandate ("information should be aggregated and allow caching to avoid
// handling per client query to networks") applied to the server side.
// Views, rows and the policy are always served from these buffers, whose
// bytes equal a fresh Encode of the same version.
#pragma once

#include <memory>

#include "core/capability.h"
#include "core/itracker.h"
#include "core/pidmap.h"
#include "core/policy.h"
#include "proto/messages.h"
#include "proto/transport.h"

namespace p4p::proto {

/// Everything a portal replica needs to serve one price version: the
/// version token, the pre-encoded NotModified, view and policy frames, and
/// one content stamp per row. The federation publisher ships these bytes to
/// follower replicas, which install them verbatim — a follower never
/// decodes the matrix or re-encodes a response, so its answers are
/// byte-identical to the publisher's. Row frames are not held: every
/// replica cuts row i out of the view under row_versions[i] when a client
/// asks for it (RowFrameFromView, messages.h), so a row answer is a
/// function of the view and the stamp alone.
///
/// Every frame carries a *content version*: the price version at which its
/// bytes last changed. A super-gradient tick that moves only a few link
/// prices re-stamps only the per-PID rows whose paths cross those links;
/// untouched rows keep their old stamp and their old bytes. So a client
/// token equal to a frame's content version earns NotModified even when the
/// portal's version counter has moved past it, and no-op version bumps
/// never re-send the matrix.
struct SnapshotFrameSet {
  /// Publisher term that produced this set (0 until a federation publisher
  /// stamps it — ExportFrames itself is term-agnostic). Followers order
  /// installs lexicographically by (term, version): a fenced ex-publisher's
  /// frames can never overwrite a newer term's, whatever its version says.
  std::uint64_t term = 0;
  std::uint64_t version = 0;
  /// Content version of external_view (== max over row_versions; `version`
  /// when the set has no rows).
  std::uint64_t view_version = 0;
  std::int32_t num_pids = 0;
  std::vector<std::uint8_t> not_modified;       // NotModifiedResp{version}
  /// GetExternalViewResp frame: one immutable buffer per content version,
  /// shared by every copy of the set and by every full-view answer, so a
  /// copy of the set never copies the matrix. Nobody writes into it; a
  /// changed view is a new buffer. Null reads as an empty frame (view()).
  SharedResponse external_view;
  /// Per-row content version: the price version at which row i last
  /// changed. num_pids entries.
  std::vector<std::uint64_t> row_versions;
  /// GetPolicyResp frame; empty when the publisher offers no policy
  /// interface (followers then answer policy queries with an ErrorMsg).
  std::vector<std::uint8_t> policy;

  /// The view frame's bytes; empty when external_view is null.
  std::span<const std::uint8_t> view() const {
    return external_view ? std::span<const std::uint8_t>(*external_view)
                         : std::span<const std::uint8_t>();
  }
};

/// Answers a GetExternalViewReq or GetPDistancesReq from `frames`, the one
/// conditional-serving rule of every portal replica: a token equal to the
/// set's version or to the asked frame's content version earns the
/// NotModified frame; otherwise the shared view frame itself is the answer
/// (no copy) and a row frame is cut from it. A PID outside [0, num_pids) gets
/// ErrorMsg{"unknown PID"}. Null for any other request.
SharedResponse ServeDistances(const std::shared_ptr<const SnapshotFrameSet>& frames,
                              const Message& request);

/// Server-side dispatcher. The referenced components must outlive the
/// service. Any of policy/capabilities/pid_map may be null, in which case
/// the corresponding interface answers with an ErrorMsg ("a network
/// provider may choose to implement a subset of the interfaces").
///
/// Thread safety: Handle/HandleShared may be called from any number of
/// server threads concurrently with ITracker mutations on a control
/// thread. Policy/capability/pid-map mutations remain control-plane
/// operations that must not race queries.
class ITrackerService {
 public:
  explicit ITrackerService(const core::ITracker* tracker,
                           const core::PolicyRegistry* policy = nullptr,
                           const core::CapabilityRegistry* capabilities = nullptr,
                           const core::PidMap* pid_map = nullptr);

  /// Handles one encoded request, returns the encoded response. Malformed
  /// requests yield an encoded ErrorMsg.
  std::vector<std::uint8_t> Handle(std::span<const std::uint8_t> request) const;

  /// As Handle, but returns a shared buffer: cached responses are served
  /// zero-copy (the same buffer goes to every connection asking for the
  /// current version).
  SharedResponse HandleShared(std::span<const std::uint8_t> request) const;

  /// Answers one UDP validation datagram: one atomic version load plus a
  /// ~10-byte NotModifiedResp encode; the matrix is never rebuilt for it.
  /// Returns std::nullopt for anything that does not parse as a validation
  /// request — the server stays silent instead of amplifying garbage.
  std::optional<std::vector<std::uint8_t>> HandleValidationDatagram(
      std::span<const std::uint8_t> datagram) const;

  /// Adapter for the transports.
  Handler handler() const {
    return [this](std::span<const std::uint8_t> req) { return Handle(req); };
  }
  /// Zero-copy adapter for TcpServer.
  SharedHandler shared_handler() const {
    return [this](std::span<const std::uint8_t> req) { return HandleShared(req); };
  }
  /// Adapter for UdpValidationServer.
  DatagramHandler validation_handler() const {
    return [this](std::span<const std::uint8_t> d) {
      return HandleValidationDatagram(d);
    };
  }

  /// The tracker's current price version — the cheap atomic counter the
  /// federation publisher polls to decide whether a republish is due.
  std::uint64_t price_version() const;

  /// Exports the current version's pre-encoded response frames for
  /// federation. The view frame is shared with the response cache, not
  /// copied: an export copies the small frames and the row stamps (~1 kB
  /// at 144 PIDs). The publisher encodes the set into a push frame once per
  /// version.
  SnapshotFrameSet ExportFrames() const;

  /// Drops every encoded cache, so the next rebuild re-stamps all rows at
  /// the tracker's *current* version instead of carrying forward older
  /// content stamps. A promoting failover coordinator calls this right
  /// after flooring the tracker version at the new term's stride: content
  /// stamps minted before promotion live in the replica's private version
  /// space and could collide with tokens the old term published, which
  /// would turn into silently-wrong NotModified answers. Not for the
  /// steady-state path: it invalidates every old row token once, so
  /// clients refetch rows that did not change.
  void ResetEncodedState() const;

 private:
  /// The p-distance frames of one price version, encoded once. Each
  /// rebuild diffs the new PriceSnapshot against the previous state's
  /// snapshot row by row (raw-byte compare, so NaN-safe): unchanged rows
  /// keep their previous content stamp, changed rows are stamped with the
  /// current version. `frames.term` stays 0 and `frames.policy` empty (the
  /// policy frame has its own cache).
  struct EncodedState {
    SnapshotFrameSet frames;
    /// The snapshot these frames encode — kept so the next rebuild can
    /// diff against it without decoding its own output.
    std::shared_ptr<const core::PriceSnapshot> snap;
  };
  struct EncodedPolicy {
    std::uint64_t version = 0;
    std::vector<std::uint8_t> bytes;  // GetPolicyResp
  };
  /// Answers the capability and pid-map interfaces, and the policy
  /// interface when it is not offered.
  Message Dispatch(const Message& request) const;
  /// Serves views, rows and an offered policy from the pre-encoded caches,
  /// rebuilding a cache on version mismatch; null means "fall through to
  /// Dispatch".
  SharedResponse TryServeCached(const Message& request) const;
  std::shared_ptr<const EncodedState> encoded_state() const;
  std::shared_ptr<const EncodedPolicy> encoded_policy() const;

  const core::ITracker* tracker_;
  const core::PolicyRegistry* policy_;
  const core::CapabilityRegistry* capabilities_;
  const core::PidMap* pid_map_;
  mutable std::atomic<std::shared_ptr<const EncodedState>> state_;
  mutable std::atomic<std::shared_ptr<const EncodedPolicy>> policy_cache_;
  /// Serializes cache rebuilds (not lookups) so one thread encodes per
  /// version while the rest keep serving the old buffers.
  mutable std::mutex rebuild_mu_;
};

/// Typed client over any Transport. Methods throw std::runtime_error on
/// transport or protocol errors (including server-side ErrorMsg).
class PortalClient {
 public:
  explicit PortalClient(std::unique_ptr<Transport> transport);

  std::vector<double> GetPDistances(core::Pid from);
  core::PDistanceMatrix GetExternalView();
  /// As GetExternalView, but also returns the iTracker's price version —
  /// the cache-coherence token of the protocol.
  std::pair<core::PDistanceMatrix, std::uint64_t> GetExternalViewWithVersion();
  /// Conditional fetch: presents `known_version` to the portal and returns
  /// std::nullopt when the server's view has not changed (NotModified) —
  /// the caller keeps its cached matrix. Otherwise returns the fresh
  /// (matrix, version) pair.
  std::optional<std::pair<core::PDistanceMatrix, std::uint64_t>>
  GetExternalViewIfModified(std::uint64_t known_version);
  GetPolicyResp GetPolicy();
  std::vector<core::Capability> GetCapabilities(core::CapabilityType type,
                                                const std::string& content_id = {});
  std::optional<core::PidMapping> GetPidMapping(const std::string& client_ip);

 private:
  Message Call(const Message& request);
  std::unique_ptr<Transport> transport_;
};

}  // namespace p4p::proto
