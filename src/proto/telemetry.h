// Telemetry plane: live link-load ingestion driving the p-distance loop.
//
// The paper's super-gradient update (Section 5) prices links from observed
// loads — ξ_e = b_e + Σ t̄_e − α c_e — but until now the repo fed the
// tracker by hand. This module closes the loop with the same
// collector/aggregator/exporter split Juniper's jnx-flow monitoring apps
// use: edge probes batch per-link samples into reports (LinkLoadReporter),
// a collector ingests and aggregates them per link (LinkLoadCollector),
// and a periodic tick exports the aggregate into ITracker::Update and
// republishes the new version through the federation publisher
// (PDistanceControlLoop). End to end:
//
//   probe -> LinkLoadReport over any Transport -> LinkLoadCollector
//         -> Drain() per-link averages -> ITracker::Update (reprice)
//         -> SnapshotPublisher::PublishOnce (full push) -> followers
//
// Wire format: sealed envelopes (wire.h) under the deployment's SealKey,
// shared by each reporter/collector pair:
//   u32 magic "P4PL" | u8 protocol version | u8 tag | payload | u64 MAC
// Tags:
//   kReport (probe -> collector): u32 reporter | u64 seq | u32 count |
//           count x (u32 link | f64 bps)
//   kAck    (collector -> probe): u8 status | u64 seq
// Reports carry a per-reporter monotone sequence number; the collector
// rejects duplicates and reorders (kStaleSeq) so a retried or replayed
// report can never double-count load. Samples must be finite and
// non-negative and name a link the collector knows, or the whole report is
// rejected — partial ingestion would leave the price inputs incoherent.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/itracker.h"
#include "proto/federation.h"
#include "proto/transport.h"

namespace p4p::proto {

/// First four bytes of every telemetry frame ("P4PL").
inline constexpr std::uint32_t kTelemetryMagic = 0x5034504Cu;

enum class TelemetryTag : std::uint8_t {
  kReport = 1,
  kAck = 2,
};

enum class TelemetryStatus : std::uint8_t {
  kAccepted = 1,
  kStaleSeq = 2,  ///< duplicate or reordered report: ignored entirely
  kRejected = 3,  ///< malformed frame or out-of-range/non-finite samples
};

struct LinkLoadSample {
  std::int32_t link = 0;
  double bps = 0.0;
};

struct LinkLoadReport {
  /// Stable probe identity; sequence numbers are scoped per reporter.
  std::uint32_t reporter = 0;
  /// Strictly increasing per reporter (starts at 1).
  std::uint64_t seq = 0;
  std::vector<LinkLoadSample> samples;
};

struct TelemetryAck {
  TelemetryStatus status = TelemetryStatus::kRejected;
  std::uint64_t seq = 0;
};

// --- codec (total: malformed bytes decode to std::nullopt) ------------------

std::vector<std::uint8_t> EncodeLinkLoadReport(const LinkLoadReport& report,
                                               const SealKey& key = kPublicSealKey);
std::optional<LinkLoadReport> DecodeLinkLoadReport(std::span<const std::uint8_t> bytes,
                                                   const SealKey& key = kPublicSealKey);

std::vector<std::uint8_t> EncodeTelemetryAck(const TelemetryAck& ack,
                                             const SealKey& key = kPublicSealKey);
std::optional<TelemetryAck> DecodeTelemetryAck(std::span<const std::uint8_t> bytes,
                                               const SealKey& key = kPublicSealKey);

std::optional<TelemetryTag> PeekTelemetryTag(std::span<const std::uint8_t> bytes);

/// Collector half: ingests reports (over any Transport via handler()),
/// aggregates per-link load windows, and hands the aggregate to the
/// control loop via Drain. Thread-safe: transport threads ingest while the
/// tick thread drains.
class LinkLoadCollector {
 public:
  /// `num_links` fixes the valid link-id range [0, num_links). `key` opens
  /// reports and seals acks; a report sealed under any other key is
  /// rejected.
  explicit LinkLoadCollector(std::size_t num_links, SealKey key = kPublicSealKey);

  /// Handles one encoded report, returns the encoded ack.
  std::vector<std::uint8_t> HandleReport(std::span<const std::uint8_t> request);
  Handler handler() {
    return [this](std::span<const std::uint8_t> req) { return HandleReport(req); };
  }

  /// Typed ingestion (the handler calls this after decoding). The whole
  /// report is accepted or refused — never partially applied. When
  /// `seen_seq_out` is non-null it receives the collector's high-water
  /// sequence for this reporter (what the stale-seq ack echoes).
  TelemetryStatus Ingest(const LinkLoadReport& report,
                         std::uint64_t* seen_seq_out = nullptr);

  /// Folds the aggregated window into `loads_bps` (size num_links): every
  /// link with at least one sample since the last drain gets its window
  /// average written; links with no new samples keep their previous value
  /// (last-known-load semantics — the tracker prices from the freshest
  /// observation, stale links keep their last reading). Resets the window.
  /// Returns the number of links updated.
  std::size_t Drain(std::vector<double>& loads_bps);

  std::size_t num_links() const { return num_links_; }
  const SealKey& key() const { return key_; }
  std::uint64_t accepted_count() const { return accepted_.load(); }
  std::uint64_t stale_count() const { return stale_.load(); }
  std::uint64_t rejected_count() const { return rejected_.load(); }
  std::uint64_t sample_count() const { return samples_.load(); }

 private:
  struct Window {
    double sum_bps = 0.0;
    std::uint32_t count = 0;
  };

  const std::size_t num_links_;
  const SealKey key_;
  std::mutex mu_;
  std::vector<Window> windows_;
  std::unordered_map<std::uint32_t, std::uint64_t> last_seq_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> samples_{0};
};

/// Probe half: batches samples and flushes them as one sequenced report.
/// Thread-safe; one reporter id per instance.
///
/// Failover: constructed with a resolver, the reporter re-resolves its
/// collector endpoint after `rebind_after_failures` consecutive transport
/// failures, so a publisher failover does not strand it retrying a batch
/// against the dead publisher's collector forever. The retained batch is
/// retried against the new endpoint, and the collector's stale-seq ack
/// resynchronizes sequencing if the old collector had already counted it.
class LinkLoadReporter {
 public:
  /// Picks the current collector endpoint. Returning null means "no
  /// collector known right now" — the reporter keeps its batch and retries
  /// resolution on the next flush.
  using CollectorResolver = std::function<Transport*()>;

  /// Fixed-endpoint reporter; `collector` must outlive it. `key` must be
  /// the collector's.
  LinkLoadReporter(std::uint32_t reporter_id, Transport* collector,
                   SealKey key = kPublicSealKey);
  /// Failover-aware reporter: `resolver` is consulted at construction and
  /// again after `rebind_after_failures` consecutive transport failures.
  /// Resolved transports must outlive their use.
  LinkLoadReporter(std::uint32_t reporter_id, CollectorResolver resolver,
                   int rebind_after_failures = 3, SealKey key = kPublicSealKey);

  /// Buffers one sample (no I/O).
  void Record(std::int32_t link, double bps);
  std::size_t pending() const;

  /// Sends all buffered samples as one report. Returns true when the
  /// collector acked kAccepted; on transport failure the samples are kept
  /// for the next flush (the sequence number is only consumed by an
  /// actually-sent report). No-op returning true when nothing is buffered.
  bool Flush();

  std::uint64_t flush_count() const { return flushes_.load(); }
  std::uint64_t flush_failure_count() const { return flush_failures_.load(); }
  /// Times the resolver was re-consulted after consecutive failures.
  std::uint64_t rebind_count() const { return rebinds_.load(); }
  const SealKey& key() const { return key_; }

 private:
  const std::uint32_t reporter_id_;
  const SealKey key_;
  CollectorResolver resolver_;
  const int rebind_after_failures_ = 0;
  mutable std::mutex mu_;
  Transport* collector_;
  int consecutive_transport_failures_ = 0;
  std::vector<LinkLoadSample> pending_;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> flush_failures_{0};
  std::atomic<std::uint64_t> rebinds_{0};
};

/// The exporter stage: on every tick, drain the collector into the
/// last-known per-link loads, reprice the tracker, and (when a publisher
/// is wired) push the resulting version to the followers. Drive it
/// manually with Tick() — deterministic, what the conformance harness
/// does — or let Start() run it on a background thread.
///
/// Thread safety: Tick may be called from any thread, including
/// concurrently (ticks serialize internally); Start/Stop from one control
/// thread.
class PDistanceControlLoop {
 public:
  /// `tracker` and `collector` must outlive the loop; `publisher` may be
  /// null (reprice only, no replication).
  PDistanceControlLoop(core::ITracker* tracker, LinkLoadCollector* collector,
                       SnapshotPublisher* publisher = nullptr);
  ~PDistanceControlLoop();

  PDistanceControlLoop(const PDistanceControlLoop&) = delete;
  PDistanceControlLoop& operator=(const PDistanceControlLoop&) = delete;

  /// One telemetry->reprice->publish cycle. Returns true when the tracker
  /// was updated. A tick with no fresh telemetry since the last one returns
  /// false and changes nothing: an idle network burns no versions (and no
  /// replication bytes) repricing from stale data.
  bool Tick();

  /// Rebinds the publish stage to `publisher` (null detaches it) — the
  /// failover coordinator points the loop at the newly promoted publisher.
  /// Serializes with ticks, so a publish in flight completes on the old
  /// publisher before the swap.
  void SetPublisher(SnapshotPublisher* publisher);

  /// Runs Tick() every `interval` on a background thread until Stop().
  void Start(std::chrono::milliseconds interval);
  /// Stops the background thread (idempotent; the destructor calls it).
  void Stop();

  std::uint64_t tick_count() const { return ticks_.load(); }
  std::uint64_t update_count() const { return updates_.load(); }
  std::uint64_t publish_count() const { return publishes_.load(); }
  /// Snapshot of the last-known per-link loads the tracker was fed.
  std::vector<double> loads_bps() const;

 private:
  core::ITracker* tracker_;
  LinkLoadCollector* collector_;
  SnapshotPublisher* publisher_;
  /// Serializes ticks and guards loads_bps_.
  mutable std::mutex tick_mu_;
  std::vector<double> loads_bps_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace p4p::proto
