#include "proto/telemetry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "proto/messages.h"

namespace p4p::proto {

std::optional<TelemetryTag> PeekTelemetryTag(std::span<const std::uint8_t> bytes) {
  const auto tag = PeekSealedTag(bytes, kTelemetryMagic);
  if (!tag || *tag < static_cast<std::uint8_t>(TelemetryTag::kReport) ||
      *tag > static_cast<std::uint8_t>(TelemetryTag::kAck)) {
    return std::nullopt;
  }
  return static_cast<TelemetryTag>(*tag);
}

std::vector<std::uint8_t> EncodeLinkLoadReport(const LinkLoadReport& report,
                                               const SealKey& key) {
  Writer w = BeginSealed(kTelemetryMagic, static_cast<std::uint8_t>(TelemetryTag::kReport),
                         4 + 8 + 4 + report.samples.size() * 12);
  w.u32(report.reporter);
  w.u64(report.seq);
  w.u32(static_cast<std::uint32_t>(report.samples.size()));
  for (const auto& sample : report.samples) {
    w.u32(static_cast<std::uint32_t>(sample.link));
    w.f64(sample.bps);
  }
  return Seal(w, key);
}

std::optional<LinkLoadReport> DecodeLinkLoadReport(std::span<const std::uint8_t> bytes,
                                                   const SealKey& key) {
  const auto payload =
      Open(bytes, kTelemetryMagic, static_cast<std::uint8_t>(TelemetryTag::kReport), key);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  LinkLoadReport report;
  report.reporter = r.u32();
  report.seq = r.u64();
  const std::uint32_t count = r.u32();
  // Sequence numbers start at 1 (0 means "never reported" collector-side),
  // and the count must fit the remaining bytes exactly.
  if (!r.ok() || report.seq == 0 ||
      static_cast<std::size_t>(count) * 12 != r.remaining()) {
    return std::nullopt;
  }
  report.samples.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    LinkLoadSample sample;
    const std::uint32_t link = r.u32();
    sample.link = static_cast<std::int32_t>(link);
    sample.bps = r.f64();
    // Loads are physical quantities: a negative, NaN, or infinite sample
    // can only be corruption or a buggy probe — refuse the frame.
    if (sample.link < 0 || !std::isfinite(sample.bps) || sample.bps < 0.0) {
      return std::nullopt;
    }
    report.samples.push_back(sample);
  }
  if (!r.done()) return std::nullopt;
  return report;
}

std::vector<std::uint8_t> EncodeTelemetryAck(const TelemetryAck& ack, const SealKey& key) {
  Writer w =
      BeginSealed(kTelemetryMagic, static_cast<std::uint8_t>(TelemetryTag::kAck), 1 + 8);
  w.u8(static_cast<std::uint8_t>(ack.status));
  w.u64(ack.seq);
  return Seal(w, key);
}

std::optional<TelemetryAck> DecodeTelemetryAck(std::span<const std::uint8_t> bytes,
                                               const SealKey& key) {
  const auto payload =
      Open(bytes, kTelemetryMagic, static_cast<std::uint8_t>(TelemetryTag::kAck), key);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  const std::uint8_t status = r.u8();
  TelemetryAck ack;
  ack.seq = r.u64();
  if (!r.done()) return std::nullopt;
  if (status < static_cast<std::uint8_t>(TelemetryStatus::kAccepted) ||
      status > static_cast<std::uint8_t>(TelemetryStatus::kRejected)) {
    return std::nullopt;
  }
  ack.status = static_cast<TelemetryStatus>(status);
  return ack;
}

// --- LinkLoadCollector ------------------------------------------------------

LinkLoadCollector::LinkLoadCollector(std::size_t num_links, SealKey key)
    : num_links_(num_links), key_(key), windows_(num_links) {}

TelemetryStatus LinkLoadCollector::Ingest(const LinkLoadReport& report,
                                          std::uint64_t* seen_seq_out) {
  // Validate before taking the lock: the whole report is accepted or
  // refused, never partially applied.
  if (report.seq == 0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return TelemetryStatus::kRejected;
  }
  for (const auto& sample : report.samples) {
    if (sample.link < 0 ||
        static_cast<std::size_t>(sample.link) >= num_links_ ||
        !std::isfinite(sample.bps) || sample.bps < 0.0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return TelemetryStatus::kRejected;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& last = last_seq_[report.reporter];
  if (report.seq <= last) {
    if (seen_seq_out != nullptr) *seen_seq_out = last;
    stale_.fetch_add(1, std::memory_order_relaxed);
    return TelemetryStatus::kStaleSeq;
  }
  last = report.seq;
  if (seen_seq_out != nullptr) *seen_seq_out = last;
  for (const auto& sample : report.samples) {
    auto& window = windows_[static_cast<std::size_t>(sample.link)];
    window.sum_bps += sample.bps;
    ++window.count;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(report.samples.size(), std::memory_order_relaxed);
  return TelemetryStatus::kAccepted;
}

std::vector<std::uint8_t> LinkLoadCollector::HandleReport(
    std::span<const std::uint8_t> request) {
  const auto report = DecodeLinkLoadReport(request, key_);
  if (!report) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return EncodeTelemetryAck(TelemetryAck{TelemetryStatus::kRejected, 0}, key_);
  }
  std::uint64_t seen_seq = report->seq;
  const auto status = Ingest(*report, &seen_seq);
  // On kStaleSeq the ack echoes the collector's high-water seq for this
  // reporter, so a probe that lost an ack can resynchronize.
  return EncodeTelemetryAck(TelemetryAck{status, seen_seq}, key_);
}

std::size_t LinkLoadCollector::Drain(std::vector<double>& loads_bps) {
  if (loads_bps.size() != num_links_) {
    throw std::invalid_argument("LinkLoadCollector: loads vector size mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t updated = 0;
  for (std::size_t e = 0; e < num_links_; ++e) {
    auto& window = windows_[e];
    if (window.count == 0) continue;
    loads_bps[e] = window.sum_bps / window.count;
    window = Window{};
    ++updated;
  }
  return updated;
}

// --- LinkLoadReporter -------------------------------------------------------

LinkLoadReporter::LinkLoadReporter(std::uint32_t reporter_id, Transport* collector,
                                   SealKey key)
    : reporter_id_(reporter_id), key_(key), collector_(collector) {
  if (collector_ == nullptr) {
    throw std::invalid_argument("LinkLoadReporter: null collector transport");
  }
}

LinkLoadReporter::LinkLoadReporter(std::uint32_t reporter_id,
                                   CollectorResolver resolver,
                                   int rebind_after_failures, SealKey key)
    : reporter_id_(reporter_id), key_(key), resolver_(std::move(resolver)),
      rebind_after_failures_(rebind_after_failures), collector_(nullptr) {
  if (!resolver_) {
    throw std::invalid_argument("LinkLoadReporter: null collector resolver");
  }
  if (rebind_after_failures_ < 1) {
    throw std::invalid_argument("LinkLoadReporter: rebind threshold must be >= 1");
  }
  collector_ = resolver_();
}

void LinkLoadReporter::Record(std::int32_t link, double bps) {
  if (link < 0 || !std::isfinite(bps) || bps < 0.0) {
    throw std::invalid_argument("LinkLoadReporter: bad sample");
  }
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(LinkLoadSample{link, bps});
}

std::size_t LinkLoadReporter::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

bool LinkLoadReporter::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return true;
  if (collector_ == nullptr && resolver_) {
    // An earlier rebind found no collector: try resolution again before
    // giving up on this flush.
    collector_ = resolver_();
  }
  if (collector_ == nullptr) {
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  LinkLoadReport report;
  report.reporter = reporter_id_;
  report.seq = next_seq_;
  report.samples = pending_;
  std::vector<std::uint8_t> response;
  try {
    response = collector_->Call(EncodeLinkLoadReport(report, key_));
  } catch (const std::exception&) {
    // Keep the batch (and the seq): the next flush retries, and if the
    // lost attempt actually got through, the collector's seq gate makes
    // the retry a no-op instead of a double count.
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    if (resolver_ && ++consecutive_transport_failures_ >= rebind_after_failures_) {
      // The endpoint looks dead (publisher failover, restart): re-resolve
      // and retry the retained batch against whatever is current now.
      collector_ = resolver_();
      consecutive_transport_failures_ = 0;
      rebinds_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  consecutive_transport_failures_ = 0;
  const auto ack = DecodeTelemetryAck(response, key_);
  if (!ack) {
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  switch (ack->status) {
    case TelemetryStatus::kAccepted:
      pending_.clear();
      next_seq_ = report.seq + 1;
      flushes_.fetch_add(1, std::memory_order_relaxed);
      return true;
    case TelemetryStatus::kStaleSeq:
      // A previous delivery of this seq got through but its ack was lost:
      // the samples are already counted exactly once. Resync past the
      // collector's high-water mark and drop the batch.
      pending_.clear();
      next_seq_ = std::max(next_seq_, ack->seq + 1);
      flushes_.fetch_add(1, std::memory_order_relaxed);
      return true;
    case TelemetryStatus::kRejected:
      // Poisoned batch (can only happen on a corrupt wire — Record
      // validates locally): retrying it would loop forever.
      pending_.clear();
      flush_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  flush_failures_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

// --- PDistanceControlLoop ---------------------------------------------------

PDistanceControlLoop::PDistanceControlLoop(core::ITracker* tracker,
                                           LinkLoadCollector* collector,
                                           SnapshotPublisher* publisher,
                                           ControlLoopOptions options)
    : tracker_(tracker), collector_(collector), publisher_(publisher),
      options_(options) {
  if (tracker_ == nullptr || collector_ == nullptr) {
    throw std::invalid_argument("PDistanceControlLoop: null tracker or collector");
  }
  loads_bps_.assign(collector_->num_links(), 0.0);
}

PDistanceControlLoop::~PDistanceControlLoop() { Stop(); }

void PDistanceControlLoop::SetPublisher(SnapshotPublisher* publisher) {
  std::lock_guard<std::mutex> lock(tick_mu_);
  publisher_ = publisher;
}

bool PDistanceControlLoop::Tick() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t fresh = collector_->Drain(loads_bps_);
  if (fresh == 0 && !options_.update_on_empty_tick) return false;
  // Last-known-load semantics: links without fresh samples keep their
  // previous reading, so one quiet probe never zeroes a link's price input.
  tracker_->Update(loads_bps_);
  updates_.fetch_add(1, std::memory_order_relaxed);
  if (publisher_ != nullptr) {
    publisher_->PublishOnce();
    publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void PDistanceControlLoop::Start(std::chrono::milliseconds interval) {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) {
    throw std::logic_error("PDistanceControlLoop: already started");
  }
  stopping_ = false;
  thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lk(thread_mu_);
    while (!stopping_) {
      if (stop_cv_.wait_for(lk, interval, [this] { return stopping_; })) break;
      lk.unlock();
      Tick();
      lk.lock();
    }
  });
}

void PDistanceControlLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<double> PDistanceControlLoop::loads_bps() const {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return loads_bps_;
}

}  // namespace p4p::proto
