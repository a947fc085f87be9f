// Telemetry plane tests: link-load report/ack codec totality, collector
// sequence gating and window aggregation, reporter flush/retry/resync
// semantics, and the p-distance control loop — the tick that closes
// telemetry -> reprice -> delta publish without manual Update calls.
#include "proto/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "net/topology.h"
#include "proto/wire.h"

namespace p4p::proto {
namespace {

// --- codec ------------------------------------------------------------------

LinkLoadReport MakeReport(std::uint32_t reporter, std::uint64_t seq) {
  LinkLoadReport report;
  report.reporter = reporter;
  report.seq = seq;
  report.samples = {{0, 1.5e9}, {3, 0.0}, {7, 9.25e9}};
  return report;
}

TEST(TelemetryCodecTest, ReportRoundTrip) {
  const auto report = MakeReport(11, 42);
  const auto bytes = EncodeLinkLoadReport(report);
  EXPECT_EQ(PeekTelemetryTag(bytes), TelemetryTag::kReport);
  const auto decoded = DecodeLinkLoadReport(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reporter, 11u);
  EXPECT_EQ(decoded->seq, 42u);
  ASSERT_EQ(decoded->samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->samples[i].link, report.samples[i].link);
    EXPECT_EQ(decoded->samples[i].bps, report.samples[i].bps);
  }
  // An empty report (heartbeat) is legal on the wire.
  LinkLoadReport empty;
  empty.reporter = 1;
  empty.seq = 1;
  const auto empty_decoded = DecodeLinkLoadReport(EncodeLinkLoadReport(empty));
  ASSERT_TRUE(empty_decoded.has_value());
  EXPECT_TRUE(empty_decoded->samples.empty());
}

TEST(TelemetryCodecTest, AckRoundTrip) {
  for (const auto status : {TelemetryStatus::kAccepted, TelemetryStatus::kStaleSeq,
                            TelemetryStatus::kRejected}) {
    const auto bytes = EncodeTelemetryAck(TelemetryAck{status, 77});
    EXPECT_EQ(PeekTelemetryTag(bytes), TelemetryTag::kAck);
    const auto ack = DecodeTelemetryAck(bytes);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, status);
    EXPECT_EQ(ack->seq, 77u);
  }
  // Cross-tag decoding fails both ways.
  EXPECT_FALSE(DecodeTelemetryAck(EncodeLinkLoadReport(MakeReport(1, 1))).has_value());
  EXPECT_FALSE(DecodeLinkLoadReport(
                   EncodeTelemetryAck(TelemetryAck{TelemetryStatus::kAccepted, 1}))
                   .has_value());
}

TEST(TelemetryCodecTest, RejectsCorruptionAndTruncation) {
  const auto bytes = EncodeLinkLoadReport(MakeReport(3, 9));
  for (std::size_t pos = 0; pos < bytes.size(); pos += 5) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(DecodeLinkLoadReport(corrupt).has_value()) << "flip at " << pos;
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{9}, bytes.size() - 4,
                                bytes.size() - 1}) {
    EXPECT_FALSE(
        DecodeLinkLoadReport(std::span(bytes).first(len)).has_value())
        << "truncated to " << len;
  }
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DecodeLinkLoadReport(extended).has_value());
}

TEST(TelemetryCodecTest, RejectsPoisonedSamplesAndZeroSeq) {
  // seq 0 means "never reported" collector-side and never travels.
  LinkLoadReport zero_seq = MakeReport(1, 0);
  EXPECT_FALSE(DecodeLinkLoadReport(EncodeLinkLoadReport(zero_seq)).has_value());

  // NaN, infinite, and negative loads are refused whole-frame — a price
  // input poisoned by one sample must never reach the tracker.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -1.0}) {
    LinkLoadReport report = MakeReport(1, 5);
    report.samples[1].bps = bad;
    EXPECT_FALSE(DecodeLinkLoadReport(EncodeLinkLoadReport(report)).has_value());
  }
  // A negative link id (wraps to the high u32 range) is refused too.
  LinkLoadReport report = MakeReport(1, 5);
  report.samples[0].link = -1;
  EXPECT_FALSE(DecodeLinkLoadReport(EncodeLinkLoadReport(report)).has_value());
}

TEST(TelemetryCodecTest, RejectsCountPayloadMismatch) {
  // A frame whose sample count disagrees with its payload size, sealed
  // with a *valid* MAC — only the structural check can catch it.
  constexpr SealKey kTestKey{0x5EA1, 0x7E1E};
  Writer w = BeginSealed(kTelemetryMagic, static_cast<std::uint8_t>(TelemetryTag::kReport), 0);
  w.u32(1);   // reporter
  w.u64(1);   // seq
  w.u32(5);   // claims 5 samples...
  w.u32(0);
  w.f64(1.0);  // ...carries 1
  EXPECT_FALSE(DecodeLinkLoadReport(Seal(w, kTestKey), kTestKey).has_value());
}

TEST(TelemetryCodecTest, DecodersTotalOnRandomBytes) {
  std::mt19937_64 rng(0x7E1E);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(rng() % 64);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    EXPECT_FALSE(DecodeLinkLoadReport(noise).has_value());
    EXPECT_FALSE(DecodeTelemetryAck(noise).has_value());
  }
}

// --- collector --------------------------------------------------------------

TEST(TelemetryCollectorTest, AggregatesWindowsWithLastKnownLoads) {
  LinkLoadCollector collector(4);
  EXPECT_EQ(collector.Ingest({1, 1, {{0, 100.0}, {2, 300.0}}}),
            TelemetryStatus::kAccepted);
  EXPECT_EQ(collector.Ingest({1, 2, {{0, 200.0}}}), TelemetryStatus::kAccepted);

  std::vector<double> loads(4, -1.0);
  EXPECT_EQ(collector.Drain(loads), 2u);
  EXPECT_EQ(loads[0], 150.0);  // window average of 100 and 200
  EXPECT_EQ(loads[1], -1.0);   // no samples: previous value kept
  EXPECT_EQ(loads[2], 300.0);
  EXPECT_EQ(loads[3], -1.0);

  // The drain reset the windows: nothing new means nothing touched.
  EXPECT_EQ(collector.Drain(loads), 0u);
  EXPECT_EQ(loads[0], 150.0);
  EXPECT_EQ(collector.accepted_count(), 2u);
  EXPECT_EQ(collector.sample_count(), 3u);

  // A wrongly sized loads vector is a programming error, not a silent skip.
  std::vector<double> wrong(3);
  EXPECT_THROW(collector.Drain(wrong), std::invalid_argument);
}

TEST(TelemetryCollectorTest, SeqGateStopsDuplicatesAndReorders) {
  LinkLoadCollector collector(4);
  EXPECT_EQ(collector.Ingest({7, 5, {{0, 10.0}}}), TelemetryStatus::kAccepted);

  // Duplicate and reordered reports are ignored whole, echoing the
  // high-water seq so the probe can resync.
  std::uint64_t seen = 0;
  EXPECT_EQ(collector.Ingest({7, 5, {{0, 10.0}}}, &seen), TelemetryStatus::kStaleSeq);
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(collector.Ingest({7, 3, {{0, 99.0}}}, &seen), TelemetryStatus::kStaleSeq);
  EXPECT_EQ(seen, 5u);

  // Sequences are scoped per reporter: another probe's seq 5 is fresh.
  EXPECT_EQ(collector.Ingest({8, 5, {{1, 20.0}}}), TelemetryStatus::kAccepted);

  std::vector<double> loads(4, 0.0);
  EXPECT_EQ(collector.Drain(loads), 2u);
  EXPECT_EQ(loads[0], 10.0);  // counted exactly once despite the duplicate
  EXPECT_EQ(loads[1], 20.0);
  EXPECT_EQ(collector.stale_count(), 2u);
}

TEST(TelemetryCollectorTest, RejectsOutOfRangeAndNonFinite) {
  LinkLoadCollector collector(2);
  // Out-of-range link: all-or-nothing, the valid sample must not land.
  EXPECT_EQ(collector.Ingest({1, 1, {{0, 5.0}, {2, 5.0}}}),
            TelemetryStatus::kRejected);
  EXPECT_EQ(collector.Ingest({1, 1, {{0, std::nan("")}}}),
            TelemetryStatus::kRejected);
  EXPECT_EQ(collector.Ingest({1, 0, {{0, 5.0}}}), TelemetryStatus::kRejected);
  std::vector<double> loads(2, 0.0);
  EXPECT_EQ(collector.Drain(loads), 0u);
  EXPECT_EQ(collector.rejected_count(), 3u);
  // The reporter's seq was never consumed by a rejected report.
  EXPECT_EQ(collector.Ingest({1, 1, {{0, 5.0}}}), TelemetryStatus::kAccepted);
}

TEST(TelemetryCollectorTest, HandlerAcksOverTheWire) {
  LinkLoadCollector collector(8);
  const auto ack_bytes =
      collector.HandleReport(EncodeLinkLoadReport(MakeReport(2, 1)));
  const auto ack = DecodeTelemetryAck(ack_bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, TelemetryStatus::kAccepted);
  EXPECT_EQ(ack->seq, 1u);

  // Malformed bytes earn a kRejected ack — never silence, never a throw.
  const auto bad = DecodeTelemetryAck(collector.HandleReport(
      std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, TelemetryStatus::kRejected);
}

TEST(TelemetryCollectorTest, KeyedCollectorRefusesPublicKeyReports) {
  constexpr SealKey kDeploymentKey{0xC011EC7, 0x0B5E};
  LinkLoadCollector collector(8, kDeploymentKey);
  // A well-formed report sealed under the published key: anyone could have
  // minted it, so the keyed collector refuses it and ingests nothing.
  const auto refused = DecodeTelemetryAck(
      collector.HandleReport(EncodeLinkLoadReport(MakeReport(2, 1))), kDeploymentKey);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, TelemetryStatus::kRejected);
  EXPECT_EQ(collector.rejected_count(), 1u);
  EXPECT_EQ(collector.sample_count(), 0u);

  // A reporter holding the deployment key is accepted end to end.
  InProcessTransport channel(collector.handler());
  LinkLoadReporter reporter(2, &channel, kDeploymentKey);
  reporter.Record(3, 100.0);
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(collector.accepted_count(), 1u);
  // A public-key reporter cannot even read the keyed collector's ack.
  LinkLoadReporter stranger(3, &channel);
  // The fallback is visible: a component built without a key reports the
  // published one.
  EXPECT_EQ(stranger.key(), kPublicSealKey);
  EXPECT_EQ(reporter.key(), kDeploymentKey);
  EXPECT_EQ(collector.key(), kDeploymentKey);
  stranger.Record(3, 100.0);
  EXPECT_FALSE(stranger.Flush());
  EXPECT_EQ(collector.accepted_count(), 1u);
}

// --- reporter ---------------------------------------------------------------

/// Transport that fails the first `failures` calls, then forwards.
class FlakyTransport final : public Transport {
 public:
  FlakyTransport(Handler backend, int failures)
      : backend_(std::move(backend)), failures_(failures) {}
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override {
    if (failures_-- > 0) throw std::runtime_error("collector unreachable");
    return backend_(request);
  }

 private:
  Handler backend_;
  int failures_;
};

TEST(TelemetryReporterTest, FlushRetainsBatchAcrossTransportFailure) {
  LinkLoadCollector collector(4);
  FlakyTransport transport(collector.handler(), /*failures=*/2);
  LinkLoadReporter reporter(9, &transport);

  reporter.Record(0, 100.0);
  reporter.Record(1, 200.0);
  EXPECT_EQ(reporter.pending(), 2u);
  EXPECT_FALSE(reporter.Flush());  // lost: batch kept
  EXPECT_FALSE(reporter.Flush());  // lost again
  EXPECT_EQ(reporter.pending(), 2u);
  EXPECT_TRUE(reporter.Flush());   // through
  EXPECT_EQ(reporter.pending(), 0u);
  EXPECT_EQ(reporter.flush_failure_count(), 2u);

  // Exactly-once: the retried batch landed a single time.
  std::vector<double> loads(4, 0.0);
  EXPECT_EQ(collector.Drain(loads), 2u);
  EXPECT_EQ(loads[0], 100.0);
  EXPECT_EQ(loads[1], 200.0);
  EXPECT_EQ(collector.sample_count(), 2u);

  // Nothing pending: Flush is a free no-op, no wire traffic.
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(collector.accepted_count(), 1u);
}

TEST(TelemetryReporterTest, StaleAckResynchronizesSequence) {
  LinkLoadCollector collector(4);
  // The collector already saw this reporter at seq 5 (a previous process
  // incarnation whose acks were lost).
  ASSERT_EQ(collector.Ingest({9, 5, {{0, 1.0}}}), TelemetryStatus::kAccepted);

  InProcessTransport transport(collector.handler());
  LinkLoadReporter reporter(9, &transport);
  reporter.Record(1, 50.0);
  // The flush at seq 1 is judged stale; the reporter resyncs past the
  // collector's high-water mark instead of looping forever.
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(reporter.pending(), 0u);
  reporter.Record(1, 60.0);
  EXPECT_TRUE(reporter.Flush());  // now at seq 6: accepted
  EXPECT_EQ(collector.accepted_count(), 2u);
  std::vector<double> loads(4, 0.0);
  collector.Drain(loads);
  EXPECT_EQ(loads[1], 60.0);
}

TEST(TelemetryReporterTest, RecordRefusesPoisonedSamples) {
  LinkLoadCollector collector(4);
  InProcessTransport transport(collector.handler());
  LinkLoadReporter reporter(1, &transport);
  EXPECT_THROW(reporter.Record(-1, 1.0), std::invalid_argument);
  EXPECT_THROW(reporter.Record(0, -1.0), std::invalid_argument);
  EXPECT_THROW(reporter.Record(0, std::nan("")), std::invalid_argument);
  EXPECT_EQ(reporter.pending(), 0u);
}

// --- control loop -----------------------------------------------------------

class ControlLoopTest : public ::testing::Test {
 protected:
  ControlLoopTest()
      : graph_(net::MakeAbilene()), routing_(graph_),
        tracker_(graph_, routing_, ProtectedConfig()), service_(&tracker_),
        collector_(graph_.link_count()), follower_(&store_),
        publisher_(&service_) {
    tracker_.ProtectLink(0, core::ProtectedLinkRule{0.5, 1.0, 0.1});
    publisher_.AddFollower("b.example", 1,
                           std::make_unique<InProcessTransport>(
                               follower_.replication_handler()));
  }

  static core::ITrackerConfig ProtectedConfig() {
    core::ITrackerConfig config;
    config.mode = core::PriceMode::kProtectedLink;
    return config;
  }

  /// Feeds one over-threshold sample on the protected link.
  void FeedHotLink(std::uint64_t seq) {
    collector_.Ingest({1, seq, {{0, 0.9 * graph_.link(0).capacity_bps}}});
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  core::ITracker tracker_;
  ITrackerService service_;
  LinkLoadCollector collector_;
  ReplicatedSnapshotStore store_;
  SnapshotFollower follower_;
  SnapshotPublisher publisher_;
};

TEST_F(ControlLoopTest, TickClosesTelemetryToFollowerLoop) {
  PDistanceControlLoop loop(&tracker_, &collector_, &publisher_);
  FeedHotLink(1);
  EXPECT_TRUE(loop.Tick());
  // One tick: repriced, republished, follower installed — no manual calls.
  EXPECT_EQ(tracker_.version(), 1u);
  EXPECT_GT(tracker_.link_price(0), 0.0);
  EXPECT_EQ(store_.version(), 1u);
  EXPECT_EQ(loop.update_count(), 1u);
  EXPECT_EQ(loop.publish_count(), 1u);
  EXPECT_EQ(loop.loads_bps()[0], 0.9 * graph_.link(0).capacity_bps);
}

TEST_F(ControlLoopTest, EmptyTicksBurnNoVersions) {
  PDistanceControlLoop loop(&tracker_, &collector_, &publisher_);
  EXPECT_FALSE(loop.Tick());
  EXPECT_FALSE(loop.Tick());
  EXPECT_EQ(tracker_.version(), 0u);
  EXPECT_EQ(loop.tick_count(), 2u);
  EXPECT_EQ(loop.update_count(), 0u);

  // update_on_empty_tick opts into repricing from last-known loads.
  ControlLoopOptions options;
  options.update_on_empty_tick = true;
  PDistanceControlLoop eager(&tracker_, &collector_, nullptr, options);
  EXPECT_TRUE(eager.Tick());
  EXPECT_EQ(tracker_.version(), 1u);
}

TEST_F(ControlLoopTest, QuietLinksKeepLastKnownLoad) {
  PDistanceControlLoop loop(&tracker_, &collector_, nullptr);
  FeedHotLink(1);
  ASSERT_TRUE(loop.Tick());
  const double price_after_first = tracker_.link_price(0);
  ASSERT_GT(price_after_first, 0.0);

  // The next window carries only another link: link 0's last-known load
  // stays over threshold, so its price keeps climbing instead of decaying
  // against a phantom zero.
  collector_.Ingest({1, 2, {{3, 1.0e6}}});
  ASSERT_TRUE(loop.Tick());
  EXPECT_EQ(loop.loads_bps()[0], 0.9 * graph_.link(0).capacity_bps);
  EXPECT_GT(tracker_.link_price(0), price_after_first);
}

TEST_F(ControlLoopTest, StartStopBackgroundSmoke) {
  PDistanceControlLoop loop(&tracker_, &collector_, &publisher_);
  InProcessTransport to_collector(collector_.handler());
  LinkLoadReporter reporter(1, &to_collector);
  loop.Start(std::chrono::milliseconds(1));

  for (std::uint64_t i = 0; loop.update_count() < 3 && i < 2000; ++i) {
    reporter.Record(0, 0.9 * graph_.link(0).capacity_bps);
    reporter.Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  loop.Stop();  // idempotent

  EXPECT_GE(loop.update_count(), 3u);
  EXPECT_GE(tracker_.version(), 3u);
  EXPECT_EQ(store_.version(), tracker_.version());
  // Restart works after a stop.
  loop.Start(std::chrono::milliseconds(1));
  loop.Stop();
}

}  // namespace
}  // namespace p4p::proto
