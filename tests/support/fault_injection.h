// Deterministic fault injection for the portal serving and validation paths.
//
// FaultyDatagramLink models one direction of a lossy network as a queue of
// in-flight datagrams with seeded, independently applied faults: drop,
// duplicate, reorder, corrupt (single bit flip), and delay (virtual ticks).
// FaultInjectingTransport wires a client-side DatagramTransport through two
// such links to an in-process DatagramHandler, so lossy-network behavior is
// reproducible bit-for-bit from a seed — no sockets, no wall-clock time.
//
// Time model: every Receive() call is one virtual tick (one per-try timeout
// of the client under test). A delayed datagram becomes deliverable after
// its tick count elapses; an empty Receive() returns std::nullopt, which
// the client interprets as that try's timeout.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <random>
#include <vector>

#include "proto/transport.h"

namespace p4p::testsupport {

/// Per-direction fault rates, each applied independently per datagram.
struct FaultProfile {
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  /// Swap the new datagram behind the previously queued one.
  double reorder_rate = 0.0;
  /// Flip one uniformly chosen bit.
  double corrupt_rate = 0.0;
  /// Hold the datagram for 1..max_delay_ticks virtual ticks.
  double delay_rate = 0.0;
  int max_delay_ticks = 2;
};

/// One direction of the lossy link. Deterministic given the shared PRNG's
/// seed and the call sequence.
class FaultyDatagramLink {
 public:
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delayed = 0;
    std::uint64_t delivered = 0;
  };

  FaultyDatagramLink(FaultProfile profile, std::mt19937_64* rng)
      : profile_(profile), rng_(rng) {}

  /// Sends one datagram into the link, applying faults.
  void Push(std::vector<std::uint8_t> datagram);
  /// Next deliverable datagram, or std::nullopt when none is due yet.
  std::optional<std::vector<std::uint8_t>> Pop();
  /// One virtual time step: ages every delayed datagram.
  void Tick();

  const Stats& stats() const { return stats_; }

 private:
  struct InFlight {
    std::vector<std::uint8_t> bytes;
    int due_in = 0;  // deliverable when 0
  };

  FaultProfile profile_;
  std::mt19937_64* rng_;
  std::deque<InFlight> queue_;
  Stats stats_;
};

/// DatagramTransport test double: client requests traverse the request link
/// into `server`, responses traverse the response link back. Both the UDP
/// client and the in-process service are exercised exactly as over sockets,
/// but every fault is seeded and replayable.
class FaultInjectingTransport final : public proto::DatagramTransport {
 public:
  FaultInjectingTransport(proto::DatagramHandler server, FaultProfile request_faults,
                          FaultProfile response_faults, std::uint64_t seed);
  /// Symmetric faults on both directions.
  FaultInjectingTransport(proto::DatagramHandler server, FaultProfile faults,
                          std::uint64_t seed)
      : FaultInjectingTransport(std::move(server), faults, faults, seed) {}

  bool Send(std::span<const std::uint8_t> datagram) override;
  /// `timeout` is ignored: one call is one virtual tick, so tests never
  /// sleep. std::nullopt means "nothing arrived within this try".
  std::optional<std::vector<std::uint8_t>> Receive(
      std::chrono::milliseconds timeout) override;

  const FaultyDatagramLink& request_link() const { return request_link_; }
  const FaultyDatagramLink& response_link() const { return response_link_; }

 private:
  /// Delivers every due request to the server, queueing its answers.
  void PumpRequests();

  proto::DatagramHandler server_;
  std::mt19937_64 rng_;
  FaultyDatagramLink request_link_;
  FaultyDatagramLink response_link_;
};

}  // namespace p4p::testsupport
