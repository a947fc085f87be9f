#include "support/fault_injection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p4p::testsupport {

void FaultyDatagramLink::Push(std::vector<std::uint8_t> datagram) {
  ++stats_.pushed;
  auto& rng = *rng_;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng) < profile_.drop_rate) {
    ++stats_.dropped;
    return;
  }
  InFlight item{std::move(datagram), 0};
  if (!item.bytes.empty() && coin(rng) < profile_.corrupt_rate) {
    ++stats_.corrupted;
    const auto byte =
        std::uniform_int_distribution<std::size_t>(0, item.bytes.size() - 1)(rng);
    const auto bit = std::uniform_int_distribution<int>(0, 7)(rng);
    item.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
  if (coin(rng) < profile_.delay_rate) {
    ++stats_.delayed;
    item.due_in = std::uniform_int_distribution<int>(
        1, std::max(1, profile_.max_delay_ticks))(rng);
  }
  const bool duplicate = coin(rng) < profile_.duplicate_rate;
  if (duplicate) {
    ++stats_.duplicated;
    queue_.push_back(item);
  }
  queue_.push_back(std::move(item));
  if (queue_.size() >= 2 && coin(rng) < profile_.reorder_rate) {
    ++stats_.reordered;
    std::swap(queue_[queue_.size() - 1], queue_[queue_.size() - 2]);
  }
}

std::optional<std::vector<std::uint8_t>> FaultyDatagramLink::Pop() {
  // A delayed datagram at the head blocks later ones (in-order delay);
  // out-of-order arrival is what reorder_rate models explicitly.
  if (queue_.empty() || queue_.front().due_in > 0) return std::nullopt;
  auto bytes = std::move(queue_.front().bytes);
  queue_.pop_front();
  ++stats_.delivered;
  return bytes;
}

void FaultyDatagramLink::Tick() {
  for (auto& item : queue_) {
    if (item.due_in > 0) --item.due_in;
  }
}

FaultInjectingTransport::FaultInjectingTransport(proto::DatagramHandler server,
                                                 FaultProfile request_faults,
                                                 FaultProfile response_faults,
                                                 std::uint64_t seed)
    : server_(std::move(server)), rng_(seed),
      request_link_(request_faults, &rng_),
      response_link_(response_faults, &rng_) {
  if (!server_) {
    throw std::invalid_argument("FaultInjectingTransport: null server handler");
  }
}

void FaultInjectingTransport::PumpRequests() {
  while (auto request = request_link_.Pop()) {
    if (auto response = server_(*request)) {
      response_link_.Push(std::move(*response));
    }
  }
}

bool FaultInjectingTransport::Send(std::span<const std::uint8_t> datagram) {
  request_link_.Push(std::vector<std::uint8_t>(datagram.begin(), datagram.end()));
  PumpRequests();
  return true;
}

std::optional<std::vector<std::uint8_t>> FaultInjectingTransport::Receive(
    std::chrono::milliseconds /*timeout*/) {
  if (auto ready = response_link_.Pop()) return ready;
  // Nothing due: advance virtual time one step — delayed requests may now
  // reach the server and delayed responses may become deliverable.
  request_link_.Tick();
  PumpRequests();
  response_link_.Tick();
  return response_link_.Pop();
}

}  // namespace p4p::testsupport
