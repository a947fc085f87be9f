// Transports for the portal protocol: a loopback TCP server/client pair
// with u32 length framing, and a zero-copy in-process transport for tests
// and single-binary deployments.
//
// The server multiplexes all connections over a fixed pool of epoll worker
// threads (nonblocking sockets, per-connection read/write buffers), so
// announce-scale query rates from thousands of clients cost a handful of
// threads, not one thread per connection. Responses produced by a
// SharedHandler are written straight from the shared buffer — the portal
// serves its pre-encoded, version-keyed responses without copying them per
// connection. Client and server write each frame's length header and
// payload with one sendmsg (OutboundFrame), so a small frame is one TCP
// segment and wakes its reader once. The server reads each connection's
// bytes straight into that connection's buffer and hands the handler a
// span of it, so a request is copied once, by the kernel. The server does
// not shed load: every accepted connection is served and every request
// reaches the handler. A handler may still answer UnavailableResp, as a
// follower does before its first install.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p4p::proto {

/// Handles one request payload, returns the response payload.
using Handler = std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;

/// A response that may be shared between connections (and with a cache that
/// outlives them). Never null on success.
using SharedResponse = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Moves `bytes` into a new shared buffer.
inline SharedResponse Share(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Handler variant returning a shareable buffer: the server writes the
/// bytes without copying them into the connection, so one pre-encoded
/// response can be in flight on any number of connections at once.
using SharedHandler = std::function<SharedResponse(std::span<const std::uint8_t>)>;

/// Largest accepted frame (16 MiB) — guards against hostile length prefixes.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// The size a TcpServer connection's receive buffer starts at.
inline constexpr std::size_t kMinReceiveBuffer = 4096;

/// The size a TcpServer connection's receive buffer grows to when a read
/// has filled all `size` bytes of it. It doubles (from kMinReceiveBuffer),
/// so it never exceeds twice the bytes actually received. `frame_end`, the
/// buffer offset at which the first unparsed frame ends (0 while its header
/// is incomplete), can only cap the doubling at that frame's size: a
/// declared length never sizes the buffer on its own.
std::size_t GrownReceiveBufferSize(std::size_t size, std::size_t frame_end);

/// One outbound frame — the u32 big-endian length header and the payload —
/// and how much of it has been written. Both parts leave in one sendmsg, so
/// a frame up to the MSS is one TCP segment and one wake-up of the reader;
/// a partial write resumes inside whichever part it stopped in. The
/// payload's bytes must outlive the frame. Callers keep payloads within
/// kMaxFrameBytes.
class OutboundFrame {
 public:
  explicit OutboundFrame(std::span<const std::uint8_t> payload);

  /// The bytes not yet written: the rest of the header, then the rest of
  /// the payload (either may be empty).
  std::array<std::span<const std::uint8_t>, 2> unsent() const;
  /// Records `n` more bytes written (at most what unsent() holds).
  void Advance(std::size_t n) { sent_ += n; }
  bool done() const { return sent_ == header_.size() + payload_.size(); }

 private:
  std::array<std::uint8_t, 4> header_{};
  std::span<const std::uint8_t> payload_;
  std::size_t sent_ = 0;
};

enum class WriteStatus { kDone, kBlocked, kFailed };

/// Writes the unsent rest of `frame` to `fd`, one sendmsg per attempt,
/// until it is done (kDone), the socket would block (kBlocked), or a write
/// fails (kFailed). EINTR is retried. Shared by the blocking client and the
/// nonblocking server.
WriteStatus WriteFrameSome(int fd, OutboundFrame& frame);

/// Frame helpers for blocking sockets (u32 big-endian length prefix). Used
/// by TcpClient and by out-of-tree blocking servers (benchmark baselines).
/// Both return false on short reads/writes or frames over kMaxFrameBytes.
bool WriteFrameBlocking(int fd, std::span<const std::uint8_t> payload);
bool ReadFrameBlocking(int fd, std::vector<std::uint8_t>& out);

/// Abstract request/response channel.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends a request and blocks for the response. Throws std::runtime_error
  /// on transport failure.
  virtual std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) = 0;
};

/// Thrown when the portal — or every replica of it — cannot serve right
/// now: transport failures across the whole SRV ordering, exhausted retry
/// budgets, or an explicit server-side UnavailableResp. Unlike a generic
/// runtime_error this is known-retryable; `retry_after_seconds` > 0 carries
/// the strongest shedding hint seen (0 = none).
class PortalUnavailableError : public std::runtime_error {
 public:
  explicit PortalUnavailableError(const std::string& what,
                                  double retry_after_seconds = 0.0)
      : std::runtime_error(what), retry_after_seconds_(retry_after_seconds) {}
  double retry_after_seconds() const { return retry_after_seconds_; }

 private:
  double retry_after_seconds_;
};

/// Direct function-call transport.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(Handler handler);
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override;

 private:
  Handler handler_;
};

/// Loopback TCP server. Starts listening on construction (port 0 picks an
/// ephemeral port); a fixed pool of epoll workers multiplexes every
/// accepted connection. Stops and joins all threads on destruction.
class TcpServer {
 public:
  /// `num_workers` <= 0 picks a small default from the hardware
  /// concurrency. The worker count is fixed for the server's lifetime —
  /// accepting more connections never spawns more threads.
  TcpServer(std::uint16_t port, Handler handler, int num_workers = 0);
  TcpServer(std::uint16_t port, SharedHandler handler, int num_workers = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  int worker_count() const { return static_cast<int>(workers_.size()); }
  void Stop();

 private:
  struct Connection;
  struct Worker;

  void Init(std::uint16_t port, int num_workers);
  void AcceptLoop();
  void WorkerLoop(Worker& worker);
  /// Reads what the socket holds straight into the connection's receive
  /// buffer. Returns false on a read error or a frame over kMaxFrameBytes;
  /// sets `peer_closed` on EOF.
  bool ReceiveInto(Connection& conn, bool& peer_closed);
  /// Parses complete frames out of the connection's read buffer and runs
  /// the handler on each. Returns false when the connection must close.
  bool DrainFrames(Connection& conn);
  /// Flushes as much pending output as the socket accepts. Returns false on
  /// write error; sets conn.want_write when output remains.
  bool FlushWrites(Connection& conn);

  SharedHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_worker_ = 0;  // round-robin assignment, accept thread only
};

/// Blocking TCP client for the framed protocol.
class TcpClient final : public Transport {
 public:
  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit TcpClient(std::uint16_t port);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override;

 private:
  int fd_ = -1;
};

// --- UDP validation fast path ----------------------------------------------
//
// The conditional (`if_version` -> NotModified) exchange over one datagram
// each way: no handshake, no connection state, one atomic version check per
// answer. UDP drops, duplicates, reorders, and corrupts, so the client owns
// retries (per-try timeout, exponential backoff, retry cap) and callers fall
// back to the TCP path whenever Validate() returns no answer.

/// Handles one request datagram and produces the response datagram, or
/// std::nullopt to stay silent (garbage never gets amplified).
using DatagramHandler =
    std::function<std::optional<std::vector<std::uint8_t>>(std::span<const std::uint8_t>)>;

/// Client-side best-effort datagram channel. Implemented by the UDP socket
/// transport below and by the deterministic fault-injection transport in
/// tests/support.
class DatagramTransport {
 public:
  virtual ~DatagramTransport() = default;
  /// Sends one datagram. Returns false on local failure only; true does not
  /// imply delivery (the network may drop it silently).
  virtual bool Send(std::span<const std::uint8_t> datagram) = 0;
  /// Waits up to `timeout` for one datagram; std::nullopt when none arrived
  /// (the caller treats that as this try's timeout).
  virtual std::optional<std::vector<std::uint8_t>> Receive(
      std::chrono::milliseconds timeout) = 0;
};

/// Loopback UDP server answering validation datagrams on a single socket.
/// One receive loop thread: each accepted datagram costs the handler (for
/// ITrackerService, one atomic version load + a pre-encoded frame), so a
/// thread pool would only add cross-core handoffs to a ~30-byte exchange.
class UdpValidationServer {
 public:
  /// Binds 127.0.0.1:port (0 picks an ephemeral port) and starts the
  /// receive loop. Throws std::runtime_error on socket failure.
  UdpValidationServer(std::uint16_t port, DatagramHandler handler);
  ~UdpValidationServer();

  UdpValidationServer(const UdpValidationServer&) = delete;
  UdpValidationServer& operator=(const UdpValidationServer&) = delete;

  std::uint16_t port() const { return port_; }
  void Stop();

  std::uint64_t received_count() const { return received_.load(); }
  std::uint64_t answered_count() const { return answered_.load(); }
  /// Datagrams the handler declined to answer (malformed / wrong magic).
  std::uint64_t ignored_count() const { return ignored_.load(); }

 private:
  void Loop();

  DatagramHandler handler_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> ignored_{0};
  std::thread thread_;
};

/// Connected UDP socket to 127.0.0.1:port. Receive uses poll(), so a
/// blackholed server costs exactly the configured timeout, never a hang.
class UdpClientTransport final : public DatagramTransport {
 public:
  explicit UdpClientTransport(std::uint16_t port);
  ~UdpClientTransport() override;

  UdpClientTransport(const UdpClientTransport&) = delete;
  UdpClientTransport& operator=(const UdpClientTransport&) = delete;

  bool Send(std::span<const std::uint8_t> datagram) override;
  std::optional<std::vector<std::uint8_t>> Receive(
      std::chrono::milliseconds timeout) override;

 private:
  int fd_ = -1;
};

struct UdpValidationOptions {
  /// Total datagram attempts before giving up (>= 1).
  int max_tries = 4;
  /// Wait for the first try's answer; later tries back off geometrically.
  std::chrono::milliseconds initial_timeout{20};
  double backoff_factor = 2.0;
  /// Cap on any single try's wait, so max_tries * max_timeout bounds the
  /// whole call.
  std::chrono::milliseconds max_timeout{250};
};

struct UdpValidationOutcome {
  /// True: the presented token is current, the cached data is valid.
  /// False: stale — refetch over TCP.
  bool not_modified = false;
  std::uint64_t version = 0;  ///< The server's current version.
};

/// One-datagram-each-way validation client over any DatagramTransport.
/// Validate() either returns the server's answer or std::nullopt after the
/// retry cap — callers then fall back to TCP, so a lossy or dead UDP path
/// degrades to exactly the pre-UDP behavior. Answers are matched by nonce
/// (any nonce sent within the same call is accepted, so a delayed answer to
/// an earlier try still counts); mismatched or malformed datagrams are
/// discarded without consuming the try's full timeout budget.
///
/// Not thread-safe: one instance per validating thread.
class UdpValidationClient {
 public:
  /// `nonce_source` overrides the per-try nonce generator (deterministic
  /// tests); by default nonces come from a randomly seeded PRNG.
  explicit UdpValidationClient(std::unique_ptr<DatagramTransport> transport,
                               UdpValidationOptions options = {},
                               std::function<std::uint64_t()> nonce_source = {});

  std::optional<UdpValidationOutcome> Validate(std::uint64_t if_version);

  std::uint64_t sent_count() const { return sent_; }
  std::uint64_t answer_count() const { return answers_; }
  /// Tries that expired without a usable answer.
  std::uint64_t timeout_count() const { return timeouts_; }
  /// Datagrams discarded as malformed (bad magic/checksum/truncation).
  std::uint64_t rejected_count() const { return rejected_; }
  /// Well-formed responses whose nonce matched no outstanding request.
  std::uint64_t nonce_mismatch_count() const { return nonce_mismatches_; }
  /// Validate() calls that exhausted every try (caller fell back to TCP).
  std::uint64_t fallback_count() const { return fallbacks_; }

 private:
  std::chrono::milliseconds TryTimeout(int attempt) const;

  std::unique_ptr<DatagramTransport> transport_;
  UdpValidationOptions options_;
  std::function<std::uint64_t()> nonce_source_;
  std::mt19937_64 rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t answers_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t nonce_mismatches_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace p4p::proto
