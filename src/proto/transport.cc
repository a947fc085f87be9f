#include "proto/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "proto/messages.h"

namespace p4p::proto {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

bool ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

OutboundFrame::OutboundFrame(std::span<const std::uint8_t> payload)
    : payload_(payload) {
  StoreBig(static_cast<std::uint32_t>(payload.size()), header_.data());
}

std::array<std::span<const std::uint8_t>, 2> OutboundFrame::unsent() const {
  const std::size_t in_header = std::min(sent_, header_.size());
  return {std::span<const std::uint8_t>(header_).subspan(in_header),
          payload_.subspan(sent_ - in_header)};
}

WriteStatus WriteFrameSome(int fd, OutboundFrame& frame) {
  while (!frame.done()) {
    std::array<iovec, 2> iov{};
    msghdr msg{};
    msg.msg_iov = iov.data();
    for (const auto part : frame.unsent()) {
      if (part.empty()) continue;
      iov[msg.msg_iovlen].iov_base = const_cast<std::uint8_t*>(part.data());
      iov[msg.msg_iovlen].iov_len = part.size();
      ++msg.msg_iovlen;
    }
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteStatus::kBlocked;
      return WriteStatus::kFailed;
    }
    frame.Advance(static_cast<std::size_t>(n));
  }
  return WriteStatus::kDone;
}

bool WriteFrameBlocking(int fd, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  OutboundFrame frame(payload);
  return WriteFrameSome(fd, frame) == WriteStatus::kDone;
}

bool ReadFrameBlocking(int fd, std::vector<std::uint8_t>& out) {
  std::uint8_t header[4];
  if (!ReadAll(fd, header, 4)) return false;
  const std::uint32_t len = LoadBig<std::uint32_t>(header);
  if (len > kMaxFrameBytes) return false;
  out.resize(len);
  return len == 0 || ReadAll(fd, out.data(), len);
}

InProcessTransport::InProcessTransport(Handler handler) : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("InProcessTransport: null handler");
  }
}

std::vector<std::uint8_t> InProcessTransport::Call(
    std::span<const std::uint8_t> request) {
  return handler_(request);
}

// ---------------------------------------------------------------------------
// TcpServer: fixed epoll worker pool.
// ---------------------------------------------------------------------------

std::size_t GrownReceiveBufferSize(std::size_t size, std::size_t frame_end) {
  const std::size_t doubled = std::max(kMinReceiveBuffer, 2 * size);
  return frame_end > size ? std::min(doubled, frame_end) : doubled;
}

/// One multiplexed connection. Owned by exactly one worker; only that
/// worker's thread touches it after registration.
struct TcpServer::Connection {
  int fd = -1;
  /// Receive buffer: recv writes at `end`, and frames are parsed from
  /// `begin`, so [begin, end) holds received, unparsed bytes.
  std::vector<std::uint8_t> in;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Outbound frame queue. Each entry writes a shared payload buffer in
  /// place behind its header (zero-copy for cached responses).
  struct OutFrame {
    SharedResponse payload;
    OutboundFrame frame;
  };
  std::deque<OutFrame> out;
  bool want_write = false;  // EPOLLOUT currently registered
};

struct TcpServer::Worker {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex mu;                  // guards pending
  std::vector<int> pending;       // fds handed over by the accept thread
  std::unordered_map<int, std::unique_ptr<Connection>> conns;  // worker thread only
};

TcpServer::TcpServer(std::uint16_t port, Handler handler, int num_workers) {
  if (!handler) {
    throw std::invalid_argument("TcpServer: null handler");
  }
  handler_ = [h = std::move(handler)](std::span<const std::uint8_t> req) {
    return Share(h(req));
  };
  Init(port, num_workers);
}

TcpServer::TcpServer(std::uint16_t port, SharedHandler handler, int num_workers)
    : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("TcpServer: null handler");
  }
  Init(port, num_workers);
}

void TcpServer::Init(std::uint16_t port, int num_workers) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    ThrowErrno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listen_fd_);
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    ThrowErrno("listen");
  }

  if (num_workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_workers = static_cast<int>(std::clamp(hw, 2u, 8u));
  }
  for (int i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = ::epoll_create1(0);
    if (w->epoll_fd < 0) ThrowErrno("epoll_create1");
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (w->wake_fd < 0) ThrowErrno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) != 0) {
      ThrowErrno("epoll_ctl(wake)");
    }
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(*worker); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed during Stop()
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    SetNoDelay(fd);
    // Hand the fd to a worker round-robin; the worker registers it with its
    // epoll the next time it wakes.
    Worker& w = *workers_[next_worker_];
    next_worker_ = (next_worker_ + 1) % workers_.size();
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.pending.push_back(fd);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(w.wake_fd, &one, sizeof(one));
  }
}

bool TcpServer::ReceiveInto(Connection& conn, bool& peer_closed) {
  while (true) {
    if (conn.end == conn.in.size() && conn.begin > 0) {
      // Full behind parsed bytes: move the unparsed tail to the front.
      std::copy(conn.in.begin() + static_cast<std::ptrdiff_t>(conn.begin),
                conn.in.end(), conn.in.begin());
      conn.end -= conn.begin;
      conn.begin = 0;
    } else if (conn.end == conn.in.size()) {
      std::size_t frame_end = 0;
      if (conn.end >= 4) {
        const std::uint32_t len = LoadBig<std::uint32_t>(conn.in.data());
        if (len > kMaxFrameBytes) return false;  // hostile length prefix
        frame_end = 4 + std::size_t{len};
        // A whole frame is waiting: parse it before reading on (epoll is
        // level-triggered, so the unread bytes wake the worker again).
        if (frame_end <= conn.end) return true;
      }
      // reserve first: resize alone would round the capacity up to 2x.
      const std::size_t grown = GrownReceiveBufferSize(conn.in.size(), frame_end);
      conn.in.reserve(grown);
      conn.in.resize(grown);
    }
    const std::size_t room = conn.in.size() - conn.end;
    const ssize_t r = ::recv(conn.fd, conn.in.data() + conn.end, room, 0);
    if (r > 0) {
      conn.end += static_cast<std::size_t>(r);
      // A short read emptied the socket; epoll is level-triggered, so any
      // later bytes wake the worker again.
      if (static_cast<std::size_t>(r) < room) return true;
      continue;
    }
    if (r == 0) {
      peer_closed = true;
      return true;
    }
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool TcpServer::DrainFrames(Connection& conn) {
  while (conn.end - conn.begin >= 4) {
    const std::uint32_t len = LoadBig<std::uint32_t>(conn.in.data() + conn.begin);
    if (len > kMaxFrameBytes) return false;  // hostile length prefix
    if (conn.end - conn.begin - 4 < len) break;  // incomplete frame
    const std::span<const std::uint8_t> payload(conn.in.data() + conn.begin + 4, len);
    SharedResponse response;
    try {
      response = handler_(payload);
    } catch (const std::exception&) {
      return false;  // handler failure: drop the connection
    }
    if (!response || response->size() > kMaxFrameBytes) return false;
    const OutboundFrame frame(*response);
    conn.out.push_back(Connection::OutFrame{std::move(response), frame});
    conn.begin += 4 + len;
  }
  // Everything parsed: the next read starts at the front again. A partial
  // frame stays put until a read finds the buffer full (ReceiveInto).
  if (conn.begin == conn.end) conn.begin = conn.end = 0;
  return true;
}

bool TcpServer::FlushWrites(Connection& conn) {
  while (!conn.out.empty()) {
    switch (WriteFrameSome(conn.fd, conn.out.front().frame)) {
      case WriteStatus::kDone:
        conn.out.pop_front();
        break;
      case WriteStatus::kBlocked:
        return true;
      case WriteStatus::kFailed:
        return false;
    }
  }
  return true;
}

void TcpServer::WorkerLoop(Worker& worker) {
  std::array<epoll_event, 64> events;

  const auto close_conn = [&worker](int fd) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    worker.conns.erase(fd);
  };

  while (true) {
    const int n = ::epoll_wait(worker.epoll_fd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;

    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == worker.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(worker.wake_fd, &drained, sizeof(drained));
        continue;
      }
      const auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Connection& conn = *it->second;

      bool ok = (ev & (EPOLLHUP | EPOLLERR)) == 0;
      bool peer_closed = false;
      if (ok && (ev & EPOLLIN) != 0) ok = ReceiveInto(conn, peer_closed);
      if (ok) ok = DrainFrames(conn);
      if (ok) ok = FlushWrites(conn);
      if (!ok || peer_closed) {
        // On a clean peer close, pending responses are best-effort flushed
        // above; our request/response clients never half-close, so there is
        // no one left to read them.
        close_conn(fd);
        continue;
      }
      const bool want_write = !conn.out.empty();
      if (want_write != conn.want_write) {
        epoll_event change{};
        change.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
        change.data.fd = fd;
        ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, fd, &change);
        conn.want_write = want_write;
      }
    }

    // Register connections handed over by the accept thread.
    std::vector<int> pending;
    {
      std::lock_guard<std::mutex> lock(worker.mu);
      pending.swap(worker.pending);
    }
    for (const int fd : pending) {
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      worker.conns.emplace(fd, std::move(conn));
    }
  }

  for (auto& [fd, conn] : worker.conns) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  worker.conns.clear();
  {
    // Connections assigned after the final epoll_wait never got registered;
    // close them too.
    std::lock_guard<std::mutex> lock(worker.mu);
    for (const int fd : worker.pending) ::close(fd);
    worker.pending.clear();
  }
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(w->wake_fd, &one, sizeof(one));
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    ::close(w->wake_fd);
    ::close(w->epoll_fd);
  }
}

TcpServer::~TcpServer() { Stop(); }

TcpClient::TcpClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("connect");
  }
  SetNoDelay(fd_);
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::uint8_t> TcpClient::Call(std::span<const std::uint8_t> request) {
  if (!WriteFrameBlocking(fd_, request)) {
    throw std::runtime_error("TcpClient: send failed");
  }
  std::vector<std::uint8_t> response;
  if (!ReadFrameBlocking(fd_, response)) {
    throw std::runtime_error("TcpClient: receive failed");
  }
  return response;
}

// ---------------------------------------------------------------------------
// UDP validation fast path.
// ---------------------------------------------------------------------------

namespace {

sockaddr_in LoopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Largest datagram the server/client will read. Validation datagrams are a
/// few dozen bytes; reading more just lets the codec reject the excess.
constexpr std::size_t kDatagramReadBytes = 2048;

}  // namespace

UdpValidationServer::UdpValidationServer(std::uint16_t port, DatagramHandler handler)
    : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("UdpValidationServer: null handler");
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    ThrowErrno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { Loop(); });
}

void UdpValidationServer::Loop() {
  std::vector<std::uint8_t> buf(kDatagramReadBytes);
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);  // backstop for a lost wake datagram
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) continue;  // EINTR / transient; stopping_ is checked above
    if (stopping_.load(std::memory_order_acquire)) break;
    received_.fetch_add(1, std::memory_order_relaxed);
    std::optional<std::vector<std::uint8_t>> response;
    try {
      response = handler_(std::span<const std::uint8_t>(
          buf.data(), static_cast<std::size_t>(n)));
    } catch (const std::exception&) {
      response.reset();  // a throwing handler stays silent, never kills the loop
    }
    if (!response) {
      ignored_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    (void)::sendto(fd_, response->data(), response->size(), MSG_NOSIGNAL,
                   reinterpret_cast<sockaddr*>(&peer), peer_len);
    answered_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpValidationServer::Stop() {
  if (stopping_.exchange(true)) return;
  // Wake the loop instantly with a throwaway datagram; the poll timeout is
  // only the backstop if this send is dropped.
  const int s = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (s >= 0) {
    sockaddr_in addr = LoopbackAddr(port_);
    (void)::sendto(s, "", 0, MSG_NOSIGNAL, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
    ::close(s);
  }
  if (thread_.joinable()) thread_.join();
  ::close(fd_);
  fd_ = -1;
}

UdpValidationServer::~UdpValidationServer() { Stop(); }

UdpClientTransport::UdpClientTransport(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("connect");
  }
}

UdpClientTransport::~UdpClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpClientTransport::Send(std::span<const std::uint8_t> datagram) {
  const ssize_t n = ::send(fd_, datagram.data(), datagram.size(), MSG_NOSIGNAL);
  return n == static_cast<ssize_t>(datagram.size());
}

std::optional<std::vector<std::uint8_t>> UdpClientTransport::Receive(
    std::chrono::milliseconds timeout) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ms = static_cast<int>(std::clamp<long long>(timeout.count(), 0, 60'000));
  const int ready = ::poll(&pfd, 1, ms);
  if (ready <= 0) return std::nullopt;
  std::vector<std::uint8_t> buf(kDatagramReadBytes);
  const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
  // n < 0 covers ECONNREFUSED from a dead server's ICMP bounce: report "no
  // answer" and let the retry/fallback logic take it from there.
  if (n < 0) return std::nullopt;
  buf.resize(static_cast<std::size_t>(n));
  return buf;
}

UdpValidationClient::UdpValidationClient(std::unique_ptr<DatagramTransport> transport,
                                         UdpValidationOptions options,
                                         std::function<std::uint64_t()> nonce_source)
    : transport_(std::move(transport)), options_(options),
      nonce_source_(std::move(nonce_source)), rng_(std::random_device{}()) {
  if (!transport_) {
    throw std::invalid_argument("UdpValidationClient: null transport");
  }
  if (options_.max_tries < 1) {
    throw std::invalid_argument("UdpValidationClient: max_tries must be >= 1");
  }
  if (!(options_.backoff_factor >= 1.0)) {
    throw std::invalid_argument("UdpValidationClient: backoff_factor must be >= 1");
  }
}

std::chrono::milliseconds UdpValidationClient::TryTimeout(int attempt) const {
  double ms = static_cast<double>(options_.initial_timeout.count());
  for (int i = 0; i < attempt; ++i) ms *= options_.backoff_factor;
  ms = std::min(ms, static_cast<double>(options_.max_timeout.count()));
  return std::chrono::milliseconds(static_cast<long long>(ms));
}

std::optional<UdpValidationOutcome> UdpValidationClient::Validate(
    std::uint64_t if_version) {
  // Bound on datagrams consumed per try: a flood of garbage (or an injected
  // duplicate storm) must not keep one try alive forever.
  constexpr int kMaxReceivesPerTry = 64;

  std::vector<std::uint64_t> nonces;
  nonces.reserve(static_cast<std::size_t>(options_.max_tries));
  for (int attempt = 0; attempt < options_.max_tries; ++attempt) {
    const std::uint64_t nonce = nonce_source_ ? nonce_source_() : rng_();
    nonces.push_back(nonce);
    ++sent_;
    if (!transport_->Send(EncodeValidationRequest({nonce, if_version}))) {
      ++timeouts_;  // local send failure burns the try like a timeout
      continue;
    }
    auto remaining = TryTimeout(attempt);
    for (int receives = 0; receives < kMaxReceivesPerTry; ++receives) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto datagram = transport_->Receive(remaining);
      if (!datagram) {
        ++timeouts_;
        break;
      }
      const auto response = DecodeValidationResponse(*datagram);
      if (response &&
          std::find(nonces.begin(), nonces.end(), response->nonce) != nonces.end()) {
        ++answers_;
        return UdpValidationOutcome{
            response->status == ValidationStatus::kNotModified, response->version};
      }
      if (!response) {
        ++rejected_;
      } else {
        ++nonce_mismatches_;
      }
      // Keep waiting out this try's remaining budget for a usable answer.
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
      remaining -= std::min(elapsed, remaining);
      if (remaining <= std::chrono::milliseconds(0)) {
        ++timeouts_;
        break;
      }
    }
  }
  ++fallbacks_;
  return std::nullopt;
}

}  // namespace p4p::proto
