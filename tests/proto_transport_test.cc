#include "proto/transport.h"

#include <gtest/gtest.h>

#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace p4p::proto {
namespace {

// Live threads of this process, from /proc/self/status (Linux-only, as is
// the epoll server itself).
int CountProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

std::vector<std::uint8_t> EchoUpper(std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out(in.begin(), in.end());
  for (auto& b : out) {
    if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
  }
  return out;
}

std::vector<std::uint8_t> Bytes(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::string(s).size());
}

/// `n` bytes of a position-dependent pattern, so a dropped, repeated or
/// reordered slice shows up as a mismatch.
std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 31 + (i >> 13) + salt);
  }
  return out;
}

/// A blocking loopback TCP socket connected to `port`, with Nagle off as on
/// TcpClient.
int Dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("Dial: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// A connected loopback pair of raw blocking sockets: `dialed` connected to
/// `accepted`.
struct RawPair {
  RawPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        ::listen(listener, 1) != 0) {
      throw std::runtime_error("RawPair: listen failed");
    }
    dialed = Dial(ntohs(addr.sin_port));
    accepted = ::accept(listener, nullptr, nullptr);
    ::close(listener);
  }
  ~RawPair() {
    ::close(dialed);
    ::close(accepted);
  }
  int dialed = -1;
  int accepted = -1;
};

/// Segments carrying data that `fd` has received (TCP_INFO), or nullopt on
/// a kernel too old to report them.
std::optional<std::uint32_t> DataSegsIn(int fd) {
  tcp_info info{};
  socklen_t len = sizeof(info);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0 ||
      len < offsetof(tcp_info, tcpi_data_segs_in) + sizeof(info.tcpi_data_segs_in)) {
    return std::nullopt;
  }
  return info.tcpi_data_segs_in;
}

/// Reads exactly `n` bytes from `fd`, at most `slice` per recv.
std::vector<std::uint8_t> RecvExactly(int fd, std::size_t n, std::size_t slice) {
  std::vector<std::uint8_t> out(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out.data() + got, std::min(slice, n - got), 0);
    if (r <= 0) throw std::runtime_error("RecvExactly: connection ended early");
    got += static_cast<std::size_t>(r);
  }
  return out;
}

std::vector<std::uint8_t> Framed(std::span<const std::uint8_t> payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out = {static_cast<std::uint8_t>(n >> 24),
                                   static_cast<std::uint8_t>(n >> 16),
                                   static_cast<std::uint8_t>(n >> 8),
                                   static_cast<std::uint8_t>(n)};
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Writes all of `bytes` to the blocking socket `fd`.
void SendAll(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("SendAll: send failed");
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

void Append(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> Joined(const std::array<std::span<const std::uint8_t>, 2>& parts) {
  std::vector<std::uint8_t> out(parts[0].begin(), parts[0].end());
  out.insert(out.end(), parts[1].begin(), parts[1].end());
  return out;
}

TEST(OutboundFrame, ResumesAtEverySplitOffset) {
  const auto payload = Pattern(10, 3);
  const auto wire = Framed(payload);
  ASSERT_EQ(wire.size(), 14u);
  for (std::size_t first = 0; first <= wire.size(); ++first) {
    for (std::size_t second = first; second <= wire.size(); ++second) {
      OutboundFrame frame(payload);
      frame.Advance(first);
      const auto parts = frame.unsent();
      // The header's rest comes first, the payload's rest after it.
      EXPECT_EQ(parts[0].size(), first < 4 ? 4 - first : 0u) << first;
      EXPECT_EQ(parts[1].size(), wire.size() - std::max<std::size_t>(first, 4)) << first;
      EXPECT_EQ(Joined(parts), std::vector<std::uint8_t>(wire.begin() + first, wire.end()))
          << first;
      // A second partial write resumes where the first stopped.
      frame.Advance(second - first);
      EXPECT_EQ(Joined(frame.unsent()),
                std::vector<std::uint8_t>(wire.begin() + second, wire.end()))
          << first << "+" << second - first;
      EXPECT_EQ(frame.done(), second == wire.size()) << first << "+" << second - first;
    }
  }
}

TEST(OutboundFrame, EmptyPayloadIsItsHeader) {
  OutboundFrame frame({});
  EXPECT_EQ(Joined(frame.unsent()), (std::vector<std::uint8_t>{0, 0, 0, 0}));
  frame.Advance(4);
  EXPECT_TRUE(frame.done());
}

TEST(TcpTransport, BlockingWriteSendsOneSegmentPerFrame) {
  RawPair pair;
  const auto payload = Pattern(10, 1);
  for (int i = 0; i < 5; ++i) {
    const auto before = DataSegsIn(pair.accepted);
    if (!before) GTEST_SKIP() << "kernel does not report tcpi_data_segs_in";
    ASSERT_TRUE(WriteFrameBlocking(pair.dialed, payload));
    EXPECT_EQ(RecvExactly(pair.accepted, 14, 14), Framed(payload));
    EXPECT_EQ(*DataSegsIn(pair.accepted) - *before, 1u) << "frame " << i;
  }
}

TEST(TcpTransport, ServerReplySendsOneSegmentPerFrame) {
  const auto reply = std::make_shared<const std::vector<std::uint8_t>>(Pattern(10, 2));
  TcpServer server(0, SharedHandler([reply](std::span<const std::uint8_t>) {
                     return reply;
                   }), 1);
  const int fd = Dial(server.port());
  for (int i = 0; i < 5; ++i) {
    const auto before = DataSegsIn(fd);
    if (!before) {
      ::close(fd);
      GTEST_SKIP() << "kernel does not report tcpi_data_segs_in";
    }
    ASSERT_TRUE(WriteFrameBlocking(fd, Bytes("q")));
    EXPECT_EQ(RecvExactly(fd, 14, 14), Framed(*reply));
    EXPECT_EQ(*DataSegsIn(fd) - *before, 1u) << "reply " << i;
  }
  ::close(fd);
}

TEST(TcpTransport, LargeFramesArriveByteExactThroughPartialWrites) {
  // Both directions outgrow the socket buffers, so the writes stop and
  // resume mid-payload; the reply is read in small slices to keep the
  // server's writes partial.
  constexpr std::size_t kBig = 4u << 20;
  const auto request = Pattern(kBig, 5);
  const auto reply = std::make_shared<const std::vector<std::uint8_t>>(Pattern(kBig, 9));
  const auto refusal = std::make_shared<const std::vector<std::uint8_t>>(Bytes("bad"));
  TcpServer server(0, SharedHandler([&](std::span<const std::uint8_t> got) {
                     return std::equal(got.begin(), got.end(), request.begin(),
                                       request.end())
                                ? reply
                                : refusal;
                   }), 1);
  const int fd = Dial(server.port());
  ASSERT_TRUE(WriteFrameBlocking(fd, request));
  const auto got = RecvExactly(fd, 4 + kBig, 1500);
  ::close(fd);
  EXPECT_TRUE(got == Framed(*reply));
}

TEST(InProcessTransport, CallsHandler) {
  InProcessTransport t(EchoUpper);
  EXPECT_EQ(t.Call(Bytes("hello")), Bytes("HELLO"));
}

TEST(InProcessTransport, RejectsNullHandler) {
  EXPECT_THROW(InProcessTransport(nullptr), std::invalid_argument);
}

TEST(TcpTransport, RoundTripOverLoopback) {
  TcpServer server(0, EchoUpper);
  ASSERT_GT(server.port(), 0);
  TcpClient client(server.port());
  EXPECT_EQ(client.Call(Bytes("ping")), Bytes("PING"));
}

TEST(TcpTransport, MultipleRequestsOnOneConnection) {
  TcpServer server(0, EchoUpper);
  TcpClient client(server.port());
  for (int i = 0; i < 50; ++i) {
    const auto msg = Bytes(("msg" + std::to_string(i)).c_str());
    auto expected = msg;
    for (auto& b : expected) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    EXPECT_EQ(client.Call(msg), expected);
  }
}

TEST(TcpTransport, ConcurrentClients) {
  TcpServer server(0, EchoUpper);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures, c] {
      try {
        TcpClient client(server.port());
        for (int i = 0; i < 20; ++i) {
          const auto msg = Bytes(("c" + std::to_string(c)).c_str());
          if (client.Call(msg) != EchoUpper(msg)) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpTransport, EmptyPayload) {
  TcpServer server(0, EchoUpper);
  TcpClient client(server.port());
  EXPECT_TRUE(client.Call({}).empty());
}

TEST(TcpTransport, LargePayload) {
  TcpServer server(0, EchoUpper);
  TcpClient client(server.port());
  std::vector<std::uint8_t> big(1 << 20, 'a');
  const auto resp = client.Call(big);
  ASSERT_EQ(resp.size(), big.size());
  EXPECT_EQ(resp[0], 'A');
  EXPECT_EQ(resp.back(), 'A');
}

TEST(TcpTransport, ConnectFailureThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(TcpClient(1), std::runtime_error);
}

TEST(TcpTransport, ServerStopIsIdempotent) {
  TcpServer server(0, EchoUpper);
  server.Stop();
  server.Stop();
}

TEST(TcpTransport, CallAfterServerStopFails) {
  auto server = std::make_unique<TcpServer>(0, EchoUpper);
  TcpClient client(server->port());
  EXPECT_EQ(client.Call(Bytes("x")), Bytes("X"));
  server.reset();
  EXPECT_THROW(
      {
        // One call may succeed if buffered; keep trying until the closed
        // socket surfaces.
        for (int i = 0; i < 10; ++i) client.Call(Bytes("x"));
      },
      std::runtime_error);
}

TEST(TcpTransport, HandlerExceptionDropsConnection) {
  TcpServer server(0, [](std::span<const std::uint8_t>) -> std::vector<std::uint8_t> {
    throw std::runtime_error("boom");
  });
  TcpClient client(server.port());
  EXPECT_THROW(client.Call(Bytes("x")), std::runtime_error);
}

TEST(TcpTransport, RejectsNullHandler) {
  EXPECT_THROW(TcpServer(0, Handler(nullptr)), std::invalid_argument);
  EXPECT_THROW(TcpServer(0, SharedHandler(nullptr)), std::invalid_argument);
}

TEST(TcpTransport, SharedHandlerServesSharedBuffer) {
  // One pre-encoded buffer answers every request, zero-copy on the server.
  const auto canned = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{'o', 'k'});
  TcpServer server(0, SharedHandler([canned](std::span<const std::uint8_t>) {
                     return canned;
                   }));
  TcpClient client(server.port());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.Call(Bytes("q")), (std::vector<std::uint8_t>{'o', 'k'}));
  }
}

TEST(TcpTransport, SharedHandlerNullResponseDropsConnection) {
  TcpServer server(0, SharedHandler([](std::span<const std::uint8_t>) {
                     return SharedResponse{};
                   }));
  TcpClient client(server.port());
  EXPECT_THROW(client.Call(Bytes("x")), std::runtime_error);
}

TEST(TcpTransport, FixedWorkerPool) {
  TcpServer server(0, EchoUpper, 3);
  EXPECT_EQ(server.worker_count(), 3);
}

TEST(TcpTransport, SerialConnectionsDoNotAccumulateThreads) {
  // Regression for the former thread-per-connection server, whose workers_
  // vector grew one (never-reaped) thread per accepted connection. The
  // epoll server must stay at its fixed pool no matter how many
  // connections come and go.
  TcpServer server(0, EchoUpper, 2);
  {
    TcpClient warmup(server.port());
    warmup.Call(Bytes("w"));
  }
  const int before = CountProcessThreads();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i) {
    TcpClient client(server.port());
    client.Call(Bytes("x"));
  }
  const int after = CountProcessThreads();
  // Identical modulo scheduling slack; 200 leaked threads trips this by a
  // mile either way.
  EXPECT_LE(after, before + 2);
}

TEST(TcpTransport, InterleavedClientsOnOneWorker) {
  // Two connections multiplexed by a single worker must not block each
  // other: alternate requests between them on one thread.
  TcpServer server(0, EchoUpper, 1);
  TcpClient a(server.port());
  TcpClient b(server.port());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Call(Bytes("aa")), Bytes("AA"));
    EXPECT_EQ(b.Call(Bytes("bb")), Bytes("BB"));
  }
}

TEST(TcpTransport, PipelinedFramesInOneWriteAreAnsweredInOrder) {
  TcpServer server(0, EchoUpper, 1);
  const int fd = Dial(server.port());
  // Larger than the first receive buffer, so the run also grows it.
  const std::vector<std::vector<std::uint8_t>> requests = {
      Bytes("one"), {}, Bytes("three"), Pattern(9000, 3), Bytes("tail")};
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> answers;
  for (const auto& request : requests) {
    Append(stream, Framed(request));
    Append(answers, Framed(EchoUpper(request)));
  }
  // One write carries every frame but the last one's final bytes.
  const std::size_t held_back = 3;
  const std::size_t last_answer = 4 + requests.back().size();
  SendAll(fd, std::span(stream).first(stream.size() - held_back));
  EXPECT_EQ(RecvExactly(fd, answers.size() - last_answer, 4096),
            std::vector<std::uint8_t>(answers.begin(), answers.end() - last_answer));
  SendAll(fd, std::span(stream).last(held_back));
  EXPECT_EQ(RecvExactly(fd, last_answer, 4096),
            std::vector<std::uint8_t>(answers.end() - last_answer, answers.end()));
  ::close(fd);
}

TEST(TcpTransport, LargeFrameArrivesAFewBytesPerWrite) {
  TcpServer server(0, EchoUpper, 1);
  const int fd = Dial(server.port());
  const auto request = Pattern((64u << 10) + 700, 4);
  const auto stream = Framed(request);
  std::size_t step = 1;
  for (std::size_t at = 0; at < stream.size(); at += step, step = step % 13 + 1) {
    SendAll(fd, std::span(stream).subspan(at, std::min(step, stream.size() - at)));
  }
  EXPECT_TRUE(RecvExactly(fd, stream.size(), 8192) == Framed(EchoUpper(request)));
  ::close(fd);
}

TEST(TcpTransport, ServesPastSixtyFourKiBConsumedWithAPartialFrameBehind) {
  TcpServer server(0, EchoUpper, 1);
  const int fd = Dial(server.port());
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> answers;
  for (int i = 0; i < 70; ++i) {
    const auto request = Pattern(1000, static_cast<std::uint8_t>(i));
    Append(stream, Framed(request));
    Append(answers, Framed(EchoUpper(request)));
  }
  const auto last = Pattern(3000, 99);
  const auto last_frame = Framed(last);
  Append(stream, std::span(last_frame).first(1500));
  std::vector<std::uint8_t> got;
  std::thread reader([&] { got = RecvExactly(fd, answers.size(), 65536); });
  SendAll(fd, stream);
  reader.join();
  EXPECT_TRUE(got == answers);
  SendAll(fd, std::span(last_frame).subspan(1500));
  EXPECT_TRUE(RecvExactly(fd, last_frame.size(), 4096) == Framed(EchoUpper(last)));
  ::close(fd);
}

TEST(TcpTransport, LengthPrefixAboveMaxFrameDropsTheConnection) {
  TcpServer server(0, EchoUpper, 1);
  for (const std::uint32_t len : {kMaxFrameBytes + 1, 0xFFFFFFFFu}) {
    const int fd = Dial(server.port());
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(len >> 24), static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 8), static_cast<std::uint8_t>(len)};
    SendAll(fd, header);
    std::uint8_t byte = 0;
    const ssize_t r = ::recv(fd, &byte, 1, 0);
    EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET)) << "len " << len;
    ::close(fd);
  }
  TcpClient client(server.port());
  EXPECT_EQ(client.Call(Bytes("ok")), Bytes("OK"));
}

TEST(TcpTransport, DeclaredMaxFrameWithATrickleKeepsTheConnection) {
  TcpServer server(0, EchoUpper, 1);
  const int fd = Dial(server.port());
  auto stream = Framed({});
  stream[0] = static_cast<std::uint8_t>(kMaxFrameBytes >> 24);
  stream[1] = static_cast<std::uint8_t>(kMaxFrameBytes >> 16);
  Append(stream, Pattern(1000, 6));
  for (std::size_t at = 0; at < stream.size(); at += 10) {
    SendAll(fd, std::span(stream).subspan(at, std::min<std::size_t>(10, stream.size() - at)));
  }
  // A legal length keeps the connection open, waiting for the rest.
  const timeval timeout{0, 200000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  ::close(fd);
}

TEST(TcpTransport, ReceiveBufferGrowsWithTheBytesReceived) {
  EXPECT_EQ(GrownReceiveBufferSize(0, 0), kMinReceiveBuffer);
  // A declared frame end only caps the doubling at what the frame needs.
  EXPECT_EQ(GrownReceiveBufferSize(64u << 10, 100000), 100000u);
  EXPECT_EQ(GrownReceiveBufferSize(4096, 4 + std::size_t{kMaxFrameBytes}), 8192u);
  EXPECT_EQ(GrownReceiveBufferSize(100000, 100000), 200000u);

  // A header declaring kMaxFrameBytes, then a trickle: the server grows the
  // buffer only when a read has filled it, so it stays within twice the
  // bytes that arrived.
  const std::size_t frame_end = 4 + std::size_t{kMaxFrameBytes};
  std::size_t size = 0;
  std::size_t received = 0;
  while (received < (3u << 20)) {
    if (received == size) {
      size = GrownReceiveBufferSize(size, received >= 4 ? frame_end : 0);
      ASSERT_LE(size, std::max(kMinReceiveBuffer, 2 * received));
    }
    received += std::min<std::size_t>(997, size - received);
  }
}

}  // namespace
}  // namespace p4p::proto
