// Bounds-checked binary encoding primitives.
//
// The paper defines the P4P interfaces in WSDL/SOAP; this implementation
// substitutes a compact big-endian binary encoding (the interface semantics
// are what matters, not the wire syntax). Writer appends; Reader consumes
// with explicit error state — decoding never reads past the buffer and
// never throws on malformed input.
//
// Federation ("P4PF"), telemetry ("P4PL") and validation ("P4PV") frames
// share one sealed envelope, built by BeginSealed/Seal and checked by Open:
//   u32 magic | u8 protocol version | u8 tag | payload | u64 MAC
// where the MAC is keyed SipHash-2-4 over every byte before it. Portal
// requests and responses (messages.h) are not sealed: clients hold no key.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace p4p::proto {

/// Revision byte leading every portal message and sealed envelope.
inline constexpr std::uint8_t kProtocolVersion = 2;

class Writer {
 public:
  /// Pre-allocates room for `n` more bytes. The bulk appenders (str,
  /// f64_vec) reserve for themselves; message encoders with per-element
  /// loops of scalar writes should reserve their exact footprint up front
  /// so encoding is a single allocation.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  /// Length-prefixed (u16) UTF-8 string; throws std::length_error if longer
  /// than 65535 bytes.
  void str(std::string_view s);
  /// Length-prefixed (u32) vector of doubles, each as its big-endian
  /// IEEE-754 bit pattern (NaN payloads and signed zeros survive).
  void f64_vec(std::span<const double> values);
  /// Appends raw bytes verbatim (used to embed pre-encoded frames).
  void raw(std::span<const std::uint8_t> bytes);
  /// Length-prefixed (u32) byte blob — a pre-encoded frame carried as an
  /// opaque payload inside another frame (the federation push carries whole
  /// response frames this way).
  void blob(std::span<const std::uint8_t> bytes);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte span. After any failed read, ok() is false
/// and all subsequent reads return zero values.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  std::vector<double> f64_vec();
  std::vector<std::uint8_t> blob();

  bool ok() const { return ok_; }
  /// True when the whole buffer was consumed and no error occurred.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// 128-bit SipHash key sealing an envelope. Federation and telemetry
/// components take a per-deployment key; whoever holds it can mint frames.
/// Every keyed component exposes key(); `key() == kPublicSealKey` flags one
/// built without a deployment key.
struct SealKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
  friend bool operator==(const SealKey&, const SealKey&) = default;
};

/// Published key for frames no secret can guard: client validation
/// datagrams, and any component not given a deployment key. It detects
/// corruption, not forgery.
inline constexpr SealKey kPublicSealKey{0x7034702d7075626cULL, 0x69632d7365616c31ULL};

/// Streaming SipHash-2-4 (Aumasson & Bernstein), consuming 8 bytes per
/// compression round. update() may split the input anywhere.
class SipHasher {
 public:
  explicit SipHasher(const SealKey& key);
  void update(std::span<const std::uint8_t> bytes);
  /// The MAC of everything fed so far (the hasher stays usable).
  std::uint64_t finish() const;

 private:
  std::uint64_t v_[4];
  std::uint64_t tail_ = 0;  ///< pending bytes of a partial word, little-endian
  std::uint64_t len_ = 0;
};

std::uint64_t SipHash24(const SealKey& key, std::span<const std::uint8_t> bytes);

/// Envelope framing: magic + protocol version + tag, and the trailing MAC.
inline constexpr std::size_t kSealHeaderBytes = 6;
inline constexpr std::size_t kSealMacBytes = 8;

/// A Writer holding an envelope header, with room for `payload_bytes` and
/// the MAC reserved.
Writer BeginSealed(std::uint32_t magic, std::uint8_t tag, std::size_t payload_bytes);
/// Appends the MAC over everything written to `w` and returns the frame.
std::vector<std::uint8_t> Seal(Writer& w, const SealKey& key);
/// The payload of a frame whose magic, protocol version, tag and MAC all
/// check out under `key`; std::nullopt otherwise.
std::optional<std::span<const std::uint8_t>> Open(std::span<const std::uint8_t> frame,
                                                  std::uint32_t magic, std::uint8_t tag,
                                                  const SealKey& key);
/// Tag of a frame with the right magic and protocol version. The MAC is not
/// checked: dispatch only.
std::optional<std::uint8_t> PeekSealedTag(std::span<const std::uint8_t> frame,
                                          std::uint32_t magic);

}  // namespace p4p::proto
