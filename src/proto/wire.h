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
// where the MAC is SealMac over every byte before it: an NH universal hash
// of each 1 KiB chunk, then keyed SipHash-2-4 over the chunk digests and the
// byte length. Portal requests and responses (messages.h) are not sealed:
// clients hold no key.
#pragma once

#include <array>
#include <bit>
#include <concepts>
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

namespace detail {

/// `v` with its bytes in wire (big-endian) order, or back: the swap is its
/// own inverse.
template <std::unsigned_integral T>
constexpr T WireOrder(T v) {
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

}  // namespace detail

/// Stores `v` big-endian (wire order) at `p`.
template <std::unsigned_integral T>
void StoreBig(T v, std::uint8_t* p) {
  v = detail::WireOrder(v);
  std::memcpy(p, &v, sizeof(T));
}

/// Loads a big-endian (wire order) `T` from `p`.
template <std::unsigned_integral T>
T LoadBig(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return detail::WireOrder(v);
}

class Writer {
 public:
  /// Pre-allocates room for `n` more bytes. The bulk appenders (str,
  /// f64_vec) reserve for themselves; message encoders with per-element
  /// loops of scalar writes should reserve their exact footprint up front
  /// so encoding is a single allocation.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  /// Appends `v` big-endian: one resize and one store.
  template <std::unsigned_integral T>
  void put(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    StoreBig(v, buf_.data() + at);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
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

  /// Reads a big-endian `T` with one bounds check; 0 once !ok().
  template <std::unsigned_integral T>
  T get() {
    const std::uint8_t* p = nullptr;
    return take(sizeof(T), &p) ? LoadBig<T>(p) : T{0};
  }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();
  std::vector<double> f64_vec();
  std::vector<std::uint8_t> blob();

  bool ok() const { return ok_; }
  /// True when the whole buffer was consumed and no error occurred.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n, const std::uint8_t** out) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    *out = data_.data() + pos_;
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

namespace detail {

constexpr void SipRound(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
                        std::uint64_t& v3) {
  v0 += v1; v1 = std::rotl(v1, 13); v1 ^= v0; v0 = std::rotl(v0, 32);
  v2 += v3; v3 = std::rotl(v3, 16); v3 ^= v2;
  v0 += v3; v3 = std::rotl(v3, 21); v3 ^= v0;
  v2 += v1; v1 = std::rotl(v1, 17); v1 ^= v2; v2 = std::rotl(v2, 32);
}

/// Two SipRounds on one message word (the "2" of SipHash-2-4).
constexpr void SipCompress(std::uint64_t* v, std::uint64_t m) {
  v[3] ^= m;
  SipRound(v[0], v[1], v[2], v[3]);
  SipRound(v[0], v[1], v[2], v[3]);
  v[0] ^= m;
}

constexpr void SipInit(std::uint64_t* v, std::uint64_t k0, std::uint64_t k1) {
  v[0] = k0 ^ 0x736f6d6570736575ULL;
  v[1] = k1 ^ 0x646f72616e646f6dULL;
  v[2] = k0 ^ 0x6c7967656e657261ULL;
  v[3] = k1 ^ 0x7465646279746573ULL;
}

/// Compresses the last block (the tail bytes and the length byte) and runs
/// the four finalization rounds.
constexpr std::uint64_t SipFinish(std::uint64_t* v, std::uint64_t last_block) {
  SipCompress(v, last_block);
  v[2] ^= 0xff;
  for (int i = 0; i < 4; ++i) SipRound(v[0], v[1], v[2], v[3]);
  return v[0] ^ v[1] ^ v[2] ^ v[3];
}

/// SipHash-2-4 under (k0, k1) of the 8-byte little-endian encoding of `m`.
constexpr std::uint64_t SipHashWord(std::uint64_t k0, std::uint64_t k1, std::uint64_t m) {
  std::uint64_t v[4] = {};
  SipInit(v, k0, k1);
  SipCompress(v, m);
  return SipFinish(v, std::uint64_t{8} << 56);  // empty tail, length 8
}

}  // namespace detail

/// SealMac hashes its input in chunks of this many bytes.
inline constexpr std::size_t kNhChunkBytes = 1024;
/// NH key words: one per chunk word, plus the one-pair (two-word) offset of
/// the second Toeplitz pass.
inline constexpr std::size_t kNhKeyWords = kNhChunkBytes / 8 + 2;

/// 128-bit key sealing an envelope. Federation and telemetry components take
/// a per-deployment key; whoever holds it can mint frames. Every keyed
/// component exposes key(); `key() == kPublicSealKey` flags one built
/// without a deployment key.
///
/// The constructor derives SealMac's NH key once: word i is
/// SipHash24(K, u64 i), an 8-byte input no SealMac outer input (at least 16
/// bytes) can equal. It is constexpr, so constant keys are derived at
/// compile time.
class SealKey {
 public:
  constexpr SealKey(std::uint64_t k0, std::uint64_t k1) : k0_(k0), k1_(k1) {
    for (std::size_t i = 0; i < kNhKeyWords; ++i) nh_[i] = detail::SipHashWord(k0, k1, i);
  }

  constexpr std::uint64_t k0() const { return k0_; }
  constexpr std::uint64_t k1() const { return k1_; }
  constexpr const std::array<std::uint64_t, kNhKeyWords>& nh() const { return nh_; }

  /// The NH words are a function of (k0, k1), so those decide equality.
  friend constexpr bool operator==(const SealKey& a, const SealKey& b) {
    return a.k0_ == b.k0_ && a.k1_ == b.k1_;
  }

 private:
  std::uint64_t k0_;
  std::uint64_t k1_;
  std::array<std::uint64_t, kNhKeyWords> nh_{};
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

/// Leads SealMac's SipHash input, so it is never a plain SipHash of a frame.
inline constexpr std::string_view kSealMacDomain = "p4p-nh64";

/// The envelope MAC: a hash-then-PRF construction (UMAC, RFC 4418).
///   * Message words are read little-endian, 1 KiB per chunk; the last
///     chunk is zero-padded to a multiple of 16 bytes.
///   * A chunk's digest is NH-Toeplitz over 64-bit words, two passes:
///     sum_i (m[2i] + k[2i+2j]) * (m[2i+1] + k[2i+1+2j]) mod 2^128 for
///     j = 0, 1 (additions mod 2^64), with k = key.nh(). Distinct chunks
///     collide with probability at most 2^-128.
///   * The tag is SipHash24(key, kSealMacDomain | digest_1 | ... | digest_n
///     | u64 byte length), each digest as four little-endian words (pass 1
///     low, pass 1 high, pass 2 low, pass 2 high). The length separates
///     inputs that differ only by trailing zeros.
/// Forging one tag after q sealed frames succeeds with probability at most
/// q^2 * 2^-128 + 2^-64 plus SipHash's PRF advantage.
std::uint64_t SealMac(const SealKey& key, std::span<const std::uint8_t> bytes);

/// Envelope framing: magic + protocol version + tag, and the trailing MAC.
inline constexpr std::size_t kSealHeaderBytes = 6;
inline constexpr std::size_t kSealMacBytes = 8;

/// A Writer holding an envelope header, with room for `payload_bytes` and
/// the MAC reserved.
Writer BeginSealed(std::uint32_t magic, std::uint8_t tag, std::size_t payload_bytes);
/// Appends the SealMac over everything written to `w` and returns the frame.
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
