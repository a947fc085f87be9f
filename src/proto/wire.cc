#include "proto/wire.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace p4p::proto {

void Writer::str(std::string_view s) {
  if (s.size() > 0xFFFF) {
    throw std::length_error("Writer::str: string too long");
  }
  reserve(2 + s.size());
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::f64_vec(std::span<const double> values) {
  if (values.size() > 0xFFFFFFFFULL) {
    throw std::length_error("Writer::f64_vec: vector too long");
  }
  // The hot encoder (a portal external view is one n^2-element f64_vec):
  // one allocation, then a byte-swapping copy of whole words.
  reserve(4 + values.size() * 8);
  u32(static_cast<std::uint32_t>(values.size()));
  const std::size_t at = buf_.size();
  buf_.resize(at + values.size() * 8);
  std::uint8_t* out = buf_.data() + at;
  for (const double v : values) {
    StoreBig(std::bit_cast<std::uint64_t>(v), out);
    out += 8;
  }
}

void Writer::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Writer::blob(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > 0xFFFFFFFFULL) {
    throw std::length_error("Writer::blob: blob too long");
  }
  reserve(4 + bytes.size());
  u32(static_cast<std::uint32_t>(bytes.size()));
  raw(bytes);
}

std::string Reader::str() {
  const std::uint16_t len = u16();
  const std::uint8_t* p = nullptr;
  if (!take(len, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<std::uint8_t> Reader::blob() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = nullptr;
  // take() validates the length against the remaining buffer before any
  // allocation, so a hostile prefix cannot trigger a huge reserve.
  if (!take(len, &p)) return {};
  return std::vector<std::uint8_t>(p, p + len);
}

std::vector<double> Reader::f64_vec() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = nullptr;
  // take() bounds the length by the remaining bytes before any allocation.
  if (!take(static_cast<std::size_t>(len) * 8, &p)) return {};
  std::vector<double> out(len);
  for (double& v : out) {
    v = std::bit_cast<double>(LoadBig<std::uint64_t>(p));
    p += 8;
  }
  return out;
}

// --- SipHash-2-4, SealMac and the sealed envelope ---------------------------

namespace {

/// Reads a little-endian word, the order SipHash and NH consume.
std::uint64_t LoadLe(const std::uint8_t* p) {
  std::uint64_t m;
  std::memcpy(&m, p, 8);
  if constexpr (std::endian::native == std::endian::big) m = __builtin_bswap64(m);
  return m;
}

void StoreLe(std::uint64_t v, std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

__extension__ using U128 = unsigned __int128;

/// A chunk digest: two 128-bit NH sums.
constexpr std::size_t kNhDigestBytes = 32;

/// NH-Toeplitz digest of one chunk of at most kNhChunkBytes, zero-padded to
/// a multiple of 16 bytes, into `out` as four little-endian words.
void NhChunk(const std::uint64_t* k, const std::uint8_t* p, std::size_t n,
             std::uint8_t* out) {
  U128 a = 0;
  U128 b = 0;
  const auto pair = [&](const std::uint8_t* q) {
    const std::uint64_t m0 = LoadLe(q);
    const std::uint64_t m1 = LoadLe(q + 8);
    a += U128{m0 + k[0]} * (m1 + k[1]);
    b += U128{m0 + k[2]} * (m1 + k[3]);
    k += 2;
  };
  for (; n >= 16; n -= 16, p += 16) pair(p);
  if (n > 0) {
    std::uint8_t pad[16] = {};
    std::memcpy(pad, p, n);
    pair(pad);
  }
  StoreLe(static_cast<std::uint64_t>(a), out);
  StoreLe(static_cast<std::uint64_t>(a >> 64), out + 8);
  StoreLe(static_cast<std::uint64_t>(b), out + 16);
  StoreLe(static_cast<std::uint64_t>(b >> 64), out + 24);
}

}  // namespace

SipHasher::SipHasher(const SealKey& key) { detail::SipInit(v_, key.k0(), key.k1()); }

void SipHasher::update(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::size_t fill = len_ & 7;
  len_ += n;
  if (fill != 0) {
    for (; n > 0 && fill < 8; --n, ++fill) tail_ |= std::uint64_t{*p++} << (8 * fill);
    if (fill < 8) return;
    detail::SipCompress(v_, tail_);
    tail_ = 0;
  }
  // Locals, not members: the compiler cannot prove the input bytes do not
  // alias the state, and would otherwise store it back every word.
  std::uint64_t v[4] = {v_[0], v_[1], v_[2], v_[3]};
  for (; n >= 8; n -= 8, p += 8) detail::SipCompress(v, LoadLe(p));
  std::copy(v, v + 4, v_);
  for (int shift = 0; n > 0; --n, shift += 8) tail_ |= std::uint64_t{*p++} << shift;
}

std::uint64_t SipHasher::finish() const {
  std::uint64_t v[4] = {v_[0], v_[1], v_[2], v_[3]};
  return detail::SipFinish(v, tail_ | (len_ << 56));
}

std::uint64_t SipHash24(const SealKey& key, std::span<const std::uint8_t> bytes) {
  SipHasher hasher(key);
  hasher.update(bytes);
  return hasher.finish();
}

std::uint64_t SealMac(const SealKey& key, std::span<const std::uint8_t> bytes) {
  // SipHash's input is staged and fed in long updates: a small frame's whole
  // outer input (domain, one digest, length) is one update.
  std::uint8_t outer[kSealMacDomain.size() + 16 * kNhDigestBytes + 8];
  std::memcpy(outer, kSealMacDomain.data(), kSealMacDomain.size());
  std::size_t staged = kSealMacDomain.size();
  SipHasher hasher(key);
  for (std::size_t at = 0; at < bytes.size(); at += kNhChunkBytes) {
    if (staged + kNhDigestBytes + 8 > sizeof(outer)) {
      hasher.update(std::span(outer, staged));
      staged = 0;
    }
    const std::size_t n = std::min(kNhChunkBytes, bytes.size() - at);
    NhChunk(key.nh().data(), bytes.data() + at, n, outer + staged);
    staged += kNhDigestBytes;
  }
  StoreLe(bytes.size(), outer + staged);
  hasher.update(std::span(outer, staged + 8));
  return hasher.finish();
}

Writer BeginSealed(std::uint32_t magic, std::uint8_t tag, std::size_t payload_bytes) {
  Writer w;
  w.reserve(kSealHeaderBytes + payload_bytes + kSealMacBytes);
  w.u32(magic);
  w.u8(kProtocolVersion);
  w.u8(tag);
  return w;
}

std::vector<std::uint8_t> Seal(Writer& w, const SealKey& key) {
  w.u64(SealMac(key, w.bytes()));
  return w.take();
}

std::optional<std::span<const std::uint8_t>> Open(std::span<const std::uint8_t> frame,
                                                  std::uint32_t magic, std::uint8_t tag,
                                                  const SealKey& key) {
  if (PeekSealedTag(frame, magic) != tag ||
      frame.size() < kSealHeaderBytes + kSealMacBytes) {
    return std::nullopt;
  }
  const auto body = frame.first(frame.size() - kSealMacBytes);
  if (Reader(frame.subspan(body.size())).u64() != SealMac(key, body)) {
    return std::nullopt;
  }
  return body.subspan(kSealHeaderBytes);
}

std::optional<std::uint8_t> PeekSealedTag(std::span<const std::uint8_t> frame,
                                          std::uint32_t magic) {
  Reader r(frame);
  const bool framed = r.u32() == magic && r.u8() == kProtocolVersion;
  const std::uint8_t tag = r.u8();
  if (!framed || !r.ok()) return std::nullopt;
  return tag;
}

}  // namespace p4p::proto
