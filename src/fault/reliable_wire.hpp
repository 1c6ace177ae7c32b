#pragma once
///
/// \file reliable_wire.hpp
/// \brief On-the-wire framing of the reliability protocol.
///
/// When fault injection is on, every cross-process message — routed or
/// direct, data or control — is prefixed with a ReliableHeader by
/// Reliability::send. The receiver's Reliability::on_inbound parses it,
/// applies the piggybacked cumulative ack + SACK bitmap, dedups data
/// sequence numbers, and strips the header (a zero-copy subref of the
/// same slab) before the message reaches its endpoint — the layers above
/// never see the frame.
///
/// Twenty-four bytes, a multiple of alignof(WireEntry) (8), so routed/WsP
/// entries behind the stripped header still decode aligned in place.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

namespace tram::fault {

struct ReliableHeader {
  /// Guards against an unframed payload landing on the reliable path (or
  /// a framed one escaping it).
  std::uint32_t magic = kMagic;
  /// kData carries an application payload behind the header; kAck is a
  /// standalone cumulative ack the receiver's on_inbound consumes.
  std::uint8_t kind = kData;
  std::uint8_t flags = 0;
  /// Source process of this message: names the (src, dst) channel the
  /// sequence number below lives on.
  std::uint16_t src_proc = 0;
  /// kData: per-(src, dst) channel sequence number, assigned at first
  /// send and reused verbatim by every retransmit of the same payload.
  std::uint32_t seq = 0;
  /// Cumulative ack for the reverse channel (dst -> src): every sequence
  /// number serially before this value has been received. Piggybacked on
  /// all traffic; monotonic, so stale values are harmless.
  std::uint32_t ack = 0;
  /// Selective ack for the reverse channel: bit i set means sequence
  /// number `ack + 1 + i` (serial arithmetic, so wrap-safe) has been
  /// received out of order. One ack round names every hole below the
  /// highest received sequence, which is what lets the sender recover a
  /// k-loss burst in one retransmit round instead of k head-of-line RTOs.
  /// A (ack, sack) pair is internally consistent even when stale: the
  /// bits are offsets from its own ack field, and marking an already
  /// acked/sacked sequence again is idempotent.
  std::uint64_t sack = 0;

  static constexpr std::uint32_t kMagic = 0x52454c59;  // "RELY"
  static constexpr std::uint8_t kData = 1;
  static constexpr std::uint8_t kAck = 2;
  /// Width of the SACK window beyond the cumulative ack. FaultConfig
  /// validates window_max <= kSackBits so every pacing-admitted in-flight
  /// sequence is addressable by one bitmap.
  static constexpr std::uint32_t kSackBits = 64;
};
static_assert(sizeof(ReliableHeader) == 24);
static_assert(sizeof(ReliableHeader) % 8 == 0);

/// The sequence number a SACK bit names: bit i of a bitmap carried next
/// to cumulative ack `ack` covers seq `ack + 1 + i`. Plain uint32
/// arithmetic wraps exactly like the sequence space (RFC 1982 serial
/// numbers), so the mapping is correct across the 2^32 boundary.
inline std::uint32_t sack_bit_seq(std::uint32_t ack,
                                  std::uint32_t bit) noexcept {
  return ack + 1u + bit;
}

/// Build the SACK bitmap for a receiver whose next expected sequence is
/// `cum` from its out-of-order set (any iterable of uint32 sequence
/// numbers serially after cum). Sequences beyond the 64-bit window are
/// simply not reported — the cumulative ack still covers them once the
/// holes below fill.
template <typename OooSet>
std::uint64_t build_sack_bitmap(std::uint32_t cum, const OooSet& ooo) {
  std::uint64_t bits = 0;
  for (const std::uint32_t s : ooo) {
    const std::uint32_t off = s - (cum + 1u);  // wraps with the seq space
    if (off < ReliableHeader::kSackBits) bits |= (1ull << off);
  }
  return bits;
}

/// Invoke fn(seq) for every sequence number a (ack, sack) pair reports
/// received out of order, in ascending serial order.
template <typename Fn>
void for_each_sacked(std::uint32_t ack, std::uint64_t sack, Fn&& fn) {
  while (sack != 0) {
    const int bit = __builtin_ctzll(sack);
    sack &= sack - 1;
    fn(sack_bit_seq(ack, static_cast<std::uint32_t>(bit)));
  }
}

/// Parse and validate a reliable message prefix. Truncation, an unknown
/// magic, or an unknown kind is wire corruption, not a recoverable
/// condition — abort in every build mode (mirrors parse_routed_header).
inline ReliableHeader parse_reliable_header(
    std::span<const std::byte> bytes) {
  ReliableHeader h;
  if (bytes.size() < sizeof h) {
    std::fprintf(stderr, "reliable message truncated (%zu bytes)\n",
                 bytes.size());
    std::abort();
  }
  std::memcpy(&h, bytes.data(), sizeof h);
  if (h.magic != ReliableHeader::kMagic) {
    std::fprintf(stderr, "reliable message with bad magic %x\n", h.magic);
    std::abort();
  }
  if (h.kind != ReliableHeader::kData && h.kind != ReliableHeader::kAck) {
    std::fprintf(stderr, "reliable message with unknown kind %u\n", h.kind);
    std::abort();
  }
  return h;
}

}  // namespace tram::fault
