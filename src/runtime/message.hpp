#pragma once
///
/// \file message.hpp
/// \brief Runtime message envelope and POD payload codec.
///
/// A Message is the unit of message-driven execution: it names an endpoint
/// (registered handler) and a destination worker, and carries an opaque
/// byte payload: one pooled, refcounted slab (util::PayloadRef). Within a
/// process messages move by moving the handle; between processes they
/// ride inside a net::Packet (same payload handle, so the worker -> comm
/// thread -> fabric -> worker path never copies or allocates).
///
/// Payloads are arrays of trivially-copyable items; the codec below is a
/// checked memcpy in (encode) and a checked reinterpret view out (decode).

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/payload_pool.hpp"
#include "util/types.hpp"

namespace tram::rt {

struct Message {
  EndpointId endpoint = 0;
  WorkerId dst_worker = kInvalidWorker;
  WorkerId src_worker = kInvalidWorker;
  /// For process-addressed messages (dst_worker == kInvalidWorker): the
  /// destination process. The receiving side picks a local worker.
  ProcId dst_proc_hint = -1;
  bool expedited = false;
  /// Transport hops already taken by the payload's content: 0 for a ship
  /// off the originating worker, >0 when a topological-routing
  /// intermediate re-ships re-aggregated entries (core/tram.hpp). Transports
  /// count hops > 0 sends as forwarded traffic.
  std::uint8_t hops = 0;
  util::PayloadRef payload;
};

/// Serialize a span of trivially-copyable items into a pooled payload.
template <typename T>
  requires std::is_trivially_copyable_v<T>
util::PayloadRef encode_payload(std::span<const T> items) {
  util::PayloadRef bytes =
      util::PayloadPool::global().acquire(items.size_bytes());
  if (!items.empty()) {
    std::memcpy(bytes.data(), items.data(), items.size_bytes());
  }
  return bytes;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
util::PayloadRef encode_payload(const T& item) {
  return encode_payload(std::span<const T>(&item, 1));
}

/// View a payload as items of T. The payload must be a whole number of T;
/// the check holds in release builds too (a truncated payload here means
/// wire corruption, not a recoverable condition). An empty payload decodes
/// to an empty span without ever forming a pointer.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<const T> decode_payload(std::span<const std::byte> bytes) {
  if (bytes.empty()) return {};
  if (bytes.size() % sizeof(T) != 0) {
    std::fprintf(stderr,
                 "decode_payload: %zu bytes is not a multiple of the "
                 "item size %zu\n",
                 bytes.size(), sizeof(T));
    std::abort();
  }
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<const T> decode_payload(const util::PayloadRef& payload) {
  return decode_payload<T>(payload.span());
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<const T> decode_payload(const Message& m) {
  return decode_payload<T>(m.payload.span());
}

}  // namespace tram::rt
