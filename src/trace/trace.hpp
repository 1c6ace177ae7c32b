#pragma once
///
/// \file trace.hpp
/// \brief Always-on tracing: per-thread event rings, counter sampling, and
/// Chrome trace-event JSON output.
///
/// The model is Charm++ Projections: each thread appends fixed-size binary
/// events to its own bounded ring (no locks, no allocation on the hot
/// path), a sampler thread snapshots machine-wide occupancy counters at a
/// fixed cadence, and at teardown TraceWriter merges every ring by
/// timestamp into one Chrome trace-event JSON file that chrome://tracing
/// and Perfetto load directly (one span track per worker/comm thread,
/// counter tracks, global phase markers).
///
/// Two gates keep the cost honest:
///  - compile time: the CMake option TRAM_TRACE (default ON) defines
///    TRAM_TRACE=1; when OFF every recording call below inlines to
///    nothing and the binary carries no tracing code on any hot path.
///  - run time: recording is off until set_enabled(true) (the benches
///    flip it when --trace=FILE is given). Disabled cost is one relaxed
///    atomic load and a predicted branch per call site.
///
/// Rings overwrite their oldest events when full and count what they
/// dropped — tracing never blocks and never allocates while recording.
/// Rings are keyed by thread *name* and live until clear(): a thread that
/// re-attaches under the same name (workers across Machine::run calls,
/// benchmark trials) appends to the same ring. Snapshot/merge/write are
/// only sound once writer threads have been joined (Machine::run joins
/// everything before returning).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace tram::trace {

/// Which subsystem recorded the event (one Perfetto category each).
enum class Cat : std::uint8_t {
  kRuntime = 0,
  kRoute = 1,
  kFault = 2,
  kShuffle = 3,
  kCounter = 4,
  kPhase = 5,
};

/// How the event renders: a point, a duration, a counter sample, or a
/// global phase marker.
enum class Kind : std::uint8_t {
  kInstant = 0,
  kComplete = 1,
  kCounter = 2,
  kPhase = 3,
};

/// Event ids (the `name` field of the emitted JSON — see event_name()).
enum EventId : std::uint16_t {
  // runtime
  kWorkerBusy = 1,   // Complete: a0 = messages dispatched this batch
  kCommPump = 2,     // Complete: a0 = egress + ingress items moved
  kQdRound = 3,      // Instant: a0 = sent - handled backlog, a1 = ok
  kPark = 4,         // Complete: a0 = 1 if an unpark ended it, 0 if timeout;
                     //   a1 = 1 if a worker's arrival hint shortened it
  // route
  kShip = 16,           // Instant: a0 = entries, a1 = slot | flag bits
  kRebucket = 17,       // Complete: a0 = inbound entries, a1 = hop
  kScatterSorted = 18,  // Instant: a0 = entries
  kBufferHighWater = 19,  // Instant: a0 = live reserved buffers
  kFlushIdle = 20,        // Instant: a0 = slots shipped by this flush
  // fault
  kRtoFire = 32,         // Instant: a0 = batch retransmits, a1 = src<<16|dst
  kFastRetransmit = 33,  // Instant: a0 = hole retransmits, a1 = src<<16|dst
  kSackShell = 34,       // Instant: a0 = newly sacked, a1 = src<<16|dst
  kCwnd = 35,            // Counter: a0 = floor(cwnd), a1 = src<<16|dst
  // shuffle
  kSliceFill = 48,   // Instant: a0 = records in the filled slice
  kSpill = 49,       // Complete: a0 = records spilled, a1 = worker
  kMergePass = 50,   // Instant: a0 = fan-in of this cascade pass, a1 = pass
  kMergeWorker = 51, // Complete: a0 = spill runs merged, a1 = worker
  // generic
  kCounterSample = 64,  // Counter: a0 = value, a1 = interned name
  kPhaseMark = 65,      // Phase: a1 = interned name
};

/// One ring entry. 32 bytes, fixed: timestamp, duration (Complete only),
/// two payload args, id, category, kind.
struct Event {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t a0 = 0;
  std::uint32_t a1 = 0;
  std::uint16_t id = 0;
  Cat cat = Cat::kRuntime;
  Kind kind = Kind::kInstant;
};
static_assert(sizeof(Event) == 32, "trace events are fixed 32-byte records");

namespace detail {
extern std::atomic<bool> g_enabled;
std::uint64_t now_ns() noexcept;
/// Append to the calling thread's ring (attaching an anonymous ring on
/// first use). Wait-free after the first call; never allocates thereafter.
void record(const Event& e) noexcept;
}  // namespace detail

#if TRAM_TRACE

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Timestamp for an eventual complete(): 0 (record nothing) when tracing
/// is off, so span sites pay only the enabled() branch.
inline std::uint64_t maybe_now() noexcept {
  return enabled() ? detail::now_ns() : 0;
}

inline void instant(Cat cat, std::uint16_t id, std::uint64_t a0 = 0,
                    std::uint32_t a1 = 0) noexcept {
  if (!enabled()) return;
  Event e;
  e.ts_ns = detail::now_ns();
  e.a0 = a0;
  e.a1 = a1;
  e.id = id;
  e.cat = cat;
  e.kind = Kind::kInstant;
  detail::record(e);
}

/// Close a span opened with maybe_now(). No-op when t0 == 0 (tracing was
/// off at open) or tracing is off now.
inline void complete(Cat cat, std::uint16_t id, std::uint64_t t0,
                     std::uint64_t a0 = 0, std::uint32_t a1 = 0) noexcept {
  if (t0 == 0 || !enabled()) return;
  const std::uint64_t now = detail::now_ns();
  Event e;
  e.ts_ns = t0;
  e.dur_ns = now > t0 ? now - t0 : 0;
  e.a0 = a0;
  e.a1 = a1;
  e.id = id;
  e.cat = cat;
  e.kind = Kind::kComplete;
  detail::record(e);
}

/// Counter sample on a named series (name pre-interned — see intern()).
inline void counter(std::uint32_t name_idx, std::uint64_t value) noexcept {
  if (!enabled()) return;
  Event e;
  e.ts_ns = detail::now_ns();
  e.a0 = value;
  e.a1 = name_idx;
  e.id = kCounterSample;
  e.cat = Cat::kCounter;
  e.kind = Kind::kCounter;
  detail::record(e);
}

/// Per-channel cwnd counter (fault layer): rendered as its own counter
/// track per (src, dst) pair (a1 = src << 16 | dst).
inline void cwnd_sample(std::uint64_t cwnd, std::uint32_t chan) noexcept {
  if (!enabled()) return;
  Event e;
  e.ts_ns = detail::now_ns();
  e.a0 = cwnd;
  e.a1 = chan;
  e.id = kCwnd;
  e.cat = Cat::kFault;
  e.kind = Kind::kCounter;
  detail::record(e);
}

#else  // !TRAM_TRACE — every recording call inlines to nothing.

constexpr bool enabled() noexcept { return false; }
constexpr std::uint64_t maybe_now() noexcept { return 0; }
inline void instant(Cat, std::uint16_t, std::uint64_t = 0,
                    std::uint32_t = 0) noexcept {}
inline void complete(Cat, std::uint16_t, std::uint64_t, std::uint64_t = 0,
                     std::uint32_t = 0) noexcept {}
inline void counter(std::uint32_t, std::uint64_t) noexcept {}
inline void cwnd_sample(std::uint64_t, std::uint32_t) noexcept {}

#endif  // TRAM_TRACE

/// ---- control plane (compiled in both modes; cheap, never hot) ----

/// Master runtime switch. Enable before Machine::run; disable before
/// write_chrome_json. In TRAM_TRACE=OFF builds this records the intent
/// but nothing is ever captured.
void set_enabled(bool on) noexcept;

/// Ring capacity in events for rings created after this call (default
/// 8192 ≈ 256 KiB/thread). Tests shrink it to exercise wrap.
void set_ring_capacity(std::size_t events) noexcept;

/// Attach the calling thread to the ring named `name`, creating it on
/// first use or re-attaching to an existing same-named ring (runs and
/// trials append to one track). No-op while tracing is disabled.
void set_thread_name(const std::string& name);

/// Intern a counter/phase name; the returned index is stable until
/// clear(). Takes a lock — intern once, sample many.
std::uint32_t intern(const std::string& s);
const std::string& interned(std::uint32_t idx);

/// Global phase marker: starts a new interval for the per-phase summary
/// and drops a global instant on the calling thread's track.
void phase(const std::string& name);

/// Sum of overwritten (dropped) events across all rings.
std::uint64_t dropped_events();

/// Drop every ring, phase, and interned string (tests; between benches).
/// Only sound when no other thread is recording.
void clear();

/// Human-readable name for an EventId ("worker busy", "rto fire", ...).
const char* event_name(std::uint16_t id) noexcept;

/// ---- snapshot / merge / write (call only after writers joined) ----

struct RingSnapshot {
  std::string name;
  std::uint64_t dropped = 0;
  std::vector<Event> events;  // oldest first
};
std::vector<RingSnapshot> snapshot_rings();

struct MergedEvent {
  std::uint32_t ring = 0;  // index into snapshot_rings() order
  Event e;
};
/// All events from all rings, sorted by (ts, ring, ring position) — the
/// stable tie-break keeps each ring's relative order.
std::vector<MergedEvent> merged_events();

/// Merge every ring and write Chrome trace-event JSON ("traceEvents"
/// array: thread_name metadata, X/i/C events, global phase instants).
/// Valid-but-near-empty in TRAM_TRACE=OFF builds. Returns false on I/O
/// error.
bool write_chrome_json(const std::string& path);

/// Per-phase busy/overhead/idle percentages per worker track, computed
/// from the merged stream (spans clipped to phase intervals).
void print_phase_summary(std::FILE* out = stdout);

/// ---- counter sampler ----

/// Periodically samples registered sources into counter events from its
/// own thread (ring "counters"). Sources must be safe to read from a
/// foreign thread (atomics or lock-protected) — the TSan job runs traced
/// machines. Machine::run owns one while tracing is enabled.
class CounterSampler {
 public:
  explicit CounterSampler(std::uint64_t interval_ns);
  ~CounterSampler();
  CounterSampler(const CounterSampler&) = delete;
  CounterSampler& operator=(const CounterSampler&) = delete;

  /// Register before start().
  void add(const std::string& name, std::function<std::uint64_t()> fn);
  void start();
  void stop();  // idempotent; joins the sampler thread

 private:
  struct Source {
    std::uint32_t name_idx;
    std::function<std::uint64_t()> fn;
  };
  std::uint64_t interval_ns_;
  std::vector<Source> sources_;
  std::atomic<bool> stop_{true};
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace tram::trace
