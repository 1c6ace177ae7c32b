#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/timebase.hpp"

namespace tram::trace {

namespace detail {
std::atomic<bool> g_enabled{false};

std::uint64_t now_ns() noexcept { return util::now_ns(); }
}  // namespace detail

namespace {

/// One thread's event ring. Single producer (the attached thread);
/// readers snapshot only after the producer has been joined, so slot
/// writes need no synchronization beyond the release store on head_.
struct Ring {
  explicit Ring(std::string n, std::size_t cap)
      : name(std::move(n)), buf(cap), capacity(cap) {}

  void push(const Event& e) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    buf[static_cast<std::size_t>(h % capacity)] = e;
    head.store(h + 1, std::memory_order_release);
  }

  std::string name;
  std::vector<Event> buf;
  std::size_t capacity;
  /// Monotone event count; the ring holds the last min(head, capacity)
  /// events and dropped (overwrote) head - capacity when head > capacity.
  std::atomic<std::uint64_t> head{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<std::string> strings;
  std::unordered_map<std::string, std::uint32_t> string_idx;
  std::size_t ring_capacity = 8192;
  std::uint64_t anon_counter = 0;
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal: threads may outlive main
  return *r;
}

thread_local Ring* t_ring = nullptr;

Ring* attach_locked(Registry& reg, const std::string& name) {
  for (auto& r : reg.rings) {
    if (r->name == name) return r.get();
  }
  reg.rings.push_back(std::make_unique<Ring>(name, reg.ring_capacity));
  return reg.rings.back().get();
}

const char* cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::kRuntime: return "runtime";
    case Cat::kRoute: return "route";
    case Cat::kFault: return "fault";
    case Cat::kShuffle: return "shuffle";
    case Cat::kCounter: return "counter";
    case Cat::kPhase: return "phase";
  }
  return "?";
}

}  // namespace

namespace detail {

void record(const Event& e) noexcept {
  Ring* r = t_ring;
  if (r == nullptr) {
    // First event from an unnamed thread: attach an anonymous ring. The
    // one-time lock is off every later record.
    auto& reg = registry();
    std::lock_guard<std::mutex> g(reg.mu);
    r = attach_locked(reg, "thread-" + std::to_string(reg.anon_counter++));
    t_ring = r;
  }
  r->push(e);
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) noexcept {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  reg.ring_capacity = events == 0 ? 1 : events;
}

void set_thread_name(const std::string& name) {
#if TRAM_TRACE
  if (!enabled()) return;
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  t_ring = attach_locked(reg, name);
#else
  (void)name;
#endif
}

std::uint32_t intern(const std::string& s) {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  if (auto it = reg.string_idx.find(s); it != reg.string_idx.end()) {
    return it->second;
  }
  const auto idx = static_cast<std::uint32_t>(reg.strings.size());
  reg.strings.push_back(s);
  reg.string_idx.emplace(s, idx);
  return idx;
}

const std::string& interned(std::uint32_t idx) {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  static const std::string unknown = "?";
  return idx < reg.strings.size() ? reg.strings[idx] : unknown;
}

void phase(const std::string& name) {
#if TRAM_TRACE
  if (!enabled()) return;
  Event e;
  e.ts_ns = detail::now_ns();
  e.a1 = intern(name);
  e.id = kPhaseMark;
  e.cat = Cat::kPhase;
  e.kind = Kind::kPhase;
  detail::record(e);
#else
  (void)name;
#endif
}

std::uint64_t dropped_events() {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  std::uint64_t total = 0;
  for (const auto& r : reg.rings) {
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    if (h > r->capacity) total += h - r->capacity;
  }
  return total;
}

void clear() {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  // Contract: no other thread is recording. The calling thread's cached
  // ring pointer is the only one that can dangle — reset it.
  t_ring = nullptr;
  reg.rings.clear();
  reg.strings.clear();
  reg.string_idx.clear();
  reg.anon_counter = 0;
}

const char* event_name(std::uint16_t id) noexcept {
  switch (id) {
    case kWorkerBusy: return "worker busy";
    case kCommPump: return "comm pump";
    case kQdRound: return "qd round";
    case kPark: return "park";
    case kShip: return "ship";
    case kRebucket: return "rebucket";
    case kScatterSorted: return "scatter sorted";
    case kBufferHighWater: return "buffer high-water";
    case kFlushIdle: return "flush on idle";
    case kRtoFire: return "rto fire";
    case kFastRetransmit: return "fast retransmit";
    case kSackShell: return "sack shells";
    case kCwnd: return "cwnd";
    case kSliceFill: return "slice fill";
    case kSpill: return "spill";
    case kMergePass: return "merge pass";
    case kMergeWorker: return "merge worker";
    case kCounterSample: return "counter";
    case kPhaseMark: return "phase";
  }
  return "event";
}

std::vector<RingSnapshot> snapshot_rings() {
  auto& reg = registry();
  std::lock_guard<std::mutex> g(reg.mu);
  std::vector<RingSnapshot> out;
  out.reserve(reg.rings.size());
  for (const auto& r : reg.rings) {
    RingSnapshot s;
    s.name = r->name;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    const std::uint64_t n = h < r->capacity ? h : r->capacity;
    s.dropped = h - n;
    s.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      s.events.push_back(r->buf[static_cast<std::size_t>(i % r->capacity)]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<MergedEvent> merged_events() {
  const auto rings = snapshot_rings();
  std::vector<MergedEvent> all;
  std::size_t total = 0;
  for (const auto& r : rings) total += r.events.size();
  all.reserve(total);
  for (std::uint32_t ri = 0; ri < rings.size(); ++ri) {
    for (const Event& e : rings[ri].events) {
      all.push_back(MergedEvent{ri, e});
    }
  }
  // stable_sort keeps each ring's own (record-order) sequence for equal
  // timestamps; the ring index makes cross-ring ties deterministic too.
  std::stable_sort(all.begin(), all.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.e.ts_ns != b.e.ts_ns) return a.e.ts_ns < b.e.ts_ns;
                     return a.ring < b.ring;
                   });
  return all;
}

bool write_chrome_json(const std::string& path) {
  const auto rings = snapshot_rings();
  const auto all = merged_events();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& m : all) t0 = std::min(t0, m.e.ts_ns);
  if (t0 == UINT64_MAX) t0 = 0;
  const auto us = [t0](std::uint64_t ns) {
    return static_cast<double>(ns - t0) * 1e-3;
  };

  std::fprintf(f, "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
               "\"process_name\", \"args\": {\"name\": \"tram\"}}");
  for (std::uint32_t ri = 0; ri < rings.size(); ++ri) {
    std::fprintf(f,
                 ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 ri + 1, rings[ri].name.c_str());
  }
  for (const auto& m : all) {
    const Event& e = m.e;
    const unsigned tid = m.ring + 1;
    switch (e.kind) {
      case Kind::kComplete:
        std::fprintf(
            f,
            ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
            "\"dur\": %.3f, \"name\": \"%s\", \"cat\": \"%s\", "
            "\"args\": {\"a0\": %" PRIu64 ", \"a1\": %u}}",
            tid, us(e.ts_ns), static_cast<double>(e.dur_ns) * 1e-3,
            event_name(e.id), cat_name(e.cat), e.a0, e.a1);
        break;
      case Kind::kInstant:
        std::fprintf(
            f,
            ",\n{\"ph\": \"i\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
            "\"s\": \"t\", \"name\": \"%s\", \"cat\": \"%s\", "
            "\"args\": {\"a0\": %" PRIu64 ", \"a1\": %u}}",
            tid, us(e.ts_ns), event_name(e.id), cat_name(e.cat), e.a0,
            e.a1);
        break;
      case Kind::kCounter: {
        std::string name;
        if (e.id == kCwnd) {
          name = "cwnd " + std::to_string(e.a1 >> 16) + "->" +
                 std::to_string(e.a1 & 0xffffu);
        } else {
          name = interned(e.a1);
        }
        std::fprintf(f,
                     ",\n{\"ph\": \"C\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"name\": \"%s\", "
                     "\"args\": {\"value\": %" PRIu64 "}}",
                     tid, us(e.ts_ns), name.c_str(), e.a0);
        break;
      }
      case Kind::kPhase:
        std::fprintf(f,
                     ",\n{\"ph\": \"i\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"s\": \"g\", \"name\": "
                     "\"phase: %s\", \"cat\": \"phase\"}",
                     tid, us(e.ts_ns), interned(e.a1).c_str());
        break;
    }
  }
  std::uint64_t dropped = 0;
  for (const auto& r : rings) dropped += r.dropped;
  std::fprintf(f,
               "\n],\n\"otherData\": {\"dropped_events\": %" PRIu64
               ", \"rings\": %zu}\n}\n",
               dropped, rings.size());
  const bool ok = std::fclose(f) == 0;
  if (ok) {
    std::printf("trace: wrote %zu events (%zu tracks, %" PRIu64
                " dropped) to %s\n",
                all.size(), rings.size(), dropped, path.c_str());
  }
  return ok;
}

void print_phase_summary(std::FILE* out) {
  const auto rings = snapshot_rings();
  const auto all = merged_events();
  if (all.empty()) return;

  // Phase boundaries from the merged stream; a synthetic "(run)" phase
  // covers everything before the first explicit marker.
  struct Phase {
    std::string name;
    std::uint64_t t0, t1;
  };
  std::uint64_t max_ts = 0;
  for (const auto& m : all) {
    max_ts = std::max(max_ts, m.e.ts_ns + m.e.dur_ns);
  }
  std::vector<Phase> phases;
  for (const auto& m : all) {
    if (m.e.kind != Kind::kPhase) continue;
    if (!phases.empty()) phases.back().t1 = m.e.ts_ns;
    phases.push_back(Phase{interned(m.e.a1), m.e.ts_ns, max_ts});
  }
  if (phases.empty()) {
    phases.push_back(Phase{"(run)", all.front().e.ts_ns, max_ts});
  }

  std::fprintf(out, "\n-- per-phase thread summary (busy/ovh/idle %%) --\n");
  std::fprintf(out, "%-28s %-12s %7s %7s %7s\n", "phase", "thread", "busy%",
               "ovh%", "idle%");
  for (const Phase& p : phases) {
    const double wall = static_cast<double>(p.t1 - p.t0);
    if (wall <= 0.0) continue;
    for (std::uint32_t ri = 0; ri < rings.size(); ++ri) {
      const std::string& name = rings[ri].name;
      const bool is_worker = name.rfind("worker", 0) == 0;
      const bool is_comm = name.rfind("comm", 0) == 0;
      if (!is_worker && !is_comm) continue;
      std::uint64_t busy = 0, ovh = 0;
      for (const Event& e : rings[ri].events) {
        if (e.kind != Kind::kComplete) continue;
        const std::uint64_t b = std::max(e.ts_ns, p.t0);
        const std::uint64_t t = std::min(e.ts_ns + e.dur_ns, p.t1);
        if (t <= b) continue;
        const std::uint64_t overlap = t - b;
        if (e.id == kWorkerBusy || e.id == kCommPump) {
          busy += overlap;
        } else if (e.cat == Cat::kRoute || e.cat == Cat::kFault ||
                   e.cat == Cat::kShuffle) {
          ovh += overlap;
        }
      }
      const double busy_pct = 100.0 * static_cast<double>(busy) / wall;
      const double ovh_pct = 100.0 * static_cast<double>(ovh) / wall;
      std::fprintf(out, "%-28.28s %-12.12s %7.2f %7.2f %7.2f\n",
                   p.name.c_str(), name.c_str(), busy_pct, ovh_pct,
                   std::max(0.0, 100.0 - busy_pct));
    }
  }
}

/// ---- CounterSampler ----

struct CounterSampler::Impl {
  std::thread th;
};

CounterSampler::CounterSampler(std::uint64_t interval_ns)
    : interval_ns_(interval_ns == 0 ? 100'000 : interval_ns),
      impl_(new Impl()) {}

CounterSampler::~CounterSampler() {
  stop();
  delete impl_;
}

void CounterSampler::add(const std::string& name,
                         std::function<std::uint64_t()> fn) {
  sources_.push_back(Source{intern(name), std::move(fn)});
}

void CounterSampler::start() {
#if TRAM_TRACE
  if (!stop_.load(std::memory_order_acquire)) return;  // already running
  stop_.store(false, std::memory_order_release);
  impl_->th = std::thread([this] {
    set_thread_name("counters");
    while (!stop_.load(std::memory_order_acquire)) {
      for (const Source& s : sources_) counter(s.name_idx, s.fn());
      std::this_thread::sleep_for(std::chrono::nanoseconds(interval_ns_));
    }
    // Closing sample so every series extends to the end of the run.
    for (const Source& s : sources_) counter(s.name_idx, s.fn());
  });
#endif
}

void CounterSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (impl_->th.joinable()) impl_->th.join();
}

}  // namespace tram::trace
