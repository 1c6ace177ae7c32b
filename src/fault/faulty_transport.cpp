#include "fault/faulty_transport.hpp"

#include <utility>

#include "fault/reliable_wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "util/timebase.hpp"

namespace tram::fault {

FaultyTransport::FaultyTransport(rt::Machine& machine,
                                 std::unique_ptr<rt::Transport> inner,
                                 FaultConfig cfg)
    : machine_(machine), inner_(std::move(inner)), sched_(cfg) {
  cfg.validate();
  const int procs = machine.topology().procs();
  state_.reserve(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    state_.push_back(std::make_unique<SrcState>());
  }
}

void FaultyTransport::dispatch(ProcId src, rt::Message&& m,
                               std::uint64_t extra_delay_ns, SrcState& st) {
  if (extra_delay_ns == 0) {
    inner_->send(src, std::move(m));
    return;
  }
  // Held messages are released by this source's own poll(); count them
  // in flight first so quiescence detection can never miss the window.
  held_count_.fetch_add(1, std::memory_order_acq_rel);
  st.held.push(Held{util::now_ns() + extra_delay_ns, std::move(m)});
}

void FaultyTransport::send(ProcId src_proc, rt::Message&& m) {
  auto& st = *state_[static_cast<std::size_t>(src_proc)];
  // Every message on this path was framed by ReliableTransport just
  // above; the header names the identity the fate is keyed on.
  const ReliableHeader h = parse_reliable_header(m.payload.span());
  const ProcId dst = rt::message_dst_proc(machine_, m);
  std::uint32_t seq = h.seq;
  std::uint32_t attempt = 0;
  if (h.kind == ReliableHeader::kData) {
    // The map gains one entry per data message ever sent from this
    // source; entries for long-acked sequences are dead weight, and the
    // fault layer cannot see acks to prune precisely. Bound it by
    // wholesale reset instead: a reset replays attempt ordinals from 0,
    // which only repeats already-drawn fates — attempts still increment
    // past any drop streak, so recovery always converges.
    if (st.attempts.size() >= kMaxAttemptEntries) st.attempts.clear();
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
         << 32) |
        h.seq;
    attempt = st.attempts[key]++;
  } else {
    seq = st.ack_ordinal++;
  }
  const Fate fate = sched_.fate(src_proc, dst, h.kind, seq, attempt);

  if (fate.drop) drops_.fetch_add(1, std::memory_order_relaxed);
  if (fate.dup) dups_.fetch_add(1, std::memory_order_relaxed);
  const int copies = (fate.drop ? 0 : 1) + (fate.dup ? 1 : 0);
  if (copies == 0) return;
  if (fate.extra_delay_ns > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
  }
  if (copies == 2) {
    rt::Message copy = m;  // shares the payload slab (refcount bump)
    dispatch(src_proc, std::move(copy), fate.extra_delay_ns, st);
  }
  dispatch(src_proc, std::move(m), fate.extra_delay_ns, st);
}

std::size_t FaultyTransport::poll(rt::Process& proc) {
  auto& st = *state_[static_cast<std::size_t>(proc.id())];
  const std::uint64_t now = util::now_ns();
  while (!st.held.empty() && st.held.top().due_ns <= now) {
    // priority_queue::top is const; the element is popped immediately
    // after, so the const_cast move is safe (same idiom as the packet
    // reorder heap).
    rt::Message m = std::move(const_cast<Held&>(st.held.top()).m);
    st.held.pop();
    // The held count drops only after the message is inside the inner
    // transport, so in_flight() never momentarily loses sight of it.
    inner_->send(proc.id(), std::move(m));
    held_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
  return inner_->poll(proc);
}

std::uint64_t FaultyTransport::next_due_ns(ProcId p) const {
  const auto& st = *state_[static_cast<std::size_t>(p)];
  const std::uint64_t inner_due = inner_->next_due_ns(p);
  if (st.held.empty()) return inner_due;
  const std::uint64_t held_due = st.held.top().due_ns;
  return inner_due == 0 || held_due < inner_due ? held_due : inner_due;
}

std::uint64_t FaultyTransport::in_flight() const {
  return held_count_.load(std::memory_order_acquire) + inner_->in_flight();
}

std::uint64_t FaultyTransport::total_messages() const {
  return inner_->total_messages();
}

std::uint64_t FaultyTransport::total_bytes() const {
  return inner_->total_bytes();
}

std::uint64_t FaultyTransport::total_forwarded() const {
  return inner_->total_forwarded();
}

void FaultyTransport::reset() {
  for (auto& st : state_) {
    while (!st->held.empty()) st->held.pop();
    st->attempts.clear();
    st->ack_ordinal = 0;
  }
  held_count_.store(0, std::memory_order_relaxed);
  drops_.store(0, std::memory_order_relaxed);
  dups_.store(0, std::memory_order_relaxed);
  delays_.store(0, std::memory_order_relaxed);
  inner_->reset();
}

}  // namespace tram::fault
