#include "fault/reliable_transport.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "trace/trace.hpp"
#include "util/payload_pool.hpp"
#include "util/timebase.hpp"

namespace tram::fault {

namespace {

/// Channel identity for trace event args: src proc in the high half.
std::uint32_t trace_chan(ProcId src, ProcId dst) noexcept {
  return (static_cast<std::uint32_t>(src) << 16) |
         (static_cast<std::uint32_t>(dst) & 0xffffu);
}
/// Floor on the retransmit timeout: under the zero-cost test model the
/// modeled round trip is 0, but acks still take real wall time (pump
/// polling, thread scheduling) to come back — probing faster than this
/// only manufactures spurious duplicates.
constexpr std::uint64_t kMinRtoNs = 300'000;

/// Ceiling of the adaptive RTO: bounds exponential backoff so one unlucky
/// channel cannot stall recovery for seconds.
constexpr std::uint64_t kMaxRtoNs = 2'000'000'000;

/// Cap on exponential backoff doubling; the ceiling clamp dominates long
/// before this, it only guards the shift itself.
constexpr std::uint32_t kMaxBackoffShift = 16;

/// Combine two "0 means none" deadlines into the earlier one.
std::uint64_t min_due(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  return a < b ? a : b;
}

/// Serial-number order (RFC 1982 style): does a precede b? Correct
/// across uint32 wraparound as long as the live window stays under
/// 2^31 sequences — service-length runs wrap, absolute comparison
/// would then dedup-drop every new message forever.
bool seq_before(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}

void fetch_max(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

ReliableTransport::ReliableTransport(rt::Machine& machine,
                                     std::unique_ptr<rt::Transport> inner,
                                     FaultConfig cfg)
    : machine_(machine),
      inner_(std::move(inner)),
      procs_(machine.topology().procs()) {
  cfg.validate();
  // Virtual-time timeout: a few modeled one-way latencies plus whatever
  // extra delay the fault layer injects, floored for zero-cost models.
  const auto& cost = machine.config().cost;
  const auto modeled = static_cast<std::uint64_t>(
      cost.alpha_remote_ns + cost.inject_ns);
  rto_ns_ = cfg.rto_ns != 0
                ? cfg.rto_ns
                : std::max(kMinRtoNs, 4 * (modeled + cfg.delay_ns));
  ack_delay_ns_ = cfg.ack_delay_ns != 0 ? cfg.ack_delay_ns : rto_ns_ / 8;
  window_init_ = cfg.window_init;
  window_max_ = cfg.window_max;
  // An explicit rto_ns pins the timer: experiments that fix it replay
  // with an exactly known timeout.
  adaptive_ = cfg.rto_ns == 0;
  ch_ = std::make_unique<Channel[]>(static_cast<std::size_t>(procs_) *
                                    static_cast<std::size_t>(procs_));
  const std::size_t n = static_cast<std::size_t>(procs_) *
                        static_cast<std::size_t>(procs_);
  for (std::size_t i = 0; i < n; ++i) ch_[i].cwnd = window_init_;
}

std::uint64_t ReliableTransport::rto_for(const Channel& c) const noexcept {
  if (!adaptive_) return rto_ns_;
  std::uint64_t base = c.rtt_valid ? c.srtt_ns + 4 * c.rttvar_ns : rto_ns_;
  base = std::clamp(base, kMinRtoNs, kMaxRtoNs);
  const std::uint32_t shift = std::min(c.backoff_shift, kMaxBackoffShift);
  const std::uint64_t backed = base << shift;
  // Detect shift overflow as well as a plain over-ceiling value.
  if ((backed >> shift) != base || backed > kMaxRtoNs) return kMaxRtoNs;
  return backed;
}

bool ReliableTransport::window_admits(const Channel& c) const noexcept {
  return c.inflight_msgs < static_cast<std::uint32_t>(c.cwnd);
}

void ReliableTransport::rtt_sample(Channel& c,
                                   std::uint64_t sample_ns) noexcept {
  if (!c.rtt_valid) {
    c.srtt_ns = sample_ns;
    c.rttvar_ns = sample_ns / 2;
    c.rtt_valid = true;
    return;
  }
  const auto err = static_cast<std::int64_t>(sample_ns) -
                   static_cast<std::int64_t>(c.srtt_ns);
  c.srtt_ns = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(c.srtt_ns) + err / 8);
  const std::int64_t abs_err = err < 0 ? -err : err;
  c.rttvar_ns = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(c.rttvar_ns) +
      (abs_err - static_cast<std::int64_t>(c.rttvar_ns)) / 4);
}

void ReliableTransport::loss_event(Channel& c, bool timeout) const noexcept {
  if (!c.in_recovery) {
    // One multiplicative decrease per recovery episode: every seq
    // transmitted so far belongs to this episode, losses among them share
    // the single halving (NewReno partial-ack handling, RFC 6582). The
    // recovery point is the highest seq *transmitted*: paced messages
    // already hold sequence numbers, and counting them would keep the
    // window from growing until the whole backlog was acked.
    c.in_recovery = true;
    c.recovery_end_seq = c.paced.empty() ? c.next_seq : c.paced.front().seq;
    c.cwnd = timeout ? window_init_
                     : std::max<double>(window_init_, c.cwnd / 2);
  } else if (timeout) {
    c.cwnd = window_init_;
  }
  if (timeout && adaptive_ &&
      c.backoff_shift < kMaxBackoffShift) {
    ++c.backoff_shift;
  }
}

void ReliableTransport::send(ProcId src_proc, rt::Message&& m) {
  const ProcId dst = rt::message_dst_proc(machine_, m);
  const std::uint64_t now = util::now_ns();

  ReliableHeader h;
  h.kind = ReliableHeader::kData;
  h.src_proc = static_cast<std::uint16_t>(src_proc);
  {
    // Piggyback: what this process has cumulatively received on the
    // reverse channel, plus the out-of-order bitmap. The owed standalone
    // ack is only cancelled further down, once we know the message
    // transmits now rather than sitting in the pacing queue.
    Channel& rev = ch(dst, src_proc);
    std::lock_guard<util::Spinlock> g(rev.mu);
    h.ack = rev.cum;
    h.sack = build_sack_bitmap(rev.cum, rev.ooo);
  }

  // Frame into a fresh slab: header + payload bytes. The one copy this
  // protocol costs per message — the retransmit queue then holds the
  // framed slab by reference, so re-sends are copy-free.
  util::PayloadRef framed =
      util::PayloadPool::global().acquire(sizeof h + m.payload.size());
  if (!m.payload.empty()) {
    std::memcpy(framed.data() + sizeof h, m.payload.data(), m.payload.size());
  }

  rt::Message out;
  out.endpoint = m.endpoint;
  out.dst_worker = m.dst_worker;
  out.src_worker = m.src_worker;
  out.dst_proc_hint = m.dst_proc_hint;
  out.expedited = m.expedited;
  out.hops = m.hops;
  out.payload = std::move(framed);

  Channel& fwd = ch(src_proc, dst);
  bool tx = false;
  std::uint32_t inflight_now = 0;
  {
    // The sequence number is assigned, the header stamped (the slab is
    // still exclusively ours — nothing has reached the wire), and the
    // retransmit entry queued before the message can reach the wire: an
    // ack can never arrive for an entry that is not yet tracked.
    std::lock_guard<util::Spinlock> g(fwd.mu);
    h.seq = fwd.next_seq++;
    std::memcpy(out.payload.data(), &h, sizeof h);
    SendEntry e;
    e.seq = h.seq;
    e.bytes = static_cast<std::uint32_t>(out.payload.size());
    e.msg = out;
    // Transmit now only if nothing is already paced (seq order on the
    // wire queue) and the window has room; otherwise pace.
    if (fwd.paced.empty() && window_admits(fwd)) {
      e.first_send_ns = now;
      ++fwd.inflight_msgs;
      inflight_now = fwd.inflight_msgs;
      fwd.unacked.push_back(std::move(e));
      if (fwd.probe_deadline_ns == 0) {
        fwd.probe_deadline_ns = now + rto_for(fwd);
      }
      tx = true;
    } else {
      fwd.paced.push_back(std::move(e));
    }
  }
  unacked_total_.fetch_add(1, std::memory_order_acq_rel);
  if (!tx) {
    paced_msgs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  fetch_max(max_inflight_msgs_, inflight_now);
  {
    // This transmit carries the reverse channel's ack — cancel the
    // standalone one it owed, but only if no data arrived since the
    // piggyback was read (an inbound delivery may run on another thread,
    // e.g. a peer's InlineTransport::send). A stale piggyback must leave
    // the owed ack armed, or the peer waits a full RTO for it.
    Channel& rev = ch(dst, src_proc);
    std::lock_guard<util::Spinlock> g(rev.mu);
    if (rev.owes_ack && rev.cum == h.ack &&
        build_sack_bitmap(rev.cum, rev.ooo) == h.sack) {
      rev.owes_ack = false;
      rev.ack_deadline_ns = 0;
      owed_acks_total_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  inner_->send(src_proc, std::move(out));
}

void ReliableTransport::drain_paced(ProcId src_proc, Channel& c) {
  std::vector<rt::Message> to_send;
  std::uint32_t inflight_now = 0;
  bool armed = false;
  const std::uint64_t now = util::now_ns();
  {
    std::lock_guard<util::Spinlock> g(c.mu);
    while (!c.paced.empty() && window_admits(c)) {
      SendEntry e = std::move(c.paced.front());
      c.paced.pop_front();
      e.first_send_ns = now;
      ++c.inflight_msgs;
      to_send.push_back(e.msg);  // shares the framed slab
      c.unacked.push_back(std::move(e));
    }
    if (!to_send.empty()) {
      inflight_now = c.inflight_msgs;
      if (c.probe_deadline_ns == 0) {
        c.probe_deadline_ns = now + rto_for(c);
        armed = true;
      }
    }
  }
  if (to_send.empty()) return;
  if (armed) machine_.wake_comm(src_proc);
  fetch_max(max_inflight_msgs_, inflight_now);
  // Paced entries were stamped at submit time; their piggybacked ack may
  // be slightly stale, which is harmless (acks are monotonic).
  for (auto& m : to_send) inner_->send(src_proc, std::move(m));
}

void ReliableTransport::apply_ack(ProcId data_src, ProcId data_dst,
                                  std::uint32_t ack, std::uint64_t sack) {
  Channel& c = ch(data_src, data_dst);
  const std::uint64_t now = util::now_ns();
  std::uint64_t settled = 0;  // newly acked-or-sacked: leaves in_flight()
  std::vector<rt::Message> rtx;
  std::uint64_t rtx_bytes = 0;
  std::uint32_t fast_n = 0;
  std::uint32_t sacked_n = 0;
  std::uint64_t cwnd_now = 0;
  bool rearmed = false;
  {
    std::lock_guard<util::Spinlock> g(c.mu);
    // 1. Pop everything the cumulative ack covers. SACKed shells were
    //    settled when their bit arrived; only live entries settle here.
    std::size_t popped_live = 0;
    while (!c.unacked.empty() && seq_before(c.unacked.front().seq, ack)) {
      SendEntry& e = c.unacked.front();
      if (!e.sacked) {
        if (e.rtx_count == 0 && e.first_send_ns != 0) {
          rtt_sample(c, now - e.first_send_ns);  // Karn: fresh sends only
        }
        --c.inflight_msgs;
        ++popped_live;
        ++settled;
      }
      c.unacked.pop_front();
    }
    // 2. Mark SACKed entries: settled for the window and for quiescence,
    //    payload released early; the shell stays for seq accounting
    //    until the cumulative ack passes it. unacked is seq-contiguous,
    //    so the entry for seq s sits at offset s - front.seq.
    bool newly_sacked = false;
    if (sack != 0 && !c.unacked.empty()) {
      const std::uint32_t front = c.unacked.front().seq;
      for_each_sacked(ack, sack, [&](std::uint32_t s) {
        const std::uint32_t off = s - front;
        if (off >= c.unacked.size()) return;
        SendEntry& e = c.unacked[off];
        if (e.sacked) return;
        if (e.rtx_count == 0 && e.first_send_ns != 0) {
          rtt_sample(c, now - e.first_send_ns);
        }
        e.sacked = true;
        e.msg = rt::Message{};
        --c.inflight_msgs;
        ++settled;
        newly_sacked = true;
        ++sacked_n;
      });
    }
    // 3. Fast retransmit: an unsacked entry serially below the highest
    //    SACKed sequence is a hole the fabric demonstrably passed —
    //    re-ship it now instead of waiting for the timer. Once per entry
    //    per timeout round (fast_rtxed); the timer is the backstop.
    if (sack != 0 && !c.unacked.empty()) {
      const std::uint32_t hi_bit =
          63u - static_cast<std::uint32_t>(__builtin_clzll(sack));
      const std::uint32_t hi_seq = sack_bit_seq(ack, hi_bit);
      for (SendEntry& e : c.unacked) {
        if (!seq_before(e.seq, hi_seq)) break;
        if (e.sacked || e.fast_rtxed) continue;
        e.fast_rtxed = true;
        ++e.rtx_count;
        rtx.push_back(e.msg);
        rtx_bytes += e.bytes;
        ++fast_n;
      }
      if (fast_n != 0) loss_event(c, /*timeout=*/false);
    }
    // 4. Window dynamics on cumulative progress: exit recovery once the
    //    episode's marker is passed, then grow additively; consecutive-
    //    timeout backoff resets because the channel is demonstrably
    //    moving again.
    if (popped_live != 0) {
      c.backoff_shift = 0;
      if (c.in_recovery && !seq_before(ack, c.recovery_end_seq)) {
        c.in_recovery = false;
      }
      if (!c.in_recovery) {
        c.cwnd = std::min<double>(
            window_max_,
            c.cwnd + static_cast<double>(popped_live) / c.cwnd);
      }
    }
    // 5. Re-arm the timer against the (new) oldest outstanding entry.
    if (settled != 0 || fast_n != 0 || newly_sacked) {
      c.probe_deadline_ns =
          c.inflight_msgs != 0 ? now + rto_for(c) : 0;
      rearmed = c.probe_deadline_ns != 0;
    }
    cwnd_now = static_cast<std::uint64_t>(c.cwnd);
  }
  if (trace::enabled()) {
    const std::uint32_t chan = trace_chan(data_src, data_dst);
    if (sacked_n != 0) {
      trace::instant(trace::Cat::kFault, trace::kSackShell, sacked_n, chan);
    }
    if (fast_n != 0) {
      trace::instant(trace::Cat::kFault, trace::kFastRetransmit, fast_n,
                     chan);
    }
    // Both the multiplicative cut (fast retransmit) and the additive
    // growth (cumulative progress) land here — one sample per ack event
    // draws the AIMD sawtooth.
    if (settled != 0 || fast_n != 0) trace::cwnd_sample(cwnd_now, chan);
  }
  if (settled != 0) {
    unacked_total_.fetch_sub(settled, std::memory_order_acq_rel);
  }
  // The re-armed probe may fall earlier than the one data_src's pump is
  // parked toward.
  if (rearmed) machine_.wake_comm(data_src);
  if (fast_n != 0) {
    retransmits_.fetch_add(fast_n, std::memory_order_relaxed);
    fast_retransmits_.fetch_add(fast_n, std::memory_order_relaxed);
    rtx_bytes_.fetch_add(rtx_bytes, std::memory_order_relaxed);
    for (auto& m : rtx) inner_->send(data_src, std::move(m));
  }
  // Freed window space admits paced traffic.
  drain_paced(data_src, c);
}

bool ReliableTransport::on_inbound(rt::Process& proc, rt::Message& m) {
  const ProcId dst = proc.id();
  const ReliableHeader h = parse_reliable_header(m.payload.span());
  const auto src = static_cast<ProcId>(h.src_proc);

  // The ack + sack fields acknowledge data this process sent to src.
  apply_ack(dst, src, h.ack, h.sack);
  if (h.kind == ReliableHeader::kAck) return false;  // consumed

  Channel& c = ch(src, dst);
  bool armed = false;
  bool duplicate = false;
  {
    std::lock_guard<util::Spinlock> g(c.mu);
    // Any data arrival (re-)arms the delayed ack: a duplicate means the
    // sender may have lost our previous ack, so it must be replaced.
    if (!c.owes_ack) {
      c.owes_ack = true;
      c.ack_deadline_ns = util::now_ns() + ack_delay_ns_;
      owed_acks_total_.fetch_add(1, std::memory_order_acq_rel);
      armed = true;
    }
    if (seq_before(h.seq, c.cum) || c.ooo.count(h.seq) != 0) {
      duplicate = true;
    } else if (h.seq == c.cum) {
      ++c.cum;
      while (c.ooo.erase(c.cum) != 0) ++c.cum;
    } else {
      c.ooo.insert(h.seq);  // deliver out of order, remember for dedup
    }
  }
  // The ack is owed by this process's pump, which may be parked — and
  // under the inline transport this runs on the sender's thread.
  if (armed) machine_.wake_comm(dst);
  if (duplicate) {
    dup_drops_.fetch_add(1, std::memory_order_relaxed);
    return false;  // consumed before it reaches an endpoint
  }
  // Strip the frame: the endpoint sees exactly the payload it was sent.
  m.payload = m.payload.subref(sizeof(ReliableHeader),
                               m.payload.size() - sizeof(ReliableHeader));
  return true;
}

void ReliableTransport::send_standalone_ack(ProcId from, ProcId to,
                                            std::uint32_t ack,
                                            std::uint64_t sack) {
  ReliableHeader h;
  h.kind = ReliableHeader::kAck;
  h.src_proc = static_cast<std::uint16_t>(from);
  h.ack = ack;
  h.sack = sack;
  rt::Message m;
  m.dst_worker = kInvalidWorker;
  m.dst_proc_hint = to;
  m.expedited = true;
  m.payload = util::PayloadPool::global().acquire(sizeof h);
  std::memcpy(m.payload.data(), &h, sizeof h);
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  inner_->send(from, std::move(m));
}

std::size_t ReliableTransport::poll(rt::Process& proc) {
  const std::size_t delivered = inner_->poll(proc);
  // Nothing unacked and no ack owed anywhere: the channel scan below
  // would find no work — two atomic loads instead of O(procs) locks on
  // every idle pump iteration. A stale read only defers the scan to the
  // next poll.
  if (unacked_total_.load(std::memory_order_acquire) == 0 &&
      owed_acks_total_.load(std::memory_order_acquire) == 0) {
    return delivered;
  }
  const ProcId p = proc.id();
  const std::uint64_t now = util::now_ns();
  // Once the machine is stopping, any ack still owed is redundant (its
  // data is already acked — in_flight() was zero when QD fired) and the
  // peer's pump may already have exited; sending it would strand a packet
  // in an undrained ingress queue.
  const bool stopping = machine_.stopping();
  for (ProcId d = 0; d < procs_; ++d) {
    if (d == p) continue;
    // Timer-driven retransmit on the outbound channel (p -> d): every
    // live (unsacked) in-window entry goes out again (batch recovery).
    Channel& out = ch(p, d);
    std::vector<rt::Message> rtx;
    std::uint64_t rtx_bytes = 0;
    std::uint64_t cwnd_now = 0;
    {
      std::lock_guard<util::Spinlock> g(out.mu);
      if (out.inflight_msgs != 0 && out.probe_deadline_ns != 0 &&
          now >= out.probe_deadline_ns) {
        for (SendEntry& e : out.unacked) {
          if (e.sacked) continue;
          ++e.rtx_count;
          e.fast_rtxed = false;  // eligible again next SACK round
          rtx.push_back(e.msg);
          rtx_bytes += e.bytes;
        }
        loss_event(out, /*timeout=*/true);
        out.probe_deadline_ns = now + rto_for(out);
        cwnd_now = static_cast<std::uint64_t>(out.cwnd);
      }
    }
    if (!rtx.empty()) {
      rto_fires_.fetch_add(1, std::memory_order_relaxed);
      retransmits_.fetch_add(rtx.size(), std::memory_order_relaxed);
      rtx_bytes_.fetch_add(rtx_bytes, std::memory_order_relaxed);
      if (trace::enabled()) {
        const std::uint32_t chan = trace_chan(p, d);
        trace::instant(trace::Cat::kFault, trace::kRtoFire, rtx.size(),
                       chan);
        trace::cwnd_sample(cwnd_now, chan);
      }
      for (auto& m : rtx) inner_->send(p, std::move(m));
    }
    // Belt and braces for pacing: acks normally drain the queue, but an
    // admission opened outside the ack path must not strand paced
    // entries.
    drain_paced(p, out);
    if (stopping) continue;
    // Standalone ack owed on the inbound channel (d -> p) once the
    // piggyback window has lapsed.
    Channel& in = ch(d, p);
    std::uint32_t ack = 0;
    std::uint64_t sack = 0;
    bool send_ack = false;
    {
      std::lock_guard<util::Spinlock> g(in.mu);
      if (in.owes_ack && now >= in.ack_deadline_ns) {
        in.owes_ack = false;
        in.ack_deadline_ns = 0;
        owed_acks_total_.fetch_sub(1, std::memory_order_acq_rel);
        ack = in.cum;
        sack = build_sack_bitmap(in.cum, in.ooo);
        send_ack = true;
      }
    }
    if (send_ack) send_standalone_ack(p, d, ack, sack);
  }
  return delivered;
}

std::uint64_t ReliableTransport::next_due_ns(ProcId p) const {
  std::uint64_t due = inner_->next_due_ns(p);
  if (unacked_total_.load(std::memory_order_acquire) == 0 &&
      owed_acks_total_.load(std::memory_order_acquire) == 0) {
    return due;
  }
  const bool stopping = machine_.stopping();
  for (ProcId d = 0; d < procs_; ++d) {
    if (d == p) continue;
    {
      const Channel& out = ch(p, d);
      std::lock_guard<util::Spinlock> g(out.mu);
      if (out.inflight_msgs != 0) {
        due = min_due(due, out.probe_deadline_ns);
      }
    }
    if (stopping) continue;
    const Channel& in = ch(d, p);
    std::lock_guard<util::Spinlock> g(in.mu);
    if (in.owes_ack) due = min_due(due, in.ack_deadline_ns);
  }
  return due;
}

std::uint64_t ReliableTransport::in_flight() const {
  // Unacked messages — transmitted (may need re-shipping) or paced (not
  // yet shipped at all): the machine is not quiescent until every one is
  // confirmed delivered.
  return unacked_total_.load(std::memory_order_acquire) +
         inner_->in_flight();
}

std::uint64_t ReliableTransport::total_messages() const {
  return inner_->total_messages();
}

std::uint64_t ReliableTransport::total_bytes() const {
  return inner_->total_bytes();
}

std::uint64_t ReliableTransport::total_forwarded() const {
  return inner_->total_forwarded();
}

std::uint64_t ReliableTransport::debug_srtt_ns(ProcId src,
                                               ProcId dst) const {
  const Channel& c = ch(src, dst);
  std::lock_guard<util::Spinlock> g(c.mu);
  return c.rtt_valid ? c.srtt_ns : 0;
}

double ReliableTransport::debug_cwnd(ProcId src, ProcId dst) const {
  const Channel& c = ch(src, dst);
  std::lock_guard<util::Spinlock> g(c.mu);
  return c.cwnd;
}

std::size_t ReliableTransport::debug_paced(ProcId src, ProcId dst) const {
  const Channel& c = ch(src, dst);
  std::lock_guard<util::Spinlock> g(c.mu);
  return c.paced.size();
}

void ReliableTransport::reset() {
  const std::size_t n = static_cast<std::size_t>(procs_) *
                        static_cast<std::size_t>(procs_);
  for (std::size_t i = 0; i < n; ++i) {
    Channel& c = ch_[i];
    std::lock_guard<util::Spinlock> g(c.mu);
    c.next_seq = 0;
    c.unacked.clear();
    c.paced.clear();
    c.probe_deadline_ns = 0;
    c.cwnd = window_init_;
    c.inflight_msgs = 0;
    c.srtt_ns = 0;
    c.rttvar_ns = 0;
    c.rtt_valid = false;
    c.backoff_shift = 0;
    c.in_recovery = false;
    c.recovery_end_seq = 0;
    c.cum = 0;
    c.ooo.clear();
    c.owes_ack = false;
    c.ack_deadline_ns = 0;
  }
  unacked_total_.store(0, std::memory_order_relaxed);
  owed_acks_total_.store(0, std::memory_order_relaxed);
  retransmits_.store(0, std::memory_order_relaxed);
  dup_drops_.store(0, std::memory_order_relaxed);
  acks_sent_.store(0, std::memory_order_relaxed);
  fast_retransmits_.store(0, std::memory_order_relaxed);
  rto_fires_.store(0, std::memory_order_relaxed);
  rtx_bytes_.store(0, std::memory_order_relaxed);
  paced_msgs_.store(0, std::memory_order_relaxed);
  max_inflight_msgs_.store(0, std::memory_order_relaxed);
  inner_->reset();
}

}  // namespace tram::fault
