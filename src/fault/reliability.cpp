#include "fault/reliability.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "runtime/machine.hpp"
#include "runtime/transport.hpp"
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

Reliability::Reliability(rt::Transport& transport, FaultConfig cfg)
    : transport_(transport),
      machine_(transport.machine_),
      procs_(machine_.topology().procs()),
      sched_(cfg) {
  cfg.validate();
  // Virtual-time timeout: a few modeled one-way latencies plus whatever
  // extra delay the fault schedule injects, floored for zero-cost models.
  const auto& cost = machine_.config().cost;
  const auto modeled = static_cast<std::uint64_t>(
      cost.alpha_remote_ns + cost.inject_ns);
  const std::uint64_t derived_rto =
      std::max(kMinRtoNs, 4 * (modeled + cfg.delay_ns));
  rto_ns_ = cfg.rto_ns != 0 ? cfg.rto_ns : derived_rto;
  // The ack holdoff follows the cost model, not a pinned timeout: a
  // pinned rto_ns only fixes when the sender gives up waiting.
  ack_delay_ns_ = derived_rto / 8;
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
  ack_ordinal_ =
      std::make_unique<std::uint32_t[]>(static_cast<std::size_t>(procs_));
}

std::uint64_t Reliability::rto_for(const Channel& c) const noexcept {
  if (!adaptive_) return rto_ns_;
  std::uint64_t base = c.rtt_valid ? c.srtt_ns + 4 * c.rttvar_ns : rto_ns_;
  base = std::clamp(base, kMinRtoNs, kMaxRtoNs);
  const std::uint32_t shift = std::min(c.backoff_shift, kMaxBackoffShift);
  const std::uint64_t backed = base << shift;
  // Detect shift overflow as well as a plain over-ceiling value.
  if ((backed >> shift) != base || backed > kMaxRtoNs) return kMaxRtoNs;
  return backed;
}

bool Reliability::window_admits(const Channel& c) const noexcept {
  return c.inflight_msgs < static_cast<std::uint32_t>(c.cwnd);
}

void Reliability::rtt_sample(Channel& c, std::uint64_t sample_ns) noexcept {
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

void Reliability::loss_event(Channel& c, bool timeout) const noexcept {
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

void Reliability::send(ProcId src_proc, rt::Message&& m) {
  const ProcId dst = rt::message_dst_proc(machine_, m);
  Channel& fwd = ch(src_proc, dst);
  Channel& rev = ch(dst, src_proc);

  // Piggyback: what this process has cumulatively received on the reverse
  // channel, plus the out-of-order bitmap.
  ReliableHeader h;
  h.kind = ReliableHeader::kData;
  h.src_proc = static_cast<std::uint16_t>(src_proc);
  h.seq = fwd.next_seq++;
  h.ack = rev.cum;
  h.sack = build_sack_bitmap(rev.cum, rev.ooo);

  // Frame into a fresh slab: header + payload bytes. The one copy this
  // protocol costs per message — the retransmit queue then holds the
  // framed slab by reference, so re-sends are copy-free.
  util::PayloadRef framed =
      util::PayloadPool::global().acquire(sizeof h + m.payload.size());
  std::memcpy(framed.data(), &h, sizeof h);
  if (!m.payload.empty()) {
    std::memcpy(framed.data() + sizeof h, m.payload.data(), m.payload.size());
  }

  SendEntry e;
  e.seq = h.seq;
  e.bytes = static_cast<std::uint32_t>(framed.size());
  m.payload = std::move(framed);
  e.msg = std::move(m);
  unacked_total_.fetch_add(1, std::memory_order_acq_rel);
  // Transmit now only if nothing is already paced (seq order on the wire
  // queue) and the window has room; otherwise pace.
  if (!fwd.paced.empty() || !window_admits(fwd)) {
    fwd.paced.push_back(std::move(e));
    paced_msgs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // This transmit carries the reverse channel's ack: the standalone one
  // it owed is redundant.
  if (rev.owes_ack) {
    rev.owes_ack = false;
    rev.ack_deadline_ns = 0;
    owed_acks_total_.fetch_sub(1, std::memory_order_acq_rel);
  }
  transmit(src_proc, dst, fwd, std::move(e));
}

void Reliability::transmit(ProcId src, ProcId dst, Channel& c,
                           SendEntry&& e) {
  const std::uint64_t now = util::now_ns();
  e.first_send_ns = now;
  ++c.inflight_msgs;
  fetch_max(max_inflight_msgs_, c.inflight_msgs);
  if (c.probe_deadline_ns == 0) c.probe_deadline_ns = now + rto_for(c);
  rt::Message wire = e.msg;  // shares the framed slab
  const std::uint32_t seq = e.seq;
  c.unacked.push_back(std::move(e));
  emit(src, dst, ReliableHeader::kData, seq, /*attempt=*/0, std::move(wire));
}

void Reliability::drain_paced(ProcId src, ProcId dst, Channel& c) {
  // Paced entries were stamped at submit time; their piggybacked ack may
  // be slightly stale, which is harmless (acks are monotonic).
  while (!c.paced.empty() && window_admits(c)) {
    SendEntry e = std::move(c.paced.front());
    c.paced.pop_front();
    transmit(src, dst, c, std::move(e));
  }
}

void Reliability::emit(ProcId src, ProcId dst, std::uint8_t kind,
                       std::uint32_t seq, std::uint32_t attempt,
                       rt::Message&& m) {
  const Fate fate = sched_.fate(src, dst, kind, seq, attempt);
  if (fate.drop) drops_.fetch_add(1, std::memory_order_relaxed);
  if (fate.dup) dups_.fetch_add(1, std::memory_order_relaxed);
  const int copies = (fate.drop ? 0 : 1) + (fate.dup ? 1 : 0);
  if (copies == 0) return;
  if (fate.extra_delay_ns != 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
  }
  // A delayed copy leaves now and arrives late; a second copy shares the
  // slab.
  if (copies == 2) {
    transport_.inject(src, rt::Message(m), fate.extra_delay_ns);
  }
  transport_.inject(src, std::move(m), fate.extra_delay_ns);
}

void Reliability::apply_ack(ProcId data_src, ProcId data_dst,
                            std::uint32_t ack, std::uint64_t sack) {
  Channel& c = ch(data_src, data_dst);
  const std::uint64_t now = util::now_ns();
  std::uint64_t settled = 0;  // newly acked-or-sacked: leaves in_flight()
  std::uint32_t fast_n = 0;
  std::uint32_t sacked_n = 0;
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
  if (settled != 0) {
    unacked_total_.fetch_sub(settled, std::memory_order_acq_rel);
  }
  // 3. Fast retransmit: an unsacked entry serially below the highest
  //    SACKed sequence is a hole the fabric demonstrably passed —
  //    re-ship it now instead of waiting for the timer. Once per entry
  //    per timeout round (fast_rtxed); the timer is the backstop.
  if (sack != 0 && !c.unacked.empty()) {
    const std::uint32_t hi_bit =
        63u - static_cast<std::uint32_t>(__builtin_clzll(sack));
    const std::uint32_t hi_seq = sack_bit_seq(ack, hi_bit);
    std::uint64_t rtx_bytes = 0;
    for (SendEntry& e : c.unacked) {
      if (!seq_before(e.seq, hi_seq)) break;
      if (e.sacked || e.fast_rtxed) continue;
      e.fast_rtxed = true;
      ++e.rtx_count;
      rtx_bytes += e.bytes;
      ++fast_n;
      emit(data_src, data_dst, ReliableHeader::kData, e.seq, e.rtx_count,
           rt::Message(e.msg));  // shares the slab
    }
    if (fast_n != 0) {
      loss_event(c, /*timeout=*/false);
      retransmits_.fetch_add(fast_n, std::memory_order_relaxed);
      fast_retransmits_.fetch_add(fast_n, std::memory_order_relaxed);
      rtx_bytes_.fetch_add(rtx_bytes, std::memory_order_relaxed);
    }
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
          window_max_, c.cwnd + static_cast<double>(popped_live) / c.cwnd);
    }
  }
  // 5. Re-arm the timer against the (new) oldest outstanding entry.
  if (settled != 0 || fast_n != 0 || newly_sacked) {
    c.probe_deadline_ns = c.inflight_msgs != 0 ? now + rto_for(c) : 0;
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
    if (settled != 0 || fast_n != 0) {
      trace::cwnd_sample(static_cast<std::uint64_t>(c.cwnd), chan);
    }
  }
  // Freed window space admits paced traffic.
  drain_paced(data_src, data_dst, c);
}

bool Reliability::on_inbound(ProcId dst, rt::Message& m) {
  const ReliableHeader h = parse_reliable_header(m.payload.span());
  const auto src = static_cast<ProcId>(h.src_proc);

  // The ack + sack fields acknowledge data this process sent to src.
  apply_ack(dst, src, h.ack, h.sack);
  if (h.kind == ReliableHeader::kAck) return false;  // consumed

  Channel& c = ch(src, dst);
  // Any data arrival (re-)arms the delayed ack: a duplicate means the
  // sender may have lost our previous ack, so it must be replaced.
  if (!c.owes_ack) {
    c.owes_ack = true;
    c.ack_deadline_ns = util::now_ns() + ack_delay_ns_;
    owed_acks_total_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (seq_before(h.seq, c.cum) || c.ooo.count(h.seq) != 0) {
    dup_drops_.fetch_add(1, std::memory_order_relaxed);
    return false;  // consumed before it reaches an endpoint
  }
  if (h.seq == c.cum) {
    ++c.cum;
    while (c.ooo.erase(c.cum) != 0) ++c.cum;
  } else {
    c.ooo.insert(h.seq);  // deliver out of order, remember for dedup
  }
  // Strip the frame: the endpoint sees exactly the payload it was sent.
  m.payload = m.payload.subref(sizeof(ReliableHeader),
                               m.payload.size() - sizeof(ReliableHeader));
  return true;
}

void Reliability::send_standalone_ack(ProcId from, ProcId to,
                                      std::uint32_t ack, std::uint64_t sack) {
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
  // An ack has no sequence number; a per-source ordinal gives each its
  // own fate.
  emit(from, to, ReliableHeader::kAck,
       ack_ordinal_[static_cast<std::size_t>(from)]++, /*attempt=*/0,
       std::move(m));
}

void Reliability::poll(ProcId p) {
  // Nothing unacked and no ack owed anywhere: the channel scan below
  // would find no work — two atomic loads instead of an O(procs) walk on
  // every idle pump iteration. A stale read only defers the scan to the
  // next poll.
  if (unacked_total_.load(std::memory_order_acquire) == 0 &&
      owed_acks_total_.load(std::memory_order_acquire) == 0) {
    return;
  }
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
    if (out.inflight_msgs != 0 && out.probe_deadline_ns != 0 &&
        now >= out.probe_deadline_ns) {
      std::uint64_t n = 0;
      std::uint64_t rtx_bytes = 0;
      for (SendEntry& e : out.unacked) {
        if (e.sacked) continue;
        ++e.rtx_count;
        e.fast_rtxed = false;  // eligible again next SACK round
        ++n;
        rtx_bytes += e.bytes;
        emit(p, d, ReliableHeader::kData, e.seq, e.rtx_count,
             rt::Message(e.msg));  // shares the slab
      }
      loss_event(out, /*timeout=*/true);
      out.probe_deadline_ns = now + rto_for(out);
      rto_fires_.fetch_add(1, std::memory_order_relaxed);
      retransmits_.fetch_add(n, std::memory_order_relaxed);
      rtx_bytes_.fetch_add(rtx_bytes, std::memory_order_relaxed);
      if (trace::enabled()) {
        const std::uint32_t chan = trace_chan(p, d);
        trace::instant(trace::Cat::kFault, trace::kRtoFire, n, chan);
        trace::cwnd_sample(static_cast<std::uint64_t>(out.cwnd), chan);
      }
    }
    // Belt and braces for pacing: acks normally drain the queue, but an
    // admission opened outside the ack path must not strand paced
    // entries.
    drain_paced(p, d, out);
    if (stopping) continue;
    // Standalone ack owed on the inbound channel (d -> p) once the
    // piggyback window has lapsed.
    Channel& in = ch(d, p);
    if (in.owes_ack && now >= in.ack_deadline_ns) {
      in.owes_ack = false;
      in.ack_deadline_ns = 0;
      owed_acks_total_.fetch_sub(1, std::memory_order_acq_rel);
      send_standalone_ack(p, d, in.cum, build_sack_bitmap(in.cum, in.ooo));
    }
  }
}

std::uint64_t Reliability::next_due_ns(ProcId p) const {
  if (unacked_total_.load(std::memory_order_acquire) == 0 &&
      owed_acks_total_.load(std::memory_order_acquire) == 0) {
    return 0;
  }
  std::uint64_t due = 0;
  const bool stopping = machine_.stopping();
  for (ProcId d = 0; d < procs_; ++d) {
    if (d == p) continue;
    const Channel& out = ch(p, d);
    if (out.inflight_msgs != 0) due = min_due(due, out.probe_deadline_ns);
    if (stopping) continue;
    const Channel& in = ch(d, p);
    if (in.owes_ack) due = min_due(due, in.ack_deadline_ns);
  }
  return due;
}

std::uint64_t Reliability::debug_srtt_ns(ProcId src, ProcId dst) const {
  const Channel& c = ch(src, dst);
  return c.rtt_valid ? c.srtt_ns : 0;
}

double Reliability::debug_cwnd(ProcId src, ProcId dst) const {
  return ch(src, dst).cwnd;
}

std::size_t Reliability::debug_paced(ProcId src, ProcId dst) const {
  return ch(src, dst).paced.size();
}

void Reliability::reset() {
  const std::size_t n = static_cast<std::size_t>(procs_) *
                        static_cast<std::size_t>(procs_);
  for (std::size_t i = 0; i < n; ++i) {
    ch_[i] = Channel{};
    ch_[i].cwnd = window_init_;
  }
  std::fill_n(ack_ordinal_.get(), procs_, 0u);
  for (std::atomic<std::uint64_t>* a :
       {&unacked_total_, &owed_acks_total_, &drops_, &dups_,
        &delays_, &retransmits_, &dup_drops_, &acks_sent_,
        &fast_retransmits_, &rto_fires_, &rtx_bytes_, &paced_msgs_,
        &max_inflight_msgs_}) {
    a->store(0, std::memory_order_relaxed);
  }
}

}  // namespace tram::fault
