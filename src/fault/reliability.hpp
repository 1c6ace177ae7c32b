#pragma once
///
/// \file reliability.hpp
/// \brief Seeded fault injection and, over it, exactly-once delivery with
/// SACK-based recovery, an adaptive retransmit timer, and AIMD
/// send-window pacing.
///
/// The reliability stage of rt::Transport, which owns it when any
/// cfg.fault knob is set and calls it directly: send() on every
/// cross-process message, on_inbound() in the delivery tail, poll() after
/// each ingress poll, and next_due_ns()/in_flight() for the idle hint and
/// quiescence.
///
/// Faults: every wire copy this stage emits through Transport::inject
/// asks FaultSchedule::fate about its identity (src, dst, kind, seq,
/// attempt) and is dropped, sent twice, or delayed by delay_ns. The
/// attempt is the one the retransmit queue counts (SendEntry::rtx_count:
/// 0 on the first transmit); a standalone ack takes a per-source ordinal
/// as its seq. A delayed copy leaves at once with the delay added to its
/// modeled arrival (net::Fabric::send), so it wakes its receiver like any
/// send, waits in the receiver's reorder heap, and counts in the fabric's
/// in-flight total until it is delivered.
///
/// The protocol, per directed (src, dst) process channel:
///
///  - send: stamp a ReliableHeader — a fresh per-channel sequence number
///    plus the reverse channel's cumulative ack and SACK bitmap
///    (piggybacking) — in front of the payload, keep the framed slab
///    (refcounted, no copy) in the channel's retransmit queue, and emit
///    the message through the fault schedule. Messages past the congestion
///    window are *paced*: queued sender-side (still counted by
///    in_flight(), so quiescence detection cannot fire under them) and
///    transmitted as acks open the window.
///  - receive (on_inbound, in the transport's delivery tail): apply the
///    piggybacked ack + SACK to the reverse channel's retransmit queue;
///    dedup the data sequence number against the cumulative counter +
///    out-of-order window (a duplicate is counted and consumed); strip the
///    header (zero-copy subref) and deliver.
///  - recovery: a SACK bit marks its entry received — the payload slab is
///    released early and the entry becomes a shell held only for seq
///    accounting. Unsacked entries serially below the highest SACKed
///    sequence are holes the fabric has demonstrably passed, so they are
///    fast-retransmitted once without waiting for the timer: one ack
///    round names (and recovers) every loss in the window. The timer is
///    the backstop: on expiry all unsacked in-window entries go out again.
///  - timers: each channel estimates RTT from non-retransmitted entries
///    (Karn's rule) via Jacobson's EWMAs (srtt += err/8,
///    rttvar += (|err|-rttvar)/4) and uses
///    rto = clamp(srtt + 4·rttvar, 300 us, 2 s), doubled per consecutive
///    timeout and reset on cumulative progress. An explicit cfg.rto_ns
///    pins the timer and disables adaptation.
///  - window: AIMD. cwnd += acked/cwnd per cumulative advance (capped at
///    window_max), halved on the first loss signal of a recovery episode,
///    restarted at window_init on timeout, and never below window_init:
///    a host stall past the RTO fires the timer with nothing lost, and a
///    smaller floor would leave the channel slower than its arrivals.
///    The episode ends once the cumulative ack covers every sequence
///    transmitted when it began (recovery_end_seq). Paced messages hold
///    sequence numbers but were never sent, so they are not part of it
///    (TCP NewReno, RFC 6582).
///  - ack: piggybacked on all reverse traffic; when none shows up within
///    the holdoff (one eighth of the cost-model timeout) the receiver's
///    pump thread sends a standalone kAck that the peer's on_inbound
///    consumes. Duplicates re-arm the ack so a lost ack is always
///    replaced. A message that transmits at once carries the current
///    (ack, sack) and cancels the owed standalone ack.
///
/// Quiescence integration: in_flight() counts the unacked data messages
/// — transmitted *and* paced — and the transport adds the fabric's
/// packets, so the machine can declare quiescence neither while a dropped
/// packet still needs re-shipping, nor while pacing holds data back, nor
/// while a delayed copy is on its way.
///
/// Threading: the single-owner rule of runtime/transport.hpp holds, so no
/// channel field is locked. A retransmit or a paced entry goes to the
/// fabric from the loop that picks it: the transport never delivers
/// synchronously, so that send cannot re-enter this stage.
/// Deadlines are armed by the thread that acts on them, which re-reads
/// next_due_ns() before it parks. Only the totals and counters below are
/// atomic, for the QD thread, the trace sampler and reporters.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>

#include "fault/fault_config.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/reliable_wire.hpp"
#include "runtime/message.hpp"
#include "util/types.hpp"

namespace tram::rt {
class Machine;
class Transport;
}  // namespace tram::rt

namespace tram::fault {

class Reliability {
 public:
  /// A stage emitting its wire copies through `transport`, over the
  /// topology and cost model of the transport's machine.
  Reliability(rt::Transport& transport, FaultConfig cfg);

  /// Frame a message from src_proc and transmit it, or pace it past the
  /// window.
  void send(ProcId src_proc, rt::Message&& m);
  /// Apply an inbound message's piggybacked ack at process dst, dedup and
  /// unframe it. Returns false when it is consumed: a duplicate, or a
  /// standalone ack that must not reach an endpoint handler.
  bool on_inbound(ProcId dst, rt::Message& m);
  /// p's timers: retransmit on an expired probe, send the standalone
  /// acks p owes.
  void poll(ProcId p);
  /// p's earliest armed deadline (a probe or an owed ack), 0 when none.
  std::uint64_t next_due_ns(ProcId p) const;
  /// Unacked data messages, transmitted or paced.
  std::uint64_t in_flight() const {
    return unacked_total_.load(std::memory_order_acquire);
  }
  /// Reset channels and counters between runs (machine quiesced).
  void reset();

  /// Fault counters (tram_stats' FaultStats block): wire copies the
  /// schedule dropped, sent twice, or delayed.
  std::uint64_t drops_injected() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t dups_injected() const noexcept {
    return dups_.load(std::memory_order_relaxed);
  }
  std::uint64_t delays_injected() const noexcept {
    return delays_.load(std::memory_order_relaxed);
  }

  /// Reliability counters (tram_stats' FaultStats block).
  std::uint64_t retransmits() const noexcept {
    return retransmits_.load(std::memory_order_relaxed);
  }
  std::uint64_t dup_drops() const noexcept {
    return dup_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t acks_sent() const noexcept {
    return acks_sent_.load(std::memory_order_relaxed);
  }
  /// Retransmits triggered by a SACK hole (subset of retransmits()).
  std::uint64_t fast_retransmits() const noexcept {
    return fast_retransmits_.load(std::memory_order_relaxed);
  }
  /// Retransmit-timer expirations (each may batch several retransmits).
  std::uint64_t rto_fires() const noexcept {
    return rto_fires_.load(std::memory_order_relaxed);
  }
  /// Total framed bytes re-shipped — the overhead the recovery scheme
  /// pays for the injected loss.
  std::uint64_t rtx_bytes() const noexcept {
    return rtx_bytes_.load(std::memory_order_relaxed);
  }
  /// Messages that waited in a pacing queue before first transmit.
  std::uint64_t paced_msgs() const noexcept {
    return paced_msgs_.load(std::memory_order_relaxed);
  }
  /// High-water mark of per-channel transmitted-and-unacked messages —
  /// how far AIMD actually opened the window.
  std::uint64_t max_inflight_msgs() const noexcept {
    return max_inflight_msgs_.load(std::memory_order_relaxed);
  }

  /// Test accessors: snapshot one channel's estimator / window state.
  std::uint64_t debug_srtt_ns(ProcId src, ProcId dst) const;
  double debug_cwnd(ProcId src, ProcId dst) const;
  std::size_t debug_paced(ProcId src, ProcId dst) const;

 private:
  /// A sent-but-unacked data message, held for retransmission. msg shares
  /// the framed payload slab with the copy in flight. Once SACKed the
  /// entry is a shell: msg is released, only seq accounting remains until
  /// the cumulative ack passes it.
  struct SendEntry {
    std::uint32_t seq = 0;
    std::uint32_t rtx_count = 0;   ///< retransmits so far: the attempt
                                   ///< its latest wire copy drew a fate
                                   ///< for. Karn: entries with rtx>0
                                   ///< never contribute RTT samples.
    std::uint32_t bytes = 0;       ///< framed size, for rtx_bytes
    bool sacked = false;
    bool fast_rtxed = false;  ///< one fast retransmit per entry per
                              ///< timeout round; the timer is the backstop
    std::uint64_t first_send_ns = 0;
    rt::Message msg;
  };

  /// One directed channel. Sender-side fields belong to the source's pump
  /// thread, receiver-side fields to the destination's.
  struct Channel {
    // Sender side. unacked (transmitted at least once) and paced
    // (admitted, awaiting window space) are each seq-contiguous, and
    // paced continues where unacked ends.
    std::uint32_t next_seq = 0;
    std::deque<SendEntry> unacked;
    std::deque<SendEntry> paced;
    std::uint64_t probe_deadline_ns = 0;
    double cwnd = 0;                  ///< messages; >= window_init always
    std::uint32_t inflight_msgs = 0;  ///< transmitted, not acked/sacked
    std::uint64_t srtt_ns = 0;
    std::uint64_t rttvar_ns = 0;
    bool rtt_valid = false;
    std::uint32_t backoff_shift = 0;
    bool in_recovery = false;  ///< halve cwnd once per episode
    std::uint32_t recovery_end_seq = 0;  ///< one past the highest seq
                                         ///< transmitted at episode start
    // Receiver side.
    std::uint32_t cum = 0;  ///< next expected sequence number
    std::set<std::uint32_t> ooo;  ///< received out of order, >= cum
    bool owes_ack = false;
    std::uint64_t ack_deadline_ns = 0;
  };

  Channel& ch(ProcId s, ProcId d) const noexcept {
    return ch_[static_cast<std::size_t>(s) *
                   static_cast<std::size_t>(procs_) +
               static_cast<std::size_t>(d)];
  }

  /// Current retransmit timeout for a channel.
  std::uint64_t rto_for(const Channel& c) const noexcept;
  /// Does the congestion window admit another transmit?
  bool window_admits(const Channel& c) const noexcept;
  /// Fold an RTT sample into the channel's Jacobson estimator.
  static void rtt_sample(Channel& c, std::uint64_t sample_ns) noexcept;
  /// Register a loss signal: halve once per recovery episode; a timeout
  /// instead restarts the window at window_init and backs the timer off.
  void loss_event(Channel& c, bool timeout) const noexcept;

  /// Apply a received (ack, sack) pair to (data_src -> data_dst)'s
  /// retransmit queue: pop covered entries, mark SACKed ones, fast-
  /// retransmit the holes, grow/shrink the window, then drain pacing.
  void apply_ack(ProcId data_src, ProcId data_dst, std::uint32_t ack,
                 std::uint64_t sack);
  /// First transmit of an admitted entry on channel c = (src -> dst):
  /// count it in flight, arm the probe, queue it for retransmission, and
  /// emit a copy (sharing the framed slab).
  void transmit(ProcId src, ProcId dst, Channel& c, SendEntry&& e);
  /// Transmit paced entries while the window admits them.
  void drain_paced(ProcId src, ProcId dst, Channel& c);
  void send_standalone_ack(ProcId from, ProcId to, std::uint32_t ack,
                           std::uint64_t sack);
  /// Inject one wire copy as its fate says: drop it, send it twice,
  /// and/or delay its arrival by delay_ns.
  void emit(ProcId src, ProcId dst, std::uint8_t kind, std::uint32_t seq,
            std::uint32_t attempt, rt::Message&& m);

  rt::Transport& transport_;
  rt::Machine& machine_;
  const int procs_;
  std::uint64_t rto_ns_ = 0;
  std::uint64_t ack_delay_ns_ = 0;
  std::uint32_t window_init_ = 0;
  std::uint32_t window_max_ = 0;
  bool adaptive_ = true;
  FaultSchedule sched_;
  std::unique_ptr<Channel[]> ch_;
  /// Per source, owned by its pump thread: the next standalone ack's seq
  /// for the fault schedule.
  std::unique_ptr<std::uint32_t[]> ack_ordinal_;
  /// Unacked data messages, transmitted or paced — the reliability
  /// layer's contribution to in_flight().
  std::atomic<std::uint64_t> unacked_total_{0};
  /// Channels currently owing a standalone ack. Together with
  /// unacked_total_ this gates poll()/next_due_ns()'s channel scan: an
  /// idle machine pays two atomic loads per pump iteration, not an
  /// O(procs) walk.
  std::atomic<std::uint64_t> owed_acks_total_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dup_drops_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> fast_retransmits_{0};
  std::atomic<std::uint64_t> rto_fires_{0};
  std::atomic<std::uint64_t> rtx_bytes_{0};
  std::atomic<std::uint64_t> paced_msgs_{0};
  std::atomic<std::uint64_t> max_inflight_msgs_{0};
};

}  // namespace tram::fault
