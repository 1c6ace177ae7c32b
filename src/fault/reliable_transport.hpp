#pragma once
///
/// \file reliable_transport.hpp
/// \brief Exactly-once delivery over a faulty transport, with SACK-based
/// recovery, an adaptive retransmit timer, and AIMD send-window pacing.
///
/// The protocol, per directed (src, dst) process channel:
///
///  - send: stamp a ReliableHeader — a fresh per-channel sequence number
///    plus the reverse channel's cumulative ack and SACK bitmap
///    (piggybacking) — in front of the payload, keep the framed slab
///    (refcounted, no copy) in the channel's retransmit queue, and hand
///    the message to the faulty layer below. Messages past the congestion
///    window are *paced*: queued sender-side (still counted by
///    in_flight(), so quiescence detection cannot fire under them) and
///    transmitted as acks open the window.
///  - receive (DeliveryInterceptor::on_inbound, below every transport's
///    delivery tail): apply the piggybacked ack + SACK to the reverse
///    channel's retransmit queue; dedup the data sequence number against
///    the cumulative counter + out-of-order window (a duplicate is
///    counted and consumed); strip the header (zero-copy subref) and
///    deliver.
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
///    ack_delay the receiver's pump thread sends a standalone kAck that
///    the peer's interceptor consumes. Duplicates re-arm the ack so a
///    lost ack is always replaced. A transmit cancels the owed ack only
///    if its piggybacked (ack, sack) is still current.
///
/// Quiescence integration: in_flight() adds the count of unacked data
/// messages — transmitted *and* paced — to the inner transport's, so the
/// machine can declare quiescence neither while a dropped packet still
/// needs re-shipping nor while pacing holds data back. All channel state
/// is spinlocked: under the inline transport deliveries (and thus ack
/// processing) run on the *sender's* thread, so a channel's two ends can
/// be touched concurrently. No path ever holds two channel locks —
/// messages are collected under one lock and transmitted after release.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/reliable_wire.hpp"
#include "runtime/transport.hpp"
#include "util/spinlock.hpp"

namespace tram::fault {

class ReliableTransport final : public rt::Transport,
                                public rt::DeliveryInterceptor {
 public:
  ReliableTransport(rt::Machine& machine,
                    std::unique_ptr<rt::Transport> inner, FaultConfig cfg);

  // -- rt::Transport --
  void send(ProcId src_proc, rt::Message&& m) override;
  std::size_t poll(rt::Process& proc) override;
  std::uint64_t next_due_ns(ProcId p) const override;
  std::uint64_t in_flight() const override;
  std::uint64_t total_messages() const override;
  std::uint64_t total_bytes() const override;
  std::uint64_t total_forwarded() const override;
  void reset() override;

  // -- rt::DeliveryInterceptor --
  bool on_inbound(rt::Process& proc, rt::Message& m) override;

  /// Base retransmit timeout (cfg.rto_ns, or derived from the cost model
  /// when 0). Unless cfg.rto_ns pins it, this is only the pre-first-sample
  /// value.
  std::uint64_t rto_ns() const noexcept { return rto_ns_; }
  std::uint64_t ack_delay_ns() const noexcept { return ack_delay_ns_; }

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
    std::uint32_t rtx_count = 0;   ///< Karn: entries with rtx>0 never
                                   ///< contribute RTT samples.
    std::uint32_t bytes = 0;       ///< framed size, for rtx_bytes
    bool sacked = false;
    bool fast_rtxed = false;  ///< one fast retransmit per entry per
                              ///< timeout round; the timer is the backstop
    std::uint64_t first_send_ns = 0;
    rt::Message msg;
  };

  /// One directed channel. Sender-side fields are driven by the source's
  /// pump thread (plus ack application, which under the inline transport
  /// runs on the peer's thread); receiver-side fields by whichever thread
  /// delivers — hence the lock.
  struct Channel {
    mutable util::Spinlock mu;
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

  /// Current retransmit timeout for a channel (lock held by caller).
  std::uint64_t rto_for(const Channel& c) const noexcept;
  /// Does the congestion window admit another transmit? (lock held)
  bool window_admits(const Channel& c) const noexcept;
  /// Fold an RTT sample into the channel's Jacobson estimator. (lock held)
  static void rtt_sample(Channel& c, std::uint64_t sample_ns) noexcept;
  /// Register a loss signal: halve once per recovery episode; a timeout
  /// instead restarts the window at window_init and backs the timer off.
  /// (lock held)
  void loss_event(Channel& c, bool timeout) const noexcept;

  /// Apply a received (ack, sack) pair to (data_src -> data_dst)'s
  /// retransmit queue: pop covered entries, mark SACKed ones, fast-
  /// retransmit the holes, grow/shrink the window, then drain pacing.
  void apply_ack(ProcId data_src, ProcId data_dst, std::uint32_t ack,
                 std::uint64_t sack);
  /// Transmit paced entries while the window admits them.
  void drain_paced(ProcId src_proc, Channel& c);
  void send_standalone_ack(ProcId from, ProcId to, std::uint32_t ack,
                           std::uint64_t sack);

  rt::Machine& machine_;
  std::unique_ptr<rt::Transport> inner_;
  const int procs_;
  std::uint64_t rto_ns_ = 0;
  std::uint64_t ack_delay_ns_ = 0;
  std::uint32_t window_init_ = 0;
  std::uint32_t window_max_ = 0;
  bool adaptive_ = true;
  std::unique_ptr<Channel[]> ch_;
  /// Unacked data messages, transmitted or paced — the reliability
  /// layer's contribution to in_flight().
  std::atomic<std::uint64_t> unacked_total_{0};
  /// Channels currently owing a standalone ack. Together with
  /// unacked_total_ this gates poll()/next_due_ns()'s channel scan: an
  /// idle machine pays two atomic loads per pump iteration, not
  /// O(procs) spinlocks.
  std::atomic<std::uint64_t> owed_acks_total_{0};
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
