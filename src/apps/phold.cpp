#include "apps/phold.hpp"

#include "util/rng.hpp"

namespace tram::apps {

PholdApp::PholdApp(rt::Machine& machine, const PholdParams& params)
    : machine_(machine),
      params_(params),
      part_(static_cast<std::uint64_t>(params.lps_per_worker) *
                static_cast<std::uint64_t>(machine.topology().workers()),
            machine.topology().workers()),
      domain_(machine, params.tram,
              [this](rt::Worker& w, const Event& ev) { handle_event(w, ev); }),
      state_(static_cast<std::size_t>(machine.topology().workers())) {
  for (int w = 0; w < machine.topology().workers(); ++w) {
    state_[static_cast<std::size_t>(w)].value.lp_clock.assign(
        part_.size(w), 0.0);
  }
}

void PholdApp::handle_event(rt::Worker& w, const Event& ev) {
  auto& st = state_[static_cast<std::size_t>(w.id())].value;
  double& clock = st.lp_clock[ev.lp - part_.begin(w.id())];
  ++st.processed;
  if (ev.ts < clock) {
    // Placeholder engine: record the would-be rollback, do not undo.
    ++st.ooo;
  } else {
    clock = ev.ts;
  }
  if (ev.ts >= params_.end_time) return;

  // Spawn the successor event, drawing from the event's own stream so
  // the chain is identical whatever order events are delivered in. The
  // successor's stream seed is drawn before the destination (whose
  // redraw loop consumes a partition-dependent number of draws), so
  // chain timing — and with it the event count — depends only on the
  // seed and the LP total, not on how LPs are spread over workers.
  util::Xoshiro256 rng(ev.stream);
  const double next_ts =
      ev.ts + params_.lookahead + rng.exponential(params_.mean_delay);
  const std::uint64_t next_stream = rng();
  std::uint32_t dest_lp;
  if (rng.uniform() < params_.remote_prob && part_.parts() > 1) {
    // Uniform LP on some other worker: draw until the owner differs (the
    // LP space is balanced, so this terminates almost immediately).
    do {
      dest_lp = static_cast<std::uint32_t>(rng.below(part_.total()));
    } while (part_.owner(dest_lp) == w.id());
  } else {
    dest_lp = static_cast<std::uint32_t>(
        part_.begin(w.id()) + rng.below(part_.size(w.id())));
  }
  domain_.on(w).insert(static_cast<WorkerId>(part_.owner(dest_lp)),
                       Event{next_ts, dest_lp, next_stream});
}

PholdResult PholdApp::run(std::uint64_t seed) {
  for (int w = 0; w < machine_.topology().workers(); ++w) {
    auto& st = state_[static_cast<std::size_t>(w)].value;
    std::fill(st.lp_clock.begin(), st.lp_clock.end(), 0.0);
    st.processed = st.ooo = 0;
  }
  domain_.reset_stats();

  const auto result = machine_.run(
      [this, seed](rt::Worker& w) {
        auto& agg = domain_.on(w);
        // Seed the initial event population on our own LPs, each chain
        // from its own (seed, lp, k) stream — independent of worker
        // count so the chain set depends only on the topology's LP total.
        const std::uint64_t base = part_.begin(w.id());
        for (std::uint64_t lp = 0; lp < part_.size(w.id()); ++lp) {
          for (int k = 0; k < params_.init_events_per_lp; ++k) {
            util::Xoshiro256 rng = util::Xoshiro256::for_stream(
                seed, base + lp, static_cast<std::uint64_t>(k));
            const double ts =
                params_.lookahead + rng.exponential(params_.mean_delay);
            agg.insert(w.id(), Event{ts, static_cast<std::uint32_t>(base + lp),
                                     rng()});
          }
          if (params_.progress_interval != 0 &&
              lp % params_.progress_interval == 0) {
            w.progress();
          }
        }
        agg.flush_all();
      },
      seed);

  PholdResult res;
  res.run = result;
  res.tram = domain_.aggregate_stats();
  res.max_reserved_buffers = domain_.max_reserved_buffers();
  for (const auto& s : state_) {
    res.events_processed += s.value.processed;
    res.ooo_events += s.value.ooo;
  }
  res.ooo_pct = res.events_processed
                    ? 100.0 * static_cast<double>(res.ooo_events) /
                          static_cast<double>(res.events_processed)
                    : 0.0;
  return res;
}

}  // namespace tram::apps
