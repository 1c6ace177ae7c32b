#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <type_traits>

#include "apps/index_gather.hpp"
#include "core/tram.hpp"
#include "graph/csr.hpp"
#include "route/routed_domain.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

namespace tram::e2e {
namespace {

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(util::now_ns() - t0) * 1e-9;
}

/// The modeled interconnect every workload runs on: 20 us remote alpha and
/// 1.5 us of comm processing per message sent or received, so per-message
/// cost dwarfs per-item cost as in the paper. The values equal the figure
/// benches' bench_runtime(); they are repeated here so that the benchmark
/// stays fixed when the figure harness changes. Every process runs SMP
/// mode: a dedicated comm thread pumps the fabric while its worker naps.
rt::RuntimeConfig modeled_runtime() {
  rt::RuntimeConfig cfg;
  cfg.cost.alpha_remote_ns = 20'000.0;
  cfg.cost.alpha_local_ns = 2'000.0;
  cfg.cost.beta_remote_ns = 0.1;
  cfg.cost.beta_local_ns = 0.02;
  cfg.cost.inject_ns = 200.0;
  cfg.comm_per_msg_send_ns = 1'500.0;
  cfg.comm_per_msg_recv_ns = 1'500.0;
  cfg.comm_per_byte_ns = 0.05;
  cfg.dedicated_comm = true;
  return cfg;
}

// Every workload is an open-loop index-gather. Each worker issues requests
// at seeded exponential inter-arrival times from an idle hook; the owner
// answers from its request handler.

template <bool kRouted>
class GatherWorkload final : public Workload {
 public:
  struct Params {
    util::Topology topo;
    core::Scheme scheme = core::Scheme::WPs;
    double rate_per_worker = 0.0;  // requests per second
    /// Drop and duplicate this share of packets (0: a perfect fabric).
    double loss = 0.0;
    double trial_s = 0.0;
    /// Warm-up and traced trials.
    double short_trial_s = 0.0;
  };

  GatherWorkload(const Params& p, std::uint64_t seed)
      : p_(p), runtime_(modeled_runtime()) {
    runtime_.fault.drop_rate = runtime_.fault.dup_rate = p.loss;
    runtime_.fault.seed = seed;
  }

  SetupSplit construct() override {
    responses_.reset();
    requests_.reset();
    gens_.clear();
    machine_.reset();
    SetupSplit s;
    std::uint64_t t0 = util::now_ns();
    machine_ = std::make_unique<rt::Machine>(p_.topo, runtime_);
    s.machine_s = seconds_since(t0);

    const int workers = machine_->topology().workers();
    t0 = util::now_ns();
    part_ = graph::BlockPartition(kEntriesPerWorker * workers, workers);
    table_.assign(static_cast<std::size_t>(workers), {});
    for (int w = 0; w < workers; ++w) {
      auto& slice = table_[static_cast<std::size_t>(w)];
      slice.resize(part_.size(w));
      for (std::uint64_t i = 0; i < slice.size(); ++i) {
        slice[i] = apps::IndexGatherApp::value_at(part_.begin(w) + i);
      }
    }
    s.inputs_s = seconds_since(t0);

    t0 = util::now_ns();
    gens_ = std::vector<util::Padded<Gen>>(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      rt::Worker& worker = machine_->worker(w);
      Gen* g = &gens_[static_cast<std::size_t>(w)].value;
      // Registered before the domains' flush-on-idle hooks, so requests
      // issued in an idle round ship in that same round.
      worker.add_idle_hook([this, g](rt::Worker& wk) { issue_due(wk, *g); });
      // Unissued requests are pending work: quiescence cannot fire while
      // the generator still owes requests.
      worker.add_pending_counter(
          [g] { return g->unissued.load(std::memory_order_acquire); });
    }
    core::TramConfig cfg;
    cfg.scheme = p_.scheme;
    cfg.buffer_items = 256;
    requests_ = std::make_unique<Domain<Req>>(
        *machine_, cfg, [this](rt::Worker& w, const Req& r) { serve(w, r); });
    responses_ = std::make_unique<Domain<Resp>>(
        *machine_, cfg,
        [this](rt::Worker& w, const Resp& r) { complete(w, r); });
    s.app_s = seconds_since(t0);
    return s;
  }

  Trial run(std::uint64_t seed, Phase phase) override {
    const bool traced = phase == Phase::kTraced;
    const double secs =
        phase == Phase::kTimed ? p_.trial_s : p_.short_trial_s;
    const auto quota =
        static_cast<std::uint64_t>(std::llround(p_.rate_per_worker * secs));
    for (std::size_t w = 0; w < gens_.size(); ++w) {
      Gen& g = gens_[w].value;
      g.rng = util::Xoshiro256::for_stream(seed, w);
      g.quota = quota;
      g.issued = 0;
      g.unissued.store(quota, std::memory_order_release);
      g.responses = g.wrong = 0;
      g.latency.clear();
      g.late.clear();
      g.req_path.clear();
      g.resp_path.clear();
      g.records.clear();
      if (traced) g.records.reserve(quota / kRecordEvery + 1);
      g.record = traced;
    }
    requests_->reset_stats();
    responses_->reset_stats();
    core::reset_payload_pool_stats();
    const auto r = machine_->run(
        [this](rt::Worker& w) {
          Gen& g = gens_[static_cast<std::size_t>(w.id())].value;
          g.next_due = util::now_ns() + gap(g);
        },
        seed);

    Trial t;
    t.return_ns = util::now_ns();
    t.run = r;
    t.wall_s = r.wall_s;
    t.fault = machine_->fault_stats();
    t.pool = core::payload_pool_stats();
    t.tram = requests_->aggregate_stats();
    t.tram.merge(responses_->aggregate_stats());
    t.max_reserved_buffers = std::max(requests_->max_reserved_buffers(),
                                      responses_->max_reserved_buffers());
    for (auto& gp : gens_) {
      Gen& g = gp.value;
      t.attempted += g.quota;
      t.items += g.responses;
      // Missing and duplicated responses both break exactly-once.
      t.failed += (g.quota > g.responses ? g.quota - g.responses
                                         : g.responses - g.quota) +
                  g.wrong;
      t.latency.merge(g.latency);
      t.late.merge(g.late);
      t.req_path.merge(g.req_path);
      t.resp_path.merge(g.resp_path);
      t.requests.insert(t.requests.end(), g.records.begin(), g.records.end());
    }
    return t;
  }

  const rt::Machine& machine() const override { return *machine_; }

 private:
  static constexpr std::uint64_t kEntriesPerWorker = 1 << 16;
  /// The traced trial keeps the segments of every this-many-th request.
  static constexpr std::uint32_t kRecordEvery = 64;

  struct Req {
    std::uint64_t due_ns;
    std::uint64_t issue_ns;
    std::uint64_t index;
    std::int32_t requester;
    std::uint32_t seq;
  };
  struct Resp {
    std::uint64_t due_ns;
    std::uint64_t issue_ns;
    std::uint64_t serve_ns;
    std::uint64_t index;
    std::uint64_t value;
    std::uint32_t seq;
  };
  template <typename T>
  using Domain = std::conditional_t<kRouted, route::RoutedDomain<T>,
                                    core::TramDomain<T>>;

  /// One requester's generator and the responses it has seen; touched
  /// only by its worker, except `unissued` (read by quiescence detection).
  struct Gen {
    util::Xoshiro256 rng{0};  // reseeded by every trial
    std::uint64_t quota = 0;
    std::uint64_t issued = 0;
    std::uint64_t next_due = 0;
    std::atomic<std::uint64_t> unissued{0};
    std::uint64_t responses = 0;
    std::uint64_t wrong = 0;
    FineHist latency, late, req_path, resp_path;
    bool record = false;
    std::vector<RequestRecord> records;
  };

  std::uint64_t gap(Gen& g) const {
    return static_cast<std::uint64_t>(
        g.rng.exponential(1e9 / p_.rate_per_worker));
  }

  /// Idle hook: issue every request whose due time has passed.
  void issue_due(rt::Worker& w, Gen& g) {
    if (g.issued == g.quota) return;
    const std::uint64_t now = util::now_ns();
    if (g.next_due > now) return;
    auto& req = requests_->on(w);
    const std::uint64_t total = part_.total();
    while (g.issued < g.quota && g.next_due <= now) {
      const std::uint64_t index = g.rng.below(total);
      req.insert(static_cast<WorkerId>(part_.owner(index)),
                 Req{g.next_due, util::now_ns(), index, w.id(),
                     static_cast<std::uint32_t>(g.issued)});
      ++g.issued;
      g.unissued.fetch_sub(1, std::memory_order_release);
      g.next_due += gap(g);
    }
  }

  /// Owner side: look the index up and answer through the response domain.
  void serve(rt::Worker& w, const Req& r) {
    const auto& slice = table_[static_cast<std::size_t>(w.id())];
    responses_->on(w).insert(
        r.requester, Resp{r.due_ns, r.issue_ns, util::now_ns(), r.index,
                          slice[r.index - part_.begin(w.id())], r.seq});
  }

  /// Requester side: verify the value and record the latency segments.
  void complete(rt::Worker& w, const Resp& r) {
    Gen& g = gens_[static_cast<std::size_t>(w.id())].value;
    const std::uint64_t now = util::now_ns();
    ++g.responses;
    if (r.value != apps::IndexGatherApp::value_at(r.index)) ++g.wrong;
    g.latency.add(now - r.due_ns);
    g.late.add(r.issue_ns - r.due_ns);
    g.req_path.add(r.serve_ns - r.issue_ns);
    g.resp_path.add(now - r.serve_ns);
    if (g.record && r.seq % kRecordEvery == 0) {
      g.records.push_back(
          RequestRecord{r.due_ns, r.issue_ns, r.serve_ns, now, r.seq, w.id()});
    }
  }

  Params p_;
  rt::RuntimeConfig runtime_;
  std::unique_ptr<rt::Machine> machine_;
  graph::BlockPartition part_{1, 1};
  std::vector<std::vector<std::uint64_t>> table_;
  std::vector<util::Padded<Gen>> gens_;
  std::unique_ptr<Domain<Req>> requests_;
  std::unique_ptr<Domain<Resp>> responses_;
};

template <bool kRouted>
std::unique_ptr<Workload> make_gather(
    typename GatherWorkload<kRouted>::Params p, std::uint64_t seed,
    bool smoke) {
  if (smoke) {
    p.trial_s = 0.3;
    p.short_trial_s = 0.2;
  }
  return std::make_unique<GatherWorkload<kRouted>>(p, seed);
}

/// gather-lossy's fabric: 1% of packets dropped and 1% duplicated.
/// At 5% drop / 3% dup, retransmit-timer stalls dominate and medians of
/// the same configuration differed by a third.
constexpr double kLoss = 0.01;

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  using Gather = GatherWorkload<false>;
  static const Gather::Params kGatherSmp = {.topo = util::Topology(2, 1, 1),
                                            .scheme = core::Scheme::WsP,
                                            .rate_per_worker = 20'000.0,
                                            .trial_s = 2.0,
                                            .short_trial_s = 0.5};
  static const std::vector<WorkloadSpec> specs = {
      {"gather-smp",
       "open-loop gather at light load in SMP mode: comm threads, idle naps "
       "and flush-on-idle set the latency",
       [](std::uint64_t seed, bool smoke) {
         return make_gather<false>(kGatherSmp, seed, smoke);
       }},
      {"gather-lossy",
       "gather-smp over a fabric dropping and duplicating 1% of packets: "
       "differs only by the reliability layer (framing, acks, recovery)",
       [](std::uint64_t seed, bool smoke) {
         Gather::Params p = kGatherSmp;
         p.loss = kLoss;
         return make_gather<false>(p, seed, smoke);
       }},
      {"gather-mesh",
       "open-loop gather over a 2x2 virtual mesh in SMP mode: multi-hop "
       "rebucket and forwarding on the latency path",
       [](std::uint64_t seed, bool smoke) {
         return make_gather<true>({.topo = util::Topology(4, 1, 1),
                                   .scheme = core::Scheme::Mesh2D,
                                   .rate_per_worker = 10'000.0,
                                   .trial_s = 2.0,
                                   .short_trial_s = 0.5},
                                  seed, smoke);
       }},
  };
  return specs;
}

}  // namespace tram::e2e
