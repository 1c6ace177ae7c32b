/// Ablation (paper section III-A): the comm thread as serializing
/// bottleneck. The paper finds that below ~167 ns of application work per
/// word of communication, one dedicated comm thread per process cannot
/// keep up. We sweep the modeled per-message comm cost at a fixed message
/// rate and show PingAck time scales with it in SMP 1-proc mode but not in
/// non-SMP mode, and that the SMP/non-SMP gap closes as the per-message
/// cost shrinks.

#include <cstdio>

#include "apps/pingack.hpp"
#include "bench_common.hpp"
#include "runtime/machine.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv,
                 "ablate_commthread: comm-thread serialization sweep"))
    return 2;

  const int workers_per_node = 8;
  const int msgs_per_worker = opt.quick ? 1'000 : 3'000;

  util::Table table(
      "Ablation: PingAck vs comm-thread per-message cost (2 nodes, 8 "
      "workers/node)");
  table.set_header({"per-msg cost ns", "SMP 1-proc s", "non-SMP s",
                    "ratio"});

  std::vector<double> ratios;
  for (const double cost : {0.0, 250.0, 500.0, 1'000.0, 2'000.0}) {
    auto smp_cfg = bench::bench_runtime();
    smp_cfg.comm_per_msg_send_ns = cost;
    smp_cfg.comm_per_msg_recv_ns = cost;
    auto nonsmp_cfg = bench::bench_runtime_nonsmp();
    nonsmp_cfg.comm_per_msg_send_ns = cost;
    nonsmp_cfg.comm_per_msg_recv_ns = cost;

    apps::PingAckParams params;
    params.messages_per_worker = msgs_per_worker;

    rt::Machine smp(util::Topology(2, 1, workers_per_node), smp_cfg);
    apps::PingAckApp smp_app(smp);
    const double t_smp = bench::median_seconds(
        static_cast<int>(opt.trials),
        [&] { return smp_app.run(params).total_s; });

    rt::Machine nonsmp(util::Topology(2, workers_per_node, 1), nonsmp_cfg);
    apps::PingAckApp nonsmp_app(nonsmp);
    const double t_nonsmp = bench::median_seconds(
        static_cast<int>(opt.trials),
        [&] { return nonsmp_app.run(params).total_s; });

    const double ratio = t_smp / t_nonsmp;
    ratios.push_back(ratio);
    table.add_row({util::Table::fmt(cost, 0), util::Table::fmt(t_smp, 4),
                   util::Table::fmt(t_nonsmp, 4),
                   util::Table::fmt(ratio, 2)});
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  shapes.expect(ratios.back() > ratios.front(),
                "the SMP/non-SMP gap widens with per-message comm cost");
  shapes.expect(ratios.back() > 2.0,
                "at high per-message cost, 1-proc SMP is >2x slower "
                "(serializing comm thread)");
  shapes.report();
  return 0;
}
