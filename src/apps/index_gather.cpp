#include "apps/index_gather.hpp"

#include "util/timebase.hpp"

namespace tram::apps {

IndexGatherApp::IndexGatherApp(rt::Machine& machine, const IgParams& params)
    : machine_(machine),
      params_(params),
      part_(params.table_entries_per_worker *
                static_cast<std::uint64_t>(machine.topology().workers()),
            machine.topology().workers()),
      table_(static_cast<std::size_t>(machine.topology().workers())),
      requests_(machine, params.tram,
                [this](rt::Worker& w, const Request& req) {
                  // Owner-side lookup; reply through the response domain.
                  const auto& slice =
                      table_[static_cast<std::size_t>(w.id())];
                  const std::uint64_t value =
                      slice[req.index - part_.begin(w.id())];
                  responses_.on(w).insert(
                      req.requester,
                      Response{req.birth_ns, req.index, value});
                }),
      responses_(machine, params.tram,
                 [this](rt::Worker& w, const Response& resp) {
                   auto& st = state_[static_cast<std::size_t>(w.id())].value;
                   st.latency.add(util::now_ns() - resp.birth_ns);
                   ++st.responses;
                   if (resp.value != value_at(resp.index)) ++st.wrong_values;
                 }),
      state_(static_cast<std::size_t>(machine.topology().workers())) {
  for (int w = 0; w < machine.topology().workers(); ++w) {
    auto& slice = table_[static_cast<std::size_t>(w)];
    slice.resize(part_.size(w));
    const std::uint64_t base = part_.begin(w);
    for (std::uint64_t i = 0; i < slice.size(); ++i) {
      slice[i] = value_at(base + i);
    }
  }
}

IgResult IndexGatherApp::run(std::uint64_t seed) {
  for (auto& s : state_) s.value = WorkerState{};
  requests_.reset_stats();
  responses_.reset_stats();

  const std::uint64_t total_entries = part_.total();
  const auto result = machine_.run(
      [this, total_entries](rt::Worker& w) {
        auto req = requests_.on(w);
        for (std::uint64_t i = 0; i < params_.requests_per_worker; ++i) {
          const std::uint64_t index = w.rng().below(total_entries);
          req.insert(
              static_cast<WorkerId>(part_.owner(index)),
              Request{util::now_ns(), index, w.id()});
          if (params_.progress_interval != 0 &&
              i % params_.progress_interval == 0) {
            w.progress();
          }
        }
        req.flush_all();
        // Responses keep flowing after the request loop; the scheduler loop
        // plus flush-on-idle finish the exchange, and QD ends the run.
      },
      seed);

  IgResult res;
  res.run = result;
  res.req_stats = requests_.aggregate_stats();
  res.resp_stats = responses_.aggregate_stats();
  res.tram = res.req_stats;
  res.tram.merge(res.resp_stats);
  for (const auto& s : state_) {
    res.latency.merge(s.value.latency);
    res.responses += s.value.responses;
    res.wrong_values += s.value.wrong_values;
  }
  const std::uint64_t expected =
      params_.requests_per_worker *
      static_cast<std::uint64_t>(machine_.topology().workers());
  res.verified = res.responses == expected && res.wrong_values == 0;
  return res;
}

}  // namespace tram::apps
