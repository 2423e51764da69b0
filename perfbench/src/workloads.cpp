#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <optional>
#include <vector>

#include "arch/accelerator.hpp"
#include "arch/registry.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "serve/simulator.hpp"
#include "sim/registry.hpp"

namespace perfbench {
namespace {

namespace serve = lumos::serve;
namespace sim = lumos::sim;

constexpr std::size_t kMaxBatch = 8;

// Median host seconds per call of `body`, which makes `calls` calls, over
// five timed blocks.
template <class Body>
double seconds_per_call(std::size_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int block = 0; block < 5; ++block) {
    const double t0 = now_s();
    body();
    per_call.push_back((now_s() - t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

// The catalog's transformer workloads, shared by the estimator timings.
std::vector<lumos::arch::Workload> transformer_workloads(const serve::WorkloadCatalog& catalog) {
  std::vector<lumos::arch::Workload> out;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.workload(i).kind() == lumos::arch::WorkloadKind::kTransformer) {
      out.push_back(catalog.workload(i));
    }
  }
  return out;
}

// Mean host time of one uncached estimator call: TRON batch estimates and
// decode steps, and the v100 roofline through arch::PlatformAdapter, over the
// default TRON catalog at batches 1..kMaxBatch.
void estimator_metrics(Metrics& out) {
  const auto workloads = transformer_workloads(serve::WorkloadCatalog::tron_default());
  const auto tron = lumos::arch::make_accelerator("tron");
  const auto v100 = lumos::arch::make_accelerator("v100");
  const std::size_t calls = workloads.size() * kMaxBatch;
  // The estimators live in the separately compiled library, so the calls
  // cannot be optimised away even though their results are dropped.
  const auto sweep = [&](const lumos::arch::Accelerator& acc, bool decode) {
    return seconds_per_call(calls, [&] {
      for (const auto& w : workloads) {
        for (std::size_t b = 1; b <= kMaxBatch; ++b) {
          if (decode) {
            static_cast<void>(acc.estimate_decode_step(w, b, w.transformer_config().seq_len + 32));
          } else {
            static_cast<void>(acc.estimate_batch(w, b));
          }
        }
      }
    });
  };
  out["tron.estimate_us"] = 1e6 * sweep(*tron, false);
  out["tron.decode_step_us"] = 1e6 * sweep(*tron, true);
  out["baselines.roofline_us"] = 1e6 * sweep(*v100, false);
}

// Counters the simulator reports, and host time of one cold and one warm
// EstimateCache lookup on fresh caches over the catalog's keyspace: every
// workload x batch x sequence bucket, plus the decode keyspace when the
// catalog decodes.
void cache_metrics(const serve::Scenario& scenario, const serve::FleetMetrics& m, Metrics& out) {
  out["serve.cache.lookups"] = static_cast<double>(m.estimate_lookups);
  out["serve.cache.misses"] = static_cast<double>(m.estimate_misses);
  out["serve.cache.hit_ratio"] = m.estimate_hit_rate();

  const serve::WorkloadCatalog& catalog = scenario.catalog;
  std::vector<std::string> specs = scenario.fleet.accelerators;
  std::sort(specs.begin(), specs.end());
  specs.erase(std::unique(specs.begin(), specs.end()), specs.end());

  struct Key {
    std::uint32_t workload;
    std::size_t batch;
    std::uint32_t len;
    bool decode;
  };
  std::vector<Key> keys;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    const serve::CatalogEntry& e = catalog.at(w);
    const auto native = static_cast<std::uint32_t>(e.workload.transformer_config().seq_len);
    std::vector<std::uint32_t> lens{0};
    if (e.seqlen.dist != serve::SeqLenDist::kFixed) {
      lens.clear();
      for (std::size_t l = e.seqlen.bucket; l <= e.seqlen.max_len; l += e.seqlen.bucket) {
        lens.push_back(static_cast<std::uint32_t>(l));
      }
    }
    for (std::size_t b = 1; b <= kMaxBatch; ++b) {
      for (const std::uint32_t l : lens) keys.push_back({w, b, l, false});
      if (!e.decode.enabled()) continue;
      for (std::size_t ctx = native; ctx <= native + e.decode.max_tokens; ctx += e.decode.ctx_bucket) {
        keys.push_back({w, b, static_cast<std::uint32_t>(ctx), true});
      }
    }
  }
  const auto lookup_all = [&](const serve::EstimateCache& cache) {
    for (const Key& k : keys) {
      if (k.decode) {
        static_cast<void>(cache.decode_step(k.workload, k.batch, k.len));
      } else {
        static_cast<void>(cache.estimate(k.workload, k.batch, k.len));
      }
    }
  };

  std::vector<double> miss_s;
  std::vector<double> hit_s;
  constexpr int kHitPasses = 20;
  for (int block = 0; block < 5; ++block) {
    for (const std::string& spec : specs) {
      const serve::EstimateCache cache(spec, catalog);
      double t0 = now_s();
      lookup_all(cache);
      miss_s.push_back((now_s() - t0) / static_cast<double>(keys.size()));
      t0 = now_s();
      for (int pass = 0; pass < kHitPasses; ++pass) lookup_all(cache);
      hit_s.push_back((now_s() - t0) / static_cast<double>(keys.size() * kHitPasses));
    }
  }
  out["serve.cache.miss_us"] = 1e6 * median(miss_s);
  out["serve.cache.hit_ns"] = 1e9 * median(hit_s);
}

void simulator_metrics(const SpanTimes& spans, const serve::FleetMetrics& m, Metrics& out) {
  const double run_s = spans.rep("serve.simulator.simulate");
  const double dispatches = static_cast<double>(std::max<std::size_t>(m.dispatches, 1));
  out["serve.simulator.run_s"] = run_s;
  out["serve.simulator.ns_per_request"] =
      1e9 * run_s / static_cast<double>(std::max<std::size_t>(m.completed, 1));
  out["serve.simulator.dispatches"] = static_cast<double>(m.dispatches);
  out["serve.simulator.requests_per_dispatch"] = static_cast<double>(m.completed) / dispatches;
  out["serve.simulator.ns_per_dispatch"] = 1e9 * run_s / dispatches;
}

// simulate_sharded split into its public parts: CellPlan::build, simulate
// per cell (on the global pool when `parallel`), then the ascending
// FleetMetrics::merge fold.  Stores each cell's host seconds in `cell_s`.
serve::FleetMetrics fold_cells(const serve::Scenario& scenario, std::size_t cells, bool parallel,
                               Tracer* tracer, std::vector<double>* cell_s) {
  serve::CellPlan plan;
  {
    Scope span(tracer, "serve.shard.plan");
    plan = serve::CellPlan::build(scenario, cells);
  }
  const std::size_t n = plan.cells.size();
  std::vector<serve::FleetMetrics> per_cell(n);
  std::vector<double> start(n);
  std::vector<double> end(n);
  const auto simulate_cells = [&](std::size_t begin, std::size_t stop) {
    for (std::size_t c = begin; c < stop; ++c) {
      start[c] = now_s();
      per_cell[c] = serve::simulate(plan.cells[c]);
      end[c] = now_s();
    }
  };
  {
    Scope span(tracer, "serve.shard.cells");
    if (parallel) {
      lumos::parallel_for(0, n, 1, simulate_cells);
    } else {
      simulate_cells(0, n);
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (tracer != nullptr) {
        tracer->add("serve.simulator.simulate", span.id(), static_cast<int>(c) + 1, start[c],
                    end[c]);
      }
      if (cell_s != nullptr) cell_s->push_back(end[c] - start[c]);
    }
  }
  serve::FleetMetrics merged = std::move(per_cell.front());
  {
    Scope span(tracer, "serve.metrics.merge");
    for (std::size_t c = 1; c < n; ++c) merged.merge(per_cell[c]);
  }
  if (!scenario.sim.keep_latency_state) merged.latency_state.reset();
  return merged;
}

// Each closed-loop session draws its think times, lengths and token counts
// from its own stream in issue order, so completing every request the
// instant it is issued replays exactly the requests a simulation serves.
// Returns the tokens they ask for; counts them in `issued`.
std::size_t requested_tokens(const serve::Scenario& scenario, std::size_t& issued) {
  serve::ClosedLoopSource source(scenario.catalog, scenario.traffic.closed);
  std::size_t tokens = 0;
  issued = 0;
  while (std::isfinite(source.next_arrival_time())) {
    const serve::Request r = source.pop_arrival();
    ++issued;
    tokens += r.decode_tokens;
    source.on_complete(r, r.arrival_s, serve::CompletionStatus::kOk);
  }
  return tokens;
}

// Open-loop Poisson traffic at 0.8x capacity on a 16-slot TRON fleet serving
// the default catalog with log-normal sequence lengths: 1M requests are
// materialised in set-up and served as an explicit trace, either serially
// (cells == 1) or as `cells` shards on the global thread pool.
class OpenLoop final : public Workload {
 public:
  explicit OpenLoop(std::size_t cells) : cells_(cells) {}

  const char* work_unit() const override { return "requests"; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
    catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);
    scenario_.fleet = serve::FleetConfig::homogeneous("tron", 16);
    scenario_.scheduler = serve::SchedulerKind::kDynamicBatch;
    scenario_.batch.max_batch = kMaxBatch;
    scenario_.sim.percentile_mode = serve::PercentileMode::kExact;
    serve::TraceConfig& traffic = scenario_.traffic.open;
    traffic.offered_qps = 0.8 * serve::fleet_capacity_qps(catalog, scenario_.fleet, kMaxBatch);
    traffic.request_count = 1'000'000;
    traffic.seed = seed;
    {
      Scope span(tracer, "serve.traffic.generate_trace");
      scenario_.trace = serve::generate_trace(catalog, traffic);
    }
    scenario_.catalog = std::move(catalog);
  }

  void prepare_checks() override {
    if (cells_ > 1) reference_ = fold_cells(scenario_, cells_, /*parallel=*/false, nullptr, nullptr);
  }

  double run(Tracer* tracer) override {
    if (cells_ == 1) {
      Scope span(tracer, "serve.simulator.simulate");
      last_ = serve::simulate(scenario_);
    } else if (tracer == nullptr) {
      last_ = serve::simulate_sharded(scenario_, cells_);
    } else {
      cell_s_.emplace_back();
      last_ = fold_cells(scenario_, cells_, /*parallel=*/true, tracer, &cell_s_.back());
    }
    return static_cast<double>(last_.completed);
  }

  std::uint64_t digest() const override { return perfbench::digest(last_); }

  void check(Check& check) const override {
    check_serving(last_, scenario_.trace.size(), check);
    if (cells_ > 1) check_identical(last_, reference_, "sharded result vs serial CellPlan fold", check);
  }

  void layer_metrics(const SpanTimes& spans, Metrics& out) override {
    out["serve.traffic.generate_s"] = spans.setup("serve.traffic.generate_trace");
    out["serve.traffic.requests"] = static_cast<double>(scenario_.trace.size());
    simulator_metrics(spans, last_, out);
    cache_metrics(scenario_, last_, out);
    estimator_metrics(out);
    if (cells_ == 1) return;
    std::vector<double> max_s;
    std::vector<double> mean_s;
    std::vector<double> sum_s;
    // The first entry is the cold repetition's.
    for (std::size_t r = cell_s_.size() > 1 ? 1 : 0; r < cell_s_.size(); ++r) {
      const std::vector<double>& cells = cell_s_[r];
      double sum = 0.0;
      for (const double c : cells) sum += c;
      max_s.push_back(*std::max_element(cells.begin(), cells.end()));
      mean_s.push_back(sum / static_cast<double>(cells.size()));
      sum_s.push_back(sum);
    }
    out["serve.shard.plan_s"] = spans.rep("serve.shard.plan");
    out["serve.shard.cell_s_max"] = median(max_s);
    out["serve.shard.cell_s_mean"] = median(mean_s);
    out["serve.shard.imbalance"] = median(max_s) / median(mean_s);
    out["serve.metrics.merge_s"] = spans.rep("serve.metrics.merge");
    const auto threads = static_cast<double>(lumos::ThreadPool::global().thread_count());
    out["serve.shard.parallel_efficiency"] = median(sum_s) / (threads * spans.wall_s);
  }

 private:
  std::size_t cells_;
  serve::Scenario scenario_;
  serve::FleetMetrics last_;
  serve::FleetMetrics reference_;
  std::vector<std::vector<double>> cell_s_;  // per traced repetition, per cell
};

// A closed loop of 64 sessions (2 ms mean think time, 8000 requests each)
// decoding log-normal token counts around 32 with continuous batching on an
// 8-slot TRON+v100 fleet under cost-aware routing.
class DecodeHybrid final : public Workload {
 public:
  const char* work_unit() const override { return "tokens"; }

  void setup(std::uint64_t seed, Tracer* /*tracer*/) override {
    scenario_.catalog = serve::WorkloadCatalog::tron_default();
    scenario_.catalog.apply_decode(serve::SeqLenDist::kLogNormal, 32);
    scenario_.fleet =
        serve::FleetConfig::cycled({"tron", "v100"}, 8, serve::RoutingPolicy::kCostAware);
    scenario_.scheduler = serve::SchedulerKind::kDynamicBatch;
    scenario_.batch.max_batch = kMaxBatch;
    scenario_.sim.decode_mode = serve::DecodeMode::kContinuous;
    scenario_.traffic.mode = serve::LoopMode::kClosed;
    scenario_.traffic.closed = {64, 8000, 2e-3, seed};
  }

  void prepare_checks() override { expected_tokens_ = requested_tokens(scenario_, issued_); }

  double run(Tracer* tracer) override {
    Scope span(tracer, "serve.simulator.simulate");
    last_ = serve::simulate(scenario_);
    return static_cast<double>(last_.generated_tokens);
  }

  std::uint64_t digest() const override { return perfbench::digest(last_); }

  void check(Check& check) const override {
    check_serving(last_, issued_, check);
    check_tokens(last_, expected_tokens_, check);
    check.expect(last_.sessions == scenario_.traffic.closed.sessions, "every session finished");
  }

  void layer_metrics(const SpanTimes& spans, Metrics& out) override {
    simulator_metrics(spans, last_, out);
    cache_metrics(scenario_, last_, out);
    estimator_metrics(out);
    out["serve.decode.steps"] = static_cast<double>(last_.decode_steps);
    out["serve.decode.tokens"] = static_cast<double>(last_.generated_tokens);
    out["serve.decode.tokens_per_s"] =
        static_cast<double>(last_.generated_tokens) / spans.rep("serve.simulator.simulate");
  }

 private:
  serve::Scenario scenario_;
  serve::FleetMetrics last_;
  std::size_t issued_ = 0;
  std::size_t expected_tokens_ = 0;
};

// The analytic design-space path: GHOST's knob sweep for GCN on a seeded
// synthetic arxiv graph, TRON's sweep for BERT-base and the paper's headline
// claims.  Never touches serve.
class DesignSweep final : public Workload {
 public:
  const char* work_unit() const override { return "design_points"; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    {
      Scope span(tracer, "graph.generate");
      arxiv_ = lumos::graph::synthetic_arxiv(seed);
    }
    gcn_ = sim::gnn_by_name("gcn");
    bert_ = sim::transformer_by_name("bert-base", 128);
    tron_.emplace(lumos::tron::default_tron_config());
    ghost_.emplace(lumos::ghost::default_ghost_config());
  }

  double run(Tracer* tracer) override {
    {
      Scope span(tracer, "sim.ghost_sensitivity");
      ghost_points_ = sim::ghost_sensitivity(lumos::ghost::default_ghost_config(), gcn_, arxiv_);
    }
    {
      Scope span(tracer, "sim.tron_sensitivity");
      tron_points_ = sim::tron_sensitivity(lumos::tron::default_tron_config(), bert_);
    }
    {
      Scope span(tracer, "sim.headline_claims");
      headline_ = sim::run_headline_claims(*tron_, *ghost_);
    }
    return static_cast<double>(ghost_points_.size() + tron_points_.size());
  }

  std::uint64_t digest() const override {
    std::vector<sim::SensitivityPoint> all = ghost_points_;
    all.insert(all.end(), tron_points_.begin(), tron_points_.end());
    return perfbench::digest(all, headline_);
  }

  void check(Check& check) const override {
    check_sweep(ghost_points_, "ghost_sensitivity", check);
    check_sweep(tron_points_, "tron_sensitivity", check);
    check_headline(headline_, check);
  }

  void layer_metrics(const SpanTimes& spans, Metrics& out) override {
    estimator_metrics(out);
    out["ghost.estimate_s"] =
        spans.rep("sim.ghost_sensitivity") / static_cast<double>(ghost_points_.size());
    out["graph.generate_s"] = spans.setup("graph.generate");
    // The two graph calls GHOST's estimate makes, on the same graph and config.
    const lumos::ghost::GhostConfig cfg = lumos::ghost::default_ghost_config();
    out["graph.partition_s"] = seconds_per_call(1, [&] {
      static_cast<void>(lumos::graph::partition(arxiv_.graph, {cfg.lanes, cfg.input_block_size}));
    });
    out["graph.lane_imbalance_s"] = seconds_per_call(1, [&] {
      static_cast<void>(lumos::graph::lane_imbalance(arxiv_.graph, cfg.lanes, cfg.workload_balancing));
    });
    out["sim.design_points"] = static_cast<double>(ghost_points_.size() + tron_points_.size());
    out["sim.headline_s"] = spans.rep("sim.headline_claims");
  }

 private:
  lumos::graph::GraphDataset arxiv_;
  lumos::gnn::GnnModelConfig gcn_;
  lumos::nn::TransformerConfig bert_;
  std::optional<lumos::arch::TronAdapter> tron_;
  std::optional<lumos::arch::GhostAdapter> ghost_;
  std::vector<sim::SensitivityPoint> ghost_points_;
  std::vector<sim::SensitivityPoint> tron_points_;
  sim::HeadlineClaims headline_;
};

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SpanTimes::rep(const std::string& name) const {
  const auto it = rep_s.find(name);
  return it == rep_s.end() ? 0.0 : it->second;
}

double SpanTimes::setup(const std::string& name) const {
  const auto it = setup_s.find(name);
  return it == setup_s.end() ? 0.0 : it->second;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "open_seqlen") return std::make_unique<OpenLoop>(1);
  if (name == "open_sharded") return std::make_unique<OpenLoop>(4);
  if (name == "decode_hybrid") return std::make_unique<DecodeHybrid>();
  if (name == "design_sweep") return std::make_unique<DesignSweep>();
  return nullptr;
}

int self_test() {
  // A small open-loop scenario like open_seqlen's, and a small closed loop
  // like decode_hybrid's.
  serve::Scenario open;
  open.catalog = serve::WorkloadCatalog::tron_default();
  open.catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);
  open.fleet = serve::FleetConfig::homogeneous("tron", 8);
  open.batch.max_batch = kMaxBatch;
  open.traffic.open.offered_qps =
      0.8 * serve::fleet_capacity_qps(open.catalog, open.fleet, kMaxBatch);
  open.traffic.open.request_count = 20000;
  open.trace = serve::generate_trace(open.catalog, open.traffic.open);
  const serve::FleetMetrics serial = serve::simulate(open);
  const serve::FleetMetrics sharded = serve::simulate_sharded(open, 4);
  const serve::FleetMetrics folded = fold_cells(open, 4, /*parallel=*/false, nullptr, nullptr);

  serve::Scenario closed;
  closed.catalog = serve::WorkloadCatalog::tron_default();
  closed.catalog.apply_decode(serve::SeqLenDist::kLogNormal, 32);
  closed.fleet = serve::FleetConfig::cycled({"tron", "v100"}, 4, serve::RoutingPolicy::kCostAware);
  closed.batch.max_batch = kMaxBatch;
  closed.traffic.mode = serve::LoopMode::kClosed;
  closed.traffic.closed = {16, 200, 2e-3, 7};
  std::size_t issued = 0;
  const std::size_t tokens = requested_tokens(closed, issued);
  const serve::FleetMetrics decoded = serve::simulate(closed);

  // Each case: the outputs, possibly corrupted, and whether the checks must
  // count them as a failed operation.
  struct Case {
    const char* name;
    bool must_fail;
    std::function<void(Check&)> run;
  };
  const auto corrupt = [](serve::FleetMetrics m, const std::function<void(serve::FleetMetrics&)>& f) {
    f(m);
    return m;
  };
  const std::vector<Case> cases{
      {"clean open loop", false, [&](Check& c) { check_serving(serial, open.trace.size(), c); }},
      {"conservation break", true,
       [&](Check& c) {
         check_serving(corrupt(serial, [](auto& m) { --m.completed; }), open.trace.size(), c);
       }},
      {"percentile inversion", true,
       [&](Check& c) {
         check_serving(corrupt(serial, [](auto& m) { m.p99_latency_s = 0.5 * m.p50_latency_s; }),
                       open.trace.size(), c);
       }},
      {"clean sharded fold", false, [&](Check& c) { check_identical(sharded, folded, "fold", c); }},
      {"sharded-fold mismatch", true,
       [&](Check& c) {
         check_identical(corrupt(sharded,
                                 [](auto& m) {
                                   m.fleet_energy_j = std::nextafter(m.fleet_energy_j, 0.0);
                                 }),
                         folded, "fold", c);
       }},
      {"clean decode", false,
       [&](Check& c) {
         check_serving(decoded, issued, c);
         check_tokens(decoded, tokens, c);
       }},
      {"token conservation break", true,
       [&](Check& c) {
         check_tokens(corrupt(decoded, [](auto& m) { ++m.generated_tokens; }), tokens, c);
       }},
  };
  int missed = 0;
  for (const Case& k : cases) {
    Check check;
    k.run(check);
    Tally tally;
    tally.record(check);
    const bool failed = tally.failed == 1;
    std::cerr << "self-test " << k.name << ": " << (failed ? "failed operation" : "ok")
              << (failed == k.must_fail ? "" : "  <-- UNEXPECTED") << "\n";
    for (const std::string& f : tally.failures) std::cerr << "    " << f << "\n";
    if (failed != k.must_fail) ++missed;
  }
  return missed;
}

}  // namespace perfbench
