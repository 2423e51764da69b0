// Serving-campaign benchmark: sweeps offered QPS x scheduler across TRON,
// GHOST, and mixed TRON+GHOST fleets and records the saturation knee (p99
// latency, goodput, energy per request) plus a headline event-loop throughput
// number (1M requests through a 4-accelerator fleet) per fleet.  The mixed
// scenario exercises the multi-tenant path: one catalog mixing transformer
// and GNN workloads over a fleet alternating TRON and GHOST slots with
// kind-aware routing.  The elastic scenario starts the same mixed fleet at
// two slots under bursty traffic and compares autoscaling policies (static
// vs queue-depth vs target-utilization) with two-tier priorities, recording
// per-tenant SLO attainment.  The closed-loop scenario swaps the open-loop
// trace for a session pool (per-tenant clients with exponential think times
// and log-normal per-request sequence lengths) and records end-to-end
// session latencies — the feedback path through serve::ClosedLoopSource.
// Self-contained like bench_kernels (steady_clock, no framework); emits
// BENCH_serve.json alongside the human-readable tables.
//
// Usage:
//   bench_serve [--smoke] [--out <path>]
//     --smoke   reduced trace lengths (CI sanity run)
//     --out     JSON output path (default BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <fstream>
#include <iostream>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/provenance.hpp"
#include "common/rng.hpp"
#include "serve/cache.hpp"
#include "serve/campaign.hpp"
#include "serve/event_heap.hpp"
#include "serve/observe.hpp"
#include "serve/shard.hpp"
#include "sim/registry.hpp"

namespace {

using namespace lumos;

struct Headline {
  std::string fleet_label;
  std::size_t requests = 0;
  std::size_t fleet = 0;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
};

// One fleet scenario: the knee sweep plus the timed 1M-request point.
struct ScenarioResult {
  serve::CampaignConfig config;
  std::vector<serve::CampaignPoint> points;
  Headline headline;
};

ScenarioResult run_scenario(const std::string& label,
                            const std::vector<std::string>& fleet_template,
                            const serve::WorkloadCatalog& catalog, bool smoke) {
  ScenarioResult out;
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled(fleet_template, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);

  serve::CampaignConfig cfg;
  cfg.name = label + " saturation sweep";
  cfg.fleet_template = fleet_template;
  // Below / near / past the batched knee (FIFO saturates far earlier, which
  // is exactly the point of the comparison).
  cfg.qps = {0.5 * capacity, 0.8 * capacity, 1.1 * capacity};
  cfg.schedulers = {serve::SchedulerKind::kFifo, serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  cfg.requests_per_point = smoke ? 10000 : 200000;
  cfg.seed = 7;
  out.points = serve::run_campaign(cfg, catalog);
  out.config = cfg;

  // Headline: one timed point (trace generation + event loop) at 80% of the
  // batched knee.
  serve::Scenario scenario;
  scenario.fleet = fleet_cfg;
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.traffic.open.offered_qps = 0.8 * capacity;
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.seed = 11;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  out.headline.fleet_label = label;
  out.headline.requests = scenario.traffic.open.request_count;
  out.headline.fleet = fleet;
  out.headline.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.headline.requests_per_s =
      static_cast<double>(out.headline.requests) / out.headline.wall_s;
  out.headline.p99_latency_s = m.p99_latency_s;
  out.headline.goodput_qps = m.goodput_qps;
  return out;
}

// Closed-loop scenario: the mixed TRON+GHOST catalog served to a pool of
// client sessions (each pinned to one tenant, issuing request -> completion
// -> exponential think -> next request) with log-normal per-request sequence
// lengths on the transformer tenants.  Arrival rate is set by service speed
// instead of an offered QPS; the result records end-to-end session latency.
struct ClosedLoopResult {
  std::string label;
  serve::ClosedLoopConfig config;
  serve::FleetMetrics metrics;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
};

ClosedLoopResult run_closed_loop_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::mixed_default();
  catalog.apply_seqlen_dist(serve::SeqLenDist::kLogNormal);

  ClosedLoopResult out;
  out.label = "TRON+GHOST closed-loop";
  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled({"tron", "ghost"}, 4);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = 8;
  scenario.traffic.mode = serve::LoopMode::kClosed;
  scenario.traffic.closed.sessions = smoke ? 64 : 512;
  scenario.traffic.closed.requests_per_session = smoke ? 50 : 200;
  scenario.traffic.closed.think_time_mean_s = 2e-3;
  scenario.traffic.closed.seed = 23;
  out.config = scenario.traffic.closed;
  const auto t0 = std::chrono::steady_clock::now();
  out.metrics = serve::simulate(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.requests_per_s = static_cast<double>(out.metrics.completed) / out.wall_s;
  return out;
}

// Observer-overhead comparison: the TRON headline scenario run unobserved and,
// interleaved pair by pair, with the sampled tracer and the timeline enabled.
// Observers must never change results (p99/goodput parity is gated by
// bench_check.py) and must stay cheap (overhead_fraction gated too).
struct ObserverOverhead {
  std::string label = "TRON observed";
  std::size_t requests = 0;
  double trace_sample = 0.0;
  double off_wall_s = 0.0;  // median over the pairs
  double off_requests_per_s = 0.0;
  double on_wall_s = 0.0;   // median over the pairs
  double on_requests_per_s = 0.0;
  double overhead_fraction = 0.0;  // median of per-pair on_wall / off_wall, - 1
  double off_p99_latency_s = 0.0;
  double on_p99_latency_s = 0.0;
  double off_goodput_qps = 0.0;
  double on_goodput_qps = 0.0;
  std::size_t sampled_requests = 0;
  std::size_t request_events = 0;
  std::size_t batch_spans = 0;
  std::size_t timeline_windows = 0;
};

ObserverOverhead run_observer_overhead(bool smoke) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);

  serve::Scenario scenario;
  scenario.fleet = fleet_cfg;
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.traffic.open.offered_qps = 0.8 * capacity;
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.seed = 11;

  ObserverOverhead out;
  out.requests = scenario.traffic.open.request_count;
  out.trace_sample = 1.0 / 64.0;

  // The gated overhead is the cost of *passive* observation (sampled tracing
  // + windowed timelines), the configuration a production-style run would
  // leave on.  The event-loop profiler is excluded: it reads steady_clock
  // several times per loop iteration by design (self-measurement), and its
  // cost is reported in its own table rather than gated here.
  serve::Scenario observed = scenario;
  observed.observe.trace.enabled = true;
  observed.observe.trace.sample = out.trace_sample;
  observed.observe.timeline.enabled = true;
  observed.observe.timeline.window_s = 1e-3;

  // Paired timing: interleaved unobserved/observed runs, alternating which
  // side goes first so drift and cache warmth hit both sides alike.  The
  // simulations are deterministic (identical metrics every run), only the
  // timing is noisy; the median of the per-pair on/off ratios shrugs off the
  // pairs a noisy neighbour spoils.  15 pairs: on a shared 4-vCPU VM, medians
  // of 9 consecutive smoke pairs spread 1.09-1.39 around 1.25, of 15 pairs
  // 1.19-1.29.
  constexpr int kPairs = 15;
  serve::FleetMetrics off;
  serve::FleetMetrics on;
  serve::Observation obs;
  const auto timed = [](const auto& run) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  const auto run_off = [&] { off = serve::simulate(scenario); };
  const auto run_on = [&] { on = serve::simulate(observed, &obs); };
  std::vector<double> off_s;
  std::vector<double> on_s;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool off_first = pair % 2 == 0;
    obs = serve::Observation{};  // release the previous pair's trace untimed
    const double first = timed([&] { off_first ? run_off() : run_on(); });
    const double second = timed([&] { off_first ? run_on() : run_off(); });
    off_s.push_back(off_first ? first : second);
    on_s.push_back(off_first ? second : first);
    ratios.push_back(on_s.back() / off_s.back());
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  out.off_wall_s = median(off_s);
  out.on_wall_s = median(on_s);
  out.off_requests_per_s = static_cast<double>(out.requests) / out.off_wall_s;
  out.on_requests_per_s = static_cast<double>(out.requests) / out.on_wall_s;
  out.overhead_fraction = median(ratios) - 1.0;
  out.off_p99_latency_s = off.p99_latency_s;
  out.off_goodput_qps = off.goodput_qps;
  out.on_p99_latency_s = on.p99_latency_s;
  out.on_goodput_qps = on.goodput_qps;
  out.sampled_requests = obs.tracer->sampled_requests();
  out.request_events = obs.tracer->request_events().size();
  out.batch_spans = obs.tracer->batch_spans().size();
  out.timeline_windows = obs.timeline->windows().size();
  return out;
}

// Cell-sharded scaling: one 16-slot TRON scenario simulated serially and as
// {1, 2, 4, 8} independent cells on the thread pool (serve/shard.hpp), plus a
// 10M-request HDR-percentile 8-cell run — the "datacenter, not a rack" scale
// point.  The cells == 1 point is gated bit-identical to the serial run by
// bench_check.py (in-file parity at zero tolerance); cells > 1 points are
// deterministic for a fixed cell count, so their simulated results are gated
// at det tolerance like every other deterministic field.  Speedups are
// wall-clock vs the serial run (best-of-3 each) and scale with the host's
// core count — `threads` is recorded so a 1-core runner's ~1x does not read
// as a regression against an 8-core baseline (speedup is gated in the timing
// band, relative to the committed baseline, not as an absolute floor).
struct ShardedPoint {
  std::size_t cells = 0;
  double wall_s = 0.0;  // best-of-3
  double requests_per_s = 0.0;
  double speedup = 0.0;  // serial wall / this wall
  std::size_t completed = 0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
};

struct ShardedResult {
  std::string label = "TRON sharded";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  std::size_t threads = 0;
  double serial_wall_s = 0.0;
  double serial_requests_per_s = 0.0;
  std::size_t serial_completed = 0;
  double serial_p99_latency_s = 0.0;
  double serial_goodput_qps = 0.0;
  std::vector<ShardedPoint> points;
  // The scale headline: 10M requests, HDR percentiles, 8 cells.
  std::size_t scale_requests = 0;
  std::size_t scale_cells = 0;
  double scale_wall_s = 0.0;
  double scale_requests_per_s = 0.0;
  std::size_t scale_completed = 0;
  double scale_p99_latency_s = 0.0;
  double scale_goodput_qps = 0.0;
};

ShardedResult run_sharded_scenario(bool smoke) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  const std::size_t fleet = 16;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);

  serve::Scenario scenario;
  scenario.fleet = fleet_cfg;
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.traffic.open.offered_qps = 0.8 * capacity;
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.seed = 11;

  ShardedResult out;
  out.requests = scenario.traffic.open.request_count;
  out.fleet = fleet;
  out.threads = ThreadPool::global().thread_count();

  constexpr int kReps = 3;
  serve::FleetMetrics serial;
  out.serial_wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    serial = serve::simulate(scenario);
    const auto t1 = std::chrono::steady_clock::now();
    out.serial_wall_s =
        std::min(out.serial_wall_s, std::chrono::duration<double>(t1 - t0).count());
  }
  out.serial_requests_per_s = static_cast<double>(out.requests) / out.serial_wall_s;
  out.serial_completed = serial.completed;
  out.serial_p99_latency_s = serial.p99_latency_s;
  out.serial_goodput_qps = serial.goodput_qps;

  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    ShardedPoint point;
    point.cells = cells;
    point.wall_s = std::numeric_limits<double>::infinity();
    serve::FleetMetrics m;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      m = serve::simulate_sharded(scenario, cells);
      const auto t1 = std::chrono::steady_clock::now();
      point.wall_s = std::min(point.wall_s, std::chrono::duration<double>(t1 - t0).count());
    }
    point.requests_per_s = static_cast<double>(out.requests) / point.wall_s;
    point.speedup = out.serial_wall_s / point.wall_s;
    point.completed = m.completed;
    point.p99_latency_s = m.p99_latency_s;
    point.goodput_qps = m.goodput_qps;
    out.points.push_back(point);
  }

  // The 10M-request scale run: HDR percentile sketches keep latency memory
  // bounded (exact mode would retain every sample), 8 cells split the work.
  serve::Scenario scale = scenario;
  scale.sim.percentile_mode = serve::PercentileMode::kHdr;
  scale.traffic.open.request_count = smoke ? 100000 : 10000000;
  out.scale_requests = scale.traffic.open.request_count;
  out.scale_cells = 8;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate_sharded(scale, out.scale_cells);
  const auto t1 = std::chrono::steady_clock::now();
  out.scale_wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.scale_requests_per_s = static_cast<double>(out.scale_requests) / out.scale_wall_s;
  out.scale_completed = m.completed;
  out.scale_p99_latency_s = m.p99_latency_s;
  out.scale_goodput_qps = m.goodput_qps;
  return out;
}

// Continuous-batching scenario: the TRON catalog with log-normal decode
// lengths (median 32 tokens) and per-token SLOs, served at 1x and 2x its
// decode-aware capacity under both decode schedules.  Monolithic batching
// holds every lane until the batch's longest decode finishes (the
// static-batching baseline), so waiting prefills eat head-of-line TTFT;
// continuous batching admits them into freed lanes at token boundaries.  The
// acceptance contract — continuous mean TTFT no worse than monolithic at
// every load — is gated in-file by bench_check.py; the per-mode simulated
// metrics are deterministic (det tolerance), the wall time sits in the
// timing band.
struct DecodeModeMetrics {
  double mean_ttft_s = 0.0;
  double p95_ttft_s = 0.0;
  double mean_tpot_s = 0.0;
  double p95_tpot_s = 0.0;
  double tokens_per_s = 0.0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
  double ttft_attainment = 0.0;
  double decode_occupancy = 0.0;
};

struct ContinuousBatchingPoint {
  double capacity_x = 0.0;
  double offered_qps = 0.0;
  DecodeModeMetrics mono;
  DecodeModeMetrics cont;
  double ttft_ratio = 0.0;  // mono mean TTFT / cont mean TTFT (>= 1: cont wins)
};

struct ContinuousBatchingResult {
  std::string label = "TRON continuous batching";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  std::size_t decode_tokens = 0;
  double capacity_qps = 0.0;
  double wall_s = 0.0;           // all four runs together
  double requests_per_s = 0.0;
  std::vector<ContinuousBatchingPoint> points;
};

ContinuousBatchingResult run_continuous_batching_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  const std::size_t decode_tokens = 32;
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, decode_tokens);
  catalog.apply_token_slos(500e-6, 100e-6);
  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);

  ContinuousBatchingResult out;
  out.requests = smoke ? 20000 : 200000;
  out.fleet = fleet;
  out.decode_tokens = decode_tokens;
  out.capacity_qps = capacity;

  const auto run_mode = [&](double qps, serve::DecodeMode mode) {
    serve::Scenario scenario;
    scenario.fleet = fleet_cfg;
    scenario.catalog = catalog;
    scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
    scenario.batch.max_batch = max_batch;
    scenario.sim.decode_mode = mode;
    scenario.traffic.open.offered_qps = qps;
    scenario.traffic.open.request_count = out.requests;
    scenario.traffic.open.seed = 37;
    const serve::FleetMetrics m = serve::simulate(scenario);
    DecodeModeMetrics r;
    r.mean_ttft_s = m.mean_ttft_s;
    r.p95_ttft_s = m.p95_ttft_s;
    r.mean_tpot_s = m.mean_tpot_s;
    r.p95_tpot_s = m.p95_tpot_s;
    r.tokens_per_s = m.tokens_per_s;
    r.p99_latency_s = m.p99_latency_s;
    r.goodput_qps = m.goodput_qps;
    r.ttft_attainment = m.ttft_attainment;
    r.decode_occupancy = m.mean_decode_occupancy;
    return r;
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (const double x : {1.0, 2.0}) {
    ContinuousBatchingPoint p;
    p.capacity_x = x;
    p.offered_qps = x * capacity;
    p.mono = run_mode(p.offered_qps, serve::DecodeMode::kMonolithic);
    p.cont = run_mode(p.offered_qps, serve::DecodeMode::kContinuous);
    p.ttft_ratio = p.cont.mean_ttft_s > 0.0 ? p.mono.mean_ttft_s / p.cont.mean_ttft_s : 0.0;
    out.points.push_back(p);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.requests_per_s =
      static_cast<double>(2 * out.points.size() * out.requests) / out.wall_s;
  return out;
}

// Hybrid-fleet TCO scenario: one 3-tenant decode workload (a premium tier-0
// "vit" tenant over bulk bert/gpt2 tiers, log-normal decode lengths,
// per-token SLOs) served by three fleets — photonic ({"tron"}), electronic
// ({"v100"} through arch::PlatformAdapter), and hybrid ({"tron", "v100"}) —
// under cost-aware routing, at 1x and 2x the hybrid fleet's decode-aware
// capacity.  Every fleet sees the *same* offered load, so attainment, energy
// per request, and dollars per request compare apples to apples: the paper's
// TCO question ("when does a photonic slot pay for itself?") in one table.
// The in-file acceptance gate (bench_check.py) pins the hybrid fleet's
// tier-0 attainment at or above the worse homogeneous fleet at every load.
struct HybridFleetPoint {
  std::string fleet_label;
  double capacity_x = 0.0;
  double offered_qps = 0.0;
  std::size_t completed = 0;
  double p99_latency_s = 0.0;
  double goodput_qps = 0.0;
  double slo_attainment = 0.0;
  double tier0_attainment = 0.0;  // the premium tenant's own SLO attainment
  double mean_ttft_s = 0.0;
  double tokens_per_s = 0.0;
  double energy_per_request_j = 0.0;
  double fleet_cost_usd = 0.0;
  double cost_per_request_usd = 0.0;
};

struct HybridFleetResult {
  std::string label = "hybrid fleet TCO";
  std::size_t requests = 0;
  std::size_t fleet = 0;
  double capacity_qps = 0.0;  // the hybrid fleet's decode-aware capacity
  double wall_s = 0.0;        // all six runs together
  double requests_per_s = 0.0;
  std::vector<HybridFleetPoint> points;  // 3 fleets x 2 loads, fleet-major
};

HybridFleetResult run_hybrid_fleet_scenario(bool smoke) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.5);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);
  catalog.apply_decode(serve::SeqLenDist::kLogNormal, 32);
  catalog.apply_token_slos(500e-6, 100e-6);
  // One explicit decode-aware SLO contract per tenant, shared by every fleet.
  // The fallback SLO would be derived per fleet from its own unloaded
  // latencies (a v100 fleet would grade itself on a v100 curve) and ignores
  // decode time entirely; instead each tenant's contract is 10x its unloaded
  // photonic-reference request (prefill + median decode tail at batch 1).
  {
    const serve::EstimateCache ref("tron", catalog);
    for (std::uint32_t w = 0; w < catalog.size(); ++w) {
      const auto ctx = static_cast<std::uint32_t>(
          catalog.workload(w).transformer_config().seq_len);
      const double per_request_s = ref.estimate(w, 1).latency_s +
                                   31.0 * ref.decode_step(w, 1, ctx).latency_s;
      catalog.set_slo(w, 10.0 * per_request_s);
    }
  }

  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const std::vector<std::pair<std::string, std::vector<std::string>>> fleets{
      {"photonic tron", {"tron"}},
      {"electronic v100", {"v100"}},
      {"hybrid tron+v100", {"tron", "v100"}},
  };
  // Every fleet is offered multiples of the *hybrid* fleet's capacity, so the
  // three fleets answer the same demand.
  const double capacity = serve::fleet_capacity_qps(
      catalog, serve::FleetConfig::cycled({"tron", "v100"}, fleet), max_batch);

  HybridFleetResult out;
  out.requests = smoke ? 20000 : 200000;
  out.fleet = fleet;
  out.capacity_qps = capacity;

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [label, fleet_template] : fleets) {
    for (const double x : {1.0, 2.0}) {
      serve::Scenario scenario;
      scenario.fleet = serve::FleetConfig::cycled(fleet_template, fleet,
                                                  serve::RoutingPolicy::kCostAware);
      scenario.catalog = catalog;
      scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
      scenario.batch.max_batch = max_batch;
      scenario.traffic.open.offered_qps = x * capacity;
      scenario.traffic.open.request_count = out.requests;
      scenario.traffic.open.seed = 37;
      const serve::FleetMetrics m = serve::simulate(scenario);
      HybridFleetPoint p;
      p.fleet_label = label;
      p.capacity_x = x;
      p.offered_qps = x * capacity;
      p.completed = m.completed;
      p.p99_latency_s = m.p99_latency_s;
      p.goodput_qps = m.goodput_qps;
      p.slo_attainment = m.slo_attainment;
      p.tier0_attainment = m.tenants.front().slo_attainment;
      p.mean_ttft_s = m.mean_ttft_s;
      p.tokens_per_s = m.tokens_per_s;
      p.energy_per_request_j = m.energy_per_request_j;
      p.fleet_cost_usd = m.fleet_cost_usd;
      p.cost_per_request_usd = m.cost_per_request_usd;
      out.points.push_back(std::move(p));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.requests_per_s =
      static_cast<double>(out.points.size() * out.requests) / out.wall_s;
  return out;
}

// Event-queue micro-benchmark: the classic hold model (prefill H events, then
// N rounds of pop-min + push at popped time + exponential increment) over
// EventHeap and std::priority_queue.  Both pop the same total order, so the
// popped-time checksums must match exactly — the bench aborts if they do not.
// ops_per_s is gated in the timing band.
struct QueueBenchResult {
  std::string label;
  std::size_t events = 0;
  double wall_s = 0.0;  // best-of-3
  double ops_per_s = 0.0;
  double checksum = 0.0;
};

struct BenchEvent {
  double time_s = 0.0;
  std::uint64_t seq = 0;
};
struct BenchEventLater {
  bool operator()(const BenchEvent& a, const BenchEvent& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

// One hold-model run: returns the popped-time checksum (kept out of the
// timed loop's dead-code reach).
template <typename PushFn, typename PopFn>
double hold_model(std::size_t hold, std::size_t rounds, PushFn&& push, PopFn&& pop) {
  Rng rng(1234);
  std::uint64_t seq = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < hold; ++i) {
    t += rng.exponential(1e-4);
    push(BenchEvent{t, seq++});
  }
  double checksum = 0.0;
  for (std::size_t i = 0; i < rounds; ++i) {
    const BenchEvent e = pop();
    checksum += e.time_s;
    push(BenchEvent{e.time_s + rng.exponential(1e-4), seq++});
  }
  for (std::size_t i = 0; i < hold; ++i) checksum += pop().time_s;
  return checksum;
}

std::vector<QueueBenchResult> run_event_queue_bench(bool smoke) {
  const std::size_t hold = 4096;
  const std::size_t rounds = smoke ? 200000 : 2000000;
  constexpr int kReps = 3;
  std::vector<QueueBenchResult> out;

  const auto time_variant = [&](const std::string& label, auto make_run) {
    QueueBenchResult r;
    r.label = label;
    r.events = rounds;
    r.wall_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      r.checksum = make_run();
      const auto t1 = std::chrono::steady_clock::now();
      r.wall_s = std::min(r.wall_s, std::chrono::duration<double>(t1 - t0).count());
    }
    r.ops_per_s = static_cast<double>(rounds) / r.wall_s;
    out.push_back(r);
  };

  time_variant("event_heap", [&] {
    serve::EventHeap<BenchEvent, BenchEventLater> q;
    q.reserve(hold + 1);
    return hold_model(hold, rounds, [&](BenchEvent e) { q.push(e); },
                      [&] { return q.pop(); });
  });
  time_variant("std_priority_queue", [&] {
    std::priority_queue<BenchEvent, std::vector<BenchEvent>, BenchEventLater> q;
    return hold_model(hold, rounds, [&](BenchEvent e) { q.push(e); }, [&] {
      BenchEvent e = q.top();
      q.pop();
      return e;
    });
  });

  for (const QueueBenchResult& r : out) {
    if (r.checksum != out.front().checksum) {
      std::fprintf(stderr, "error: event-queue checksum mismatch: %s %.17g vs %s %.17g\n",
                   r.label.c_str(), r.checksum, out.front().label.c_str(),
                   out.front().checksum);
      std::exit(1);
    }
  }
  return out;
}

void write_indented_campaign(std::ofstream& f, const serve::CampaignConfig& config,
                             const std::vector<serve::CampaignPoint>& points) {
  std::ostringstream campaign;
  serve::write_campaign_json(config, points, campaign);
  // Indent the embedded campaign object to keep the file readable.
  std::istringstream lines(campaign.str());
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    f << (first ? "" : "\n") << "    " << line;
    first = false;
  }
}

void write_decode_mode_fields(std::ofstream& f, const char* prefix,
                              const DecodeModeMetrics& r) {
  f << ", \"" << prefix << "_mean_ttft_s\": " << r.mean_ttft_s << ", \"" << prefix
    << "_p95_ttft_s\": " << r.p95_ttft_s << ", \"" << prefix
    << "_mean_tpot_s\": " << r.mean_tpot_s << ", \"" << prefix
    << "_p95_tpot_s\": " << r.p95_tpot_s << ", \"" << prefix
    << "_tokens_per_s\": " << r.tokens_per_s << ", \"" << prefix
    << "_p99_latency_s\": " << r.p99_latency_s << ", \"" << prefix
    << "_goodput_qps\": " << r.goodput_qps << ", \"" << prefix
    << "_ttft_attainment\": " << r.ttft_attainment << ", \"" << prefix
    << "_decode_occupancy\": " << r.decode_occupancy;
}

bool write_json(const std::vector<ScenarioResult>& scenarios,
                const ClosedLoopResult& closed, const ScenarioResult& overload,
                const ObserverOverhead& observer, const ShardedResult& sharded,
                const ContinuousBatchingResult& batching,
                const HybridFleetResult& hybrid,
                const std::vector<QueueBenchResult>& queues, const std::string& path,
                bool smoke) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"serve\",\n";
  f << "  " << provenance_json(ThreadPool::global().thread_count()) << ",\n";
  f << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  f << "  \"threads\": " << ThreadPool::global().thread_count() << ",\n";
  f << "  \"observer_overhead\": [\n";
  f << "    {\"label\": \"" << observer.label << "\", \"requests\": " << observer.requests
    << ", \"trace_sample\": " << observer.trace_sample
    << ", \"off_wall_s\": " << observer.off_wall_s
    << ", \"off_requests_per_s\": " << observer.off_requests_per_s
    << ", \"on_wall_s\": " << observer.on_wall_s
    << ", \"on_requests_per_s\": " << observer.on_requests_per_s
    << ", \"overhead_fraction\": " << observer.overhead_fraction
    << ", \"off_p99_latency_s\": " << observer.off_p99_latency_s
    << ", \"on_p99_latency_s\": " << observer.on_p99_latency_s
    << ", \"off_goodput_qps\": " << observer.off_goodput_qps
    << ", \"on_goodput_qps\": " << observer.on_goodput_qps
    << ", \"sampled_requests\": " << observer.sampled_requests
    << ", \"request_events\": " << observer.request_events
    << ", \"batch_spans\": " << observer.batch_spans
    << ", \"timeline_windows\": " << observer.timeline_windows << "}\n";
  f << "  ],\n  \"sharded\": [\n";
  f << "    {\"label\": \"" << sharded.label << "\", \"requests\": " << sharded.requests
    << ", \"fleet\": " << sharded.fleet << ", \"threads\": " << sharded.threads
    << ", \"serial_wall_s\": " << sharded.serial_wall_s
    << ", \"serial_requests_per_s\": " << sharded.serial_requests_per_s
    << ", \"serial_completed\": " << sharded.serial_completed
    << ", \"serial_p99_latency_s\": " << sharded.serial_p99_latency_s
    << ", \"serial_goodput_qps\": " << sharded.serial_goodput_qps
    << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < sharded.points.size(); ++i) {
    const ShardedPoint& p = sharded.points[i];
    f << "       {\"cells\": " << p.cells << ", \"wall_s\": " << p.wall_s
      << ", \"requests_per_s\": " << p.requests_per_s << ", \"speedup\": " << p.speedup
      << ", \"completed\": " << p.completed
      << ", \"p99_latency_s\": " << p.p99_latency_s
      << ", \"goodput_qps\": " << p.goodput_qps << "}"
      << (i + 1 < sharded.points.size() ? "," : "") << "\n";
  }
  f << "     ],\n     \"scale_requests\": " << sharded.scale_requests
    << ", \"scale_cells\": " << sharded.scale_cells
    << ", \"scale_wall_s\": " << sharded.scale_wall_s
    << ", \"scale_requests_per_s\": " << sharded.scale_requests_per_s
    << ", \"scale_completed\": " << sharded.scale_completed
    << ", \"scale_p99_latency_s\": " << sharded.scale_p99_latency_s
    << ", \"scale_goodput_qps\": " << sharded.scale_goodput_qps << "}\n";
  f << "  ],\n  \"event_queue\": [\n";
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueBenchResult& q = queues[i];
    f << "    {\"label\": \"" << q.label << "\", \"events\": " << q.events
      << ", \"wall_s\": " << q.wall_s << ", \"ops_per_s\": " << q.ops_per_s
      << ", \"checksum\": " << q.checksum << "}" << (i + 1 < queues.size() ? "," : "")
      << "\n";
  }
  f << "  ],\n  \"headlines\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Headline& h = scenarios[i].headline;
    f << "    {\"fleet_label\": \"" << h.fleet_label << "\", \"requests\": " << h.requests
      << ", \"fleet\": " << h.fleet << ", \"wall_s\": " << h.wall_s
      << ", \"requests_per_s\": " << h.requests_per_s
      << ", \"p99_latency_s\": " << h.p99_latency_s
      << ", \"goodput_qps\": " << h.goodput_qps << "}"
      << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"closed_loop\": [\n";
  {
    const serve::FleetMetrics& m = closed.metrics;
    f << "    {\"label\": \"" << closed.label << "\", \"sessions\": " << m.sessions
      << ", \"requests_per_session\": " << closed.config.requests_per_session
      << ", \"think_time_mean_s\": " << closed.config.think_time_mean_s
      << ", \"completed\": " << m.completed << ", \"wall_s\": " << closed.wall_s
      << ", \"requests_per_s\": " << closed.requests_per_s
      << ", \"throughput_qps\": " << m.throughput_qps
      << ", \"goodput_qps\": " << m.goodput_qps
      << ", \"slo_attainment\": " << m.slo_attainment
      << ", \"p50_latency_s\": " << m.p50_latency_s
      << ", \"p99_latency_s\": " << m.p99_latency_s
      << ", \"mean_session_s\": " << m.mean_session_s
      << ", \"p50_session_s\": " << m.p50_session_s
      << ", \"p99_session_s\": " << m.p99_session_s
      << ", \"max_session_s\": " << m.max_session_s
      << ", \"mean_batch\": " << m.mean_batch_size
      << ", \"estimate_lookups\": " << m.estimate_lookups
      << ", \"estimate_misses\": " << m.estimate_misses << "}\n";
  }
  f << "  ],\n  \"continuous_batching\": [\n";
  f << "    {\"label\": \"" << batching.label << "\", \"requests\": " << batching.requests
    << ", \"fleet\": " << batching.fleet
    << ", \"decode_tokens\": " << batching.decode_tokens
    << ", \"capacity_qps\": " << batching.capacity_qps
    << ", \"wall_s\": " << batching.wall_s
    << ", \"requests_per_s\": " << batching.requests_per_s << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < batching.points.size(); ++i) {
    const ContinuousBatchingPoint& p = batching.points[i];
    f << "       {\"capacity_x\": " << p.capacity_x
      << ", \"offered_qps\": " << p.offered_qps;
    write_decode_mode_fields(f, "mono", p.mono);
    write_decode_mode_fields(f, "cont", p.cont);
    f << ", \"ttft_ratio\": " << p.ttft_ratio << "}"
      << (i + 1 < batching.points.size() ? "," : "") << "\n";
  }
  f << "     ]}\n";
  f << "  ],\n  \"hybrid_fleet\": [\n";
  f << "    {\"label\": \"" << hybrid.label << "\", \"requests\": " << hybrid.requests
    << ", \"fleet\": " << hybrid.fleet << ", \"capacity_qps\": " << hybrid.capacity_qps
    << ", \"wall_s\": " << hybrid.wall_s
    << ", \"requests_per_s\": " << hybrid.requests_per_s << ",\n     \"points\": [\n";
  for (std::size_t i = 0; i < hybrid.points.size(); ++i) {
    const HybridFleetPoint& p = hybrid.points[i];
    f << "       {\"fleet_label\": \"" << p.fleet_label
      << "\", \"capacity_x\": " << p.capacity_x << ", \"offered_qps\": " << p.offered_qps
      << ", \"completed\": " << p.completed
      << ", \"p99_latency_s\": " << p.p99_latency_s
      << ", \"goodput_qps\": " << p.goodput_qps
      << ", \"slo_attainment\": " << p.slo_attainment
      << ", \"tier0_attainment\": " << p.tier0_attainment
      << ", \"mean_ttft_s\": " << p.mean_ttft_s
      << ", \"tokens_per_s\": " << p.tokens_per_s
      << ", \"energy_per_request_j\": " << p.energy_per_request_j
      << ", \"fleet_cost_usd\": " << p.fleet_cost_usd
      << ", \"cost_per_request_usd\": " << p.cost_per_request_usd << "}"
      << (i + 1 < hybrid.points.size() ? "," : "") << "\n";
  }
  f << "     ]}\n";
  f << "  ],\n  \"overload_faults\": [\n";
  write_indented_campaign(f, overload.config, overload.points);
  f << "\n  ],\n  \"campaigns\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    write_indented_campaign(f, scenarios[i].config, scenarios[i].points);
    f << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return static_cast<bool>(f);
}

// Elastic scenario: the mixed TRON+GHOST catalog with two-tier priorities,
// starting from a deliberately undersized 2-slot fleet under bursty traffic
// sized for 4 slots — the static point saturates, the autoscaling points must
// grow into the load.  One campaign sweeps the policy axis; the headline
// times the queue-depth policy end to end.
ScenarioResult run_elastic_scenario(bool smoke) {
  serve::WorkloadCatalog catalog = serve::WorkloadCatalog::mixed_default();
  catalog.apply_default_tiers();
  const std::vector<std::string> fleet_template{"tron", "ghost"};
  const std::size_t initial_fleet = 2;
  const std::size_t max_batch = 8;
  // Size the load for a 4-slot fleet: ~2x what the initial slots sustain.
  const double capacity4 =
      serve::fleet_capacity_qps(catalog, serve::FleetConfig::cycled(fleet_template, 4),
                                max_batch);

  ScenarioResult out;
  serve::CampaignConfig cfg;
  cfg.name = "TRON+GHOST elastic policy sweep";
  cfg.fleet_template = fleet_template;
  cfg.qps = {0.5 * capacity4, 0.8 * capacity4};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {initial_fleet};
  cfg.max_batches = {max_batch};
  cfg.autoscalers = {serve::AutoscalerPolicy::kNone, serve::AutoscalerPolicy::kQueueDepth,
                     serve::AutoscalerPolicy::kTargetUtilization};
  cfg.autoscale.max_slots = 6;  // per family: up to 12 slots total
  cfg.process = serve::ArrivalProcess::kBursty;
  cfg.requests_per_point = smoke ? 10000 : 200000;
  cfg.seed = 13;
  out.points = serve::run_campaign(cfg, catalog);
  out.config = cfg;

  serve::Scenario scenario;
  scenario.fleet = serve::FleetConfig::cycled(fleet_template, initial_fleet);
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.sim.autoscaler.policy = serve::AutoscalerPolicy::kQueueDepth;
  scenario.sim.autoscaler.max_slots = 6;
  scenario.traffic.open.offered_qps = 0.8 * capacity4;
  scenario.traffic.open.request_count = smoke ? 50000 : 1000000;
  scenario.traffic.open.process = serve::ArrivalProcess::kBursty;
  scenario.traffic.open.seed = 19;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  out.headline.fleet_label = "TRON+GHOST elastic";
  out.headline.requests = scenario.traffic.open.request_count;
  out.headline.fleet = initial_fleet;
  out.headline.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.headline.requests_per_s =
      static_cast<double>(out.headline.requests) / out.headline.wall_s;
  out.headline.p99_latency_s = m.p99_latency_s;
  out.headline.goodput_qps = m.goodput_qps;
  return out;
}

// Overload + faults scenario: a TRON fleet driven from half to 4x its
// capacity with per-slot fault injection, per-tenant timeouts, and bounded
// retries, comparing no admission control against tier-aware shedding.  The
// catalog is a small tier-0 premium tenant (its own SLO contract) over a
// tier-1 bulk: the bulk "bert" tenant has no timeout (batch work waits
// forever), so under 2x overload the no-admission points honestly collapse —
// every bulk request completes far past the SLO and stays in the attainment
// pool instead of vanishing as a timeout.  The "gpt2" tenant models
// impatient clients (timeout + retries with backoff), exercising the retry
// path under overload.  Tier-shed admission keeps queues bounded, so the
// premium tenant's attainment holds while tier-1 work is refused early.
ScenarioResult run_overload_faults_scenario(bool smoke) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("vit-premium", sim::transformer_by_name("vit"), 0.25);
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128), 5.0);
  catalog.add_transformer("gpt2/256", sim::transformer_by_name("gpt2", 256), 4.5);
  catalog.set_priority(1, 1);
  catalog.set_priority(2, 1);

  const std::size_t fleet = 4;
  const std::size_t max_batch = 8;
  const serve::FleetConfig fleet_cfg = serve::FleetConfig::cycled({"tron"}, fleet);
  const double capacity = serve::fleet_capacity_qps(catalog, fleet_cfg, max_batch);
  // The tier-1 SLO mirrors the simulator's fallback (slo_scale x slowest
  // batch-1 latency); the premium tenant's contract is 3x that — loose
  // enough that its partial batches (it is ~2.5% of traffic, so its batches
  // dispatch at the deadline, not full) meet it on a healthy fleet, tight
  // enough that an unbounded queue would blow through it.
  const serve::EstimateCache cache("tron", catalog);
  double slowest = 0.0;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    slowest = std::max(slowest, cache.estimate(w, 1).latency_s);
  }
  const double slo_s = 10.0 * slowest;
  catalog.set_slo(0, 3.0 * slo_s);
  catalog.set_timeout(2, 15.0 * slo_s);  // impatient gpt2 clients

  ScenarioResult out;
  serve::CampaignConfig cfg;
  cfg.name = "TRON overload + faults";
  cfg.fleet_template = {"tron"};
  cfg.qps = {0.5 * capacity, 1.0 * capacity, 2.0 * capacity, 4.0 * capacity};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {fleet};
  cfg.max_batches = {max_batch};
  cfg.admissions = {serve::AdmissionPolicy::kNone, serve::AdmissionPolicy::kTierShed};
  cfg.fault_mtbfs_s = {50e-3};  // a handful of failures per slot per run
  cfg.faults.mttr_s = 5e-3;
  cfg.retry.max_attempts = 3;
  cfg.requests_per_point = smoke ? 20000 : 100000;
  cfg.seed = 29;
  out.points = serve::run_campaign(cfg, catalog);
  out.config = cfg;

  // Headline: the 2x-overload tier-shed point, timed end to end.
  serve::Scenario scenario;
  scenario.fleet = fleet_cfg;
  scenario.catalog = catalog;
  scenario.scheduler = serve::SchedulerKind::kDynamicBatch;
  scenario.batch.max_batch = max_batch;
  scenario.sim.faults = cfg.faults;
  scenario.sim.faults.mtbf_s = cfg.fault_mtbfs_s.front();
  scenario.sim.retry = cfg.retry;
  scenario.sim.admission = cfg.admission;
  scenario.sim.admission.policy = serve::AdmissionPolicy::kTierShed;
  scenario.traffic.open.offered_qps = 2.0 * capacity;
  scenario.traffic.open.request_count = smoke ? 50000 : 500000;
  scenario.traffic.open.seed = 31;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::FleetMetrics m = serve::simulate(scenario);
  const auto t1 = std::chrono::steady_clock::now();
  out.headline.fleet_label = "TRON overload+faults";
  out.headline.requests = scenario.traffic.open.request_count;
  out.headline.fleet = fleet;
  out.headline.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.headline.requests_per_s =
      static_cast<double>(out.headline.requests) / out.headline.wall_s;
  out.headline.p99_latency_s = m.p99_latency_s;
  out.headline.goodput_qps = m.goodput_qps;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(
      run_scenario("TRON", {"tron"}, serve::WorkloadCatalog::tron_default(), smoke));
  scenarios.push_back(
      run_scenario("GHOST", {"ghost"}, serve::WorkloadCatalog::ghost_default(), smoke));
  scenarios.push_back(run_scenario("TRON+GHOST mixed", {"tron", "ghost"},
                                   serve::WorkloadCatalog::mixed_default(), smoke));
  scenarios.push_back(run_elastic_scenario(smoke));
  const ClosedLoopResult closed = run_closed_loop_scenario(smoke);
  const ScenarioResult overload = run_overload_faults_scenario(smoke);
  const ObserverOverhead observer = run_observer_overhead(smoke);
  const ShardedResult sharded = run_sharded_scenario(smoke);
  const ContinuousBatchingResult batching = run_continuous_batching_scenario(smoke);
  const HybridFleetResult hybrid = run_hybrid_fleet_scenario(smoke);
  const std::vector<QueueBenchResult> queues = run_event_queue_bench(smoke);

  for (const ScenarioResult& s : scenarios) {
    serve::campaign_table(s.points, s.config.name).print(std::cout);
    std::printf("%s headline: %zu requests / %zu accelerators in %.3f s (%.0f req/s, "
                "p99 %.1f us, goodput %.0f QPS)\n\n",
                s.headline.fleet_label.c_str(), s.headline.requests, s.headline.fleet,
                s.headline.wall_s, s.headline.requests_per_s,
                s.headline.p99_latency_s * 1e6, s.headline.goodput_qps);
  }
  closed.metrics.to_table(closed.label).print(std::cout);
  std::printf("%s: %zu sessions x %zu requests in %.3f s (%.0f req/s, "
              "p99 session %.2f ms)\n\n",
              closed.label.c_str(), closed.metrics.sessions,
              closed.config.requests_per_session, closed.wall_s, closed.requests_per_s,
              closed.metrics.p99_session_s * 1e3);
  serve::campaign_table(overload.points, overload.config.name).print(std::cout);
  std::printf("%s headline: %zu requests / %zu accelerators in %.3f s (%.0f req/s, "
              "p99 %.1f us, goodput %.0f QPS)\n\n",
              overload.headline.fleet_label.c_str(), overload.headline.requests,
              overload.headline.fleet, overload.headline.wall_s,
              overload.headline.requests_per_s, overload.headline.p99_latency_s * 1e6,
              overload.headline.goodput_qps);
  std::printf("%s: %zu requests unobserved in %.3f s (%.0f req/s) vs observed "
              "(trace 1/64 + timeline) in %.3f s (%.0f req/s): "
              "overhead %.1f%%, %zu request events, %zu batch spans, %zu windows\n\n",
              observer.label.c_str(), observer.requests, observer.off_wall_s,
              observer.off_requests_per_s, observer.on_wall_s, observer.on_requests_per_s,
              100.0 * observer.overhead_fraction, observer.request_events,
              observer.batch_spans, observer.timeline_windows);
  std::printf("%s: %zu requests / %zu slots, %zu pool thread(s); serial %.3f s "
              "(%.0f req/s)\n",
              sharded.label.c_str(), sharded.requests, sharded.fleet, sharded.threads,
              sharded.serial_wall_s, sharded.serial_requests_per_s);
  for (const ShardedPoint& p : sharded.points) {
    std::printf("  cells=%zu: %.3f s (%.0f req/s, %.2fx serial, p99 %.1f us, "
                "goodput %.0f QPS)\n",
                p.cells, p.wall_s, p.requests_per_s, p.speedup, p.p99_latency_s * 1e6,
                p.goodput_qps);
  }
  std::printf("  scale: %zu requests / %zu cells (hdr percentiles) in %.3f s "
              "(%.0f req/s, p99 %.1f us)\n\n",
              sharded.scale_requests, sharded.scale_cells, sharded.scale_wall_s,
              sharded.scale_requests_per_s, sharded.scale_p99_latency_s * 1e6);
  std::printf("%s: %zu requests, %zu-slot fleet, lognormal decode (median %zu tokens), "
              "capacity %.0f QPS, %.3f s total\n",
              batching.label.c_str(), batching.requests, batching.fleet,
              batching.decode_tokens, batching.capacity_qps, batching.wall_s);
  for (const ContinuousBatchingPoint& p : batching.points) {
    std::printf("  %.1fx capacity: mean TTFT %.1f us (monolithic) -> %.1f us "
                "(continuous, %.2fx better); mean TPOT %.1f -> %.1f us; "
                "tokens/s %.0f -> %.0f\n",
                p.capacity_x, p.mono.mean_ttft_s * 1e6, p.cont.mean_ttft_s * 1e6,
                p.ttft_ratio, p.mono.mean_tpot_s * 1e6, p.cont.mean_tpot_s * 1e6,
                p.mono.tokens_per_s, p.cont.tokens_per_s);
  }
  std::printf("\n");
  std::printf("%s: %zu requests/fleet, %zu slots, hybrid capacity %.0f QPS, %.3f s total\n",
              hybrid.label.c_str(), hybrid.requests, hybrid.fleet, hybrid.capacity_qps,
              hybrid.wall_s);
  for (const HybridFleetPoint& p : hybrid.points) {
    std::printf("  %-17s %.1fx: tier0 %.3f, goodput %.0f QPS, mean TTFT %.1f us, "
                "%.3f uJ/req, $%.3g/req\n",
                p.fleet_label.c_str(), p.capacity_x, p.tier0_attainment, p.goodput_qps,
                p.mean_ttft_s * 1e6, p.energy_per_request_j * 1e6,
                p.cost_per_request_usd);
  }
  std::printf("\n");
  for (const QueueBenchResult& q : queues) {
    std::printf("event_queue %s: %zu hold-model rounds in %.3f s (%.0f ops/s)\n",
                q.label.c_str(), q.events, q.wall_s, q.ops_per_s);
  }
  std::printf("\n");

  if (!write_json(scenarios, closed, overload, observer, sharded, batching, hybrid,
                  queues, out_path, smoke)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
