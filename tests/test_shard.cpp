// Tests for cell-sharded simulation (serve/shard.hpp), the metrics merge
// (FleetMetrics::merge), the event heap (serve/event_heap.hpp), and the
// batch-buffer arena (serve/arena.hpp).  The load-bearing contracts:
//
//   * cells == 1 is bit-identical to the serial simulator;
//   * for fixed K, simulate_sharded equals the serial ascending fold of the
//     plan's cells — independent of LUMOS_THREADS (CI runs 1 and 4);
//   * FleetMetrics::merge is pairwise commutative, needs retained latency
//     state on both sides, and its sample statistics are exact over the
//     union multiset, whatever order the tenants' latency samples are in;
//   * keep_latency_state changes nothing but whether the state is returned;
//   * RequestArena never hands out a buffer that is still live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/arena.hpp"
#include "serve/event_heap.hpp"
#include "serve/shard.hpp"

namespace lumos::serve {
namespace {

Scenario open_loop_scenario(std::size_t fleet_size, std::size_t requests) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", fleet_size);
  s.catalog = WorkloadCatalog::tron_default();
  s.batch.max_batch = 8;
  s.traffic.open.offered_qps = 60000.0;
  s.traffic.open.request_count = requests;
  s.traffic.open.seed = 11;
  return s;
}

// The robustness kitchen sink: faults, timeouts, retries, and admission all
// enabled so the sharded parity below exercises every event source.
Scenario faulted_scenario(std::size_t fleet_size, std::size_t requests) {
  Scenario s = open_loop_scenario(fleet_size, requests);
  s.traffic.open.offered_qps = 120000.0;  // saturated: sheds and timeouts
  s.catalog.apply_timeout(5e-3);
  s.sim.faults.mtbf_s = 0.02;
  s.sim.faults.mttr_s = 0.005;
  s.sim.faults.seed = 7;
  s.sim.retry.max_attempts = 3;
  s.sim.retry.base_backoff_s = 1e-4;
  s.sim.admission.policy = AdmissionPolicy::kQueueCap;
  s.sim.admission.queue_cap = 256;
  return s;
}

void expect_bit_identical(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.within_slo, b.within_slo);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.timed_out_requests, b.timed_out_requests);
  EXPECT_EQ(a.attempt_timeouts, b.attempt_timeouts);
  EXPECT_EQ(a.retried_attempts, b.retried_attempts);
  EXPECT_EQ(a.failed_batches, b.failed_batches);
  EXPECT_EQ(a.requeued_requests, b.requeued_requests);
  EXPECT_EQ(a.slot_failures, b.slot_failures);
  EXPECT_EQ(a.slot_recoveries, b.slot_recoveries);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.offered_qps, b.offered_qps);
  EXPECT_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.fleet_energy_j, b.fleet_energy_j);
  EXPECT_EQ(a.energy_per_request_j, b.energy_per_request_j);
  EXPECT_EQ(a.fleet_utilization, b.fleet_utilization);
  EXPECT_EQ(a.fleet_availability, b.fleet_availability);
  EXPECT_EQ(a.observed_mttr_s, b.observed_mttr_s);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.mean_fleet_size, b.mean_fleet_size);
  EXPECT_EQ(a.batch_histogram, b.batch_histogram);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t w = 0; w < a.tenants.size(); ++w) {
    EXPECT_EQ(a.tenants[w].completed, b.tenants[w].completed);
    EXPECT_EQ(a.tenants[w].within_slo, b.tenants[w].within_slo);
    EXPECT_EQ(a.tenants[w].shed, b.tenants[w].shed);
    EXPECT_EQ(a.tenants[w].timed_out, b.tenants[w].timed_out);
    EXPECT_EQ(a.tenants[w].mean_latency_s, b.tenants[w].mean_latency_s);
    EXPECT_EQ(a.tenants[w].p50_latency_s, b.tenants[w].p50_latency_s);
    EXPECT_EQ(a.tenants[w].p99_latency_s, b.tenants[w].p99_latency_s);
    EXPECT_EQ(a.tenants[w].max_latency_s, b.tenants[w].max_latency_s);
    EXPECT_EQ(a.tenants[w].goodput_qps, b.tenants[w].goodput_qps);
  }
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.mean_session_s, b.mean_session_s);
  EXPECT_EQ(a.p50_session_s, b.p50_session_s);
  EXPECT_EQ(a.p99_session_s, b.p99_session_s);
  EXPECT_EQ(a.max_session_s, b.max_session_s);
}

// expect_bit_identical plus the decode, cost and per-tenant rate fields.
void expect_all_bit_identical(const FleetMetrics& a, const FleetMetrics& b) {
  expect_bit_identical(a, b);
  EXPECT_EQ(a.fleet_cost_usd, b.fleet_cost_usd);
  EXPECT_EQ(a.cost_per_request_usd, b.cost_per_request_usd);
  EXPECT_EQ(a.decode_requests, b.decode_requests);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.tokens_per_s, b.tokens_per_s);
  EXPECT_EQ(a.mean_ttft_s, b.mean_ttft_s);
  EXPECT_EQ(a.p50_ttft_s, b.p50_ttft_s);
  EXPECT_EQ(a.p95_ttft_s, b.p95_ttft_s);
  EXPECT_EQ(a.p99_ttft_s, b.p99_ttft_s);
  EXPECT_EQ(a.max_ttft_s, b.max_ttft_s);
  EXPECT_EQ(a.mean_tpot_s, b.mean_tpot_s);
  EXPECT_EQ(a.p50_tpot_s, b.p50_tpot_s);
  EXPECT_EQ(a.p95_tpot_s, b.p95_tpot_s);
  EXPECT_EQ(a.p99_tpot_s, b.p99_tpot_s);
  EXPECT_EQ(a.max_tpot_s, b.max_tpot_s);
  EXPECT_EQ(a.ttft_attainment, b.ttft_attainment);
  EXPECT_EQ(a.tpot_attainment, b.tpot_attainment);
  EXPECT_EQ(a.decode_occupancy, b.decode_occupancy);
  EXPECT_EQ(a.mean_decode_occupancy, b.mean_decode_occupancy);
  for (std::size_t w = 0; w < a.tenants.size() && w < b.tenants.size(); ++w) {
    EXPECT_EQ(a.tenants[w].slo_attainment, b.tenants[w].slo_attainment);
    EXPECT_EQ(a.tenants[w].drop_rate, b.tenants[w].drop_rate);
    EXPECT_EQ(a.tenants[w].cost_usd, b.tenants[w].cost_usd);
  }
}

// Closed-loop sessions decoding with continuous batching: every sample
// vector of LatencyState (tenant, session, TTFT, TPOT) is non-empty.
Scenario closed_decode_scenario(std::size_t sessions, std::uint64_t seed) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", 4);
  s.catalog = WorkloadCatalog::tron_default();
  s.catalog.apply_decode(SeqLenDist::kLogNormal, 16);
  s.batch.max_batch = 8;
  s.sim.decode_mode = DecodeMode::kContinuous;
  s.traffic.mode = LoopMode::kClosed;
  s.traffic.closed.sessions = sessions;
  s.traffic.closed.requests_per_session = 10;
  s.traffic.closed.seed = seed;
  return s;
}

// ---------------------------------------------------------------------------
// Sharded parity contracts
// ---------------------------------------------------------------------------

TEST(Shard, CellsOneIsBitIdenticalToSerial) {
  const Scenario s = open_loop_scenario(8, 20000);
  expect_bit_identical(simulate(s), simulate_sharded(s, 1));
}

TEST(Shard, CellsOneWithFaultsIsBitIdenticalToSerial) {
  const Scenario s = faulted_scenario(4, 10000);
  expect_bit_identical(simulate(s), simulate_sharded(s, 1));
}

// The thread-independence contract: simulate_sharded must equal the serial
// ascending fold of its own plan's cells, whatever LUMOS_THREADS is (the CI
// matrix runs this suite under 1 and 4 threads).  Faults + retries +
// admission on so every event source crosses the shard boundary machinery.
TEST(Shard, ShardedEqualsSerialCellFoldUnderAnyThreadCount) {
  const Scenario s = faulted_scenario(8, 20000);
  const CellPlan plan = CellPlan::build(s, 4);
  ASSERT_EQ(plan.cells.size(), 4u);
  FleetMetrics folded = simulate(plan.cells[0]);
  for (std::size_t c = 1; c < plan.cells.size(); ++c) {
    folded.merge(simulate(plan.cells[c]));
  }
  folded.latency_state.reset();
  expect_bit_identical(folded, simulate_sharded(s, 4));
}

TEST(Shard, ShardedClosedLoopRunsEverySession) {
  Scenario s;
  s.fleet = FleetConfig::homogeneous("tron", 4);
  s.catalog = WorkloadCatalog::tron_default();
  s.traffic.mode = LoopMode::kClosed;
  s.traffic.closed.sessions = 10;  // unequal split: 3+3+2+2
  s.traffic.closed.requests_per_session = 16;
  const FleetMetrics m = simulate_sharded(s, 4);
  EXPECT_EQ(m.sessions, 10u);
  EXPECT_EQ(m.completed, 10u * 16u);
  EXPECT_GT(m.p99_session_s, 0.0);
}

TEST(Shard, CellSlicesPartitionFleetAndTraffic) {
  Scenario s = open_loop_scenario(6, 9001);
  const CellPlan plan = CellPlan::build(s, 4);  // slots 2+2+1+1
  ASSERT_EQ(plan.cells.size(), 4u);
  std::size_t slots = 0;
  std::size_t requests = 0;
  double qps = 0.0;
  for (const Scenario& cell : plan.cells) {
    slots += cell.fleet.accelerators.size();
    requests += cell.traffic.open.request_count;
    qps += cell.traffic.open.offered_qps;
    EXPECT_TRUE(cell.sim.keep_latency_state);
    EXPECT_NE(cell.traffic.open.seed, s.traffic.open.seed);
  }
  EXPECT_EQ(slots, 6u);
  EXPECT_EQ(requests, 9001u);
  EXPECT_NEAR(qps, s.traffic.open.offered_qps, 1e-9);
  // Distinct cells, distinct streams.
  EXPECT_NE(plan.cells[0].traffic.open.seed, plan.cells[1].traffic.open.seed);
  EXPECT_NE(plan.cells[0].sim.faults.seed, plan.cells[1].sim.faults.seed);
}

TEST(Shard, BuildRejectsBadPlans) {
  const Scenario s = open_loop_scenario(4, 1000);
  EXPECT_THROW(CellPlan::build(s, 0), InvalidArgument);
  EXPECT_THROW(CellPlan::build(s, 5), InvalidArgument);  // more cells than slots

  Scenario observed = s;
  observed.observe.trace.enabled = true;
  EXPECT_THROW(CellPlan::build(observed, 2), InvalidArgument);
  EXPECT_NO_THROW(CellPlan::build(observed, 1));  // serial observed runs stay legal

  Scenario closed = s;
  closed.traffic.mode = LoopMode::kClosed;
  closed.traffic.closed.sessions = 2;
  EXPECT_THROW(CellPlan::build(closed, 3), InvalidArgument);  // a cell would be empty

  Scenario traced = s;
  traced.trace = {{0, 0.0, 0}, {1, 1e-5, 0}};
  EXPECT_THROW(CellPlan::build(traced, 3), InvalidArgument);
}

TEST(Shard, ExplicitTraceDealsRoundRobin) {
  Scenario s = open_loop_scenario(4, 1000);
  for (std::size_t i = 0; i < 10; ++i) {
    s.trace.push_back({i, static_cast<double>(i) * 1e-5, 0});
  }
  const CellPlan plan = CellPlan::build(s, 4);
  ASSERT_EQ(plan.cells[0].trace.size(), 3u);  // 0, 4, 8
  EXPECT_EQ(plan.cells[0].trace[1].id, 4u);
  ASSERT_EQ(plan.cells[3].trace.size(), 2u);  // 3, 7
  EXPECT_EQ(plan.cells[3].trace[0].id, 3u);
  // Each slice stays arrival-ordered.
  for (const Scenario& cell : plan.cells) {
    EXPECT_TRUE(std::is_sorted(
        cell.trace.begin(), cell.trace.end(),
        [](const Request& a, const Request& b) { return a.arrival_s < b.arrival_s; }));
  }
}

// ---------------------------------------------------------------------------
// FleetMetrics::merge
// ---------------------------------------------------------------------------

// Counters commute exactly; derived weighted means commute only to ULP
// tolerance (FMA contraction of a*wa + b*wb is order-sensitive).  The
// sharded fold never relies on commutativity — it merges in fixed ascending
// cell order — this pins that neither direction loses or double-counts.
TEST(MetricsMerge, PairwiseCommutative) {
  Scenario sa = open_loop_scenario(4, 8000);
  sa.sim.keep_latency_state = true;
  Scenario sb = open_loop_scenario(4, 6000);
  sb.traffic.open.seed = 77;
  sb.sim.keep_latency_state = true;
  const FleetMetrics a = simulate(sa);
  const FleetMetrics b = simulate(sb);
  FleetMetrics ab = a;
  ab.merge(b);
  FleetMetrics ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.completed, ba.completed);
  EXPECT_EQ(ab.within_slo, ba.within_slo);
  EXPECT_DOUBLE_EQ(ab.mean_latency_s, ba.mean_latency_s);
  // Exact-state percentiles recompute over the union multiset: bit-equal.
  EXPECT_EQ(ab.p50_latency_s, ba.p50_latency_s);
  EXPECT_EQ(ab.p99_latency_s, ba.p99_latency_s);
  EXPECT_EQ(ab.p999_latency_s, ba.p999_latency_s);
  EXPECT_EQ(ab.max_latency_s, ba.max_latency_s);
  EXPECT_EQ(ab.duration_s, ba.duration_s);
  EXPECT_DOUBLE_EQ(ab.throughput_qps, ba.throughput_qps);
  EXPECT_DOUBLE_EQ(ab.mean_queue_depth, ba.mean_queue_depth);
  EXPECT_DOUBLE_EQ(ab.fleet_energy_j, ba.fleet_energy_j);
  for (std::size_t w = 0; w < ab.tenants.size(); ++w) {
    EXPECT_EQ(ab.tenants[w].p99_latency_s, ba.tenants[w].p99_latency_s);
    EXPECT_DOUBLE_EQ(ab.tenants[w].mean_latency_s, ba.tenants[w].mean_latency_s);
  }
}

TEST(MetricsMerge, ExactStatePercentilesMatchUnionMultiset) {
  Scenario sa = open_loop_scenario(4, 5000);
  sa.sim.keep_latency_state = true;
  Scenario sb = open_loop_scenario(4, 7000);
  sb.traffic.open.seed = 99;
  sb.sim.keep_latency_state = true;
  const FleetMetrics a = simulate(sa);
  const FleetMetrics b = simulate(sb);
  ASSERT_TRUE(a.latency_state != nullptr && !a.latency_state->hdr);

  // Manual union of every tenant sample from both runs.
  std::vector<double> all;
  for (const FleetMetrics* m : {&a, &b}) {
    for (const std::vector<double>& samples : m->latency_state->tenant_samples) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
  }
  ASSERT_EQ(all.size(), a.completed + b.completed);

  FleetMetrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.p50_latency_s, percentile(all, 0.50));
  EXPECT_EQ(merged.p99_latency_s, percentile(all, 0.99));
  EXPECT_EQ(merged.p999_latency_s, percentile(all, 0.999));
  EXPECT_EQ(merged.max_latency_s, std::max(a.max_latency_s, b.max_latency_s));
  // The merged state survived (both sides carried one), so a further merge
  // stays exact.
  EXPECT_TRUE(merged.latency_state != nullptr);
}

TEST(MetricsMerge, HdrStatesMergeAndMismatchesThrow) {
  Scenario sa = open_loop_scenario(4, 5000);
  sa.sim.percentile_mode = PercentileMode::kHdr;
  sa.sim.keep_latency_state = true;
  Scenario sb = sa;
  sb.traffic.open.seed = 123;
  const FleetMetrics a = simulate(sa);
  FleetMetrics b = simulate(sb);
  FleetMetrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.completed, a.completed + b.completed);
  EXPECT_GT(merged.p99_latency_s, 0.0);

  // Mixing exact and hdr states is a config error, not a silent average.
  Scenario sc = open_loop_scenario(4, 5000);
  sc.sim.keep_latency_state = true;
  const FleetMetrics c = simulate(sc);
  FleetMetrics bad = a;
  EXPECT_THROW(bad.merge(c), InvalidArgument);

  // Mismatched sketch resolutions throw too (HdrHistogram::merge contract).
  Scenario sd = sa;
  sd.sim.hdr_relative_error = 0.05;
  const FleetMetrics d = simulate(sd);
  FleetMetrics bad2 = a;
  EXPECT_THROW(bad2.merge(d), InvalidArgument);
}

TEST(MetricsMerge, MismatchedCatalogsThrow) {
  Scenario sa = open_loop_scenario(4, 2000);
  sa.sim.keep_latency_state = true;
  const FleetMetrics a = simulate(sa);
  FleetMetrics b = a;
  b.tenants.pop_back();
  FleetMetrics m = a;
  EXPECT_THROW(m.merge(b), InvalidArgument);
}

// Every rate the finaliser derives reads the merged counters: the same
// formulas hold after a fold as after a single run.
TEST(MetricsMerge, RatesRecomputeFromMergedCounters) {
  Scenario sa = faulted_scenario(4, 6000);
  sa.sim.keep_latency_state = true;
  Scenario sb = sa;
  sb.traffic.open.seed = 29;
  sb.sim.faults.seed = 31;
  const FleetMetrics a = simulate(sa);
  FleetMetrics merged = a;
  merged.merge(simulate(sb));
  const auto expect_rates = [](const FleetMetrics& m) {
    ASSERT_LT(m.within_slo, m.completed);
    ASSERT_GT(m.shed_requests + m.timed_out_requests, 0u);
    const double n = static_cast<double>(m.completed);
    EXPECT_EQ(m.throughput_qps, n / m.duration_s);
    EXPECT_EQ(m.goodput_qps, static_cast<double>(m.within_slo) / m.duration_s);
    EXPECT_EQ(m.slo_attainment, static_cast<double>(m.within_slo) / n);
    EXPECT_EQ(m.drop_rate,
              static_cast<double>(m.shed_requests + m.timed_out_requests) /
                  static_cast<double>(m.completed + m.shed_requests + m.timed_out_requests));
    EXPECT_EQ(m.mean_batch_size, n / static_cast<double>(m.dispatches));
    EXPECT_EQ(m.energy_per_request_j, m.fleet_energy_j / n);
    for (const TenantMetrics& t : m.tenants) {
      if (t.completed == 0) continue;
      EXPECT_EQ(t.goodput_qps, static_cast<double>(t.within_slo) / m.duration_s);
      EXPECT_EQ(t.slo_attainment,
                static_cast<double>(t.within_slo) / static_cast<double>(t.completed));
      EXPECT_EQ(t.drop_rate, static_cast<double>(t.shed + t.timed_out) /
                                 static_cast<double>(t.completed + t.shed + t.timed_out));
    }
  };
  expect_rates(a);
  expect_rates(merged);
}

// A side that dropped its samples cannot be merged exactly, and there is no
// approximate fallback: the merge refuses it whichever side it is.
TEST(MetricsMerge, StatelessMergeThrows) {
  Scenario kept = open_loop_scenario(4, 2000);
  kept.sim.keep_latency_state = true;
  const FleetMetrics with_state = simulate(kept);
  const FleetMetrics without_state = simulate(open_loop_scenario(4, 2000));
  ASSERT_EQ(without_state.latency_state, nullptr);
  FleetMetrics left = with_state;
  EXPECT_THROW(left.merge(without_state), InvalidArgument);
  FleetMetrics right = without_state;
  EXPECT_THROW(right.merge(with_state), InvalidArgument);
}

// The decode and session branches of the merge: merged TTFT, TPOT and
// session statistics equal the same statistics over the concatenated samples.
TEST(MetricsMerge, DecodeAndSessionStatsMatchUnion) {
  Scenario sa = closed_decode_scenario(12, 3);
  sa.sim.keep_latency_state = true;
  Scenario sb = closed_decode_scenario(9, 41);
  sb.sim.keep_latency_state = true;
  const FleetMetrics a = simulate(sa);
  const FleetMetrics b = simulate(sb);
  ASSERT_GT(a.decode_requests, 0u);
  ASSERT_GT(b.decode_requests, 0u);
  FleetMetrics merged = a;
  merged.merge(b);

  struct Stats {
    double mean, max, p50, p95, p99;
  };
  const auto union_stats = [&](std::vector<double> LatencyState::*field) {
    std::vector<double> all = a.latency_state.get()->*field;
    const std::vector<double>& more = b.latency_state.get()->*field;
    all.insert(all.end(), more.begin(), more.end());
    double sum = 0.0;
    double max = 0.0;
    for (const double v : all) {
      sum += v;
      max = std::max(max, v);
    }
    const double mean = sum / static_cast<double>(all.size());
    return Stats{mean, max, percentile(all, 0.50), percentile(all, 0.95),
                 percentile(all, 0.99)};
  };

  const Stats ttft = union_stats(&LatencyState::ttft_samples);
  EXPECT_DOUBLE_EQ(merged.mean_ttft_s, ttft.mean);
  EXPECT_EQ(merged.max_ttft_s, ttft.max);
  EXPECT_EQ(merged.p50_ttft_s, ttft.p50);
  EXPECT_EQ(merged.p95_ttft_s, ttft.p95);
  EXPECT_EQ(merged.p99_ttft_s, ttft.p99);

  const Stats tpot = union_stats(&LatencyState::tpot_samples);
  EXPECT_DOUBLE_EQ(merged.mean_tpot_s, tpot.mean);
  EXPECT_EQ(merged.max_tpot_s, tpot.max);
  EXPECT_EQ(merged.p50_tpot_s, tpot.p50);
  EXPECT_EQ(merged.p95_tpot_s, tpot.p95);
  EXPECT_EQ(merged.p99_tpot_s, tpot.p99);

  const Stats session = union_stats(&LatencyState::session_samples);
  EXPECT_EQ(merged.sessions, 21u);
  EXPECT_DOUBLE_EQ(merged.mean_session_s, session.mean);
  EXPECT_EQ(merged.max_session_s, session.max);
  EXPECT_EQ(merged.p50_session_s, session.p50);
  EXPECT_EQ(merged.p99_session_s, session.p99);

  EXPECT_EQ(merged.decode_requests, a.decode_requests + b.decode_requests);
  EXPECT_EQ(merged.generated_tokens, a.generated_tokens + b.generated_tokens);
  EXPECT_EQ(merged.tokens_per_s,
            static_cast<double>(merged.generated_tokens) / merged.duration_s);
}

// Nothing reads the order of a retained state's latency vectors: shuffling
// every tenant's samples on both sides of a merge (and on the merged state
// before a second one) leaves every merged field bit-identical.
TEST(MetricsMerge, TenantSampleOrderIsNeverRead) {
  Scenario sa = faulted_scenario(4, 6000);
  sa.sim.keep_latency_state = true;
  Scenario sb = sa;
  sb.traffic.open.seed = 31;
  Scenario sc = sa;
  sc.traffic.open.seed = 57;
  const FleetMetrics a = simulate(sa);
  const FleetMetrics b = simulate(sb);
  const FleetMetrics c = simulate(sc);
  ASSERT_GT(a.tenants.size(), 1u);

  std::mt19937_64 gen(8);
  const auto shuffled = [&](const FleetMetrics& m) {
    FleetMetrics out = m;
    out.latency_state = std::make_shared<LatencyState>(*m.latency_state);
    for (std::vector<double>& samples : out.latency_state->tenant_samples) {
      std::shuffle(samples.begin(), samples.end(), gen);
    }
    return out;
  };

  FleetMetrics in_order = a;
  in_order.merge(b);
  FleetMetrics reordered = shuffled(a);
  reordered.merge(shuffled(b));
  expect_all_bit_identical(in_order, reordered);

  in_order.merge(c);
  reordered = shuffled(reordered);
  reordered.merge(shuffled(c));
  expect_all_bit_identical(in_order, reordered);
}

// keep_latency_state decides only whether the run's state is handed back:
// every metric is the same bit for bit either way.
TEST(LatencyState, KeepingItChangesNothingButThePointer) {
  Scenario hdr = open_loop_scenario(4, 6000);
  hdr.sim.percentile_mode = PercentileMode::kHdr;
  for (Scenario s : {open_loop_scenario(4, 6000), hdr, closed_decode_scenario(12, 5)}) {
    s.sim.keep_latency_state = false;
    const FleetMetrics dropped = simulate(s);
    s.sim.keep_latency_state = true;
    const FleetMetrics kept = simulate(s);
    EXPECT_EQ(dropped.latency_state, nullptr);
    ASSERT_NE(kept.latency_state, nullptr);
    EXPECT_EQ(kept.latency_state->hdr, s.sim.percentile_mode == PercentileMode::kHdr);
    expect_all_bit_identical(dropped, kept);
  }
}

// ---------------------------------------------------------------------------
// EventHeap
// ---------------------------------------------------------------------------

struct Ev {
  double time_s = 0.0;
  std::uint64_t seq = 0;
};
struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

TEST(EventQueues, EventHeapIsStableTotalOrderAtEqualTimes) {
  EventHeap<Ev, EvLater> heap;
  for (std::uint64_t s : {5u, 1u, 3u, 0u, 4u, 2u}) heap.push({1.0, s});
  for (std::uint64_t expect = 0; expect < 6; ++expect) {
    EXPECT_EQ(heap.pop().seq, expect);
  }
}

// ---------------------------------------------------------------------------
// RequestArena
// ---------------------------------------------------------------------------

TEST(Arena, ReusesBuffersWithoutAliasingLiveOnes) {
  RequestArena arena;
  Rng rng(7);
  // Live buffers tagged with their identity; the arena must never hand a
  // still-live buffer out again (data() pointers of live buffers stay
  // distinct) and released capacity must actually be reused.
  std::vector<std::vector<Request>> live;
  for (std::size_t round = 0; round < 2000; ++round) {
    if (live.empty() || rng.next_below(2) == 0) {
      std::vector<Request> b = arena.acquire();
      ASSERT_TRUE(b.empty());  // released buffers come back cleared
      const std::size_t n = 1 + rng.next_below(8);
      for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.id = (static_cast<std::uint64_t>(round) << 8) | i;
        b.push_back(r);
      }
      for (const std::vector<Request>& other : live) {
        ASSERT_NE(b.data(), other.data());
      }
      live.push_back(std::move(b));
    } else {
      const std::size_t pick = rng.next_below(live.size());
      // Verify the buffer still holds exactly what was written (no aliasing
      // corrupted it), then hand it back.
      for (std::size_t i = 1; i < live[pick].size(); ++i) {
        ASSERT_EQ(live[pick][i].id, live[pick][0].id + i);
      }
      arena.release(std::move(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(arena.outstanding(), live.size());
  }
  EXPECT_LT(arena.allocations(), arena.acquires());  // reuse actually happened
  while (!live.empty()) {
    arena.release(std::move(live.back()));
    live.pop_back();
  }
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_THROW(arena.release({}), InvalidArgument);
}

// Requeue/retry churn in a real run: fault-aborted batches and retries cycle
// buffers through the arena, and a live batch is never recycled — if it were,
// completions would double-count or lose requests and the terminal-count
// invariant (completed + shed + timed out == issued) would break.
TEST(Arena, FaultRetryChurnPreservesTerminalAccounting) {
  const Scenario s = faulted_scenario(4, 15000);
  const FleetMetrics m = simulate(s);
  EXPECT_GT(m.requeued_requests, 0u);   // fault-aborts exercised the release path
  EXPECT_GT(m.retried_attempts, 0u);    // retry heap exercised it too
  EXPECT_EQ(m.completed + m.shed_requests + m.timed_out_requests, 15000u);
}

}  // namespace
}  // namespace lumos::serve
