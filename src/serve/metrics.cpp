#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace lumos::serve {

namespace {

// Index of the nearest-rank q-quantile in a sorted vector of n > 0 samples:
// ceil(q * n) - 1, clamped to [0, n - 1].
std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}

// Nearest-rank percentile of an already sorted vector.
double sorted_percentile(const std::vector<double>& sorted, double q) {
  LUMOS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

// Mean, max and p50/p95/p99 of one sample vector; all zero when it is empty.
// The sum runs in the vector's order, then the vector is sorted in place: a
// retained state hands that sorted order on, and merge() sums the union in
// the order it finds it, so selection here would move merged means.
struct SampleStats {
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

SampleStats sample_stats(std::vector<double>& samples) {
  SampleStats s;
  if (samples.empty()) return s;
  double sum = 0.0;
  for (const double v : samples) {
    sum += v;
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  s.p50 = sorted_percentile(samples, 0.50);
  s.p95 = sorted_percentile(samples, 0.95);
  s.p99 = sorted_percentile(samples, 0.99);
  return s;
}

// `num / den`, or `empty` when nothing was counted.
double ratio(std::size_t num, std::size_t den, double empty) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : empty;
}

// Count-weighted recombination of two per-run averages (exact for true
// means).  Commutative: a*wa + b*wb adds bit-identically either way.
double weighted(double a, double wa, double b, double wb) {
  const double w = wa + wb;
  return w > 0.0 ? (a * wa + b * wb) / w : 0.0;
}

}  // namespace

double percentile(std::vector<double>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, q);
}

void select_percentiles(std::vector<double>& samples, std::span<const double> quantiles,
                        std::span<double> out) {
  LUMOS_EXPECTS(out.size() == quantiles.size());
  // After nth_element at rank k, [k, n) holds the n - k largest samples with
  // the rank-k one first, so every higher rank is the same order statistic
  // of that suffix: each selection runs over what the previous one left above
  // it (n + n/2 + n/20 + ... for the fleet's p50/p95/p99/p99.9).  Latencies
  // are positive, so no two samples compare equal with different bits (+0 and
  // -0) and the selected values are the ones a sort would put at those ranks.
  auto begin = samples.begin();
  for (std::size_t i = 0; i < quantiles.size(); ++i) {
    const double q = quantiles[i];
    LUMOS_EXPECTS(q >= 0.0 && q <= 1.0);
    LUMOS_EXPECTS(i == 0 || q >= quantiles[i - 1]);
    if (samples.empty()) {
      out[i] = 0.0;
      continue;
    }
    const auto nth = samples.begin() +
                     static_cast<std::ptrdiff_t>(nearest_rank_index(samples.size(), q));
    std::nth_element(begin, nth, samples.end());
    out[i] = *nth;
    begin = nth;
  }
}

double FleetMetrics::estimate_hit_rate() const noexcept {
  if (estimate_lookups == 0) return 1.0;
  return static_cast<double>(estimate_lookups - estimate_misses) /
         static_cast<double>(estimate_lookups);
}

void FleetMetrics::finalize() {
  const double horizon_s = std::max(duration_s, 1e-300);
  throughput_qps = static_cast<double>(completed) / horizon_s;
  goodput_qps = static_cast<double>(within_slo) / horizon_s;
  slo_attainment = ratio(within_slo, completed, 0.0);
  drop_rate = ratio(shed_requests + timed_out_requests,
                    completed + shed_requests + timed_out_requests, 0.0);
  mean_batch_size = static_cast<double>(completed) /
                    static_cast<double>(std::max<std::size_t>(dispatches, 1));
  energy_per_request_j =
      completed > 0 ? fleet_energy_j / static_cast<double>(completed) : 0.0;
  cost_per_request_usd =
      completed > 0 ? fleet_cost_usd / static_cast<double>(completed) : 0.0;
  tokens_per_s = static_cast<double>(generated_tokens) / horizon_s;
  ttft_attainment = ratio(within_ttft_slo, ttft_slo_requests, 1.0);
  tpot_attainment = ratio(within_tpot_slo, tpot_slo_requests, 1.0);
  std::size_t steps = 0;
  std::size_t lane_steps = 0;
  for (std::size_t lanes = 0; lanes < decode_occupancy.size(); ++lanes) {
    steps += decode_occupancy[lanes];
    lane_steps += lanes * decode_occupancy[lanes];
  }
  mean_decode_occupancy = ratio(lane_steps, steps, 0.0);

  // Per tenant, then the aggregate over the union of the tenants' samples.
  LatencyState& st = *latency_state;
  for (std::size_t w = 0; w < tenants.size(); ++w) {
    TenantMetrics& t = tenants[w];
    t.drop_rate = ratio(t.shed + t.timed_out, t.completed + t.shed + t.timed_out, 0.0);
    t.slo_attainment = ratio(t.within_slo, t.completed, 0.0);
    t.goodput_qps = static_cast<double>(t.within_slo) / horizon_s;
    if (t.completed == 0) continue;
    if (st.hdr) {
      t.p50_latency_s = st.tenant_hist[w].percentile(0.50);
      t.p99_latency_s = st.tenant_hist[w].percentile(0.99);
    } else {
      constexpr double kTenantQ[] = {0.50, 0.99};
      double p[2];
      select_percentiles(st.tenant_samples[w], kTenantQ, p);
      t.p50_latency_s = p[0];
      t.p99_latency_s = p[1];
    }
  }
  if (st.hdr) {
    // Merging the tenants' sketches is exact (bucket counts add), so the
    // fleet percentiles see the same multiset the exact path selects from.
    HdrHistogram all(st.hdr_relative_error);
    for (const HdrHistogram& h : st.tenant_hist) all.merge(h);
    p50_latency_s = all.percentile(0.50);
    p95_latency_s = all.percentile(0.95);
    p99_latency_s = all.percentile(0.99);
    p999_latency_s = all.percentile(0.999);
  } else {
    std::vector<double> all;
    all.reserve(completed);
    for (const std::vector<double>& samples : st.tenant_samples) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
    constexpr double kFleetQ[] = {0.50, 0.95, 0.99, 0.999};
    double p[4];
    select_percentiles(all, kFleetQ, p);
    p50_latency_s = p[0];
    p95_latency_s = p[1];
    p99_latency_s = p[2];
    p999_latency_s = p[3];
  }

  const SampleStats session = sample_stats(st.session_samples);
  mean_session_s = session.mean;
  max_session_s = session.max;
  p50_session_s = session.p50;
  p99_session_s = session.p99;
  const SampleStats ttft = sample_stats(st.ttft_samples);
  mean_ttft_s = ttft.mean;
  max_ttft_s = ttft.max;
  p50_ttft_s = ttft.p50;
  p95_ttft_s = ttft.p95;
  p99_ttft_s = ttft.p99;
  const SampleStats tpot = sample_stats(st.tpot_samples);
  mean_tpot_s = tpot.mean;
  max_tpot_s = tpot.max;
  p50_tpot_s = tpot.p50;
  p95_tpot_s = tpot.p95;
  p99_tpot_s = tpot.p99;
}

void FleetMetrics::merge(const FleetMetrics& other) {
  if (tenants.size() != other.tenants.size()) {
    throw InvalidArgument("FleetMetrics::merge: tenant counts differ (" +
                          std::to_string(tenants.size()) + " vs " +
                          std::to_string(other.tenants.size()) +
                          "): both sides must describe the same catalog");
  }
  if (latency_state == nullptr || other.latency_state == nullptr) {
    throw InvalidArgument(
        "FleetMetrics::merge: both sides must retain latency state "
        "(SimConfig.keep_latency_state)");
  }
  if (latency_state->hdr != other.latency_state->hdr) {
    throw InvalidArgument("FleetMetrics::merge: latency states mix exact and hdr modes");
  }

  // Horizon primitives of both sides, read before anything is overwritten.
  const double dur_a = duration_s;
  const double dur_b = other.duration_s;
  const double merged_dur = std::max(dur_a, dur_b);
  const double slot_time_a = mean_fleet_size * dur_a;
  const double slot_time_b = other.mean_fleet_size * dur_b;
  const double busy = fleet_utilization * slot_time_a +
                      other.fleet_utilization * slot_time_b;
  const double depth_time = mean_queue_depth * dur_a + other.mean_queue_depth * dur_b;
  const double latency_sum = mean_latency_s * static_cast<double>(completed) +
                             other.mean_latency_s * static_cast<double>(other.completed);

  // Copy-on-write: a shared state (metrics copied with its pointer) must not
  // be mutated behind the copy's back.
  if (latency_state.use_count() > 1) {
    latency_state = std::make_shared<LatencyState>(*latency_state);
  }
  LatencyState& st = *latency_state;
  const LatencyState& ot = *other.latency_state;
  if (st.hdr) {
    for (std::size_t w = 0; w < st.tenant_hist.size(); ++w) {
      st.tenant_hist[w].merge(ot.tenant_hist[w]);  // throws on eps mismatch
    }
  } else {
    for (std::size_t w = 0; w < st.tenant_samples.size(); ++w) {
      st.tenant_samples[w].insert(st.tenant_samples[w].end(),
                                  ot.tenant_samples[w].begin(),
                                  ot.tenant_samples[w].end());
    }
  }
  st.session_samples.insert(st.session_samples.end(), ot.session_samples.begin(),
                            ot.session_samples.end());
  st.ttft_samples.insert(st.ttft_samples.end(), ot.ttft_samples.begin(),
                         ot.ttft_samples.end());
  st.tpot_samples.insert(st.tpot_samples.end(), ot.tpot_samples.begin(),
                         ot.tpot_samples.end());

  for (std::size_t w = 0; w < tenants.size(); ++w) {
    TenantMetrics& t = tenants[w];
    const TenantMetrics& o = other.tenants[w];
    t.mean_latency_s = weighted(t.mean_latency_s, static_cast<double>(t.completed),
                                o.mean_latency_s, static_cast<double>(o.completed));
    t.completed += o.completed;
    t.within_slo += o.within_slo;
    t.shed += o.shed;
    t.timed_out += o.timed_out;
    t.cost_usd += o.cost_usd;  // disjoint completions: dollars add exactly
    t.max_latency_s = std::max(t.max_latency_s, o.max_latency_s);
    t.slo_latency_s = std::max(t.slo_latency_s, o.slo_latency_s);
  }

  // Merge-exact counters and maxima.
  completed += other.completed;
  within_slo += other.within_slo;
  dispatches += other.dispatches;
  shed_requests += other.shed_requests;
  timed_out_requests += other.timed_out_requests;
  attempt_timeouts += other.attempt_timeouts;
  retried_attempts += other.retried_attempts;
  failed_batches += other.failed_batches;
  requeued_requests += other.requeued_requests;
  slot_failures += other.slot_failures;
  slot_recoveries += other.slot_recoveries;
  autoscale_grows += other.autoscale_grows;
  autoscale_shrinks += other.autoscale_shrinks;
  initial_fleet_size += other.initial_fleet_size;
  peak_fleet_size += other.peak_fleet_size;  // sum of per-cell peaks
  final_fleet_size += other.final_fleet_size;
  estimate_lookups += other.estimate_lookups;
  estimate_misses += other.estimate_misses;
  sessions += other.sessions;
  max_latency_s = std::max(max_latency_s, other.max_latency_s);
  slo_latency_s = std::max(slo_latency_s, other.slo_latency_s);
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  fleet_energy_j += other.fleet_energy_j;
  fleet_cost_usd += other.fleet_cost_usd;  // disjoint slot-time and energy
  if (batch_histogram.size() < other.batch_histogram.size()) {
    batch_histogram.resize(other.batch_histogram.size(), 0);
  }
  for (std::size_t b = 0; b < other.batch_histogram.size(); ++b) {
    batch_histogram[b] += other.batch_histogram[b];
  }
  slot_availability.insert(slot_availability.end(), other.slot_availability.begin(),
                           other.slot_availability.end());
  decode_requests += other.decode_requests;
  generated_tokens += other.generated_tokens;
  aborted_decode_tokens += other.aborted_decode_tokens;
  decode_steps += other.decode_steps;
  ttft_slo_requests += other.ttft_slo_requests;
  within_ttft_slo += other.within_ttft_slo;
  tpot_slo_requests += other.tpot_slo_requests;
  within_tpot_slo += other.within_tpot_slo;
  if (decode_occupancy.size() < other.decode_occupancy.size()) {
    decode_occupancy.resize(other.decode_occupancy.size(), 0);
  }
  for (std::size_t lanes = 0; lanes < other.decode_occupancy.size(); ++lanes) {
    decode_occupancy[lanes] += other.decode_occupancy[lanes];
  }

  // Concurrent-partition horizon semantics: offered load adds, the merged
  // run lasts as long as its slowest partition, and time-weighted gauges
  // recombine over their own horizons.
  offered_qps += other.offered_qps;
  duration_s = merged_dur;
  mean_latency_s =
      completed > 0 ? latency_sum / static_cast<double>(completed) : 0.0;
  mean_queue_depth = depth_time / std::max(merged_dur, 1e-300);
  const double slot_time = slot_time_a + slot_time_b;
  mean_fleet_size = slot_time / std::max(merged_dur, 1e-300);
  fleet_utilization = busy / std::max(slot_time, 1e-300);
  fleet_availability = slot_time > 0.0
                           ? weighted(fleet_availability, slot_time_a,
                                      other.fleet_availability, slot_time_b)
                           : 1.0;
  observed_mttr_s =
      weighted(observed_mttr_s, static_cast<double>(slot_recoveries - other.slot_recoveries),
               other.observed_mttr_s, static_cast<double>(other.slot_recoveries));
  finalize();
}

Table FleetMetrics::to_table(const std::string& title) const {
  Table t(title);
  t.add_row({"metric", "value"});
  t.add_row({"offered QPS", Table::num(offered_qps, 1)});
  t.add_row({"completed", std::to_string(completed)});
  t.add_row({"throughput QPS", Table::num(throughput_qps, 1)});
  t.add_row({"goodput QPS", Table::num(goodput_qps, 1)});
  t.add_row({"SLO latency (us)", Table::num(units::to_us(slo_latency_s), 1)});
  t.add_row({"SLO attainment", Table::num(slo_attainment, 4)});
  t.add_row({"p50 latency (us)", Table::num(units::to_us(p50_latency_s), 1)});
  t.add_row({"p95 latency (us)", Table::num(units::to_us(p95_latency_s), 1)});
  t.add_row({"p99 latency (us)", Table::num(units::to_us(p99_latency_s), 1)});
  t.add_row({"p99.9 latency (us)", Table::num(units::to_us(p999_latency_s), 1)});
  t.add_row({"mean latency (us)", Table::num(units::to_us(mean_latency_s), 1)});
  t.add_row({"max latency (us)", Table::num(units::to_us(max_latency_s), 1)});
  t.add_row({"mean queue depth", Table::num(mean_queue_depth, 2)});
  t.add_row({"peak queue depth", std::to_string(peak_queue_depth)});
  t.add_row({"dispatches", std::to_string(dispatches)});
  t.add_row({"mean batch size", Table::num(mean_batch_size, 2)});
  t.add_row({"fleet energy (J)", Table::num(fleet_energy_j, 4)});
  t.add_row({"energy/request (uJ)", Table::num(energy_per_request_j * 1e6, 3)});
  if (fleet_cost_usd > 0.0) {
    t.add_row({"fleet cost ($)", Table::num(fleet_cost_usd, 6)});
    t.add_row({"cost/request ($)", Table::num(cost_per_request_usd, 9)});
  }
  t.add_row({"fleet utilization", Table::num(fleet_utilization, 3)});
  t.add_row({"estimate lookups", std::to_string(estimate_lookups)});
  t.add_row({"estimate misses", std::to_string(estimate_misses)});
  t.add_row({"estimate hit rate", Table::num(estimate_hit_rate(), 4)});
  // Robustness section only when some robustness machinery actually fired:
  // fault-free, admission-free, timeout-free runs keep the compact table.
  // Every counter is in the gate so no nonzero row can ever be suppressed.
  if (shed_requests > 0 || timed_out_requests > 0 || attempt_timeouts > 0 ||
      retried_attempts > 0 || failed_batches > 0 || requeued_requests > 0 ||
      slot_failures > 0 || slot_recoveries > 0) {
    t.add_row({"shed (admission)", std::to_string(shed_requests)});
    t.add_row({"timed out", std::to_string(timed_out_requests)});
    t.add_row({"attempt timeouts", std::to_string(attempt_timeouts)});
    t.add_row({"retried attempts", std::to_string(retried_attempts)});
    t.add_row({"drop rate", Table::num(drop_rate, 4)});
    t.add_row({"slot failures", std::to_string(slot_failures)});
    t.add_row({"slot recoveries", std::to_string(slot_recoveries)});
    t.add_row({"failed batches", std::to_string(failed_batches)});
    t.add_row({"requeued requests", std::to_string(requeued_requests)});
    t.add_row({"fleet availability", Table::num(fleet_availability, 4)});
    t.add_row({"observed MTTR (us)", Table::num(units::to_us(observed_mttr_s), 1)});
  }
  // Decode section only when the run actually generated (or aborted) tokens;
  // every decode counter is in the gate so no nonzero row is suppressed.
  if (decode_requests > 0 || generated_tokens > 0 || aborted_decode_tokens > 0 ||
      decode_steps > 0) {
    t.add_row({"decode requests", std::to_string(decode_requests)});
    t.add_row({"generated tokens", std::to_string(generated_tokens)});
    t.add_row({"aborted decode tokens", std::to_string(aborted_decode_tokens)});
    t.add_row({"decode steps", std::to_string(decode_steps)});
    t.add_row({"tokens/s", Table::num(tokens_per_s, 1)});
    t.add_row({"mean decode occupancy", Table::num(mean_decode_occupancy, 2)});
    t.add_row({"mean TTFT (us)", Table::num(units::to_us(mean_ttft_s), 1)});
    t.add_row({"p50 TTFT (us)", Table::num(units::to_us(p50_ttft_s), 1)});
    t.add_row({"p95 TTFT (us)", Table::num(units::to_us(p95_ttft_s), 1)});
    t.add_row({"p99 TTFT (us)", Table::num(units::to_us(p99_ttft_s), 1)});
    t.add_row({"max TTFT (us)", Table::num(units::to_us(max_ttft_s), 1)});
    t.add_row({"mean TPOT (us)", Table::num(units::to_us(mean_tpot_s), 1)});
    t.add_row({"p50 TPOT (us)", Table::num(units::to_us(p50_tpot_s), 1)});
    t.add_row({"p95 TPOT (us)", Table::num(units::to_us(p95_tpot_s), 1)});
    t.add_row({"p99 TPOT (us)", Table::num(units::to_us(p99_tpot_s), 1)});
    t.add_row({"max TPOT (us)", Table::num(units::to_us(max_tpot_s), 1)});
    if (ttft_slo_requests > 0) {
      t.add_row({"TTFT attainment", Table::num(ttft_attainment, 4)});
    }
    if (tpot_slo_requests > 0) {
      t.add_row({"TPOT attainment", Table::num(tpot_attainment, 4)});
    }
  }
  if (sessions > 0) {
    t.add_row({"sessions", std::to_string(sessions)});
    t.add_row({"mean session (ms)", Table::num(mean_session_s * 1e3, 3)});
    t.add_row({"p50 session (ms)", Table::num(p50_session_s * 1e3, 3)});
    t.add_row({"p99 session (ms)", Table::num(p99_session_s * 1e3, 3)});
    t.add_row({"max session (ms)", Table::num(max_session_s * 1e3, 3)});
  }
  if (autoscale_grows > 0 || autoscale_shrinks > 0 ||
      peak_fleet_size != initial_fleet_size) {
    t.add_row({"fleet size (init/peak/final)", std::to_string(initial_fleet_size) + "/" +
                                                   std::to_string(peak_fleet_size) + "/" +
                                                   std::to_string(final_fleet_size)});
    t.add_row({"mean fleet size", Table::num(mean_fleet_size, 2)});
    t.add_row({"autoscale grows", std::to_string(autoscale_grows)});
    t.add_row({"autoscale shrinks", std::to_string(autoscale_shrinks)});
  }
  return t;
}

Table FleetMetrics::tenant_table(const std::string& title) const {
  Table t(title);
  t.add_row({"tenant", "tier", "completed", "shed", "timeout", "drop", "SLO us",
             "attainment", "goodput QPS", "p50 us", "p99 us", "max us", "cost $"});
  for (const TenantMetrics& tenant : tenants) {
    t.add_row({tenant.name, std::to_string(tenant.priority),
               std::to_string(tenant.completed), std::to_string(tenant.shed),
               std::to_string(tenant.timed_out), Table::num(tenant.drop_rate, 4),
               Table::num(units::to_us(tenant.slo_latency_s), 1),
               Table::num(tenant.slo_attainment, 4), Table::num(tenant.goodput_qps, 1),
               Table::num(units::to_us(tenant.p50_latency_s), 1),
               Table::num(units::to_us(tenant.p99_latency_s), 1),
               Table::num(units::to_us(tenant.max_latency_s), 1),
               Table::num(tenant.cost_usd, 6)});
  }
  return t;
}

}  // namespace lumos::serve
