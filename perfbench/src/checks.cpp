#include "checks.hpp"

#include <cmath>
#include <map>

namespace perfbench {
namespace {

using lumos::serve::FleetMetrics;

// Checks that `values` are finite, non-negative and non-decreasing.
void expect_ordered(const std::vector<std::pair<const char*, double>>& values,
                    const std::string& scope, Check& check) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& [name, v] = values[i];
    check.expect(std::isfinite(v) && v >= 0.0, scope + name + " is finite and >= 0");
    if (i > 0) {
      check.expect(values[i - 1].second <= v,
                   scope + values[i - 1].first + " <= " + name);
    }
  }
}

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  void operator()(double v) { bytes(&v, sizeof v); }
  void operator()(std::size_t v) { bytes(&v, sizeof v); }
  void operator()(const std::string& s) {
    (*this)(s.size());
    bytes(s.data(), s.size());
  }
  void operator()(const std::vector<std::size_t>& v) {
    (*this)(v.size());
    for (const std::size_t x : v) (*this)(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace

void check_serving(const FleetMetrics& m, std::size_t issued, Check& check) {
  check.expect(m.completed + m.shed_requests + m.timed_out_requests == issued,
               "completed + shed + timed out == issued (" + std::to_string(issued) + ")");
  std::size_t tenant_terminal = 0;
  std::size_t tenant_completed = 0;
  for (const auto& t : m.tenants) {
    tenant_terminal += t.completed + t.shed + t.timed_out;
    tenant_completed += t.completed;
    expect_ordered({{".p50", t.p50_latency_s}, {".p99", t.p99_latency_s},
                    {".max", t.max_latency_s}},
                   "tenant " + t.name, check);
  }
  check.expect(tenant_terminal == issued, "tenant terminals sum to issued");
  check.expect(tenant_completed == m.completed, "tenant completions sum to completed");
  std::size_t batched = 0;
  std::size_t batches = 0;
  for (std::size_t b = 0; b < m.batch_histogram.size(); ++b) {
    batched += b * m.batch_histogram[b];
    batches += m.batch_histogram[b];
  }
  check.expect(batches == m.dispatches, "batch histogram sums to dispatches");
  // Continuous batching admits decode joiners at token boundaries, outside
  // any dispatched batch.
  const std::size_t attempts = m.completed + m.requeued_requests + m.attempt_timeouts;
  check.expect(m.decode_requests > 0 ? batched <= attempts : batched == attempts,
               "batched requests match completed + requeued + timed-out attempts");
  check.expect(m.estimate_misses <= m.estimate_lookups, "cache misses <= lookups");
  expect_ordered({{"p50", m.p50_latency_s}, {"p95", m.p95_latency_s},
                  {"p99", m.p99_latency_s}, {"p99.9", m.p999_latency_s},
                  {"max", m.max_latency_s}},
                 "latency ", check);
  check.expect(std::isfinite(m.mean_latency_s) && m.mean_latency_s >= 0.0 &&
                   m.mean_latency_s <= m.max_latency_s,
               "0 <= mean latency <= max latency");
  if (m.decode_requests > 0) {
    expect_ordered({{"p50", m.p50_ttft_s}, {"p95", m.p95_ttft_s}, {"p99", m.p99_ttft_s},
                    {"max", m.max_ttft_s}},
                   "ttft ", check);
    expect_ordered({{"p50", m.p50_tpot_s}, {"p95", m.p95_tpot_s}, {"p99", m.p99_tpot_s},
                    {"max", m.max_tpot_s}},
                   "tpot ", check);
  }
}

void check_tokens(const FleetMetrics& m, std::size_t expected_tokens, Check& check) {
  check.expect(m.generated_tokens + m.aborted_decode_tokens == expected_tokens,
               "generated + aborted tokens == requested tokens (" +
                   std::to_string(expected_tokens) + ")");
  check.expect(m.decode_steps > 0, "decode steps ran");
}

void check_identical(const FleetMetrics& got, const FleetMetrics& want,
                     const std::string& what, Check& check) {
  check.expect(digest(got) == digest(want), what + " is bit-identical to its reference");
}

void check_headline(const lumos::sim::HeadlineClaims& h, Check& check) {
  check.expect(h.tron_min_throughput_gain >= 14.0, "TRON min throughput gain >= 14x");
  check.expect(h.tron_min_epb_gain >= 8.0, "TRON min EPB gain >= 8x");
  check.expect(h.ghost_min_throughput_gain >= 10.2, "GHOST min throughput gain >= 10.2x");
  check.expect(h.ghost_min_epb_gain >= 3.8, "GHOST min EPB gain >= 3.8x");
}

void check_sweep(const std::vector<lumos::sim::SensitivityPoint>& points,
                 const std::string& what, Check& check) {
  check.expect(!points.empty(), what + " scored design points");
  std::map<std::string, int> defaults;
  for (const auto& p : points) {
    const bool positive = std::isfinite(p.latency_s) && p.latency_s > 0.0 &&
                          std::isfinite(p.ops_per_second) && p.ops_per_second > 0.0 &&
                          std::isfinite(p.energy_per_bit_j) && p.energy_per_bit_j > 0.0;
    check.expect(positive, what + " " + p.knob + " point is finite and positive");
    defaults[p.knob] += p.is_default ? 1 : 0;
  }
  for (const auto& [knob, n] : defaults) {
    check.expect(n <= 1, what + " " + knob + " has at most one default point");
  }
}

std::uint64_t digest(const FleetMetrics& m) {
  Fnv h;
  for (const double v :
       {m.offered_qps, m.duration_s, m.throughput_qps, m.goodput_qps, m.slo_latency_s,
        m.slo_attainment, m.p50_latency_s, m.p95_latency_s, m.p99_latency_s,
        m.p999_latency_s, m.mean_latency_s, m.max_latency_s, m.mean_queue_depth,
        m.mean_batch_size, m.fleet_energy_j, m.energy_per_request_j, m.fleet_utilization,
        m.fleet_cost_usd, m.cost_per_request_usd, m.mean_fleet_size, m.drop_rate,
        m.fleet_availability, m.observed_mttr_s, m.mean_session_s, m.p50_session_s,
        m.p99_session_s, m.max_session_s, m.tokens_per_s, m.mean_ttft_s, m.p50_ttft_s,
        m.p95_ttft_s, m.p99_ttft_s, m.max_ttft_s, m.mean_tpot_s, m.p50_tpot_s,
        m.p95_tpot_s, m.p99_tpot_s, m.max_tpot_s, m.ttft_attainment, m.tpot_attainment,
        m.mean_decode_occupancy}) {
    h(v);
  }
  for (const std::size_t v :
       {m.completed, m.within_slo, m.peak_queue_depth, m.dispatches, m.autoscale_grows,
        m.autoscale_shrinks, m.initial_fleet_size, m.peak_fleet_size, m.final_fleet_size,
        m.shed_requests, m.timed_out_requests, m.attempt_timeouts, m.retried_attempts,
        m.failed_batches, m.requeued_requests, m.slot_failures, m.slot_recoveries,
        m.sessions, m.decode_requests, m.generated_tokens, m.aborted_decode_tokens,
        m.decode_steps, m.ttft_slo_requests, m.within_ttft_slo, m.tpot_slo_requests,
        m.within_tpot_slo, m.estimate_lookups, m.estimate_misses}) {
    h(v);
  }
  h(m.batch_histogram);
  h(m.decode_occupancy);
  for (const auto& t : m.tenants) {
    h(t.name);
    for (const double v : {t.slo_latency_s, t.slo_attainment, t.goodput_qps, t.mean_latency_s,
                           t.p50_latency_s, t.p99_latency_s, t.max_latency_s, t.drop_rate,
                           t.cost_usd}) {
      h(v);
    }
    for (const std::size_t v : {std::size_t{t.priority}, t.completed, t.within_slo, t.shed,
                                t.timed_out}) {
      h(v);
    }
  }
  return h.value();
}

std::uint64_t digest(const std::vector<lumos::sim::SensitivityPoint>& points,
                     const lumos::sim::HeadlineClaims& headline) {
  Fnv h;
  for (const auto& p : points) {
    h(p.knob);
    for (const double v : {p.setting, p.latency_s, p.ops_per_second, p.energy_per_bit_j,
                           p.static_power_w}) {
      h(v);
    }
    h(std::size_t{p.is_default});
  }
  for (const double v : {headline.tron_min_throughput_gain, headline.tron_min_epb_gain,
                         headline.ghost_min_throughput_gain, headline.ghost_min_epb_gain}) {
    h(v);
  }
  return h.value();
}

}  // namespace perfbench
