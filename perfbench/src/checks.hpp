// Output checks the benchmark applies to every repetition, and the digests it
// prints so a speed-only change can show its simulated results did not move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "sim/figures.hpp"
#include "sim/sensitivity.hpp"

namespace perfbench {

// The failed expectations of one repetition; a repetition with any failure
// counts as one failed operation.
struct Check {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

// Counts checked operations: one per recorded Check, failed when any of its
// expectations failed.  Keeps the distinct failure messages.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::set<std::string> failures;

  void record(const Check& check) {
    ++attempted;
    if (!check.ok()) ++failed;
    failures.insert(check.failures.begin(), check.failures.end());
  }
};

// Every issued request reaches exactly one terminal status (fleet-wide and
// summed over tenants), and every latency percentile is finite, non-negative
// and ordered p50 <= p95 <= p99 <= p99.9 <= max (TTFT and TPOT too).
void check_serving(const lumos::serve::FleetMetrics& m, std::size_t issued, Check& check);

// Decode tokens are conserved: tokens generated by completions plus tokens
// lost to aborts equal the tokens the traffic asked for.
void check_tokens(const lumos::serve::FleetMetrics& m, std::size_t expected_tokens,
                  Check& check);

// `got` is bit-identical to `want` (same digest).
void check_identical(const lumos::serve::FleetMetrics& got,
                     const lumos::serve::FleetMetrics& want, const std::string& what,
                     Check& check);

// The headline minima meet the paper's claims: TRON >= 14x throughput and
// >= 8x EPB, GHOST >= 10.2x and >= 3.8x.
void check_headline(const lumos::sim::HeadlineClaims& h, Check& check);

// Every design point is finite and positive, with at most one default per knob.
void check_sweep(const std::vector<lumos::sim::SensitivityPoint>& points,
                 const std::string& what, Check& check);

// FNV-1a over the bit patterns of every simulated statistic (the retained
// raw latency state excluded).
[[nodiscard]] std::uint64_t digest(const lumos::serve::FleetMetrics& m);
[[nodiscard]] std::uint64_t digest(const std::vector<lumos::sim::SensitivityPoint>& points,
                                   const lumos::sim::HeadlineClaims& headline);

}  // namespace perfbench
