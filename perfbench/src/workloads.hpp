// The benchmark's workloads: each builds its inputs from a seed, runs one
// repetition of the measured call at a time, checks every repetition's
// outputs, and derives its per-layer metrics from the traced repetitions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace perfbench {

// The median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

// Per-layer metric values by name.
using Metrics = std::map<std::string, double>;

// What the traced run measured, in host seconds: the median over traced
// repetitions of each span name's summed time within one repetition, and each
// span name's time within the set-up span.
struct SpanTimes {
  std::map<std::string, double> rep_s;
  std::map<std::string, double> setup_s;
  double wall_s = 0.0;  // median traced repetition

  [[nodiscard]] double rep(const std::string& name) const;
  [[nodiscard]] double setup(const std::string& name) const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // What `run` returns: "requests", "tokens" or "design_points".
  [[nodiscard]] virtual const char* work_unit() const = 0;
  // Builds the inputs from `seed`; the same seed gives the same inputs.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  // Builds what the checks compare against.  Runs after set-up is timed.
  virtual void prepare_checks() {}
  // One repetition of the measured call; returns the simulated work done.
  virtual double run(Tracer* tracer) = 0;
  // Digest of the last repetition's simulated results.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  // Checks the last repetition's outputs.
  virtual void check(Check& check) const = 0;
  // Per-layer metrics of the traced run (counts from the last repetition).
  virtual void layer_metrics(const SpanTimes& spans, Metrics& out) = 0;
};

// "open_seqlen", "open_sharded", "decode_hybrid" or "design_sweep"; null for
// any other name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

// Injects a conservation break, a percentile inversion, a sharded-fold
// mismatch and a token-conservation break into a small run's outputs and
// counts how many of the injections the checks report as failed operations.
// Returns the number of injections the checks missed (0 on success).
int self_test();

}  // namespace perfbench
