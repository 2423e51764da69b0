// lumos_perfbench: runs one benchmark workload in this process and prints one
// JSON report as the last line of standard output.
//
//   lumos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--setup-only] [--spans-out <path>]
//   lumos_perfbench --self-test
//
// Untraced (--trace 0): set-up plus the first, cold repetition is timed as
// setup_s; warm repetitions then run one at a time for --seconds and wall_s
// is their median.  Traced (--trace 1): the same, with untraced and traced
// repetitions interleaved so the tracing overhead is measured, and the
// per-layer metrics derived from the spans.  --setup-only stops after the
// cold repetition (the caller repeats set-up in fresh processes).  Every
// repetition's outputs are checked; a repetition with a failed check counts
// as one failed operation.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Every per-layer metric, with its unit.  A workload that does not call a
// layer reports 0 for that layer's metrics.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics{
    {"serve.traffic.generate_s", "s"},
    {"serve.traffic.requests", "count"},
    {"serve.simulator.run_s", "s"},
    {"serve.simulator.ns_per_request", "ns"},
    {"serve.simulator.dispatches", "count"},
    {"serve.simulator.requests_per_dispatch", "ratio"},
    {"serve.simulator.ns_per_dispatch", "ns"},
    {"serve.cache.lookups", "count"},
    {"serve.cache.misses", "count"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.hit_ns", "ns"},
    {"serve.cache.miss_us", "us"},
    {"serve.decode.steps", "count"},
    {"serve.decode.tokens", "count"},
    {"serve.decode.tokens_per_s", "1/s"},
    {"serve.shard.plan_s", "s"},
    {"serve.shard.cell_s_max", "s"},
    {"serve.shard.cell_s_mean", "s"},
    {"serve.shard.imbalance", "ratio"},
    {"serve.shard.parallel_efficiency", "ratio"},
    {"serve.metrics.merge_s", "s"},
    {"tron.estimate_us", "us"},
    {"tron.decode_step_us", "us"},
    {"baselines.roofline_us", "us"},
    {"ghost.estimate_s", "s"},
    {"graph.generate_s", "s"},
    {"graph.partition_s", "s"},
    {"graph.lane_imbalance_s", "s"},
    {"sim.design_points", "count"},
    {"sim.headline_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.residual_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool self_test = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lumos_perfbench: " << why
            << "\nusage: lumos_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only] [--spans-out <path>]\n"
               "       lumos_perfbench --self-test\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else if (a == "--spans-out") {
        o.spans_out = value();
      } else if (a == "--self-test") {
        o.self_test = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!o.self_test && o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + json_number(values[i]);
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Checks the last repetition's outputs, and that its results are the cold
// repetition's, as one operation.
void check_repetition(const Workload& w, std::uint64_t cold_digest, Tally& tally) {
  Check check;
  w.check(check);
  check.expect(w.digest() == cold_digest, "repetition digest equals the cold repetition's");
  tally.record(check);
}

// Span times of the traced run: per span name, the median over traced
// repetitions of its summed time in one repetition, and its time in set-up.
SpanTimes span_times(const Tracer& tracer, int setup_span, const std::vector<int>& rep_spans,
                     double traced_wall_s) {
  SpanTimes out;
  out.wall_s = traced_wall_s;
  std::map<std::string, std::vector<double>> per_rep;
  for (std::size_t r = 0; r < rep_spans.size(); ++r) {
    std::map<std::string, double> sums;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const int id = static_cast<int>(i);
      if (id != rep_spans[r] && tracer.within(id, rep_spans[r])) {
        sums[tracer.spans()[i].name] += tracer.spans()[i].duration_s();
      }
    }
    for (const auto& [name, s] : sums) per_rep[name].push_back(s);
  }
  for (auto& [name, v] : per_rep) {
    v.resize(rep_spans.size(), 0.0);  // a repetition without the span spent 0 in it
    out.rep_s[name] = median(v);
  }
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const int id = static_cast<int>(i);
    if (id != setup_span && tracer.within(id, setup_span)) {
      out.setup_s[tracer.spans()[i].name] += tracer.spans()[i].duration_s();
    }
  }
  return out;
}

// Appends the traced run's per-layer metrics and each layer's self time, in
// set-up and in a median repetition, to the report.
void write_layer_report(Workload& w, const Tracer& tracer, const std::vector<int>& rep_spans,
                        double setup_s, double wall_s, double traced_wall_s, std::ostream& os) {
  const int setup_span = 0;  // "bench.setup" is the first span opened
  const SpanTimes spans = span_times(tracer, setup_span, rep_spans, traced_wall_s);
  Metrics layer;
  for (const auto& [name, unit] : kLayerMetrics) layer[name] = 0.0;
  w.layer_metrics(spans, layer);
  layer["trace.overhead_ratio"] = traced_wall_s / wall_s - 1.0;

  // Whatever lies outside every layer span (the self time of the bench.*
  // spans) is the residual the layer times fall short of setup_s + wall_s by.
  const std::vector<double> self = tracer.self_times();
  const auto layer_self = [&](int root) {
    std::map<std::string, double> sums;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.within(static_cast<int>(i), root)) sums[tracer.spans()[i].layer()] += self[i];
    }
    return sums;
  };
  std::map<std::string, std::vector<double>> rep_self;
  std::vector<double> residual_s;
  for (const int rep : rep_spans) {
    for (const auto& [name, s] : layer_self(rep)) rep_self[name].push_back(s);
    residual_s.push_back(self[static_cast<std::size_t>(rep)]);
  }
  layer["trace.residual_ratio"] =
      (self[setup_span] + median(residual_s)) / (setup_s + traced_wall_s);

  os << ", \"layer_self_s\": {\"setup\": {";
  std::size_t i = 0;
  for (const auto& [name, s] : layer_self(setup_span)) {
    os << (i++ ? ", " : "") << "\"" << name << "\": " << json_number(s);
  }
  os << "}, \"repetition\": {";
  i = 0;
  for (const auto& [name, v] : rep_self) {
    os << (i++ ? ", " : "") << "\"" << name << "\": " << json_number(median(v));
  }
  os << "}}, \"metrics\": {";
  i = 0;
  for (const auto& [name, unit] : kLayerMetrics) {
    os << (i++ ? ", " : "") << "\"" << name << "\": {\"value\": " << json_number(layer[name])
       << ", \"unit\": \"" << unit << "\"}";
  }
  os << "}";
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload);
  if (!w) usage("unknown workload " + o.workload);
  Tracer tracer;
  Tracer* const traced = o.trace ? &tracer : nullptr;
  Tally tally;

  // Set-up: inputs, then one cold repetition of the measured call.
  const double t0 = now_s();
  double inputs_s = 0.0;
  {
    Scope span(traced, "bench.setup");
    w->setup(o.seed, traced);
    inputs_s = now_s() - t0;
    w->run(traced);
  }
  const double setup_s = now_s() - t0;
  const double cold_s = setup_s - inputs_s;
  // A set-up-only process reports its digest unchecked; the caller compares
  // it with the checked cold repetition of the measuring process.
  const std::uint64_t cold_digest = w->digest();
  if (!o.setup_only) {
    w->prepare_checks();
    check_repetition(*w, cold_digest, tally);
  }

  // Warm repetitions, one at a time.  In the traced run, untraced and traced
  // repetitions alternate, swapping which goes first in each pair.
  std::vector<double> warm_s;
  std::vector<double> traced_s;
  std::vector<int> rep_spans;
  double work = 0.0;
  const double start = now_s();
  constexpr std::size_t kMinReps = 3;
  // Start another round only if one more like the last still ends within
  // --seconds, so runs end on time instead of overshooting by a repetition.
  double round_s = 0.0;
  while (!o.setup_only &&
         (now_s() - start + round_s <= o.seconds || warm_s.size() < kMinReps)) {
    const double round_start = now_s();
    for (int k = 0; k < (o.trace ? 2 : 1); ++k) {
      const bool with_spans = o.trace && (k == 0) == (warm_s.size() % 2 == 0);
      const int rep_span = with_spans ? tracer.open("bench.rep") : -1;
      const double r0 = now_s();
      work = w->run(with_spans ? &tracer : nullptr);
      const double dt = now_s() - r0;
      if (with_spans) {
        tracer.close(rep_span);
        rep_spans.push_back(rep_span);
        traced_s.push_back(dt);
      } else {
        warm_s.push_back(dt);
      }
      check_repetition(*w, cold_digest, tally);
    }
    round_s = now_s() - round_start;
  }
  const double wall_s = median(warm_s);

  std::ostringstream os;
  os << "{\"workload\": \"" << lumos::json_escape(o.workload) << "\", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"failures\": [";
  std::size_t shown = 0;
  for (const std::string& f : tally.failures) {
    if (shown++ == 10) break;
    os << (shown > 1 ? ", " : "") << "\"" << lumos::json_escape(f) << "\"";
  }
  os << "], \"setup_s\": " << json_number(setup_s) << ", \"inputs_s\": " << json_number(inputs_s)
     << ", \"cold_pass_s\": " << json_number(cold_s) << ", \"warm_s\": " << json_list(warm_s)
     << ", \"wall_s\": " << json_number(wall_s) << ", \"samples\": " << warm_s.size()
     << ", \"work\": " << json_number(work) << ", \"work_unit\": \"" << w->work_unit()
     << "\", \"work_per_s\": " << json_number(wall_s > 0.0 ? work / wall_s : 0.0)
     << ", \"peak_rss_mb\": " << json_number(peak_rss_mb()) << ", \"digest\": \""
     << hex(cold_digest) << "\", \"threads\": " << lumos::ThreadPool::global().thread_count()
     << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
     << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";

  if (o.trace) {
    write_layer_report(*w, tracer, rep_spans, setup_s, wall_s, median(traced_s), os);
    if (!o.spans_out.empty() && !tracer.write_chrome_json(o.spans_out)) {
      std::cerr << "lumos_perfbench: cannot write " << o.spans_out << "\n";
      return 1;
    }
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.self_test) {
      const int missed = self_test();
      std::cout << "{\"self_test\": " << (missed == 0 ? "\"ok\"" : "\"failed\"")
                << ", \"missed\": " << missed << "}" << std::endl;
      return missed == 0 ? 0 : 1;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "lumos_perfbench: " << e.what() << "\n";
    return 1;
  }
}
