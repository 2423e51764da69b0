// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a lumos layer, named `<layer>.<call>` after the
// src/ module it enters ("serve.simulator.simulate", "graph.generate").  Spans
// nest through an open-span stack on the benchmark's own thread; work that
// ran on pool threads is added afterwards as completed spans with an explicit
// parent and thread index.  Nothing is written until the run ends.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

// Host seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int thread = 0;   // 0: the benchmark's thread; k > 0: pool worker slot k
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
  // The part of the name before its last '.', e.g. "serve.simulator".
  [[nodiscard]] std::string layer() const;
};

class Tracer {
 public:
  // Opens a span whose parent is the innermost open one; returns its index.
  int open(std::string name);
  void close(int id);
  // Records a span that already ended (e.g. one timed on a worker thread).
  int add(std::string name, int parent, int thread, double start_s, double end_s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Each span's duration minus the union of its children's intervals.
  [[nodiscard]] std::vector<double> self_times() const;
  // Whether span `id` is `ancestor` or lies beneath it.
  [[nodiscard]] bool within(int id, int ancestor) const;
  // Chrome trace_event JSON ("X" events, microseconds), viewable in
  // chrome://tracing or Perfetto.  Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the lifetime of the scope; a no-op without a tracer, so
// the untraced run pays one branch per call site.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace perfbench
