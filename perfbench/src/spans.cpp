#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::string Span::layer() const {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

int Tracer::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_s();
  const int id = add(std::move(name), parent, 0, t, t);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = now_s();
  // Spans close in LIFO order on the benchmark's thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, int parent, int thread, double start_s, double end_s) {
  spans_.push_back(Span{std::move(name), parent, thread, start_s, end_s});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Children on worker threads overlap, so subtract the union of their
    // intervals (clipped to the parent), not the sum of their durations.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans_[i].start_s;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, spans_[i].end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = spans_[i].duration_s() - covered;
  }
  return self;
}

bool Tracer::within(int id, int ancestor) const {
  while (id >= 0) {
    if (id == ancestor) return true;
    id = spans_[static_cast<std::size_t>(id)].parent;
  }
  return false;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(15) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << lumos::json_escape(s.name)
        << "\", \"cat\": \"" << lumos::json_escape(s.layer())
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << s.start_s * 1e6 << ", \"dur\": " << s.duration_s() * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
