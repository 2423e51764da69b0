#include "serve/observe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace lumos::serve {

namespace {

// Trace emission helpers.  Timestamps are microseconds (the trace_event
// contract); `%.3f` keeps nanosecond resolution without 17-digit noise.
std::string us(double time_s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", time_s * 1e6);
  return buf;
}

// tid layout: 1 is the synthetic "clients" thread (arrivals, request spans),
// slot i is tid i + 2.
constexpr int kClientsTid = 1;
int slot_tid(std::size_t slot) { return static_cast<int>(slot) + 2; }

}  // namespace

void validate_observe(const ObserveConfig& config) {
  const TracerConfig& t = config.trace;
  if (t.enabled) {
    if (!(t.sample >= 0.0 && t.sample <= 1.0)) {
      throw InvalidArgument("ObserveConfig.trace: TracerConfig.sample must be in [0, 1]");
    }
    if (t.max_request_events == 0) {
      throw InvalidArgument(
          "ObserveConfig.trace: TracerConfig.max_request_events must be >= 1");
    }
    if (t.max_batch_spans == 0) {
      throw InvalidArgument("ObserveConfig.trace: TracerConfig.max_batch_spans must be >= 1");
    }
  }
  if (config.timeline.enabled) {
    if (!(config.timeline.window_s > 0.0) || !std::isfinite(config.timeline.window_s)) {
      throw InvalidArgument(
          "ObserveConfig.timeline: TimelineConfig.window_s must be positive and finite");
    }
  }
}

// ---------------------------------------------------------------------------
// LifecycleTracer
// ---------------------------------------------------------------------------

LifecycleTracer::LifecycleTracer(const TracerConfig& config, const WorkloadCatalog& catalog)
    : config_(config), catalog_(&catalog) {
  spans_.reserve(std::min<std::size_t>(config_.max_batch_spans, 4096));
}

void LifecycleTracer::on_slot_added(std::size_t slot, const std::string& spec, double) {
  if (slot_specs_.size() <= slot) slot_specs_.resize(slot + 1);
  slot_specs_[slot] = spec;
}

void LifecycleTracer::record(const Request& request, double time_s, RequestEventKind kind,
                             std::int32_t slot) {
  RequestEvent ev;
  ev.time_s = time_s;
  ev.id = request.id;
  ev.workload = request.workload;
  ev.attempt = request.attempt;
  ev.slot = slot;
  ev.kind = kind;
  events_.push_back(ev);
}

void LifecycleTracer::begin_request(const Request& request, double now_s) {
  // Saturation refuses whole requests, never truncates one mid-span: a
  // request either has its complete lifecycle in the buffer or is absent.
  if (saturated_ || events_.size() >= config_.max_request_events) {
    saturated_ = true;
    ++dropped_requests_;
    return;
  }
  live_ids_.insert(request.id);
  ++live_filter_[request.id & (kLiveFilter - 1)];
  ++sampled_requests_;
  record(request, now_s, RequestEventKind::kArrival);
}

void LifecycleTracer::on_dispatch(std::size_t slot, std::uint64_t seq,
                                  const std::vector<Request>& batch, double now_s,
                                  double done_s) {
  BatchSpan span;
  span.start_s = now_s;
  span.end_s = done_s;
  span.seq = seq;
  span.slot = static_cast<std::uint32_t>(slot);
  span.workload = batch.front().workload;
  span.size = static_cast<std::uint32_t>(batch.size());
  if (slot_open_span_.size() <= slot) slot_open_span_.resize(slot + 1, kNoSpan);
  if (spans_.size() < config_.max_batch_spans) {
    slot_open_span_[slot] = spans_.size();
    spans_.push_back(span);
  } else {
    // Ring: the oldest recorded span makes room for the newest.
    spans_[span_next_] = span;
    slot_open_span_[slot] = span_next_;
    span_next_ = (span_next_ + 1) % config_.max_batch_spans;
    ++dropped_spans_;
  }
  if (live_ids_.empty()) return;  // nothing sampled in flight; skip the scan
  for (const Request& req : batch) {
    if (live(req)) {
      record(req, now_s, RequestEventKind::kDispatch, static_cast<std::int32_t>(slot));
    }
  }
}

void LifecycleTracer::on_batch_abort(std::size_t slot, std::uint64_t seq, double,
                                     double abort_s, std::size_t) {
  if (slot < slot_open_span_.size() && slot_open_span_[slot] != kNoSpan) {
    BatchSpan& span = spans_[slot_open_span_[slot]];
    if (span.seq == seq) {
      // The batch never ran to its predicted end; the span is cut short.
      span.end_s = abort_s;
      span.aborted = true;
    }
    slot_open_span_[slot] = kNoSpan;
  }
}

void LifecycleTracer::on_requeue(const Request& request, double now_s) {
  if (live(request)) {
    record(request, now_s, RequestEventKind::kRequeue);
  }
}

void LifecycleTracer::on_attempt_timeout(const Request& request, double now_s, bool) {
  if (live(request)) {
    record(request, now_s, RequestEventKind::kAttemptTimeout);
  }
}

void LifecycleTracer::on_retry(const Request& request, double now_s, double) {
  if (live(request)) {
    record(request, now_s, RequestEventKind::kRetry);
  }
}

void LifecycleTracer::end_request(const Request& request, double now_s,
                                  CompletionStatus status) {
  const auto it = live_ids_.find(request.id);
  if (it == live_ids_.end()) return;
  live_ids_.erase(it);
  --live_filter_[request.id & (kLiveFilter - 1)];
  switch (status) {
    case CompletionStatus::kOk:
      record(request, now_s, RequestEventKind::kComplete);
      break;
    case CompletionStatus::kShed:
      record(request, now_s, RequestEventKind::kShed);
      break;
    case CompletionStatus::kTimeout:
      record(request, now_s, RequestEventKind::kTimeout);
      break;
  }
}

void LifecycleTracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };

  // Metadata: name the process and every thread lane.
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"lumos serve\"}}");
  emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
       std::to_string(kClientsTid) + ",\"args\":{\"name\":\"clients\"}}");
  for (std::size_t i = 0; i < slot_specs_.size(); ++i) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(slot_tid(i)) + ",\"args\":{\"name\":\"slot " + std::to_string(i) +
         " [" + json_escape(slot_specs_[i]) + "]\"}}");
  }

  // Batch spans, ring order (seq in args recovers dispatch order).
  for (const BatchSpan& span : spans_) {
    const std::string name = json_escape(catalog_->workload(span.workload).name());
    std::ostringstream ev;
    ev << "{\"name\":\"" << name << " x" << span.size << "\",\"cat\":\"batch\","
       << "\"ph\":\"X\",\"ts\":" << us(span.start_s)
       << ",\"dur\":" << us(std::max(0.0, span.end_s - span.start_s))
       << ",\"pid\":1,\"tid\":" << slot_tid(span.slot) << ",\"args\":{\"seq\":" << span.seq
       << ",\"batch\":" << span.size << ",\"aborted\":" << (span.aborted ? "true" : "false")
       << "}}";
    emit(ev.str());
    if (span.aborted) {
      std::ostringstream ab;
      ab << "{\"name\":\"batch-abort\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
         << us(span.end_s) << ",\"pid\":1,\"tid\":" << slot_tid(span.slot)
         << ",\"args\":{\"seq\":" << span.seq << "}}";
      emit(ab.str());
    }
  }

  // Request lifecycles: one async span per request (cat "req", id = request
  // id) from arrival to its terminal event, instants for the transitions, and
  // flow arrows from each queue entry ("s" on the clients lane) to the
  // dispatch that drained it ("f" on the slot lane).
  for (const RequestEvent& ev : events_) {
    const std::string id = std::to_string(ev.id);
    const std::string ts = us(ev.time_s);
    const std::string common = "\"cat\":\"req\",\"id\":" + id + ",\"ts\":" + ts +
                               ",\"pid\":1,\"tid\":" + std::to_string(kClientsTid);
    const std::string flow_common =
        "\"cat\":\"queue\",\"id\":" + id + ",\"ts\":" + ts + ",\"pid\":1";
    switch (ev.kind) {
      case RequestEventKind::kArrival:
        emit("{\"name\":\"req " + id + "\",\"ph\":\"b\"," + common +
             ",\"args\":{\"workload\":\"" +
             json_escape(catalog_->workload(ev.workload).name()) + "\"}}");
        emit("{\"name\":\"queue\",\"ph\":\"s\"," + flow_common +
             ",\"tid\":" + std::to_string(kClientsTid) + "}");
        break;
      case RequestEventKind::kDispatch:
        emit("{\"name\":\"dispatch\",\"ph\":\"n\"," + common + ",\"args\":{\"slot\":" +
             std::to_string(ev.slot) + ",\"attempt\":" + std::to_string(ev.attempt) + "}}");
        emit("{\"name\":\"queue\",\"ph\":\"f\",\"bp\":\"e\"," + flow_common +
             ",\"tid\":" + std::to_string(slot_tid(static_cast<std::size_t>(
                               std::max<std::int32_t>(ev.slot, 0)))) +
             "}");
        break;
      case RequestEventKind::kRequeue:
        emit("{\"name\":\"requeue\",\"ph\":\"n\"," + common + "}");
        emit("{\"name\":\"queue\",\"ph\":\"s\"," + flow_common +
             ",\"tid\":" + std::to_string(kClientsTid) + "}");
        break;
      case RequestEventKind::kAttemptTimeout:
        emit("{\"name\":\"attempt-timeout\",\"ph\":\"n\"," + common + ",\"args\":{\"attempt\":" +
             std::to_string(ev.attempt) + "}}");
        break;
      case RequestEventKind::kRetry:
        emit("{\"name\":\"retry\",\"ph\":\"n\"," + common + ",\"args\":{\"attempt\":" +
             std::to_string(ev.attempt) + "}}");
        emit("{\"name\":\"queue\",\"ph\":\"s\"," + flow_common +
             ",\"tid\":" + std::to_string(kClientsTid) + "}");
        break;
      case RequestEventKind::kShed:
        emit("{\"name\":\"shed\",\"ph\":\"n\"," + common + "}");
        emit("{\"name\":\"req " + id + "\",\"ph\":\"e\"," + common +
             ",\"args\":{\"status\":\"shed\"}}");
        break;
      case RequestEventKind::kTimeout:
        emit("{\"name\":\"timeout\",\"ph\":\"n\"," + common + "}");
        emit("{\"name\":\"req " + id + "\",\"ph\":\"e\"," + common +
             ",\"args\":{\"status\":\"timeout\"}}");
        break;
      case RequestEventKind::kComplete:
        emit("{\"name\":\"req " + id + "\",\"ph\":\"e\"," + common +
             ",\"args\":{\"status\":\"ok\"}}");
        break;
    }
  }
  os << "\n]}";
  os << "\n";
}

// ---------------------------------------------------------------------------
// TimelineRecorder
// ---------------------------------------------------------------------------

TimelineRecorder::TimelineRecorder(const TimelineConfig& config,
                                   const WorkloadCatalog& catalog)
    : config_(config),
      inv_window_s_(1.0 / config.window_s),
      catalog_(&catalog),
      tenants_(catalog.size()) {}

double TimelineRecorder::first_time_at(std::size_t idx) const {
  if (idx == 0) return -std::numeric_limits<double>::infinity();
  // idx * window_s lands within a few ulps of the boundary; step to the exact
  // one (index_of is monotone in time).
  double t = static_cast<double>(idx) * config_.window_s;
  while (index_of(t) < idx) t = std::nextafter(t, std::numeric_limits<double>::infinity());
  for (double prev = std::nextafter(t, 0.0); index_of(prev) >= idx;
       prev = std::nextafter(t, 0.0)) {
    t = prev;
  }
  return t;
}

TimelineWindow& TimelineRecorder::enter_window(double time_s) {
  const std::size_t idx = index_of(time_s);
  // Time moving on to the next window, the usual case, starts it where the
  // current one ends.
  const bool next =
      cur_ != nullptr && static_cast<std::size_t>(cur_ - windows_.data()) + 1 == idx;
  while (windows_.size() <= idx) {
    TimelineWindow& w = windows_.emplace_back();
    if (windows_.size() > 1) {
      // Gauges carry forward through quiet windows so plots hold their level
      // instead of dropping to zero between events; counters reset.
      const TimelineWindow& prev = windows_[windows_.size() - 2];
      w.queue_depth_last = prev.queue_depth_last;
      w.queue_depth_max = prev.queue_depth_last;
      w.active_slots = prev.active_slots;
      w.failed_slots = prev.failed_slots;
    }
  }
  tenant_counts_.resize(windows_.size() * 2 * tenants_, 0);
  cur_ = &windows_[idx];
  cur_tenants_ = tenant_counts_.data() + idx * 2 * tenants_;
  cur_begin_s_ = next ? cur_end_s_ : first_time_at(idx);
  cur_end_s_ = first_time_at(idx + 1);
  return *cur_;
}

std::span<const std::size_t> TimelineRecorder::tenant_completed(std::size_t i) const {
  LUMOS_EXPECTS(i < windows_.size());
  return {tenant_counts_.data() + i * 2 * tenants_, tenants_};
}

std::span<const std::size_t> TimelineRecorder::tenant_within_slo(std::size_t i) const {
  LUMOS_EXPECTS(i < windows_.size());
  return {tenant_counts_.data() + (i * 2 + 1) * tenants_, tenants_};
}

void TimelineRecorder::on_batch_abort(std::size_t, std::uint64_t, double, double abort_s,
                                      std::size_t) {
  ++window_at(abort_s).batch_aborts;
}

void TimelineRecorder::on_requeue(const Request&, double now_s) {
  ++window_at(now_s).requeued;
}

void TimelineRecorder::on_attempt_timeout(const Request&, double now_s, bool) {
  ++window_at(now_s).attempt_timeouts;
}

void TimelineRecorder::on_retry(const Request&, double now_s, double) {
  ++window_at(now_s).retries;
}

void TimelineRecorder::on_slot_failure(std::size_t, double now_s) {
  ++window_at(now_s).slot_failures;
}

void TimelineRecorder::on_slot_recovery(std::size_t, double now_s) {
  ++window_at(now_s).slot_recoveries;
}

void TimelineRecorder::on_autoscale(std::size_t, int delta, double now_s) {
  TimelineWindow& w = window_at(now_s);
  if (delta > 0) {
    ++w.autoscale_grows;
  } else if (delta < 0) {
    ++w.autoscale_shrinks;
  }
}

void TimelineRecorder::finish(double end_s) {
  // Materialise the final window so the series spans the whole run even when
  // the last events landed earlier.
  if (end_s > 0.0) (void)window_at(end_s);
}

void TimelineRecorder::write_csv(std::ostream& os) const {
  os << "t_s,arrivals,admitted,shed,completed,within_slo,timed_out,attempt_timeouts,"
        "retries,requeued,dispatches,batch_aborts,slot_failures,slot_recoveries,"
        "autoscale_grows,autoscale_shrinks,queue_depth_last,queue_depth_max,"
        "active_slots,failed_slots,throughput_qps,goodput_qps";
  for (std::size_t i = 0; i < catalog_->size(); ++i) {
    const std::string name = catalog_->workload(i).name();
    os << "," << name << "_completed," << name << "_within_slo";
  }
  os << "\n";
  char buf[64];
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const TimelineWindow& w = windows_[i];
    std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(i) * config_.window_s);
    os << buf << "," << w.arrivals << "," << w.admitted << "," << w.shed << ","
       << w.completed << "," << w.within_slo << "," << w.timed_out << ","
       << w.attempt_timeouts << "," << w.retries << "," << w.requeued << ","
       << w.dispatches << "," << w.batch_aborts << "," << w.slot_failures << ","
       << w.slot_recoveries << "," << w.autoscale_grows << "," << w.autoscale_shrinks << ","
       << w.queue_depth_last << "," << w.queue_depth_max << "," << w.active_slots << ","
       << w.failed_slots;
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(w.completed) / config_.window_s);
    os << "," << buf;
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(w.within_slo) / config_.window_s);
    os << "," << buf;
    const auto completed = tenant_completed(i);
    const auto within = tenant_within_slo(i);
    for (std::size_t t = 0; t < tenants_; ++t) {
      os << "," << completed[t] << "," << within[t];
    }
    os << "\n";
  }
}

void TimelineRecorder::write_json(std::ostream& os) const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", config_.window_s);
  os << "{\n  \"window_s\": " << buf << ",\n  \"tenants\": [";
  for (std::size_t i = 0; i < catalog_->size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << json_escape(catalog_->workload(i).name()) << "\"";
  }
  os << "],\n  \"windows\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const TimelineWindow& w = windows_[i];
    std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(i) * config_.window_s);
    os << (i == 0 ? "" : ",") << "\n    {\"t_s\": " << buf << ", \"arrivals\": " << w.arrivals
       << ", \"admitted\": " << w.admitted << ", \"shed\": " << w.shed
       << ", \"completed\": " << w.completed << ", \"within_slo\": " << w.within_slo
       << ", \"timed_out\": " << w.timed_out << ", \"attempt_timeouts\": " << w.attempt_timeouts
       << ", \"retries\": " << w.retries << ", \"requeued\": " << w.requeued
       << ", \"dispatches\": " << w.dispatches << ", \"batch_aborts\": " << w.batch_aborts
       << ", \"slot_failures\": " << w.slot_failures
       << ", \"slot_recoveries\": " << w.slot_recoveries
       << ", \"autoscale_grows\": " << w.autoscale_grows
       << ", \"autoscale_shrinks\": " << w.autoscale_shrinks
       << ", \"queue_depth_last\": " << w.queue_depth_last
       << ", \"queue_depth_max\": " << w.queue_depth_max
       << ", \"active_slots\": " << w.active_slots << ", \"failed_slots\": " << w.failed_slots
       << ", \"tenant_completed\": [";
    const auto completed = tenant_completed(i);
    for (std::size_t t = 0; t < tenants_; ++t) {
      os << (t == 0 ? "" : ", ") << completed[t];
    }
    os << "], \"tenant_within_slo\": [";
    const auto within = tenant_within_slo(i);
    for (std::size_t t = 0; t < tenants_; ++t) {
      os << (t == 0 ? "" : ", ") << within[t];
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

// ---------------------------------------------------------------------------
// EventLoopProfiler
// ---------------------------------------------------------------------------

const char* loop_source_name(LoopSource source) noexcept {
  switch (source) {
    case LoopSource::kLoopHead: return "loop-head";
    case LoopSource::kCompletions: return "completions";
    case LoopSource::kFaults: return "faults";
    case LoopSource::kArrivals: return "arrivals";
    case LoopSource::kRetries: return "retries";
    case LoopSource::kAutoscale: return "autoscale";
    case LoopSource::kDispatch: return "dispatch";
    case LoopSource::kSchedulerPop: return "scheduler-pop";
    case LoopSource::kEstimate: return "estimate-cache";
    case LoopSource::kFinalize: return "finalize";
    case LoopSource::kCount: break;
  }
  return "?";
}

void EventLoopProfiler::record(LoopSource source, Clock::time_point t0,
                               std::uint64_t events) noexcept {
  const std::size_t i = static_cast<std::size_t>(source);
  wall_s_[i] += std::chrono::duration<double>(Clock::now() - t0).count();
  events_[i] += events;
}

std::uint64_t EventLoopProfiler::events(LoopSource source) const noexcept {
  return events_[static_cast<std::size_t>(source)];
}

double EventLoopProfiler::wall_s(LoopSource source) const noexcept {
  return wall_s_[static_cast<std::size_t>(source)];
}

double EventLoopProfiler::accounted_wall_s() const noexcept {
  double total = 0.0;
  for (const LoopSource s : {LoopSource::kLoopHead, LoopSource::kCompletions,
                             LoopSource::kFaults, LoopSource::kArrivals, LoopSource::kRetries,
                             LoopSource::kAutoscale, LoopSource::kDispatch}) {
    total += wall_s(s);
  }
  return total;
}

Table EventLoopProfiler::to_table(const std::string& title) const {
  Table t(title);
  t.add_row({"source", "events", "wall ms", "ns/event", "share"});
  const double total = accounted_wall_s();
  const auto row = [&](LoopSource s, bool in_total, const char* indent = "") {
    const std::uint64_t n = events(s);
    const double w = wall_s(s);
    t.add_row({indent + std::string(loop_source_name(s)), std::to_string(n),
               Table::num(w * 1e3, 3),
               Table::num(n > 0 ? w * 1e9 / static_cast<double>(n) : 0.0, 1),
               in_total ? Table::num(total > 0.0 ? w / total : 0.0, 3) : "-"});
  };
  row(LoopSource::kLoopHead, true);
  row(LoopSource::kCompletions, true);
  row(LoopSource::kFaults, true);
  row(LoopSource::kArrivals, true);
  row(LoopSource::kRetries, true);
  row(LoopSource::kAutoscale, true);
  row(LoopSource::kDispatch, true);
  // Sub-sources of dispatch, indented and excluded from the share column.
  row(LoopSource::kSchedulerPop, false, "  ");
  row(LoopSource::kEstimate, false, "  ");
  t.add_row({"loop total", std::to_string(iterations_) + " iters",
             Table::num(total * 1e3, 3),
             Table::num(iterations_ > 0 ? total * 1e9 / static_cast<double>(iterations_) : 0.0,
                        1),
             "1.000"});
  // After the loop, outside its total.
  row(LoopSource::kFinalize, false);
  return t;
}

// ---------------------------------------------------------------------------
// ObserverHub
// ---------------------------------------------------------------------------

ObserverHub::ObserverHub(const ObserveConfig& config, const WorkloadCatalog& catalog) {
  validate_observe(config);
  if (config.trace.enabled) {
    tracer_ = std::make_unique<LifecycleTracer>(config.trace, catalog);
  }
  if (config.timeline.enabled) {
    timeline_ = std::make_unique<TimelineRecorder>(config.timeline, catalog);
  }
  if (config.profile) profiler_ = std::make_unique<EventLoopProfiler>();
}

void ObserverHub::add(std::unique_ptr<Observer> observer) {
  LUMOS_EXPECTS(observer != nullptr);
  custom_.push_back(std::move(observer));
}

Observation ObserverHub::take() {
  Observation out;
  out.tracer = std::move(tracer_);
  out.timeline = std::move(timeline_);
  out.profiler = std::move(profiler_);
  return out;
}

}  // namespace lumos::serve
