#include "serve/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "common/error.hpp"
#include "serve/event.hpp"

namespace lumos::serve {

namespace {

// Workload w's strict tier under `tiers` (empty vector / out-of-range: 0).
std::uint32_t tier_of(const std::vector<std::uint32_t>& tiers, std::uint32_t workload) {
  return workload < tiers.size() ? tiers[workload] : 0;
}

// FIFO over per-workload sub-queues: a global enqueue sequence defines the
// arrival order, and masked calls compare only the sub-queue heads, so a
// disallowed backlog at the logical front (a saturated mixed fleet's other
// kind) costs O(workloads) per op instead of a scan of the whole queue.
// With priority tiers the pop compares (tier, seq): strict priority across
// tiers, arrival order within a tier.
class FifoScheduler final : public Scheduler {
 public:
  explicit FifoScheduler(std::vector<std::uint32_t> priorities)
      : tiers_(std::move(priorities)) {}

  void enqueue(const Request& request, double) override {
    if (request.workload >= queues_.size()) queues_.resize(request.workload + 1);
    queues_[request.workload].push_back({seq_++, request});
    ++queued_;
  }

  [[nodiscard]] std::size_t queued() const noexcept override { return queued_; }

  [[nodiscard]] bool ready(double, const WorkloadMask& mask) const noexcept override {
    for (std::uint32_t w = 0; w < queues_.size(); ++w) {
      if (!queues_[w].empty() && mask.allows(w)) return true;
    }
    return false;
  }

  [[nodiscard]] double next_deadline_s(const WorkloadMask&) const noexcept override {
    return kNever;
  }

  void pop(double, const WorkloadMask& mask, std::vector<Request>& out) override {
    out.clear();
    // Lowest-tier, then earliest-enqueued allowed head (the global front when
    // unmasked and untiered).
    std::size_t best = queues_.size();
    for (std::uint32_t w = 0; w < queues_.size(); ++w) {
      if (queues_[w].empty() || !mask.allows(w)) continue;
      if (best == queues_.size()) {
        best = w;
        continue;
      }
      const std::uint32_t tier = tier_of(tiers_, w);
      const std::uint32_t best_tier = tier_of(tiers_, static_cast<std::uint32_t>(best));
      if (tier < best_tier ||
          (tier == best_tier && queues_[w].front().seq < queues_[best].front().seq)) {
        best = w;
      }
    }
    if (best < queues_.size()) {
      out.push_back(queues_[best].front().request);
      queues_[best].pop_front();
      --queued_;
    }
  }

  std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double,
                          std::vector<Request>& out) override {
    if (workload >= queues_.size()) return 0;
    std::deque<Entry>& queue = queues_[workload];
    std::size_t taken = 0;
    while (taken < max_n && !queue.empty()) {
      out.push_back(queue.front().request);
      queue.pop_front();
      --queued_;
      ++taken;
    }
    return taken;
  }

 private:
  struct Entry {
    std::uint64_t seq;
    Request request;
  };
  std::vector<std::deque<Entry>> queues_;
  std::vector<std::uint32_t> tiers_;
  std::uint64_t seq_ = 0;
  std::size_t queued_ = 0;
};

// A dynamic-batching bucket: the waiting requests of one (workload, seq
// bucket) key in enqueue order, plus its positions in its workload's two
// heaps (kAbsent when not in that heap).
struct Bucket {
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  std::deque<Request> queue;
  double head_s = 0.0;  // queue.front().arrival_s while the bucket is non-empty
  std::uint32_t seq = 0;
  std::size_t heads_pos = kAbsent;
  std::size_t full_pos = kAbsent;
};

// Indexed binary min-heap of buckets ordered by (head arrival, seq bucket).
// Each bucket records its own position through `Pos`, so re-keying and
// erasing a bucket anywhere in the heap is O(log n) with no search.  The
// storage only grows when a workload gains a bucket, so in steady state no
// heap operation allocates.
template <std::size_t Bucket::*Pos>
class BucketHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] Bucket* top() const noexcept { return heap_.front(); }

  void push(Bucket* bucket) {
    heap_.push_back(bucket);
    sift_up(heap_.size() - 1);
  }

  void erase(Bucket* bucket) noexcept {
    const std::size_t i = bucket->*Pos;
    bucket->*Pos = Bucket::kAbsent;
    Bucket* const last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    update(last);
  }

  // Restores the order after `bucket`'s head changed.
  void update(Bucket* bucket) noexcept {
    const std::size_t i = bucket->*Pos;
    if (i > 0 && before(bucket, heap_[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

 private:
  [[nodiscard]] static bool before(const Bucket* a, const Bucket* b) noexcept {
    return a->head_s < b->head_s || (a->head_s == b->head_s && a->seq < b->seq);
  }

  void place(std::size_t i, Bucket* bucket) noexcept {
    heap_[i] = bucket;
    bucket->*Pos = i;
  }

  void sift_up(std::size_t i) noexcept {
    Bucket* const bucket = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(bucket, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, bucket);
  }

  void sift_down(std::size_t i) noexcept {
    Bucket* const bucket = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], bucket)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, bucket);
  }

  std::vector<Bucket*> heap_;
};

// Per-(workload, seq-bucket) batching buckets.  The map owns them (stable
// nodes, keys assigned deterministically); each workload indexes its buckets
// in two heaps: `heads` holds every non-empty bucket, `full` every bucket
// holding >= max_batch requests.  By the head-top invariant (scheduler.hpp)
// the queries read two heap tops per workload, and masks and tiers — which
// bind per workload — are tested once per workload.  Readiness and deadlines
// ignore tiers (a lower-priority bucket's deadline must still wake the event
// loop so the tier eventually dispatches); the pop respects strict tier
// order among the ready buckets, falling back to longest-waiting-head order
// within a tier and lowest (workload, seq bucket) on equal heads.
class DynamicBatchScheduler final : public Scheduler {
 public:
  DynamicBatchScheduler(const BatchPolicy& policy, std::vector<std::uint32_t> priorities)
      : policy_(policy), tiers_(std::move(priorities)) {
    LUMOS_EXPECTS_MSG(policy.max_batch >= 1 && policy.max_batch <= BatchPolicy::kMaxBatchLimit,
                      "BatchPolicy.max_batch must be in [1, " +
                          std::to_string(BatchPolicy::kMaxBatchLimit) + "], got " +
                          std::to_string(policy.max_batch));
    LUMOS_EXPECTS_MSG(policy.max_wait_s >= 0.0, "BatchPolicy.max_wait_s must be >= 0");
  }

  void enqueue(const Request& request, double) override {
    if (request.workload >= index_.size()) index_.resize(request.workload + 1);
    WorkloadHeaps& w = index_[request.workload];
    Bucket& bucket = buckets_[bucket_key(request)];
    bucket.seq = request.seq_len;
    bucket.queue.push_back(request);
    ++queued_;
    if (bucket.queue.size() == 1) {
      bucket.head_s = request.arrival_s;
      w.heads.push(&bucket);
    }
    if (bucket.queue.size() == policy_.max_batch) w.full.push(&bucket);
  }

  [[nodiscard]] std::size_t queued() const noexcept override { return queued_; }

  [[nodiscard]] bool ready(double now_s, const WorkloadMask& mask) const noexcept override {
    for (std::uint32_t w = 0; w < index_.size(); ++w) {
      if (mask.allows(w) && ready_bucket(index_[w], now_s) != nullptr) return true;
    }
    return false;
  }

  [[nodiscard]] double next_deadline_s(const WorkloadMask& mask) const noexcept override {
    double deadline = kNever;
    for (std::uint32_t w = 0; w < index_.size(); ++w) {
      if (index_[w].heads.empty() || !mask.allows(w)) continue;
      deadline = std::min(deadline, index_[w].heads.top()->head_s + policy_.max_wait_s);
    }
    return deadline;
  }

  void pop(double now_s, const WorkloadMask& mask, std::vector<Request>& out) override {
    out.clear();
    // Each workload offers its own pick; the lowest tier wins, then the
    // oldest head (tie: lowest workload id — the ascending scan).
    Bucket* best = nullptr;
    std::uint32_t best_w = 0;
    std::uint32_t best_tier = 0;
    for (std::uint32_t w = 0; w < index_.size(); ++w) {
      if (!mask.allows(w)) continue;
      Bucket* const bucket = ready_bucket(index_[w], now_s);
      if (bucket == nullptr) continue;
      const std::uint32_t tier = tier_of(tiers_, w);
      if (best == nullptr || tier < best_tier ||
          (tier == best_tier && bucket->head_s < best->head_s)) {
        best = bucket;
        best_w = w;
        best_tier = tier;
      }
    }
    if (best == nullptr) return;
    const std::size_t take = std::min(policy_.max_batch, best->queue.size());
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(best->queue.front());
      best->queue.pop_front();
    }
    queued_ -= take;
    reindex(index_[best_w], *best);
    // The emptied bucket node stays in the map (its deque keeps a spare
    // block): a steady-state workload re-fills the same (workload, seq)
    // bucket every batch, and erasing would pay a map-node free + alloc per
    // dispatch.  Distinct keys are bounded by workloads x seq buckets, so
    // retained empties cannot grow with request count.
  }

  std::size_t pop_joiners(std::uint32_t workload, std::size_t max_n, double,
                          std::vector<Request>& out) override {
    // One joiner at a time: always the oldest head across the workload's seq
    // buckets (tie: lowest seq bucket) — the `heads` top.
    if (workload >= index_.size()) return 0;
    WorkloadHeaps& w = index_[workload];
    std::size_t taken = 0;
    while (taken < max_n && !w.heads.empty()) {
      Bucket& bucket = *w.heads.top();
      out.push_back(bucket.queue.front());
      bucket.queue.pop_front();
      --queued_;
      ++taken;
      reindex(w, bucket);
    }
    return taken;
  }

 private:
  struct WorkloadHeaps {
    BucketHeap<&Bucket::heads_pos> heads;
    BucketHeap<&Bucket::full_pos> full;
  };

  // Workload-major bucket key: high 32 bits workload, low 32 bits seq bucket.
  [[nodiscard]] static std::uint64_t bucket_key(const Request& r) noexcept {
    return (static_cast<std::uint64_t>(r.workload) << 32) | r.seq_len;
  }

  // The bucket `w` would pop at `now_s`: its oldest head when that is past
  // its deadline, else its oldest full bucket; nullptr when none is ready.
  [[nodiscard]] Bucket* ready_bucket(const WorkloadHeaps& w, double now_s) const noexcept {
    if (w.heads.empty()) return nullptr;
    Bucket* const head = w.heads.top();
    if (head->head_s + policy_.max_wait_s <= now_s) return head;
    return w.full.empty() ? nullptr : w.full.top();
  }

  // Re-files `bucket` in its workload's heaps after requests left its front.
  void reindex(WorkloadHeaps& w, Bucket& bucket) noexcept {
    if (bucket.queue.empty()) {
      w.heads.erase(&bucket);
    } else {
      bucket.head_s = bucket.queue.front().arrival_s;
      w.heads.update(&bucket);
    }
    if (bucket.full_pos == Bucket::kAbsent) return;
    if (bucket.queue.size() < policy_.max_batch) {
      w.full.erase(&bucket);
    } else {
      w.full.update(&bucket);
    }
  }

  BatchPolicy policy_;
  std::vector<std::uint32_t> tiers_;
  std::map<std::uint64_t, Bucket> buckets_;
  std::vector<WorkloadHeaps> index_;  // by workload id
  std::size_t queued_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, const BatchPolicy& policy,
                                          std::vector<std::uint32_t> priorities) {
  if (kind == SchedulerKind::kFifo) {
    return std::make_unique<FifoScheduler>(std::move(priorities));
  }
  return std::make_unique<DynamicBatchScheduler>(policy, std::move(priorities));
}

}  // namespace lumos::serve
