// Statistics of the repository benchmark: exact percentiles over recorded
// samples, the fastest repetition of replayed operations, and the
// arithmetic that splits a traced span into the self time of its parts. Header-only and free of engine dependencies so that
// stats_test.cc can check it on synthetic inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly above it; otherwise the run is too short to support it.
inline constexpr size_t kMinSamplesBeyondTail = 10;

/// 1-based nearest rank of quantile `q` in (0, 1] among `n` samples:
/// ceil(q * n). The rank is computed on q * n rounded to 1e-9 so that
/// 0.9 * 100 selects rank 90, not 91.
inline size_t NearestRank(size_t n, double q) {
  if (n == 0 || !(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("NearestRank needs n > 0 and q in (0, 1]");
  }
  const double scaled = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
  const size_t rank = static_cast<size_t>(std::ceil(scaled));
  return std::clamp<size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank `q` percentile.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - NearestRank(n, q);
}

/// True when `n` samples support reporting the `q` percentile as a tail.
inline bool TailSupported(size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinSamplesBeyondTail;
}

/// Exact nearest-rank percentile; `v` is reordered. Throws on empty input.
template <typename T>
T Percentile(std::vector<T>* v, double q) {
  const size_t rank = NearestRank(v->size(), q);
  auto nth = v->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v->begin(), nth, v->end());
  return *nth;
}

/// Median (nearest rank: the lower middle for an even count).
template <typename T>
T Median(std::vector<T> v) {
  return Percentile(&v, 0.5);
}

/// Tail percentile that refuses to extrapolate: throws when fewer than
/// kMinSamplesBeyondTail samples lie beyond it.
template <typename T>
T TailPercentile(std::vector<T> v, double q, const std::string& what) {
  if (!TailSupported(v.size(), q)) {
    throw std::runtime_error(
        what + ": " + std::to_string(v.size()) + " samples leave " +
        std::to_string(v.empty() ? 0 : SamplesBeyond(v.size(), q)) +
        " beyond the requested percentile; at least " +
        std::to_string(kMinSamplesBeyondTail) + " are needed");
  }
  return Percentile(&v, q);
}

/// Median, or 0 for no samples (a per-layer part a run never traced).
inline double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0 : Median(v);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The fastest repetition of each operation of a sequence that a run
/// replays. Every cycle of a workload replays the same inputs, so operation
/// i of one cycle does the same work as operation i of any other. The
/// host's other tenants only ever add time to an operation, so its fastest
/// repetition is the steadiest estimate of its cost; percentiles are then
/// taken over the operations.
class FastestRepetition {
 public:
  /// Starts the next repetition of the sequence.
  void BeginRepetition() {
    if (repetitions_ > 0 && next_ != best_.size()) {
      throw std::runtime_error("a repetition recorded " +
                               std::to_string(next_) + " operations, not " +
                               std::to_string(best_.size()));
    }
    ++repetitions_;
    next_ = 0;
  }

  /// Records the next operation of the current repetition.
  void Add(double v) {
    if (repetitions_ == 0) throw std::logic_error("Add before BeginRepetition");
    if (repetitions_ == 1) {
      best_.push_back(v);
    } else if (next_ < best_.size()) {
      best_[next_] = std::min(best_[next_], v);
    } else {
      throw std::runtime_error("a repetition recorded more operations than "
                               "the first");
    }
    ++next_;
  }

  /// Fastest time of each operation, in sequence order.
  const std::vector<double>& values() const { return best_; }
  int repetitions() const { return repetitions_; }

 private:
  std::vector<double> best_;
  size_t next_ = 0;
  int repetitions_ = 0;
};

// ---- Span self times ----

/// One completed span on one thread. `label` names the layer the span's
/// self time is charged to.
struct Span {
  std::string label;
  int64_t start = 0;
  int64_t dur = 0;
  int64_t end() const { return start + dur; }
};

/// Result of splitting a root span: the self time of every label (the root's
/// own label receives the time no child span covers — the untraced gap).
struct SpanSplit {
  std::vector<std::pair<std::string, int64_t>> self_by_label;
  int64_t total = 0;  ///< Sum of all self times; equals the root duration.

  int64_t SelfOf(const std::string& label) const {
    int64_t s = 0;
    for (const auto& [l, t] : self_by_label) {
      if (l == label) s += t;
    }
    return s;
  }
};

/// Splits `root` into self times. `spans` are the spans recorded on the
/// root's thread; those starting outside the root are ignored. Recorded
/// times are rounded, so a child can poke past its parent or overlap the
/// previous sibling by a tick: each span is first clipped to its parent and
/// made to start no earlier than its previous sibling ends. After that the
/// tree partitions the root exactly, so the self times sum to its duration.
inline SpanSplit SplitSpan(const Span& root, std::vector<Span> spans) {
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [&](const Span& s) {
                               return s.start < root.start ||
                                      s.start >= root.end();
                             }),
              spans.end());
  // Parents sort before the children they start with: longer first.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.dur > b.dur;
  });

  struct Open {
    size_t label;     // index into labels
    int64_t end;      // clipped end
    int64_t covered;  // cursor: where the next child may start
    int64_t self;
  };
  std::vector<std::string> labels{root.label};
  std::vector<int64_t> self_sum{0};
  auto label_index = [&](const std::string& l) {
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == l) return i;
    }
    labels.push_back(l);
    self_sum.push_back(0);
    return labels.size() - 1;
  };
  std::vector<Open> stack{{0, root.end(), root.start, root.dur}};
  auto close_top = [&] {
    self_sum[stack.back().label] += stack.back().self;
    stack.pop_back();
  };
  for (const Span& s : spans) {
    while (stack.size() > 1 && s.start >= stack.back().end) close_top();
    Open& parent = stack.back();
    const int64_t start = std::max(s.start, parent.covered);
    const int64_t end = std::min(s.end(), parent.end);
    if (end <= start) continue;  // rounding left nothing of this span
    parent.self -= end - start;
    parent.covered = end;
    stack.push_back({label_index(s.label), end, start, end - start});
  }
  while (!stack.empty()) close_top();

  SpanSplit out;
  for (size_t i = 0; i < labels.size(); ++i) {
    out.self_by_label.emplace_back(labels[i], self_sum[i]);
    out.total += self_sum[i];
  }
  return out;
}

/// A refresh span split into the operator profile's root wall and the rest
/// (change scan, merge, commit): the two parts always sum to the span. A
/// profile wall above the span (clock skew between the two readings) is
/// clipped to the span.
struct RefreshSplit {
  int64_t profile_ns = 0;
  int64_t unattributed_ns = 0;
};

inline RefreshSplit SplitRefresh(int64_t span_ns, int64_t profile_root_ns) {
  const int64_t span = std::max<int64_t>(span_ns, 0);
  const int64_t prof = std::clamp<int64_t>(profile_root_ns, 0, span);
  return {prof, span - prof};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
