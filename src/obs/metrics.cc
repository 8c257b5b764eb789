#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace dvs {
namespace obs {

// ---- Bucket math ----

size_t HistogramData::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  const int octave = std::bit_width(v) - 1;  // >= 3 since v >= 8
  const size_t sub = static_cast<size_t>(v >> (octave - 3)) & 7;
  return kSubBuckets + static_cast<size_t>(octave - 3) * kSubBuckets + sub;
}

double HistogramData::BucketMidpoint(size_t index) {
  if (index < kSubBuckets) return static_cast<double>(index);
  const size_t rel = index - kSubBuckets;
  const int octave = static_cast<int>(rel / kSubBuckets) + 3;
  const double width = static_cast<double>(1ULL << (octave - 3));
  const double lo = static_cast<double>(kSubBuckets + rel % kSubBuckets) * width;
  return lo + width / 2.0;
}

void HistogramData::Add(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  if (buckets.empty()) buckets.assign(kBuckets, 0);
  buckets[BucketIndex(v)] += 1;
  count += 1;
  sum += v;
  if (value > max) max = value;
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(kBuckets, 0);
  for (size_t i = 0; i < kBuckets && i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistogramData::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(count) + 0.999999);
  if (target == 0) target = 1;
  if (target > count) target = count;
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= target) return BucketMidpoint(i);
  }
  return static_cast<double>(max);
}

// ---- Histogram instrument ----

void Histogram::Record(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  buckets_[HistogramData::BucketIndex(v)].fetch_add(1,
                                                    std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  int64_t cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Export() const {
  HistogramData d;
  d.count = count_.load(std::memory_order_relaxed);
  if (d.count == 0) return d;
  d.sum = sum_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  d.buckets.resize(HistogramData::kBuckets);
  for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
    d.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return d;
}

// ---- Snapshot encodings ----

const char* MetricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

namespace {

void AppendLine(std::string* out, const std::string& name, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += name;
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendQuantileLine(std::string* out, const std::string& name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += name;
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendSampleText(std::string* out, const MetricSample& s) {
  if (s.kind == MetricKind::kHistogram) {
    AppendLine(out, s.name + ".count", static_cast<int64_t>(s.histogram.count));
    AppendLine(out, s.name + ".sum", static_cast<int64_t>(s.histogram.sum));
    AppendLine(out, s.name + ".max", s.histogram.max);
    AppendQuantileLine(out, s.name + ".p50", s.histogram.Quantile(0.50));
    AppendQuantileLine(out, s.name + ".p95", s.histogram.Quantile(0.95));
    AppendQuantileLine(out, s.name + ".p99", s.histogram.Quantile(0.99));
  } else {
    AppendLine(out, s.name, s.value);
  }
}

std::string PrometheusName(const std::string& dotted) {
  std::string out = dotted;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const MetricSample& s : samples) AppendSampleText(&out, s);
  return out;
}

std::string MetricsSnapshot::DeterministicText() const {
  std::string out;
  for (const MetricSample& s : samples) {
    if (s.deterministic) AppendSampleText(&out, s);
  }
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const MetricSample& s : samples) {
    const std::string name = PrometheusName(s.name);
    out += "# HELP " + name + " " + s.help + "\n";
    if (s.kind == MetricKind::kHistogram) {
      out += "# TYPE " + name + " summary\n";
      AppendQuantileLine(&out, name + "{quantile=\"0.5\"}",
                         s.histogram.Quantile(0.50));
      AppendQuantileLine(&out, name + "{quantile=\"0.95\"}",
                         s.histogram.Quantile(0.95));
      AppendQuantileLine(&out, name + "{quantile=\"0.99\"}",
                         s.histogram.Quantile(0.99));
      AppendLine(&out, name + "_sum", static_cast<int64_t>(s.histogram.sum));
      AppendLine(&out, name + "_count",
                 static_cast<int64_t>(s.histogram.count));
    } else {
      out += "# TYPE " + name + " ";
      out += s.kind == MetricKind::kCounter ? "counter" : "gauge";
      out += "\n";
      AppendLine(&out, name, s.value);
    }
  }
  return out;
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---- Registry ----

Counter* Registry::RegisterCounter(const std::string& name, std::string help,
                                   bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr) {
    e = Entry{};
    e.help = std::move(help);
    e.kind = MetricKind::kCounter;
    e.deterministic = deterministic;
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* Registry::RegisterGauge(const std::string& name, std::string help,
                               bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.gauge == nullptr) {
    e = Entry{};
    e.help = std::move(help);
    e.kind = MetricKind::kGauge;
    e.deterministic = deterministic;
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

Histogram* Registry::RegisterHistogram(const std::string& name,
                                       std::string help, bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.histogram == nullptr) {
    e = Entry{};
    e.help = std::move(help);
    e.kind = MetricKind::kHistogram;
    e.deterministic = deterministic;
    e.histogram = std::make_unique<Histogram>();
  }
  return e.histogram.get();
}

void Registry::RegisterGaugeFn(const std::string& name, std::string help,
                               bool deterministic,
                               std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  e = Entry{};
  e.help = std::move(help);
  e.kind = MetricKind::kGauge;
  e.deterministic = deterministic;
  e.gauge_fn = std::move(fn);
}

void Registry::RegisterHistogramFn(const std::string& name, std::string help,
                                   bool deterministic,
                                   std::function<HistogramData()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  e = Entry{};
  e.help = std::move(help);
  e.kind = MetricKind::kHistogram;
  e.deterministic = deterministic;
  e.histogram_fn = std::move(fn);
}

void Registry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(name);
}

MetricsSnapshot Registry::Snapshot() const {
  // Owned instruments are read under the lock (relaxed loads, cheap).
  // Callbacks are *copied* under the lock and evaluated outside it: a
  // callback may reach back into a registry (a subsystem registering
  // lazily), and holding mu_ across arbitrary user code invites deadlock.
  // The copies also stay valid across a concurrent Unregister.
  MetricsSnapshot snap;
  struct PendingFn {
    size_t index;
    std::function<int64_t()> gauge_fn;
    std::function<HistogramData()> histogram_fn;
  };
  std::vector<PendingFn> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.samples.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      MetricSample s;
      s.name = name;
      s.help = entry.help;
      s.kind = entry.kind;
      s.deterministic = entry.deterministic;
      if (entry.counter != nullptr) {
        s.value = static_cast<int64_t>(entry.counter->value());
      } else if (entry.gauge != nullptr) {
        s.value = entry.gauge->value();
      } else if (entry.gauge_fn) {
        pending.push_back({snap.samples.size(), entry.gauge_fn, nullptr});
      } else if (entry.histogram != nullptr) {
        s.histogram = entry.histogram->Export();
      } else if (entry.histogram_fn) {
        pending.push_back({snap.samples.size(), nullptr, entry.histogram_fn});
      }
      snap.samples.push_back(std::move(s));
    }
  }
  for (const PendingFn& p : pending) {
    if (p.gauge_fn) {
      snap.samples[p.index].value = p.gauge_fn();
    } else if (p.histogram_fn) {
      snap.samples[p.index].histogram = p.histogram_fn();
    }
  }
  // std::map iteration order already sorts samples by name.
  return snap;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Registry& Registry::Default() {
  static Registry* r = new Registry();
  return *r;
}

}  // namespace obs
}  // namespace dvs
