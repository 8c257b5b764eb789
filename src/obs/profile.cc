#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>

namespace dvs {
namespace obs {

namespace {

std::atomic<bool> g_profiling{false};

thread_local OpStats* t_scan_target = nullptr;

void AppendPair(std::string* out, const char* name, uint64_t hits,
                uint64_t misses) {
  if (hits == 0 && misses == 0) return;
  *out += "  ";
  *out += name;
  *out += "=";
  *out += std::to_string(hits);
  *out += "/";
  *out += std::to_string(misses);
}

void AppendIfNonzero(std::string* out, const char* name, uint64_t v) {
  if (v == 0) return;
  *out += "  ";
  *out += name;
  *out += "=";
  *out += std::to_string(v);
}

}  // namespace

// ---- ExecCounters ----

void ExecCounters::ResetAll() {
  join_cache_hits.Reset();
  join_cache_misses.Reset();
  batch_cache_hits.Reset();
  batch_cache_misses.Reset();
  row_redos.Reset();
}

ExecCounters& ExecCounters::Instance() {
  static ExecCounters counters;
  return counters;
}

// ---- ProfileSink ----

void ProfileSink::DeclarePlan(const PlanNode& root) {
  std::function<void(const PlanNode&, int, int)> walk =
      [&](const PlanNode& n, int depth, int parent) {
        int self = -1;
        for (size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].tag == n.node_tag) {
            self = static_cast<int>(i);
            break;
          }
        }
        if (self < 0) {
          self = static_cast<int>(entries_.size());
          entries_.push_back({n.node_tag, OpLabel(n), depth, parent});
        }
        for (const PlanPtr& c : n.children) walk(*c, depth + 1, self);
      };
  walk(root, 0, -1);
}

OpStats* ProfileSink::Node(uint64_t tag) { return &stats_[tag]; }

const OpStats* ProfileSink::Find(uint64_t tag) const {
  auto it = stats_.find(tag);
  return it == stats_.end() ? nullptr : &it->second;
}

uint64_t ProfileSink::RowsInOf(size_t op_index) const {
  uint64_t in = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].parent != static_cast<int>(op_index)) continue;
    if (const OpStats* s = Find(entries_[i].tag)) in += s->rows_out;
  }
  return in;
}

std::string ProfileSink::Render(bool include_wall) const {
  static const OpStats kZero;
  std::string out;
  if (!entries_.empty()) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      const OpEntry& e = entries_[i];
      const OpStats* s = Find(e.tag);
      out += std::string(static_cast<size_t>(e.depth) * 2, ' ');
      out += e.label;
      out += FormatOpStats(s ? *s : kZero, RowsInOf(i), include_wall);
      out += "\n";
    }
    return out;
  }
  // No declared structure (bare sink): stable tag-sorted flat listing.
  std::vector<uint64_t> tags;
  tags.reserve(stats_.size());
  for (const auto& [tag, s] : stats_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  for (uint64_t tag : tags) {
    out += "op tag=" + std::to_string(tag);
    out += FormatOpStats(*Find(tag), 0, include_wall);
    out += "\n";
  }
  return out;
}

std::string FormatOpStats(const OpStats& s, uint64_t rows_in,
                          bool include_wall) {
  std::string out = "  rows_in=" + std::to_string(rows_in) +
                    "  rows_out=" + std::to_string(s.rows_out);
  AppendIfNonzero(&out, "batches", s.batches);
  AppendPair(&out, "join_build", s.join_build_hits, s.join_build_misses);
  AppendPair(&out, "join_probe", s.join_probe_hits, s.join_probe_misses);
  AppendPair(&out, "batch_cache", s.batch_cache_hits, s.batch_cache_misses);
  AppendIfNonzero(&out, "sel_memo", s.sel_memo_hits);
  AppendIfNonzero(&out, "bails", s.vector_bails);
  AppendIfNonzero(&out, "redos", s.row_redos);
  AppendIfNonzero(&out, "state_groups", s.state_groups);
  AppendIfNonzero(&out, "recomputed_groups", s.recomputed_groups);
  if (include_wall) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.wall_ns) / 1e6);
    out += "  wall_ms=";
    out += buf;
  }
  return out;
}

std::string OpLabel(const PlanNode& n) {
  std::string label = PlanKindName(n.kind);
  switch (n.kind) {
    case PlanKind::kScan:
      if (!n.table_name.empty()) label += " " + n.table_name;
      break;
    case PlanKind::kJoin:
      label += std::string(" ") + JoinTypeName(n.join_type);
      break;
    default:
      break;
  }
  return label;
}

// ---- Arming ----

bool ProfilingArmed() { return g_profiling.load(std::memory_order_relaxed); }

bool InstallProfiling(bool armed) {
  return g_profiling.exchange(armed, std::memory_order_acq_rel);
}

// ---- Scan attribution ----

OpStats* CurrentScanTarget() { return t_scan_target; }

ScopedScanTarget::ScopedScanTarget(OpStats* target)
    : previous_(t_scan_target) {
  t_scan_target = target;
}

ScopedScanTarget::~ScopedScanTarget() { t_scan_target = previous_; }

// ---- EXPLAIN rendering ----

namespace {

void RenderPlanWalk(const PlanNode& n, int depth, const ProfileSink* sink,
                    bool include_wall, std::vector<std::string>* out) {
  static const OpStats kZero;
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += OpLabel(n);
  line += " (tag=" + std::to_string(n.node_tag) + ")";
  if (sink != nullptr) {
    uint64_t rows_in = 0;
    for (const PlanPtr& c : n.children) {
      if (const OpStats* cs = sink->Find(c->node_tag)) rows_in += cs->rows_out;
    }
    const OpStats* s = sink->Find(n.node_tag);
    line += FormatOpStats(s ? *s : kZero, rows_in, include_wall);
  }
  out->push_back(std::move(line));
  for (const PlanPtr& c : n.children) {
    RenderPlanWalk(*c, depth + 1, sink, include_wall, out);
  }
}

}  // namespace

std::vector<std::string> RenderPlanLines(const PlanNode& root) {
  std::vector<std::string> out;
  RenderPlanWalk(root, 0, nullptr, false, &out);
  return out;
}

std::vector<std::string> RenderAnalyzedPlanLines(const PlanNode& root,
                                                 const ProfileSink& sink,
                                                 bool include_wall) {
  std::vector<std::string> out;
  RenderPlanWalk(root, 0, &sink, include_wall, &out);
  return out;
}

}  // namespace obs
}  // namespace dvs
