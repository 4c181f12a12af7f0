#include "trace_ledger.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace perfbench {

using tgpp::trace::TraceEvent;

// Machines of one superstep leave its closing allreduce together; spans of
// the same step number whose ends lie further apart belong to different
// concurrent jobs.
constexpr int64_t kSameSuperstepNanos = 2'000'000;

void TraceLedger::Begin() {
  tgpp::trace::Reset();
  tgpp::trace::SetEnabled(true);
}

void TraceLedger::End() { tgpp::trace::SetEnabled(false); }

void TraceLedger::Collect() {
  dropped_ += tgpp::trace::Stats().dropped;
  AddWindow(tgpp::trace::Snapshot());
  tgpp::trace::Reset();
}

double TraceLedger::UnionSeconds(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  int64_t total = 0;
  int64_t cur_begin = 0;
  int64_t cur_end = -1;
  for (const Interval& iv : intervals) {
    if (iv.begin > cur_end) {
      if (cur_end > cur_begin) total += cur_end - cur_begin;
      cur_begin = iv.begin;
      cur_end = iv.end;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (cur_end > cur_begin) total += cur_end - cur_begin;
  return 1e-9 * static_cast<double>(total);
}

void TraceLedger::AddWindow(const std::vector<TraceEvent>& events) {
  // Spans by thread track, parents before children.
  std::map<int, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) {
    if (!e.is_span()) continue;
    by_tid[e.tid].push_back(&e);
    auto& d = durations_[e.name];
    d.first += 1e-9 * static_cast<double>(e.dur_nanos);
    ++d.second;
  }

  // (name, machine) -> intervals in this window.
  std::map<std::pair<std::string, int>, std::vector<Interval>> span_iv;
  std::map<std::pair<std::string, int>, std::vector<Interval>> self_iv;
  std::vector<const TraceEvent*> supersteps;
  std::vector<std::vector<int64_t>> arrivals;  // sync arrivals per superstep

  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_nanos != b->ts_nanos) return a->ts_nanos < b->ts_nanos;
                return a->dur_nanos > b->dur_nanos;
              });
    std::vector<std::vector<Interval>> children(spans.size());
    std::vector<int> superstep_of(spans.size(), -1);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent* s = spans[i];
      const int64_t end = s->ts_nanos + s->dur_nanos;
      while (!stack.empty()) {
        const TraceEvent* top = spans[stack.back()];
        if (top->ts_nanos + top->dur_nanos >= end && top->ts_nanos <= s->ts_nanos) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        children[stack.back()].push_back({s->ts_nanos, end});
        superstep_of[i] = superstep_of[stack.back()];
      }
      if (std::strcmp(s->name, "superstep") == 0 && s->machine >= 0 &&
          s->machine < num_machines_) {
        superstep_of[i] = static_cast<int>(supersteps.size());
        supersteps.push_back(s);
        arrivals.emplace_back();
      } else if (superstep_of[i] >= 0 &&
                 (std::strcmp(s->name, "barrier.wait") == 0 ||
                  std::strcmp(s->name, "allreduce") == 0)) {
        arrivals[superstep_of[i]].push_back(s->ts_nanos);
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent* s = spans[i];
      if (s->machine < 0 || s->machine >= num_machines_) continue;
      const std::pair<std::string, int> key{s->name, s->machine};
      const int64_t end = s->ts_nanos + s->dur_nanos;
      span_iv[key].push_back({s->ts_nanos, end});
      // Direct children are disjoint and sorted; self = the gaps.
      int64_t cursor = s->ts_nanos;
      for (const Interval& c : children[i]) {
        if (c.begin > cursor) self_iv[key].push_back({cursor, c.begin});
        cursor = std::max(cursor, c.end);
      }
      if (end > cursor) self_iv[key].push_back({cursor, end});
    }
  }

  auto accumulate = [&](auto& window, SecondsMap* total) {
    for (auto& [key, intervals] : window) {
      auto& per_machine = (*total)[key.first];
      per_machine.resize(num_machines_, 0.0);
      per_machine[key.second] += UnionSeconds(std::move(intervals));
    }
  };
  accumulate(span_iv, &span_seconds_);
  accumulate(self_iv, &self_seconds_);
  AddStragglerGaps(supersteps, arrivals);
}

void TraceLedger::AddStragglerGaps(
    const std::vector<const TraceEvent*>& supersteps,
    const std::vector<std::vector<int64_t>>& arrivals) {
  // Group the machines' spans of one superstep: same step number, ends
  // within kSameSuperstepNanos, one span per machine.
  std::vector<size_t> order(supersteps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto end_of = [&](size_t i) {
    return supersteps[i]->ts_nanos + supersteps[i]->dur_nanos;
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (supersteps[a]->arg_value0 != supersteps[b]->arg_value0) {
      return supersteps[a]->arg_value0 < supersteps[b]->arg_value0;
    }
    return end_of(a) < end_of(b);
  });
  std::vector<bool> used(order.size(), false);
  for (size_t a = 0; a < order.size(); ++a) {
    if (used[a]) continue;
    std::vector<size_t> group{order[a]};
    std::vector<bool> machine_seen(num_machines_, false);
    machine_seen[supersteps[order[a]]->machine] = true;
    used[a] = true;
    for (size_t b = a + 1; b < order.size() &&
                           static_cast<int>(group.size()) < num_machines_;
         ++b) {
      const TraceEvent* s = supersteps[order[b]];
      if (used[b] || s->arg_value0 != supersteps[order[a]]->arg_value0) continue;
      if (end_of(order[b]) - end_of(order[a]) > kSameSuperstepNanos) break;
      if (machine_seen[s->machine]) continue;
      machine_seen[s->machine] = true;
      used[b] = true;
      group.push_back(order[b]);
    }
    if (static_cast<int>(group.size()) != num_machines_) continue;
    size_t points = arrivals[group[0]].size();
    for (size_t g : group) points = std::min(points, arrivals[g].size());
    for (size_t j = 0; j < points; ++j) {
      std::vector<int64_t> at;
      for (size_t g : group) at.push_back(arrivals[g][j]);
      std::sort(at.begin(), at.end());
      const size_t n = at.size();
      const double median =
          n % 2 == 1 ? static_cast<double>(at[n / 2])
                     : 0.5 * static_cast<double>(at[n / 2 - 1] + at[n / 2]);
      straggler_gap_s_ += 1e-9 * (static_cast<double>(at.back()) - median);
    }
  }
}

double TraceLedger::MeanOverMachines(const SecondsMap& map,
                                     const std::string& name) const {
  auto it = map.find(name);
  if (it == map.end() || num_machines_ == 0) return 0;
  double total = 0;
  for (double s : it->second) total += s;
  return total / num_machines_;
}

double TraceLedger::MeanSpanSeconds(const std::string& name) const {
  return MeanOverMachines(span_seconds_, name);
}

double TraceLedger::MeanSelfSeconds(const std::string& name) const {
  return MeanOverMachines(self_seconds_, name);
}

double TraceLedger::MeanSpanDuration(const std::string& name) const {
  auto it = durations_.find(name);
  if (it == durations_.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

std::string TraceLedger::ToJson() const {
  std::ostringstream out;
  out << "{\"machines\": [";
  for (int m = 0; m < num_machines_; ++m) {
    out << (m == 0 ? "" : ", ") << "{";
    bool first = true;
    for (const auto& [name, per_machine] : span_seconds_) {
      const auto self = self_seconds_.find(name);
      const double self_s =
          self == self_seconds_.end() ? 0 : self->second[m];
      out << (first ? "" : ", ") << "\"" << name
          << "\": {\"span_s\": " << per_machine[m]
          << ", \"self_s\": " << self_s << "}";
      first = false;
    }
    out << "}";
  }
  out << "], \"straggler_gap_s\": " << straggler_gap_s_
      << ", \"dropped_events\": " << dropped_ << "}";
  return out.str();
}

void AddSpanLayerMetrics(const TraceLedger& ledger, double ops, Report* r) {
  r->Add("storage.io_wait_s",
         SafeDiv(ledger.MeanSpanSeconds("bufferpool.pin_stall"), ops), "s");
  r->Add("core.scatter_s", SafeDiv(ledger.MeanSpanSeconds("scatter"), ops), "s");
  r->Add("core.gather_busy_s", SafeDiv(ledger.MeanSelfSeconds("gather"), ops),
         "s");
  r->Add("core.apply_s", SafeDiv(ledger.MeanSelfSeconds("apply"), ops), "s");
  r->Add("net.recv_wait_s",
         SafeDiv(ledger.MeanSpanSeconds("fabric.recv_wait"), ops), "s");
  r->Add("net.allreduce_s", SafeDiv(ledger.MeanSpanSeconds("allreduce"), ops),
         "s");
  r->Add("cluster.barrier_wait_s",
         SafeDiv(ledger.MeanSpanSeconds("barrier.wait"), ops), "s");
  r->Add("cluster.straggler_gap_s", SafeDiv(ledger.straggler_gap_s(), ops), "s");
  r->Add("service.run_s", ledger.MeanSpanDuration("service.run"), "s");
  r->Add("dyn.apply_s", ledger.MeanSpanDuration("service.update"), "s");
  r->Add("trace.dropped_events", static_cast<double>(ledger.dropped_events()),
         "count");
}

}  // namespace perfbench
