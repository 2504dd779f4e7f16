// Span recording, self-time accounting, and the statistics helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

using Intervals = std::vector<std::pair<double, double>>;

/// The union of `intervals` clipped to [lo, hi], as sorted disjoint parts.
Intervals merged(Intervals intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  Intervals out;
  for (auto [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) continue;
    if (!out.empty() && start <= out.back().second) {
      out.back().second = std::max(out.back().second, end);
    } else {
      out.emplace_back(start, end);
    }
  }
  return out;
}

double length(const Intervals& disjoint) {
  double total = 0.0;
  for (const auto& [start, end] : disjoint) total += end - start;
  return total;
}

}  // namespace

bgpolicy::core::Scenario Options::scenario() const {
  bgpolicy::core::Scenario scenario =
      small ? bgpolicy::core::Scenario::small()
            : bgpolicy::core::Scenario::internet2002();
  scenario.propagation.threads = nproc;
  return scenario;
}

void Record::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::begin(std::string name, std::string layer,
                            std::uint64_t request) {
  const double start = seconds_since(origin_);
  std::lock_guard lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start = start;
  span.end = start;
  span.id = spans_.size() + 1;
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const double end = seconds_since(origin_);
  std::lock_guard lock(mutex_);
  spans_.at(id - 1).end = end;
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

void Tracer::add(std::string name, std::string layer, Clock::time_point start,
                 Clock::time_point end, std::uint64_t parent,
                 std::uint64_t request) {
  std::lock_guard lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start = seconds_between(origin_, start);
  span.end = seconds_between(origin_, end);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

double Tracer::duration(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  const Span& span = spans_.at(id - 1);
  return span.end - span.start;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << std::llround(s.start * 1e6)
        << ",\"dur\":" << std::llround((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
}

std::map<std::string, double> Tracer::self_seconds_by_layer(
    std::uint64_t root) const {
  const std::vector<Span> all = spans();
  // Spans are appended in open order, so a parent's index precedes its
  // children's: one forward pass marks the subtree under `root`.
  std::vector<bool> inside(all.size() + 1, false);
  inside[root] = true;
  std::vector<Intervals> children(all.size() + 1);
  for (const Span& s : all) {
    if (s.id != root && s.parent != 0 && inside[s.parent]) inside[s.id] = true;
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  // A span's own parts are its interval minus its children's; a layer's
  // self time is the union of its spans' own parts, so concurrent spans
  // (requests on several connections) are not counted twice.
  std::map<std::string, Intervals> own;
  for (const Span& s : all) {
    if (!inside[s.id]) continue;
    double from = s.start;
    for (const auto& [start, end] : merged(children[s.id], s.start, s.end)) {
      if (start > from) own[s.layer].emplace_back(from, start);
      from = end;
    }
    if (s.end > from) own[s.layer].emplace_back(from, s.end);
  }
  std::map<std::string, double> self;
  const Span& r = all.at(root - 1);
  for (auto& [layer, parts] : own) {
    self[layer] = length(merged(std::move(parts), r.start, r.end));
  }
  return self;
}

double Tracer::uncovered_seconds(std::uint64_t root) const {
  const std::vector<Span> all = spans();
  const Span& r = all.at(root - 1);
  Intervals children;
  for (const Span& s : all) {
    if (s.parent == root) children.emplace_back(s.start, s.end);
  }
  return (r.end - r.start) - length(merged(std::move(children), r.start, r.end));
}

void report_layers(const Tracer& tracer, std::uint64_t root,
                   const std::string& prefix, Record& record) {
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer(root)) {
    record.add(prefix + ".self_s." + layer, seconds, "s");
  }
  const double wall = tracer.duration(root);
  record.add(prefix + ".traced_wall_s", wall, "s");
  record.add(prefix + ".unaccounted_share",
             wall > 0 ? tracer.uncovered_seconds(root) / wall : 0.0, "ratio");
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
