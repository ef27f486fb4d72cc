#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, Tracer::Layer> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, double> child_seconds;
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id[s.id] = &s;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    // Only the part of the child inside its parent's interval is charged
    // to the parent.
    const Clock::time_point lo = std::max(s.start, it->second->start);
    const Clock::time_point hi = std::min(s.end, it->second->end);
    if (hi > lo) child_seconds[s.parent] += SecondsBetween(lo, hi);
  }
  std::map<std::string, Layer> layers;
  for (const Span& s : spans_) {
    Layer& layer = layers[s.name];
    const auto it = child_seconds.find(s.id);
    const double children = it == child_seconds.end() ? 0.0 : it->second;
    layer.self_seconds += std::max(0.0, SecondsBetween(s.start, s.end) -
                                            children);
    ++layer.spans;
  }
  return layers;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 1e6 * SecondsBetween(origin_, s.start),
                 1e6 * SecondsBetween(origin_, s.end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
