#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "report.hpp"

namespace kbench {

Tracer::Span Tracer::Open(const std::string& name) {
  if (!enabled_) return Span(nullptr, -1);
  SpanRecord rec;
  rec.name = name;
  rec.start_ms = Now();
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.request = request_;
  spans_.push_back(std::move(rec));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Span(this, index);
}

void Tracer::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = Now();
  // Spans close in LIFO order (RAII scopes), so the top is `index`.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  // Children of one parent never overlap (single client thread), so the
  // covered part is the sum of the children's durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_ms - s.start_ms) - child_ms[i]);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path, const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"host\": " << host_json << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << JsonNumber(s.start_ms) << ", \"end_ms\": "
        << JsonNumber(s.end_ms) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n],\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "},\n\"self_ms\": {";
  first = true;
  for (const auto& [layer, ms] : LayerSelfMs()) {
    out << (first ? "" : ", ") << JsonString(layer) << ": " << JsonNumber(ms);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace kbench
