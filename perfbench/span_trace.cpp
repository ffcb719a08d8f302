#include "span_trace.hpp"

#include <cstdio>
#include <map>

namespace perfbench {
namespace {

thread_local int t_open_span = -1;

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanTrace& SpanTrace::Global() {
  static SpanTrace trace;
  return trace;
}

SpanTrace::Scope::Scope(const char* name) {
  SpanTrace& trace = Global();
  if (!trace.enabled()) return;
  saved_parent_ = t_open_span;
  id_ = trace.Open(name, saved_parent_);
  t_open_span = id_;
}

SpanTrace::Scope::~Scope() {
  if (id_ < 0) return;
  Global().Close(id_);
  t_open_span = saved_parent_;
}

int SpanTrace::Open(const char* name, int parent) {
  const int tid = ThreadIndex();
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, tid, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanTrace::Close(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void SpanTrace::AddFinished(const char* name, int parent,
                            Clock::time_point start, Clock::time_point end) {
  const int tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, tid, parent, start, end});
}

std::vector<SpanTrace::SelfTime> SpanTrace::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  const auto ms = [](const Span& s) {
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  };
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms(s);
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    ++t.count;
    t.total_ms += ms(spans_[i]);
    t.self_ms += ms(spans_[i]) - child_ms[i];
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanTrace::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.tid, us(s.start),
                 us(s.end) - us(s.start), i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
