#include <cstdio>

#include "bench.h"

namespace adj::benchmark {

int64_t Tracer::Begin(int64_t op, const std::string& name, int64_t parent) {
  const double now = Since(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{op, name, now, now, parent});
  return int64_t(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  const double now = Since(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[size_t(span)].end = now;
}

int64_t Tracer::Record(int64_t op, const std::string& name,
                       Clock::time_point start, Clock::time_point end,
                       int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{op, name, Since(start), Since(end), parent});
  return int64_t(spans_.size()) - 1;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[size_t(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    ++t.calls;
    const double self = spans_[i].end - spans_[i].start - child_s[i];
    t.self_s += self > 0 ? self : 0.0;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"op\": %lld, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld}%s\n",
                 static_cast<long long>(s.op), s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace adj::benchmark
