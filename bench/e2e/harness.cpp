#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "runtime/infer.hpp"

namespace bench {

double quantile(const std::vector<double>& v, double q) {
  return hanayo::runtime::quantile_nearest_rank(v, q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

int64_t beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; });
}

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) check(false, name + " is not finite");
  entries_.push_back({name, unit, value, samples, false});
}

void Results::diag(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  entries_.push_back({name, unit, value, samples, true});
}

void Results::check(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  checks_failed_ += 1;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void Results::ops(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Results::print(bool traced) const {
  for (const Entry& e : entries_) {
    std::printf("# %-6s %-34s %14.6g %-8s n=%lld\n",
                e.diag ? "diag" : "metric", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  bool first = true;
  for (const Entry& e : entries_) {
    const bool per_layer = e.name.find('.') != std::string::npos;
    if (e.diag || per_layer != traced) continue;
    // JSON has no NaN/inf; metric() already failed a check for it.
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Tracer::add(const char* name, const char* cat, int tid, int64_t id,
                int parent, double start, double end) {
  if (!on()) return -1;
  if (spans_.size() == spans_.capacity()) {
    dropped_ += 1;
    return -1;
  }
  spans_.push_back({name, cat, tid, id, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write_chrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
                 "\"args\": {\"id\": %lld}}%s\n",
                 s.name, s.cat, s.start * 1e6, (s.end - s.start) * 1e6, s.tid,
                 static_cast<long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Tracer::print_self_times() const {
  // Union of each parent's children, clipped to the parent's interval.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  struct Agg {
    int64_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0, reach = s.start;
    for (auto [a, b] : k) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    Agg& g = by_name[std::string(s.cat) + "/" + s.name];
    g.count += 1;
    g.total += s.end - s.start;
    g.self += (s.end - s.start) - covered;
  }
  std::printf("# self-time by span (%zu spans, %lld dropped):\n",
              spans_.size(), static_cast<long long>(dropped_));
  for (const auto& [name, g] : by_name) {
    std::printf("#   %-28s count %8lld  total %10.2f ms  self %10.2f ms  "
                "(%.4f ms/span)\n",
                name.c_str(), static_cast<long long>(g.count), g.total * 1e3,
                g.self * 1e3, g.self * 1e3 / static_cast<double>(g.count));
  }
}

}  // namespace bench
