#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::vector<Tracer::Rung> Tracer::Summarize() const {
  std::unordered_map<uint64_t, uint64_t> child_ns;  // parent id -> sum
  std::map<std::string, std::vector<const Span*>> by_name;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
      by_name[s.name].push_back(&s);
    }
  }
  std::vector<Rung> out;
  for (const auto& [name, spans] : by_name) {
    std::vector<double> total, self;
    for (const Span* s : spans) {
      const double d = static_cast<double>(s->end_ns - s->start_ns);
      auto it = child_ns.find(s->id);
      total.push_back(d);
      self.push_back(it == child_ns.end()
                         ? d
                         : d - static_cast<double>(it->second));
    }
    out.push_back({name, spans.size(), Median(std::move(total)),
                   Median(std::move(self))});
  }
  return out;
}

uint64_t Tracer::num_spans() const {
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
