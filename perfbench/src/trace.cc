#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::next_id_{1};

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::shared_ptr<std::vector<SpanRecord>> buffer = [] {
    auto b = std::make_shared<std::vector<SpanRecord>>();
    b->reserve(4096);
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;

}  // namespace

void Tracer::Record(const SpanRecord& span) { ThreadBuffer().push_back(span); }

uint64_t Tracer::Current() { return t_current; }

std::vector<SpanRecord> Tracer::Collect() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> all;
  for (const auto& b : r.buffers) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, SpanStats> Tracer::Summarise(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& s : spans) {
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    // Union of the child intervals, clipped to this span: children of one
    // parent may run concurrently (a batch's parallel parts).
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const int64_t a = std::max(c->start_ns, s.start_ns);
        const int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;

    SpanStats& st = out[s.name];
    ++st.spans;
    st.ops += s.count;
    st.dur_us.push_back(dur_us);
    st.total_us += dur_us;
    st.self_us += dur_us - static_cast<double>(covered) / 1e3;
  }
  return out;
}

bool Tracer::WriteJson(const std::vector<SpanRecord>& spans,
                       const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"time_unit\": \"ns\", \"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start\": %lld, \"end\": %lld, "
                 "\"count\": %llu}",
                 i == 0 ? "" : ",\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<unsigned long long>(s.count));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t parent, uint64_t request,
           uint64_t count)
    : name_(name), count_(count) {
  if (!Tracer::enabled()) return;
  id_ = Tracer::NextId();
  parent_ = parent;
  request_ = request != 0 ? request : t_request;
  saved_current_ = t_current;
  saved_request_ = t_request;
  t_current = id_;
  t_request = request_;
  start_ns_ = NowNanos();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = NowNanos();
  t_current = saved_current_;
  t_request = saved_request_;
  if (!Tracer::enabled()) return;
  SpanRecord rec;
  rec.id = id_;
  rec.parent = parent_;
  rec.request = request_;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.end_ns = end;
  rec.count = count_;
  Tracer::Record(rec);
}

}  // namespace perfbench
