#include "obs/trace_span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace gcdr::obs {

namespace {

// Per-thread cache of the buffer resolved for one collector, keyed by the
// collector's id rather than its address: a collector built where a
// destroyed one lived must not find its predecessor's freed buffer. A
// thread recording into two collectors alternately re-resolves on each
// switch, which is fine: spans are recorded in bulk against one collector
// at a time (the global one, in practice).
struct LocalCache {
    std::uint64_t collector = 0;  // 0: no collector has this id
    void* buffer = nullptr;
};
thread_local LocalCache t_cache;

std::atomic<std::uint64_t> g_next_collector_id{1};

}  // namespace

SpanCollector::SpanCollector()
    : id_(g_next_collector_id.fetch_add(1, std::memory_order_relaxed)) {}

void SpanCollector::enable(std::size_t per_thread_capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    if (enabled_.load(std::memory_order_relaxed)) return;
    capacity_ = per_thread_capacity == 0 ? 1 : per_thread_capacity;
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void SpanCollector::disable() {
    enabled_.store(false, std::memory_order_release);
}

double SpanCollector::now_s() const {
    if (!enabled()) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

SpanCollector::Buffer& SpanCollector::local_buffer() {
    if (t_cache.collector == id_ && t_cache.buffer)
        return *static_cast<Buffer*>(t_cache.buffer);
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>(
        static_cast<std::uint32_t>(buffers_.size()), capacity_));
    t_cache.collector = id_;
    t_cache.buffer = buffers_.back().get();
    return *buffers_.back();
}

void SpanCollector::record(const char* name, double t0_s, double t1_s) {
    if (!enabled()) return;
    Buffer& buf = local_buffer();
    if (buf.spans.size() >= capacity_) {
        ++buf.dropped;
        return;
    }
    buf.spans.push_back(Span{name, t0_s, t1_s, buf.tid, buf.next_seq++});
}

std::vector<SpanCollector::Span> SpanCollector::merged() const {
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::size_t total = 0;
        for (const auto& b : buffers_) total += b->spans.size();
        all.reserve(total);
        for (const auto& b : buffers_)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
        if (a.t0_s != b.t0_s) return a.t0_s < b.t0_s;
        if (a.t1_s != b.t1_s) return a.t1_s < b.t1_s;
        if (int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
        if (a.tid != b.tid) return a.tid < b.tid;
        return a.seq < b.seq;
    });
    return all;
}

std::vector<SpanCollector::Summary> SpanCollector::summaries() const {
    std::map<std::string, Summary> by_name;  // ordered => sorted output
    for (const Span& s : merged()) {
        Summary& sum = by_name[s.name];
        if (sum.count == 0) sum.name = s.name;
        ++sum.count;
        const double dur = s.t1_s - s.t0_s;
        sum.total_s += dur;
        sum.max_s = std::max(sum.max_s, dur);
    }
    std::vector<Summary> out;
    out.reserve(by_name.size());
    for (auto& [_, sum] : by_name) out.push_back(std::move(sum));
    return out;
}

std::uint64_t SpanCollector::dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto& b : buffers_) n += b->dropped;
    return n;
}

std::string SpanCollector::chrome_trace_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const Span& s : merged()) {
        w.begin_object();
        w.key("name").value(s.name);
        w.key("cat").value("gcdr");
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(s.tid);
        w.key("ts").value(s.t0_s * 1e6);                // microseconds
        w.key("dur").value((s.t1_s - s.t0_s) * 1e6);
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").begin_object();
    w.key("schema").value("gcdr.trace/v1");
    w.key("dropped_spans").value(dropped());
    w.end_object();
    w.end_object();
    return w.str();
}

bool SpanCollector::write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        log_error("obs.trace", "cannot open chrome trace file",
                  {{"path", path}});
        return false;
    }
    out << chrome_trace_json() << '\n';
    return static_cast<bool>(out);
}

void SpanCollector::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep the Buffer objects alive: threads hold cached pointers to them.
    for (auto& b : buffers_) {
        b->spans.clear();
        b->dropped = 0;
        b->next_seq = 0;
    }
}

SpanCollector& SpanCollector::global() {
    static SpanCollector collector;
    return collector;
}

}  // namespace gcdr::obs
