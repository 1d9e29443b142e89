#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace gcdr::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

}  // namespace

std::string sanitize_dump_tag(const std::string& reason) {
    std::string tag;
    tag.reserve(reason.size());
    for (char c : reason) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-';
        tag.push_back(ok ? c : '_');
        if (tag.size() >= 48) break;  // keep paths bounded
    }
    if (tag.empty()) tag = "dump";
    return tag;
}

FlightRing::FlightRing(std::string name, std::size_t capacity)
    : name_(std::move(name)),
      slots_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1) {}

std::vector<FlightEvent> FlightRing::snapshot() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, slots_.size());
    std::vector<FlightEvent> out;
    out.reserve(n);
    for (std::uint64_t i = h - n; i < h; ++i) out.push_back(slots_[i & mask_]);
    return out;
}

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config config) : config_(std::move(config)) {}

FlightRing& FlightRecorder::ring(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_)
        if (r->name() == name) return *r;
    rings_.push_back(
        std::make_unique<FlightRing>(name, config_.ring_capacity));
    return *rings_.back();
}

void FlightRecorder::set_waveform_dump(
    std::function<std::vector<std::string>(const std::string&, std::int64_t,
                                           std::int64_t)>
        hook) {
    std::lock_guard<std::mutex> lock(mu_);
    waveform_dump_ = std::move(hook);
}

std::string FlightRecorder::dump(const std::string& reason,
                                 std::uint64_t focus_id) {
    const std::uint64_t n =
        triggers_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (n >= config_.max_dumps) return "";
    std::vector<const FlightRing*> rings;
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
    return write_dump(reason, focus_id, rings, true);
}

std::string FlightRecorder::dump_ring(const FlightRing& own,
                                      const std::string& reason) {
    const std::uint64_t n =
        triggers_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (n >= config_.max_dumps) return "";
    return write_dump(reason, 0, {&own}, false);
}

std::string FlightRecorder::write_dump(
    const std::string& reason, std::uint64_t focus_id,
    const std::vector<const FlightRing*>& rings, bool waveforms) {
    // Snapshot every ring up front; find the trigger time (newest event
    // anywhere) and, if no focus was given, the newest traced event.
    struct RingView {
        const FlightRing* ring;
        std::vector<FlightEvent> events;
    };
    std::vector<RingView> views;
    views.reserve(rings.size());
    std::int64_t trigger_time_fs = 0;
    const CausalTracer* focus_tracer = nullptr;
    std::int64_t focus_time_fs = -1;
    const bool pick_focus = focus_id == 0;
    for (const FlightRing* r : rings) {
        views.push_back(RingView{r, r->snapshot()});
        for (const FlightEvent& ev : views.back().events) {
            trigger_time_fs = std::max(trigger_time_fs, ev.time_fs);
            if (pick_focus && ev.cause_id != 0 && r->tracer() &&
                ev.time_fs > focus_time_fs) {
                focus_time_fs = ev.time_fs;
                focus_id = ev.cause_id;
                focus_tracer = r->tracer();
            }
        }
    }
    if (focus_id != 0 && !focus_tracer) {
        // Explicit focus id: resolve against the first ring that has a
        // tracer attached (single-scheduler dumps, the common case).
        for (const FlightRing* r : rings)
            if (r->tracer()) { focus_tracer = r->tracer(); break; }
    }

    // Dump names carry the sanitized reason (which includes the faulting
    // lane, e.g. "lock_loss:ch2" -> "lock_loss_ch2") plus a process-wide
    // monotonic sequence number. The per-recorder index `n` only gates
    // max_dumps: two recorders sharing a dump_dir — or two lanes faulting
    // in the same run — would both have been "flight_dump_0" and the
    // second post-mortem silently overwrote the first.
    static std::atomic<std::uint64_t> g_dump_seq{0};
    const std::uint64_t seq =
        g_dump_seq.fetch_add(1, std::memory_order_relaxed);
    const std::string stem = config_.dump_dir + "/flight_dump_" +
                             sanitize_dump_tag(reason) + "_" +
                             std::to_string(seq);
    const std::string json_path = stem + ".json";

    std::vector<std::string> waveform_paths;
    if (waveforms && waveform_dump_) {
        waveform_paths = waveform_dump_(
            stem, trigger_time_fs - config_.window_fs,
            trigger_time_fs + config_.window_fs);
    }

    JsonWriter w;
    w.begin_object();
    w.key("schema").value("gcdr.flight.dump/v1");
    w.key("reason").value(reason);
    w.key("trigger_time_fs").value(static_cast<std::int64_t>(trigger_time_fs));
    w.key("rings").begin_object();
    for (const RingView& view : views) {
        w.key(view.ring->name()).begin_object();
        w.key("appended").value(view.ring->appended());
        w.key("events").begin_array();
        for (const FlightEvent& ev : view.events) {
            w.begin_object();
            w.key("time_fs").value(ev.time_fs);
            w.key("kind").value(ev.kind);
            w.key("value").value(ev.value);
            w.key("cause_id").value(ev.cause_id);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.key("causal_chain").begin_array();
    if (focus_id != 0 && focus_tracer) {
        for (const CausalTracer::Record& rec : focus_tracer->chain(focus_id)) {
            w.begin_object();
            w.key("id").value(rec.id);
            w.key("parent").value(rec.parent);
            w.key("time_fs").value(rec.time_fs);
            // Annotate with any recorded event that this id caused, so
            // the chain reads "decision ← stage eval ← EDET gate" without
            // cross-referencing by hand.
            for (const RingView& view : views) {
                for (const FlightEvent& ev : view.events) {
                    if (ev.cause_id == rec.id) {
                        w.key("ring").value(view.ring->name());
                        w.key("kind").value(ev.kind);
                        goto annotated;
                    }
                }
            }
        annotated:
            w.end_object();
        }
    }
    w.end_array();
    w.key("waveforms").begin_array();
    for (const std::string& p : waveform_paths) w.value(p);
    w.end_array();
    w.end_object();

    std::ofstream out(json_path);
    if (!out) {
        log_error("obs.flight", "cannot open dump file",
                  {{"path", json_path}});
        return "";
    }
    out << w.str() << '\n';
    if (!out) return "";
    dump_paths_.push_back(json_path);
    log_info("obs.flight", "dumped ring buffer",
             {{"reason", reason}, {"path", json_path}});
    return json_path;
}

std::vector<std::string> FlightRecorder::dump_paths() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dump_paths_;
}

}  // namespace gcdr::obs
