// Unit tests for the telemetry subsystem (obs/): counter/gauge/histogram
// semantics, JSON export well-formedness and round-trip of expected keys,
// the bench run-report document with its build provenance and process RSS
// gauges, and instrumented components reporting exact tallies (Scheduler
// event counts, Wire transitions).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/report.hpp"
#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace gcdr::obs {
namespace {

// ---------------------------------------------------------------------------
// A tiny recursive-descent JSON parser used only to validate exporter
// output: checks well-formedness and collects every object key as a
// dotted path ("metrics.counters.sim.events_executed"). Not a general
// parser — just enough for round-trip assertions without a dependency.
class JsonChecker {
public:
    bool parse(const std::string& text) {
        s_ = text;
        pos_ = 0;
        keys_.clear();
        if (!value("")) return false;
        skip_ws();
        return pos_ == s_.size();
    }
    [[nodiscard]] bool has_key(const std::string& path) const {
        return keys_.count(path) > 0;
    }
    [[nodiscard]] const std::set<std::string>& keys() const { return keys_; }

private:
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }
    bool literal(const char* lit) {
        const std::string_view sv(lit);
        if (s_.compare(pos_, sv.size(), sv) != 0) return false;
        pos_ += sv.size();
        return true;
    }
    bool string(std::string& out) {
        if (pos_ >= s_.size() || s_[pos_] != '"') return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                if (pos_ + 1 >= s_.size()) return false;
                ++pos_;  // accept any escaped char (incl. uXXXX loosely)
            }
            out.push_back(s_[pos_++]);
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;  // closing quote
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
        bool digits = false;
        auto take_digits = [&] {
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
                ++pos_;
                digits = true;
            }
        };
        take_digits();
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            take_digits();
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
                ++pos_;
            }
            take_digits();
        }
        return digits && pos_ > start;
    }
    bool value(const std::string& path) {
        skip_ws();
        if (pos_ >= s_.size()) return false;
        const char c = s_[pos_];
        if (c == '{') return object(path);
        if (c == '[') return array(path);
        if (c == '"') {
            std::string ignored;
            return string(ignored);
        }
        if (literal("true") || literal("false") || literal("null")) {
            return true;
        }
        return number();
    }
    bool object(const std::string& path) {
        ++pos_;  // '{'
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string k;
            if (!string(k)) return false;
            const std::string child = path.empty() ? k : path + "." + k;
            keys_.insert(child);
            skip_ws();
            if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
            if (!value(child)) return false;
            skip_ws();
            if (pos_ >= s_.size()) return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }
    bool array(const std::string& path) {
        ++pos_;  // '['
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value(path)) return false;
            skip_ws();
            if (pos_ >= s_.size()) return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    std::string s_;
    std::size_t pos_ = 0;
    std::set<std::string> keys_;
};

// ---------------------------------------------------------------------------
// Instrument semantics

TEST(Counter, IncrementAndReset) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndWaterMarks) {
    Gauge g;
    EXPECT_FALSE(g.has_value());
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    EXPECT_TRUE(g.has_value());
    EXPECT_EQ(g.value(), 3.5);
    g.set_max(2.0);  // lower than current -> keeps 3.5
    EXPECT_EQ(g.value(), 3.5);
    g.set_max(7.0);
    EXPECT_EQ(g.value(), 7.0);

    Gauge lo;
    lo.set_min(5.0);  // first observation always taken
    lo.set_min(9.0);
    EXPECT_EQ(lo.value(), 5.0);
    lo.set_min(-1.0);
    EXPECT_EQ(lo.value(), -1.0);
}

TEST(Histogram, ExactStatsAndBucketing) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (double v : {1.0, 10.0, 100.0}) h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 111.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 37.0);

    // Each sample lands in a distinct bucket; buckets are sorted by edge
    // and their counts total count().
    const auto buckets = h.nonempty_buckets();
    ASSERT_EQ(buckets.size(), 3u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        total += buckets[i].count;
        if (i) {
            EXPECT_GT(buckets[i].upper, buckets[i - 1].upper);
        }
    }
    EXPECT_EQ(total, 3u);
}

TEST(Histogram, QuantilesClampedToObservedRange) {
    Histogram h;
    for (int i = 0; i < 1000; ++i) h.record(400.0);  // degenerate population
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 400.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 400.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 400.0);

    Histogram spread;
    for (int i = 1; i <= 100; ++i) spread.record(static_cast<double>(i));
    const double p50 = spread.quantile(0.5);
    const double p99 = spread.quantile(0.99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 100.0);
    EXPECT_GT(p99, p50);  // 16 buckets/decade resolves 50 vs 99
}

TEST(Histogram, UnderOverflowAndNonPositive) {
    Histogram h;
    h.record(0.0);      // non-positive -> underflow bucket
    h.record(-5.0);     // likewise
    h.record(1e-40);    // below 10^kMinExp
    h.record(1e15);     // above 10^kMaxExp
    EXPECT_EQ(h.count(), 4u);
    const auto buckets = h.nonempty_buckets();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_DOUBLE_EQ(buckets.front().upper,
                     std::pow(10.0, Histogram::kMinExp));
    EXPECT_EQ(buckets.front().count, 3u);
    EXPECT_TRUE(std::isinf(buckets.back().upper));
    EXPECT_EQ(buckets.back().count, 1u);
}

TEST(Histogram, BucketEdgesContainSamples) {
    // A recorded value must never exceed its bucket's upper edge.
    Histogram h;
    const double v = 365.17;
    h.record(v);
    const auto buckets = h.nonempty_buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_LE(v, buckets[0].upper);
    EXPECT_GE(v, buckets[0].upper / std::pow(10.0, 1.0 / Histogram::kPerDecade));
}

TEST(Registry, SameNameSharesInstrument) {
    MetricsRegistry reg;
    Counter& a = reg.counter("x.events");
    Counter& b = reg.counter("x.events");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    // Kinds are namespaced separately: same name, different instrument.
    Gauge& g = reg.gauge("x.events");
    g.set(1.5);
    EXPECT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.gauges().size(), 1u);
}

TEST(ScopedTimer, RecordsOnDestruction) {
    MetricsRegistry reg;
    {
        ScopedTimer t(&reg, "work_seconds");
        EXPECT_GE(t.seconds_so_far(), 0.0);
    }
    EXPECT_EQ(reg.histogram("work_seconds").count(), 1u);
    EXPECT_GE(reg.histogram("work_seconds").min(), 0.0);
    // Null registry: a no-op probe, must not crash or register anything.
    { ScopedTimer t(nullptr, "ignored"); }
    EXPECT_EQ(reg.histograms().count("ignored"), 0u);
}

// ---------------------------------------------------------------------------
// Thread safety (the exec/ sweep layer hammers these from worker lanes)

TEST(Concurrency, CounterIncrementsAreNotLost) {
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Concurrency, GaugeWatermarksSeeEveryObservation) {
    Gauge hi, lo;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const double v = t * kPerThread + i;
                hi.set_max(v);
                lo.set_min(v);
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(hi.value(), static_cast<double>(kThreads * kPerThread - 1));
    EXPECT_EQ(lo.value(), 0.0);
}

TEST(Concurrency, HistogramTotalsExactUnderContention) {
    Histogram h;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 4000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&h] {
            for (int i = 1; i <= kPerThread; ++i) {
                h.record(static_cast<double>(i));
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(h.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(h.sum(), kThreads * (kPerThread * (kPerThread + 1.0)) /
                                  2.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kPerThread));
    std::uint64_t bucket_total = 0;
    for (const auto& b : h.nonempty_buckets()) bucket_total += b.count;
    EXPECT_EQ(bucket_total, h.count());
}

TEST(Concurrency, RegistryCreationFromManyThreads) {
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&reg] {
            // All threads race to create/find the same instruments.
            for (int i = 0; i < 200; ++i) {
                reg.counter("shared.c").inc();
                reg.gauge("shared.g").set_max(static_cast<double>(i));
                reg.histogram("shared.h").record(1.0);
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(reg.counter("shared.c").value(), 8u * 200u);
    EXPECT_EQ(reg.histogram("shared.h").count(), 8u * 200u);
    EXPECT_EQ(reg.counters().size(), 1u);
}

// ---------------------------------------------------------------------------
// JSON writer + exporters

TEST(JsonWriter, StructuralOutput) {
    JsonWriter w(0);  // compact
    w.begin_object()
        .key("a")
        .value(1)
        .key("b")
        .begin_array()
        .value(true)
        .null_value()
        .value("s\"x")
        .end_array()
        .end_object();
    EXPECT_TRUE(w.complete());
    JsonChecker chk;
    EXPECT_TRUE(chk.parse(w.str()));
    EXPECT_TRUE(chk.has_key("a"));
    EXPECT_TRUE(chk.has_key("b"));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    JsonWriter w;
    w.begin_array()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .end_array();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str().find("nan"), std::string::npos);
    EXPECT_EQ(w.str().find("inf"), std::string::npos);
    JsonChecker chk;
    EXPECT_TRUE(chk.parse(w.str()));
}

TEST(JsonWriter, EscapesControlCharacters) {
    const std::string esc = JsonWriter::escape("tab\there \"q\" \\ \n");
    EXPECT_NE(esc.find("\\t"), std::string::npos);
    EXPECT_NE(esc.find("\\\""), std::string::npos);
    EXPECT_NE(esc.find("\\\\"), std::string::npos);
    EXPECT_NE(esc.find("\\n"), std::string::npos);
    EXPECT_EQ(esc.find('\n'), std::string::npos);
}

TEST(Registry, JsonRoundTripHasExpectedKeys) {
    MetricsRegistry reg;
    reg.counter("sim.events").inc(7);
    reg.gauge("sim.ratio").set(2.5);
    reg.gauge("unset");  // exported as null
    reg.histogram("lat_seconds").record(1e-3);

    const std::string doc = reg.to_json();
    JsonChecker chk;
    ASSERT_TRUE(chk.parse(doc)) << doc;
    EXPECT_TRUE(chk.has_key("counters.sim.events"));
    EXPECT_TRUE(chk.has_key("gauges.sim.ratio"));
    EXPECT_TRUE(chk.has_key("gauges.unset"));
    EXPECT_TRUE(chk.has_key("histograms.lat_seconds.count"));
    EXPECT_TRUE(chk.has_key("histograms.lat_seconds.mean"));
    EXPECT_TRUE(chk.has_key("histograms.lat_seconds.p50"));
    EXPECT_TRUE(chk.has_key("histograms.lat_seconds.buckets.le"));
    // Exact values survive the trip textually.
    EXPECT_NE(doc.find("\"sim.events\": 7"), std::string::npos);
    EXPECT_NE(doc.find("\"unset\": null"), std::string::npos);
}

TEST(Registry, CsvExport) {
    MetricsRegistry reg;
    reg.counter("c1").inc(5);
    reg.gauge("g1").set(0.25);
    reg.histogram("h1").record(2.0);
    const std::string csv = reg.to_csv();
    EXPECT_NE(csv.find("counter,c1,5"), std::string::npos);
    EXPECT_NE(csv.find("gauge,g1,"), std::string::npos);
    EXPECT_NE(csv.find("h1.count"), std::string::npos);
}

TEST(Report, DocumentSchemaAndWrite) {
    MetricsRegistry reg;
    reg.counter("sim.events_executed").inc(123);
    reg.histogram("t_seconds").record(0.5);
    ReportInfo info;
    info.id = "unit_test";
    info.title = "telemetry unit test";
    info.wall_seconds = 1.25;
    info.threads = 8;
    info.seed = 12345;

    const std::string doc = run_report_json(reg, info);
    JsonChecker chk;
    ASSERT_TRUE(chk.parse(doc)) << doc;
    EXPECT_TRUE(chk.has_key("schema"));
    EXPECT_TRUE(chk.has_key("bench"));
    EXPECT_TRUE(chk.has_key("wall_seconds"));
    EXPECT_TRUE(chk.has_key("run.threads"));
    EXPECT_TRUE(chk.has_key("run.seed"));
    EXPECT_NE(doc.find("\"threads\": 8"), std::string::npos);
    EXPECT_NE(doc.find("\"seed\": 12345"), std::string::npos);
    EXPECT_TRUE(chk.has_key("build.compiler"));
    EXPECT_TRUE(chk.has_key("build.build_mode"));
    EXPECT_TRUE(chk.has_key("metrics.counters.sim.events_executed"));
    EXPECT_TRUE(chk.has_key("metrics.histograms.t_seconds.count"));
    EXPECT_NE(doc.find(kReportSchema), std::string::npos);

    const auto path = std::filesystem::temp_directory_path() /
                      "gcdr_test_report.json";
    ASSERT_TRUE(write_run_report(path.string(), reg, info));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), doc);  // written byte-identical (doc ends in \n)
    std::filesystem::remove(path);
    // Unwritable path is a soft failure (returns false, no throw).
    EXPECT_FALSE(write_run_report("/nonexistent-dir/x/y.json", reg, info));
}

TEST(BuildInfo, GitShaEnvOverridesCompiledDefault) {
    ::setenv("GCDR_GIT_SHA", "feedc0de", 1);
    EXPECT_EQ(BuildInfo::current().git_sha, "feedc0de");
    ::unsetenv("GCDR_GIT_SHA");
    EXPECT_FALSE(BuildInfo::current().git_sha.empty());
}

TEST(ProcessStats, RssIsPositiveOnLinux) {
    // A running process occupies memory; both probes must return > 0 on
    // any platform the repo supports (Linux /proc or rusage fallback).
    EXPECT_GT(process_peak_rss_bytes(), 0u);
    EXPECT_GT(process_current_rss_bytes(), 0u);
    EXPECT_GE(process_peak_rss_bytes(), process_current_rss_bytes() / 2);
}

TEST(ProcessStats, RecordSetsGauges) {
    MetricsRegistry reg;
    record_process_stats(reg);
    EXPECT_TRUE(reg.gauge("process.peak_rss_bytes").has_value());
    EXPECT_GT(reg.gauge("process.peak_rss_bytes").value(), 0.0);
    EXPECT_TRUE(reg.gauge("process.current_rss_bytes").has_value());
}

// ---------------------------------------------------------------------------
// Instrumented components

TEST(InstrumentedScheduler, ReportsExactEventCount) {
    MetricsRegistry reg;
    sim::Scheduler s;
    s.attach_metrics(&reg);
    constexpr int kEvents = 257;
    for (int i = 0; i < kEvents; ++i) {
        s.schedule_at(SimTime::ps(10 * (i % 13)), [] {});
    }
    s.run();
    EXPECT_EQ(reg.counter("sim.events_scheduled").value(),
              static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(reg.counter("sim.events_executed").value(),
              static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(reg.counter("sim.events_executed").value(),
              s.executed_events());
    // All events were queued before run(): the high-water mark saw them.
    EXPECT_EQ(reg.gauge("sim.queue_high_water").value(),
              static_cast<double>(kEvents));
    EXPECT_TRUE(reg.gauge("sim.wall_seconds").has_value());
}

TEST(InstrumentedScheduler, DetachStopsCounting) {
    MetricsRegistry reg;
    sim::Scheduler s;
    s.attach_metrics(&reg);
    s.schedule_at(SimTime::ps(1), [] {});
    s.run();
    s.attach_metrics(nullptr);
    s.schedule_at(SimTime::ps(2), [] {});
    s.run();
    EXPECT_EQ(reg.counter("sim.events_executed").value(), 1u);
    EXPECT_EQ(s.executed_events(), 2u);
}

TEST(InstrumentedWire, CountsCommittedTransitions) {
    MetricsRegistry reg;
    sim::Scheduler s;
    sim::Wire w(s, "d", false);
    w.attach_metrics(reg);
    w.post_transport(SimTime::ps(10), true);
    w.post_transport(SimTime::ps(20), false);
    w.post_transport(SimTime::ps(30), false);  // no transition: same value
    s.run();
    EXPECT_EQ(reg.counter("wire.d.transitions").value(), 2u);
}

}  // namespace
}  // namespace gcdr::obs
