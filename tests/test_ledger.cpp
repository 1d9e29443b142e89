// Tests for the run-ledger stack: the JSON parser (obs/json_parse.hpp),
// ledger record serialization + append/reload round-trip
// (obs/ledger.hpp), build provenance (git sha), and the process RSS
// gauges (obs/process_stats.hpp) that ride along in every snapshot.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/report.hpp"

namespace gcdr::obs {
namespace {

// --- JSON parser ---------------------------------------------------------

TEST(JsonParse, Scalars) {
    JsonValue v;
    ASSERT_TRUE(json_parse("null", v, nullptr));
    EXPECT_TRUE(v.is_null());
    ASSERT_TRUE(json_parse("true", v, nullptr));
    EXPECT_TRUE(v.boolean);
    ASSERT_TRUE(json_parse("-1.5e3", v, nullptr));
    EXPECT_DOUBLE_EQ(v.number, -1500.0);
    ASSERT_TRUE(json_parse("\"hi\"", v, nullptr));
    EXPECT_EQ(v.text, "hi");
}

TEST(JsonParse, NestedContainersPreserveOrder) {
    JsonValue v;
    ASSERT_TRUE(json_parse(R"({"b":[1,2,{"c":3}],"a":null})", v, nullptr));
    ASSERT_TRUE(v.is_object());
    ASSERT_EQ(v.members.size(), 2u);
    EXPECT_EQ(v.members[0].first, "b");  // document order, not sorted
    EXPECT_EQ(v.members[1].first, "a");
    const JsonValue* b = v.find("b");
    ASSERT_TRUE(b && b->is_array());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_DOUBLE_EQ(b->items[1].number, 2.0);
    EXPECT_DOUBLE_EQ(b->items[2].find("c")->number_or(0), 3.0);
}

TEST(JsonParse, StringEscapes) {
    JsonValue v;
    ASSERT_TRUE(json_parse(R"("a\"b\\c\n\tA")", v, nullptr));
    EXPECT_EQ(v.text, "a\"b\\c\n\tA");
}

TEST(JsonParse, UnicodeEscapesAndSurrogatePairs) {
    JsonValue v;
    ASSERT_TRUE(json_parse("\"\\u00e9\"", v, nullptr));  // e-acute
    EXPECT_EQ(v.text, "\xC3\xA9");
    ASSERT_TRUE(json_parse("\"\\ud83d\\ude00\"", v, nullptr));  // emoji
    EXPECT_EQ(v.text, "\xF0\x9F\x98\x80");
    // A lone high surrogate is malformed.
    EXPECT_FALSE(json_parse(R"("\ud83d")", v, nullptr));
}

TEST(JsonParse, ExactUint64ViaToken) {
    JsonValue v;
    // 2^63 + 1 is not representable as a double; the token read is exact.
    ASSERT_TRUE(json_parse("9223372036854775809", v, nullptr));
    EXPECT_EQ(v.uint_or(0), 9223372036854775809ull);
    ASSERT_TRUE(json_parse("-3", v, nullptr));
    EXPECT_EQ(v.uint_or(7), 7u);  // negative: fallback
    ASSERT_TRUE(json_parse("1.25", v, nullptr));
    EXPECT_EQ(v.uint_or(7), 7u);  // fractional: fallback
}

TEST(JsonParse, RejectsGarbage) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(json_parse("", v, &err));
    EXPECT_FALSE(json_parse("{", v, &err));
    EXPECT_FALSE(json_parse("[1,]", v, &err));
    EXPECT_FALSE(json_parse("{\"a\":1} trailing", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, DepthCapStopsRunawayNesting) {
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonValue v;
    EXPECT_FALSE(json_parse(deep, v, nullptr));
}

TEST(JsonParse, StringErrorsPinMessageAndOffset) {
    // parse_string copies each run of plain characters in one append;
    // these pin the decoded text at run boundaries and the exact error
    // string (message, byte offset, line/column) of every string failure.
    struct Ok {
        const char* doc;
        const char* text;
    };
    for (const Ok& c : {Ok{R"("\"start")", "\"start"},
                        Ok{R"("end\\")", "end\\"},
                        Ok{R"("a\\\nb")", "a\\\nb"},
                        Ok{R"("\n\t")", "\n\t"},
                        Ok{R"("")", ""},
                        Ok{R"("x\ud83d\ude00y")", "x\xF0\x9F\x98\x80y"}}) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(json_parse(c.doc, v, &err)) << c.doc << ": " << err;
        EXPECT_EQ(v.text, c.text) << c.doc;
    }
    struct Bad {
        std::string doc;
        const char* error;
    };
    const Bad bad[] = {
        {"\"abc", "unterminated string at byte 4 (line 1, column 5)"},
        {"{\"k\":\"abc", "unterminated string at byte 9 (line 1, column 10)"},
        {"\"abc\\", "unterminated escape at byte 5 (line 1, column 6)"},
        {R"("ab\q")", "unknown escape at byte 5 (line 1, column 6)"},
        {"\"ab\x01" "cd\"",
         "raw control character in string at byte 4 (line 1, column 5)"},
        {"\"a\nb\"",
         "raw control character in string at byte 3 (line 2, column 1)"},
        {R"("x\ud83d")", "lone high surrogate at byte 8 (line 1, column 9)"},
        {R"("\ud83d\u0041")", "bad low surrogate at byte 13 (line 1, column 14)"},
        {R"("\ude00")", "lone low surrogate at byte 7 (line 1, column 8)"},
        {R"("\ud83d\u12")", "truncated \\u escape at byte 9 (line 1, column 10)"},
        {R"("\u00G0")", "bad \\u escape digit at byte 3 (line 1, column 4)"},
    };
    for (const Bad& c : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(json_parse(c.doc, v, &err)) << c.doc;
        EXPECT_EQ(err, c.error) << c.doc;
    }
}

TEST(JsonParse, FailureKeepsCompletedMembersAndDropsThePartialOne) {
    JsonValue v;
    std::string err;
    ASSERT_FALSE(json_parse(R"({"a":1,"b":[2,{"c":"x)", v, &err));
    EXPECT_EQ(err, "unterminated string at byte 21 (line 1, column 22)");
    ASSERT_EQ(v.members.size(), 1u);
    EXPECT_EQ(v.members[0].first, "a");
    EXPECT_DOUBLE_EQ(v.members[0].second.number, 1.0);
    ASSERT_FALSE(json_parse(R"([1,{"k":tru])", v, &err));
    EXPECT_EQ(err, "invalid literal at byte 8 (line 1, column 9)");
    ASSERT_EQ(v.items.size(), 1u);
    EXPECT_DOUBLE_EQ(v.items[0].number, 1.0);
}

// --- ledger --------------------------------------------------------------

TEST(Fnv1a64, KnownVectors) {
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("--deep"), fnv1a64("--wide"));
}

LedgerKey test_key() {
    LedgerKey key;
    key.bench = "kernel_perf";
    key.config = "--deep --channels 4";
    key.seed = 12345;
    key.threads = 4;
    return key;
}

TEST(Ledger, RecordIsOneValidLineWithKeyFields) {
    MetricsRegistry reg;
    reg.counter("sim.events_executed").inc(1000);
    reg.gauge("kernel_perf.cdr_events_per_s").set(1.1e7);
    ReportInfo info;
    info.id = "kernel_perf";
    info.wall_seconds = 1.5;
    const std::string line = ledger_record_json(test_key(), reg, info);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(json_parse(line, doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->string_or(""), "gcdr.bench.ledger/v1");
    EXPECT_EQ(doc.find("bench")->string_or(""), "kernel_perf");
    EXPECT_EQ(doc.find("config")->string_or(""), "--deep --channels 4");
    EXPECT_EQ(doc.find("seed")->uint_or(0), 12345u);
    EXPECT_EQ(doc.find("threads")->uint_or(0), 4u);
    EXPECT_DOUBLE_EQ(doc.find("wall_seconds")->number_or(0), 1.5);
    EXPECT_FALSE(doc.find("git_sha")->string_or("").empty());
    EXPECT_FALSE(doc.find("build_mode")->string_or("").empty());
    // config_hash is the 16-hex-digit fnv1a64 of the config string.
    char want[17];
    std::snprintf(want, sizeof want, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64("--deep --channels 4")));
    EXPECT_EQ(doc.find("config_hash")->string_or(""), want);
    // Full metrics object rides along.
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(
        metrics->find("counters")->find("sim.events_executed")->uint_or(0),
        1000u);
    EXPECT_DOUBLE_EQ(metrics->find("gauges")
                         ->find("kernel_perf.cdr_events_per_s")
                         ->number_or(0),
                     1.1e7);
}

TEST(Ledger, AppendReloadRoundTrip) {
    const std::string path =
        ::testing::TempDir() + "gcdr_ledger_test.jsonl";
    std::remove(path.c_str());
    MetricsRegistry reg;
    reg.gauge("g.rate_per_s").set(100.0);
    ReportInfo info;
    info.id = "kernel_perf";

    ASSERT_TRUE(ledger_append(path, test_key(), reg, info));
    reg.gauge("g.rate_per_s").set(101.0);
    ASSERT_TRUE(ledger_append(path, test_key(), reg, info));

    std::vector<JsonValue> records;
    std::size_t skipped = 0;
    ASSERT_TRUE(ledger_read(path, records, &skipped));
    EXPECT_EQ(skipped, 0u);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_DOUBLE_EQ(records[0]
                         .find("metrics")
                         ->find("gauges")
                         ->find("g.rate_per_s")
                         ->number_or(0),
                     100.0);
    EXPECT_DOUBLE_EQ(records[1]
                         .find("metrics")
                         ->find("gauges")
                         ->find("g.rate_per_s")
                         ->number_or(0),
                     101.0);
    std::remove(path.c_str());
}

TEST(Ledger, ReloadSkipsCorruptAndForeignLines) {
    const std::string path =
        ::testing::TempDir() + "gcdr_ledger_corrupt_test.jsonl";
    std::remove(path.c_str());
    MetricsRegistry reg;
    ReportInfo info;
    info.id = "b";
    ASSERT_TRUE(ledger_append(path, test_key(), reg, info));
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"schema\":\"gcdr.bench.ledger/v1\",\"trunc\n";  // crash
        os << "{\"schema\":\"gcdr.log/v1\"}\n";                  // foreign
        os << "\n";                                              // blank
    }
    ASSERT_TRUE(ledger_append(path, test_key(), reg, info));

    std::vector<JsonValue> records;
    std::size_t skipped = 0;
    ASSERT_TRUE(ledger_read(path, records, &skipped));
    EXPECT_EQ(records.size(), 2u);  // the two real appends survive
    EXPECT_EQ(skipped, 2u);         // truncated + foreign; blank is free
    std::remove(path.c_str());
}

TEST(Ledger, ReadMissingFileFails) {
    std::vector<JsonValue> records;
    EXPECT_FALSE(ledger_read("/nonexistent/dir/ledger.jsonl", records));
}

// --- build provenance ----------------------------------------------------

TEST(BuildInfo, GitShaEnvOverridesCompiledDefault) {
    ::setenv("GCDR_GIT_SHA", "feedc0de", 1);
    EXPECT_EQ(BuildInfo::current().git_sha, "feedc0de");
    ::unsetenv("GCDR_GIT_SHA");
    EXPECT_FALSE(BuildInfo::current().git_sha.empty());
}

// --- process stats -------------------------------------------------------

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

}  // namespace
}  // namespace gcdr::obs
