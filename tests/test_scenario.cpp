// Tests for the declarative scenario subsystem (src/scenario/): the
// strict loader/validator and its diagnostics (scenario_doc.hpp), the
// canonical resolved serialization and its fixed-point/hashing contract,
// netlist compilation (compile.hpp), the committed golden configs under
// scenarios/ (GCDR_SCENARIOS_DIR), the deterministic scenario fuzzer
// (fuzz.hpp), and the daemon's scenario job kind (serve/protocol.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "masks/jtol_mask.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "scenario/compile.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario_doc.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "statmodel/gated_osc_model.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

#ifndef GCDR_SCENARIOS_DIR
#define GCDR_SCENARIOS_DIR "scenarios"
#endif

namespace gcdr::scenario {
namespace {

// Minimal valid document the malformed cases below are mutations of.
constexpr const char* kMinimalDoc = R"({
  "schema": "gcdr.scenario/v1",
  "name": "minimal",
  "tasks": [{"kind": "differential", "prefix": "diff"}]
})";

bool load(const std::string& text, ScenarioDoc& doc,
          std::vector<Diagnostic>& diags) {
    diags.clear();
    return scenario_from_string(text, doc, diags, "<test>");
}

bool any_diag_contains(const std::vector<Diagnostic>& diags,
                       const std::string& needle) {
    for (const auto& d : diags) {
        if (d.render().find(needle) != std::string::npos) return true;
    }
    return false;
}

// --- loader basics -------------------------------------------------------

TEST(ScenarioDoc, MinimalDocumentLoads) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(doc.name, "minimal");
    ASSERT_EQ(doc.tasks.size(), 1u);
    EXPECT_EQ(doc.tasks[0].kind, TaskSpec::Kind::kDifferential);
    EXPECT_EQ(doc.tasks[0].prefix, "diff");
    // Unset sections keep their documented defaults.
    EXPECT_EQ(doc.mc.max_evals, 200'000u);
    EXPECT_FALSE(doc.has_netlist);
}

TEST(ScenarioDoc, ParseErrorCarriesLineAndColumn) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    // Broken JSON on line 3.
    EXPECT_FALSE(load("{\n  \"schema\": \"gcdr.scenario/v1\",\n  !\n}", doc,
                      diags));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("JSON parse error"), std::string::npos);
    EXPECT_EQ(diags[0].line, 3u);
    EXPECT_EQ(diags[0].file, "<test>");
}

TEST(ScenarioDoc, ValidationDiagnosticPointsAtOffendingValue) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    const std::string text = "{\n"
                             "  \"schema\": \"gcdr.scenario/v1\",\n"
                             "  \"name\": \"x\",\n"
                             "  \"mc\": {\"max_evals\": 0},\n"
                             "  \"tasks\": [{\"kind\": \"differential\", "
                             "\"prefix\": \"d\"}]\n"
                             "}";
    EXPECT_FALSE(load(text, doc, diags));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].path, "mc.max_evals");
    EXPECT_EQ(diags[0].line, 4u);  // the 0 literal sits on line 4
    EXPECT_GT(diags[0].column, 0u);
}

// --- malformed-scenario table --------------------------------------------

struct MalformedCase {
    const char* label;
    const char* text;
    const char* expect;  ///< substring of some rendered diagnostic
};

// Every rejection class named in the format doc gets a table row; these
// strings are the subsystem's user interface, so changes to them are
// breaking and must show up here.
const MalformedCase kMalformed[] = {
    {"wrong schema",
     R"({"schema":"gcdr.scenario/v0","name":"x",
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "schema"},
    {"unknown top-level key",
     R"({"schema":"gcdr.scenario/v1","name":"x","bogus":1,
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "unknown key \"bogus\""},
    {"unknown model key",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"gri_dx":0.01},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "unknown key \"gri_dx\""},
    {"unknown task key for kind",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"differential","prefix":"d","axes":[]}]})",
     "unknown key \"axes\" for kind \"differential\""},
    {"zero mc budget",
     R"({"schema":"gcdr.scenario/v1","name":"x","mc":{"max_evals":0},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "mc.max_evals must be >= 1"},
    {"negative sweep step",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_uipp","steps":{"from":0.5,"to":0.1,"step":-0.1}}]}]})",
     "sweep step must be positive"},
    {"duplicate task prefix",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"differential","prefix":"d"},
         {"kind":"differential","prefix":"d"}]})",
     "duplicate metric prefix \"d\""},
    {"netlist_run without netlist",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "needs a \"netlist\" section"},
    {"unconnected channel input",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},"c":{"kind":"channel"},
                      "m":{"kind":"monitor"}},
         "wires":[{"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "input din is not driven by any wire"},
    {"doubly-driven channel input",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s0":{"kind":"source"},"s1":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s0.out","to":"c.din"},
                  {"from":"s1.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "input din is driven more than once"},
    {"dangling source output",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},"s2":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "output out drives nothing"},
    {"mismatched channel params",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},
                      "c0":{"kind":"channel","ckj_uirms":0.01},
                      "c1":{"kind":"channel","ckj_uirms":0.02},
                      "m0":{"kind":"monitor"},"m1":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c0.din"},
                  {"from":"s.out","to":"c1.din"},
                  {"from":"c0.dout","to":"m0.in"},
                  {"from":"c1.dout","to":"m1.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "channel parameters must match"},
    {"bad grid_dx",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"grid_dx":0.5},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "grid_dx"},
    {"model grid too fine for its PDFs",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"grid_dx":1e-9},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "grid_dx: too fine for the jitter budget"},
    {"negative model jitter term",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"rj_uirms":-0.01},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "rj_uirms: want >= 0"},
    {"ber_surface axis zeroes grid_dx",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"ber_surface","prefix":"s","axes":[
           {"name":"grid_dx","values":[0.001,0]}]}]})",
     "grid point 1: grid_dx: want > 0"},
    {"ber_surface axis shrinks grid_dx past the bin cap",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"ber_surface","prefix":"s","axes":[
           {"name":"sj_uipp","values":[0.1,0.2]},
           {"name":"grid_dx","values":[1e-9]}]}]})",
     "grid point 0: grid_dx: too fine for the jitter budget"},
    {"ber_surface axis makes a jitter term negative",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"ber_surface","prefix":"s","axes":[
           {"name":"dj_uipp","linspace":{"from":0.2,"to":-0.2,
                                         "points":3}}]}]})",
     "grid point 2: dj_uipp: want >= 0"},
    {"ber_surface grid over the point cap",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"ber_surface","prefix":"s","axes":[
           {"name":"sj_uipp","linspace":{"from":0.1,"to":0.5,"points":10000}},
           {"name":"sj_freq_norm",
            "logspace":{"from":0.001,"to":0.5,"points":10000}}]}]})",
     "grid of 100000000 points exceeds the cap of 100000"},
    {"axis with two values specs",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"ber_surface","prefix":"s","axes":[
           {"name":"sj_uipp","values":[0.1,0.2],
            "linspace":{"from":0.1,"to":0.2,"points":2}}]}]})",
     "an axis takes exactly one of"},
    {"fractional integer key",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"max_cid":6.5},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "want an integer"},
    {"bad prefix charset",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"differential","prefix":"Bad Prefix"}]})",
     "prefix"},
    {"pattern combined with prbs",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","pattern":[1,0],"prbs":7},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "cannot be combined with \"bits\" or \"prbs\""},
    {"repeat without pattern",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","repeat":4},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "\"repeat\" only applies to a \"pattern\" source"},
    {"non-bit pattern element",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","pattern":[1,2]},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "pattern bits must be 0 or 1"},
    {"rate_offset out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","rate_offset":0.75},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "want in [-0.5, 0.5]"},
    {"health_probe without netlist",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"health_probe","prefix":"h"}]})",
     "health_probe task needs a \"netlist\" section"},
    {"health_probe frames out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"health_probe","prefix":"h","frames":0}]})",
     "want an integer in [1, 1000]"},
};

TEST(ScenarioDoc, MalformedDocumentsAreRejectedLoudly) {
    for (const auto& c : kMalformed) {
        ScenarioDoc doc;
        std::vector<Diagnostic> diags;
        EXPECT_FALSE(load(c.text, doc, diags)) << c.label;
        EXPECT_FALSE(diags.empty()) << c.label;
        EXPECT_TRUE(any_diag_contains(diags, c.expect))
            << c.label << ": wanted \"" << c.expect << "\", got \""
            << (diags.empty() ? "" : diags[0].render()) << "\"";
    }
}

TEST(ScenarioDoc, CollectsMultipleDiagnosticsInOnePass) {
    // Two independent faults — the loader reports both, not just the
    // first (a config author fixes a whole file per iteration).
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    EXPECT_FALSE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","mc":{"max_evals":0},
            "tasks":[{"kind":"differential","prefix":"d","bogus":1}]})",
        doc, diags));
    EXPECT_TRUE(any_diag_contains(diags, "mc.max_evals must be >= 1"));
    EXPECT_TRUE(any_diag_contains(diags, "unknown key \"bogus\""));
}

TEST(ScenarioDoc, IntegerKeysAcceptAnyIntegralNumber) {
    // One integer rule for both grammars (see Protocol's twin): any
    // integral-valued number, so 6.0 and 6e0 mean 6 and hash like it.
    ScenarioDoc spelled, plain;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x",
            "model":{"max_cid":6.0,"cid_ref":4e0},"mc":{"max_evals":3e5},
            "tasks":[{"kind":"differential","prefix":"d",
                      "behavioral_runs":1024.0}]})",
        spelled, diags))
        << (diags.empty() ? "" : diags[0].render());
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x",
            "model":{"max_cid":6,"cid_ref":4},"mc":{"max_evals":300000},
            "tasks":[{"kind":"differential","prefix":"d",
                      "behavioral_runs":1024}]})",
        plain, diags));
    EXPECT_EQ(spelled.model.max_cid, 6);
    EXPECT_EQ(spelled.mc.max_evals, 300000u);
    EXPECT_EQ(scenario_hash(spelled), scenario_hash(plain));
}

// --- canonical form ------------------------------------------------------

TEST(ScenarioCanonical, ResolvedJsonIsAFixedPoint) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, doc, diags));
    const std::string r1 = resolved_json(doc);
    ScenarioDoc doc2;
    ASSERT_TRUE(scenario_from_string(r1, doc2, diags, "<resolved>"))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(resolved_json(doc2), r1);
    EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc));
}

TEST(ScenarioCanonical, HashIgnoresKeyOrderAndFloatSpelling) {
    ScenarioDoc a, b;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x",
            "model":{"sj_uipp":0.3,"grid_dx":0.002},
            "tasks":[{"kind":"differential","prefix":"d"}]})",
        a, diags));
    ASSERT_TRUE(load(
        R"({"tasks":[{"prefix":"d","kind":"differential"}],
            "model":{"grid_dx":2e-3,"sj_uipp":0.30},
            "name":"x","schema":"gcdr.scenario/v1"})",
        b, diags));
    EXPECT_EQ(resolved_json(a), resolved_json(b));
    EXPECT_EQ(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioCanonical, HashSeparatesDifferentWorkloads) {
    ScenarioDoc a, b;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, a, diags));
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"minimal",
            "model":{"sj_uipp":0.1},
            "tasks":[{"kind":"differential","prefix":"diff"}]})",
        b, diags));
    EXPECT_NE(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioCanonical, SweepGeneratorsExpandDeterministically) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
            {"kind":"ber_surface","prefix":"s","axes":[
             {"name":"sj_uipp","steps":{"from":0.1,"to":0.5,"step":0.1}},
             {"name":"sj_freq_norm",
              "logspace":{"from":0.001,"to":0.1,"points":3}}]}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    ASSERT_EQ(doc.tasks.size(), 1u);
    ASSERT_EQ(doc.tasks[0].axes.size(), 2u);
    const auto& steps = doc.tasks[0].axes[0].values;
    ASSERT_EQ(steps.size(), 5u);
    EXPECT_DOUBLE_EQ(steps.front(), 0.1);
    EXPECT_DOUBLE_EQ(steps.back(), 0.5);
    const auto& logs = doc.tasks[0].axes[1].values;
    ASSERT_EQ(logs.size(), 3u);
    EXPECT_NEAR(logs[1], 0.01, 1e-12);
}

TEST(ScenarioCanonical, PatternSourceAndHealthProbeRoundTrip) {
    // The health subsystem's fault-injection knobs: an explicit bit
    // pattern (replacing the PRBS stream) with a repeat count and a TX
    // rate offset, driven by a health_probe task. All three must survive
    // the resolved-form round trip byte for byte.
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
            "instances":{
              "s":{"kind":"source","pattern":[1,1,0,0],"repeat":10,
                   "rate_offset":0.05,"start_ns":4.0},
              "c":{"kind":"channel"},"m":{"kind":"monitor"}},
            "wires":[{"from":"s.out","to":"c.din"},
                     {"from":"c.dout","to":"m.in"}]},
            "tasks":[{"kind":"health_probe","prefix":"h","frames":3}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    ASSERT_EQ(doc.tasks.size(), 1u);
    EXPECT_EQ(doc.tasks[0].kind, TaskSpec::Kind::kHealthProbe);
    EXPECT_EQ(doc.tasks[0].frames, 3u);
    ASSERT_EQ(doc.netlist.sources.size(), 1u);
    const SourceSpec& s = doc.netlist.sources[0];
    EXPECT_EQ(s.pattern, (std::vector<int>{1, 1, 0, 0}));
    EXPECT_EQ(s.repeat, 10u);
    EXPECT_DOUBLE_EQ(s.rate_offset, 0.05);
    const std::string r1 = resolved_json(doc);
    ScenarioDoc doc2;
    ASSERT_TRUE(scenario_from_string(r1, doc2, diags, "<resolved>"))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(resolved_json(doc2), r1);
    EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc));
}

// --- golden configs ------------------------------------------------------

TEST(ScenarioGoldens, CommittedScenariosLoadAndRoundTrip) {
    const char* goldens[] = {"fig9_ber_sj.json",       "fig10_ber_freqoff.json",
                             "fig17_ber_improved.json", "baseline_jtol.json",
                             "multilane_smoke.json",    "xval_sj030.json",
                             "fig8_timing.json",        "health_smoke.json"};
    for (const char* g : goldens) {
        const std::string path = std::string(GCDR_SCENARIOS_DIR) + "/" + g;
        ScenarioDoc doc;
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(scenario_from_file(path, doc, diags))
            << path << ": "
            << (diags.empty() ? "unreadable" : diags[0].render());
        // Canonical fixed point: reloading the resolved form reproduces
        // it byte for byte (this is what makes scenario_hash a stable
        // cache key).
        const std::string r1 = resolved_json(doc);
        ScenarioDoc doc2;
        ASSERT_TRUE(scenario_from_string(r1, doc2, diags, path))
            << path << ": " << (diags.empty() ? "" : diags[0].render());
        EXPECT_EQ(resolved_json(doc2), r1) << path;
        EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc)) << path;
    }
}

TEST(ScenarioGoldens, MultilaneNetlistCompiles) {
    const std::string path =
        std::string(GCDR_SCENARIOS_DIR) + "/multilane_smoke.json";
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(scenario_from_file(path, doc, diags));
    ASSERT_TRUE(doc.has_netlist);
    const CompiledNetlist net = compile_netlist(doc.netlist);
    EXPECT_EQ(net.config.n_channels, 4);
    ASSERT_EQ(net.lanes.size(), 4u);
    // Lanes follow channel name order; each carries its source's
    // pattern length and its wire's skew.
    EXPECT_EQ(net.lanes[0].bits, 2000u);
    EXPECT_DOUBLE_EQ(net.lanes[0].skew_ps, 0.0);
    EXPECT_DOUBLE_EQ(net.lanes[3].skew_ps, 105.0);
}

// The figure scenarios are the only source of Fig 8, Fig 9, Fig 10,
// Fig 17 and the architecture comparison. Their canonical hashes and
// seed-1 payload digests are pinned, so a changed surface, contour, JTOL
// table or health snapshot fails here before it reaches a report.

ScenarioDoc load_golden(const char* file) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    EXPECT_TRUE(scenario_from_file(
        std::string(GCDR_SCENARIOS_DIR) + "/" + file, doc, diags))
        << file << ": " << (diags.empty() ? "unreadable" : diags[0].render());
    return doc;
}

std::string payload_digest(const ScenarioDoc& doc, std::size_t lanes) {
    obs::MetricsRegistry reg;
    exec::ThreadPool pool(lanes);
    ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ctx.seed = 1;
    return util::hash_hex(
        util::fnv1a64(result_payload_json(doc, run_scenario(doc, ctx))));
}

TEST(ScenarioGoldens, Fig8TimingPayloadIsPinned) {
    const ScenarioDoc doc = load_golden("fig8_timing.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "2ba1c0088c600828");
    EXPECT_EQ(payload_digest(doc, 4), "74e12904ba29e86c");
}

TEST(ScenarioGoldens, Fig9BerSjPayloadIsPinnedAtAnyLaneCount) {
    const ScenarioDoc doc = load_golden("fig9_ber_sj.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "15d469506fbdcad4");
    EXPECT_EQ(payload_digest(doc, 4), "7e6a438efbd7d315");
    EXPECT_EQ(payload_digest(doc, 1), "7e6a438efbd7d315");
}

TEST(ScenarioGoldens, Fig10BerFreqoffPayloadIsPinnedAtAnyLaneCount) {
    const ScenarioDoc doc = load_golden("fig10_ber_freqoff.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "1a7fa07952c06b19");
    EXPECT_EQ(payload_digest(doc, 4), "7c0fa62b32fa711f");
    EXPECT_EQ(payload_digest(doc, 1), "7c0fa62b32fa711f");
}

TEST(ScenarioGoldens, Fig17BerImprovedPayloadIsPinnedAtAnyLaneCount) {
    const ScenarioDoc doc = load_golden("fig17_ber_improved.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "e06a2d2dedcb11b3");
    EXPECT_EQ(payload_digest(doc, 4), "954cdfe3f682c8a2");
    EXPECT_EQ(payload_digest(doc, 1), "954cdfe3f682c8a2");
}

TEST(ScenarioGoldens, BaselineJtolPayloadIsPinned) {
    const ScenarioDoc doc = load_golden("baseline_jtol.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "37524aada34c4bea");
    EXPECT_EQ(payload_digest(doc, 4), "9ef0d0a12457d362");
}

// The other committed scenarios: a PRBS-only netlist run, a health probe
// with an off-rate source, and the differential cross-validation point.
// They run on the batched lane kernel (netlist_run, health_probe) and on
// its behavioral MC oracle (differential), so these pins catch a kernel
// change that moves one bit; each is checked at 1 and 4 pool lanes.

TEST(ScenarioGoldens, MultilaneSmokePayloadIsPinned) {
    const ScenarioDoc doc = load_golden("multilane_smoke.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "f164c1350a22ac53");
    EXPECT_EQ(payload_digest(doc, 4), "593c9ed01c187325");
    EXPECT_EQ(payload_digest(doc, 1), "593c9ed01c187325");
}

TEST(ScenarioGoldens, HealthSmokePayloadIsPinned) {
    const ScenarioDoc doc = load_golden("health_smoke.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "c013b394be268b91");
    EXPECT_EQ(payload_digest(doc, 4), "936c9f2f67e7937a");
    EXPECT_EQ(payload_digest(doc, 1), "936c9f2f67e7937a");
}

TEST(ScenarioGoldens, XvalSj030PayloadIsPinned) {
    const ScenarioDoc doc = load_golden("xval_sj030.json");
    EXPECT_EQ(util::hash_hex(scenario_hash(doc)), "710e720f415b097f");
    EXPECT_EQ(payload_digest(doc, 4), "c47264b70242094a");
    EXPECT_EQ(payload_digest(doc, 1), "c47264b70242094a");
}

// One document that sets every key to a non-default value and takes
// every emission branch of resolved_json: a pattern source with
// "repeat", non-zero "rate_offset" on both source forms, generator and
// literal axes, "jtol" with "mask":"none", "offsets", and
// "run_model":"worst_case". Its canonical bytes are the scenario hash.
constexpr const char* kEveryKeyDoc = R"({
  "schema": "gcdr.scenario/v1", "name": "every_key", "title": "All keys",
  "model": {"sj_freq_norm": 0.02, "freq_offset": 0.001,
            "sampling_advance_ui": 0.125, "trigger_mismatch_uirms": 0.004,
            "grid_dx": 0.002, "pdf_prune_floor": 1e-15, "dj_uipp": 0.3,
            "rj_uirms": 0.018, "sj_uipp": 0.15, "ckj_uirms": 0.008,
            "max_cid": 6, "cid_ref": 4, "run_model": "worst_case"},
  "mc": {"max_evals": 300000, "target_rel_err": 0.2, "confidence": 0.9},
  "netlist": {
    "instances": {
      "pat": {"kind": "source", "pattern": [1, 1, 0, 1, 0, 0],
              "repeat": 50, "rate_offset": 0.002, "start_ns": 3.5},
      "prb": {"kind": "source", "bits": 1500, "prbs": 9, "start_ns": 4.5,
              "rate_offset": -0.001},
      "c0": {"kind": "channel", "f_osc_hz": 2.4e9, "ckj_uirms": 0.02,
             "improved_sampling": true},
      "c1": {"kind": "channel", "f_osc_hz": 2.4e9, "ckj_uirms": 0.02,
             "improved_sampling": true},
      "m0": {"kind": "monitor"}},
    "wires": [{"from": "pat.out", "to": "c0.din", "skew_ps": 12.5},
              {"from": "prb.out", "to": "c1.din", "skew_ps": -3},
              {"from": "c0.dout", "to": "m0.in", "skew_ps": 1}]},
  "tasks": [
    {"kind": "ber_surface", "prefix": "surf", "axes": [
       {"name": "sj_uipp", "steps": {"from": 0.1, "to": 0.3, "step": 0.1}},
       {"name": "sj_freq_norm",
        "logspace": {"from": 0.001, "to": 0.1, "points": 3}},
       {"name": "rj_uirms", "linspace": {"from": 0.01, "to": 0.02,
                                         "points": 2}},
       {"name": "freq_offset", "values": [0, 0.001]}],
     "jtol": {"freqs": [0.01, 0.1], "ber_target": 1e-10, "mask": "none"}},
    {"kind": "baseline_jtol", "prefix": "base",
     "jtol_freqs": {"logspace": {"from": 0.001, "to": 0.1, "points": 3}},
     "jtol_bits": 20000, "ber_target": 1e-9, "amp_cap": 16,
     "offsets": [0, 0.001], "offset_bits": 30000},
    {"kind": "netlist_run", "prefix": "run"},
    {"kind": "differential", "prefix": "diff", "behavioral_runs": 2048,
     "behavioral_min_ber": 1e-4, "behavioral_tau": 3},
    {"kind": "health_probe", "prefix": "probe", "frames": 4}]
})";

TEST(ScenarioCanonical, EveryKeyDocumentHashIsPinned) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kEveryKeyDoc, doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(util::hash_hex(util::fnv1a64(resolved_json(doc))),
              "da2f843158b78948");
}

// --- runner --------------------------------------------------------------

TEST(ScenarioRun, NetlistRunAndHealthProbeDriveLanesAlike) {
    // A 600-bit pattern source and an off-rate PRBS source: both netlist
    // tasks must drive the streams the document describes, so every
    // lane makes the same number of decisions under either task.
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"drive","netlist":{
            "instances":{
              "pat":{"kind":"source","pattern":[1,1,0,1,0,0],"repeat":100},
              "off":{"kind":"source","bits":800,"rate_offset":0.02},
              "c0":{"kind":"channel"},"c1":{"kind":"channel"}},
            "wires":[{"from":"pat.out","to":"c0.din"},
                     {"from":"off.out","to":"c1.din"}]},
            "tasks":[{"kind":"netlist_run","prefix":"n"},
                     {"kind":"health_probe","prefix":"h","frames":2}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    obs::MetricsRegistry reg;
    exec::ThreadPool pool(2);
    ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    (void)run_scenario(doc, ctx);
    for (const char* lane : {"ch0", "ch1"}) {
        const std::uint64_t run =
            reg.counter(std::string("n.cdr.") + lane + ".decisions").value();
        const std::uint64_t probe =
            reg.counter(std::string("h.cdr.") + lane + ".decisions").value();
        EXPECT_GT(run, 0u) << lane;
        EXPECT_EQ(run, probe) << lane;
    }
}

TEST(ScenarioRun, DifferentialFailsABehavioralLegThatRanNoRuns) {
    // 10 runs is below one direct-sampling round (2^(max_cid - 1) = 16),
    // so the behavioral leg counts nothing. Its zero estimate with the
    // default [0, 1] interval must fail the gate, not agree with any BER.
    ScenarioDoc doc = load_golden("xval_sj030.json");
    ASSERT_EQ(doc.tasks.size(), 1u);
    doc.tasks[0].behavioral_runs = 10;
    obs::MetricsRegistry reg;
    exec::ThreadPool pool(2);
    ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ctx.seed = 1;
    const ScenarioResult result = run_scenario(doc, ctx);
    ASSERT_EQ(result.tasks.size(), 1u);
    auto scalar = [&](const std::string& name) {
        for (const auto& [key, value] : result.tasks[0].scalars) {
            if (key == name) return value;
        }
        ADD_FAILURE() << "no scalar " << name;
        return -1.0;
    };
    EXPECT_EQ(reg.counter("xval.beh_runs").value(), 0u);
    EXPECT_EQ(scalar("agree"), 1.0);  // the strict leg still passes
    EXPECT_EQ(scalar("beh_agree"), 0.0);
    EXPECT_FALSE(result.tasks[0].ok);
    EXPECT_FALSE(result.ok);
}

using Series = std::vector<std::pair<std::string, std::vector<double>>>;

/// Each ber_surface task's series the way a figure main computes them: a
/// fresh model per grid point (ber_of) and per contour (jtol_curve at the
/// document's config).
std::vector<Series> fresh_model_series(const ScenarioDoc& doc,
                                       std::uint64_t seed) {
    std::vector<Series> out;
    for (const TaskSpec& task : doc.tasks) {
        const exec::SweepGrid grid = compile_grid(task);
        std::vector<double> ber;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            ber.push_back(statmodel::ber_of(compile_point_model(
                doc.model, task.axes, grid.point(i, seed))));
        }
        Series want = {{"ber", ber}};
        if (task.has_jtol) {
            std::vector<double> tol;
            for (const masks::MaskPoint& pt : statmodel::jtol_curve(
                     doc.model, task.jtol.freqs, kPaperRate,
                     task.jtol.ber_target)) {
                tol.push_back(pt.amp_uipp);
            }
            want.emplace_back("jtol_uipp", tol);
        }
        out.push_back(std::move(want));
    }
    return out;
}

/// Same series names and lengths, and the same bytes in every value.
void expect_same_bits(const Series& got, const Series& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
        const auto& [name, values] = want[s];
        EXPECT_EQ(got[s].first, name);
        ASSERT_EQ(got[s].second.size(), values.size()) << name;
        EXPECT_EQ(std::memcmp(got[s].second.data(), values.data(),
                              values.size() * sizeof(double)),
                  0)
            << name;
    }
}

/// pdf.convolve spans recorded while `fn` runs.
template <class Fn>
std::uint64_t convolve_spans(Fn&& fn) {
    obs::SpanCollector& spans = obs::SpanCollector::global();
    spans.clear();
    spans.enable();
    fn();
    spans.disable();
    std::uint64_t n = 0;
    for (const auto& s : spans.summaries()) {
        if (s.name == "pdf.convolve") n = s.count;
    }
    spans.clear();
    return n;
}

TEST(ScenarioRun, SurfacesShareEdgePdfsBitForBit) {
    // Fig 9 (SJ axes, with the JTOL contour), Fig 10 (offset axis) and
    // Fig 17 (advanced sampling) shaped surfaces, then an offset-axis
    // surface with a contour: its model is built at its first point's
    // offset, and the contour must still search at the document's own.
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"shared_pdfs",
            "model":{"grid_dx":0.002},
            "tasks":[
              {"kind":"ber_surface","prefix":"fig9","axes":[
                 {"name":"sj_freq_norm","values":[0.01,0.3]},
                 {"name":"sj_uipp","values":[0.1,0.7]}],
               "jtol":{"freqs":{"values":[0.01,0.5]},"ber_target":1e-12,
                       "mask":"infiniband_2g5"}},
              {"kind":"ber_surface","prefix":"fig10","axes":[
                 {"name":"freq_offset","values":[-0.02,0.03]},
                 {"name":"sj_uipp","values":[0.1,0.3]}]},
              {"kind":"ber_surface","prefix":"fig17","axes":[
                 {"name":"sampling_advance_ui","values":[0.125]},
                 {"name":"freq_offset","values":[0.0,0.04]}]},
              {"kind":"ber_surface","prefix":"offset_jtol","axes":[
                 {"name":"freq_offset","values":[0.03,-0.01]}],
               "jtol":{"freqs":{"values":[0.2]},"ber_target":1e-12,
                       "mask":"none"}}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    obs::MetricsRegistry reg;
    exec::ThreadPool pool(3);
    ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ScenarioResult result;
    const std::uint64_t shared =
        convolve_spans([&] { result = run_scenario(doc, ctx); });
    ASSERT_EQ(result.tasks.size(), doc.tasks.size());

    // A fresh model for every point and every contour.
    const std::vector<Series> fresh = fresh_model_series(doc, ctx.seed);
    for (std::size_t t = 0; t < doc.tasks.size(); ++t) {
        SCOPED_TRACE(doc.tasks[t].prefix);
        expect_same_bits(result.tasks[t].series, fresh[t]);
    }

    // The models the tasks built before they shared one: one per surface
    // at its first point and one per contour. Sharing builds the base
    // PDFs once for fig9, its contour and fig10, once for fig17, and once
    // for offset_jtol and its contour.
    const std::uint64_t fresh_spans = convolve_spans([&] {
        for (const TaskSpec& task : doc.tasks) {
            const exec::SweepGrid grid = compile_grid(task);
            (void)statmodel::GatedOscStatModel(compile_point_model(
                doc.model, task.axes, grid.point(0, ctx.seed)));
            if (task.has_jtol) (void)statmodel::GatedOscStatModel(doc.model);
        }
    });
    EXPECT_GT(shared, 0u);
    EXPECT_EQ(2 * shared, fresh_spans);

    // The committed Fig 10 and Fig 17 documents replace mains that
    // evaluated ber_of at every point: each series, at 1 and 4 lanes.
    for (const char* file :
         {"fig10_ber_freqoff.json", "fig17_ber_improved.json"}) {
        const ScenarioDoc fig = load_golden(file);
        const std::vector<Series> want = fresh_model_series(fig, 1);
        for (std::size_t lanes : {1, 4}) {
            obs::MetricsRegistry fig_reg;
            exec::ThreadPool fig_pool(lanes);
            ScenarioContext fig_ctx;
            fig_ctx.metrics = &fig_reg;
            fig_ctx.pool = &fig_pool;
            fig_ctx.seed = 1;
            const ScenarioResult got = run_scenario(fig, fig_ctx);
            ASSERT_EQ(got.tasks.size(), fig.tasks.size());
            for (std::size_t t = 0; t < fig.tasks.size(); ++t) {
                SCOPED_TRACE(std::string(file) + " " + fig.tasks[t].prefix +
                             " at " + std::to_string(lanes) + " lane(s)");
                expect_same_bits(got.tasks[t].series, want[t]);
            }
        }
    }
}

// --- fuzzer --------------------------------------------------------------

TEST(ScenarioFuzz, SameSeedSameDocument) {
    const ScenarioDoc a = random_valid(7);
    const ScenarioDoc b = random_valid(7);
    EXPECT_EQ(resolved_json(a), resolved_json(b));
    EXPECT_EQ(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioFuzz, SeedsProduceDistinctValidDocuments) {
    std::vector<std::uint64_t> hashes;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const ScenarioDoc doc = random_valid(seed);
        // Every generated document must survive its own validator via
        // the canonical round trip — the fuzzer may only emit documents
        // a user could have written.
        ScenarioDoc reloaded;
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(scenario_from_string(resolved_json(doc), reloaded,
                                         diags, "<fuzz>"))
            << "seed " << seed << ": "
            << (diags.empty() ? "" : diags[0].render());
        hashes.push_back(scenario_hash(doc));
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end())
        << "fuzz seeds collided on identical documents";
}

}  // namespace
}  // namespace gcdr::scenario

// --- serve integration ---------------------------------------------------

namespace gcdr::serve {
namespace {

JobSpec parse_or_die(const std::string& text) {
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::json_parse(text, v, &err)) << err;
    JobSpec spec;
    EXPECT_TRUE(parse_job(v, spec, err)) << err;
    return spec;
}

constexpr const char* kScenarioJob =
    R"({"type":"scenario","seed":3,"scenario":{
        "schema":"gcdr.scenario/v1","name":"serve_smoke",
        "model":{"grid_dx":0.002},
        "tasks":[{"kind":"differential","prefix":"d",
                  "behavioral_runs":0}]}})";

TEST(ServeScenario, ParsesAndHashesCanonically) {
    const JobSpec spec = parse_or_die(kScenarioJob);
    EXPECT_EQ(spec.type, JobType::kScenario);
    ASSERT_TRUE(spec.has_scenario);
    EXPECT_EQ(spec.scenario.name, "serve_smoke");

    // Key order / float spelling of the embedded document must not
    // change the config hash (same content-addressing contract as the
    // statmodel job kinds).
    const JobSpec re = parse_or_die(
        R"({"scenario":{
            "tasks":[{"behavioral_runs":0,"prefix":"d",
                      "kind":"differential"}],
            "model":{"grid_dx":2e-3},"name":"serve_smoke",
            "schema":"gcdr.scenario/v1"},"seed":3,"type":"scenario"})");
    EXPECT_EQ(resolved_spec_json(spec), resolved_spec_json(re));
    EXPECT_EQ(spec_config_hash(spec), spec_config_hash(re));
}

TEST(ServeScenario, ScenarioJobsUseTheirOwnModelVersion) {
    EXPECT_STREQ(model_version_of(JobType::kScenario), kScenarioModelVersion);
    EXPECT_STREQ(model_version_of(JobType::kBer), kModelVersion);
    // The version stamp is a cache-key component: scenario results and
    // statmodel results can never shadow each other.
    EXPECT_NE(util::fnv1a64(kScenarioModelVersion),
              util::fnv1a64(kModelVersion));
}

TEST(ServeScenario, RejectsMalformedScenarioJobs) {
    const struct {
        const char* text;
        const char* expect;
    } cases[] = {
        {R"({"type":"scenario","seed":1})", "scenario job needs"},
        {R"({"type":"scenario","config":{"grid_dx":0.01},"scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d"}]}})",
         "not valid for scenario jobs"},
        {R"({"type":"ber","scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d"}]}})",
         "only valid for scenario jobs"},
        {R"({"type":"scenario","scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d","bogus":1}]}})",
         "unknown key \"bogus\""},
    };
    for (const auto& c : cases) {
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::json_parse(c.text, v, &err)) << err;
        JobSpec spec;
        EXPECT_FALSE(parse_job(v, spec, err)) << c.text;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "wanted \"" << c.expect << "\" in \"" << err << "\"";
    }
}

TEST(ServeScenario, ExecutorCachesByteIdenticalPayloads) {
    ResultCache cache;
    JobExecutor exec(cache, nullptr);
    exec::ThreadPool pool(2);
    const JobSpec spec = parse_or_die(kScenarioJob);

    const CacheKey key = JobExecutor::key_of(spec);
    EXPECT_EQ(key.model_hash, util::fnv1a64(kScenarioModelVersion));
    EXPECT_EQ(key.seed, 3u);

    JobState job1(1, spec), job2(2, spec);
    const ExecOutcome first = exec.execute(job1, pool);
    const ExecOutcome second = exec.execute(job2, pool);
    EXPECT_EQ(first.status, JobStatus::kDone);
    EXPECT_EQ(first.cache_misses, 1u);
    EXPECT_EQ(second.cache_hits, 1u);
    EXPECT_EQ(second.cache_misses, 0u);

    // A hit serves the stored bytes verbatim: payloads are identical.
    std::string stored;
    ASSERT_TRUE(cache.lookup(key, stored));
    EXPECT_NE(first.envelope.find("\"payload\":" + stored),
              std::string::npos);
    EXPECT_NE(second.envelope.find("\"payload\":" + stored),
              std::string::npos);
    EXPECT_NE(first.envelope.find(kScenarioModelVersion),
              std::string::npos);
}

}  // namespace
}  // namespace gcdr::serve
