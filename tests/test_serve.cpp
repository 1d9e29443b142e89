// Tests for the serving stack: shared FNV hashing (util/hash.hpp),
// canonical JSON (obs/canonical.hpp) + config hashing (protocol.hpp),
// the content-addressed result cache (serve/cache.hpp), the priority job
// queue (serve/queue.hpp), cache-aware execution (serve/executor.hpp),
// and the HTTP daemon end to end (serve/server.hpp).

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/canonical.hpp"
#include "obs/json_parse.hpp"
#include "obs/log.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {
namespace {

// --- util/hash -----------------------------------------------------------

TEST(UtilHash, Fnv1a64KnownVectors) {
    // Official FNV-1a test vectors; these constants are part of the
    // cache segments' on-disk format.
    EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(UtilHash, StreamingMatchesOneShot) {
    const std::uint64_t whole = util::fnv1a64("hello world");
    const std::uint64_t split =
        util::fnv1a64(" world", util::fnv1a64("hello"));
    EXPECT_EQ(whole, split);
}

TEST(UtilHash, U64ContinuationIsOrderSensitive) {
    std::uint64_t a = util::kFnv1a64OffsetBasis;
    a = util::fnv1a64_u64(1, a);
    a = util::fnv1a64_u64(2, a);
    std::uint64_t b = util::kFnv1a64OffsetBasis;
    b = util::fnv1a64_u64(2, b);
    b = util::fnv1a64_u64(1, b);
    EXPECT_NE(a, b);
}

TEST(UtilHash, HexRoundTrip) {
    const std::uint64_t h = util::fnv1a64("roundtrip");
    const std::string hex = util::hash_hex(h);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t back = 0;
    ASSERT_TRUE(util::parse_hash_hex(hex, back));
    EXPECT_EQ(back, h);
    EXPECT_FALSE(util::parse_hash_hex("123", back));
    EXPECT_FALSE(util::parse_hash_hex("zzzzzzzzzzzzzzzz", back));
    EXPECT_FALSE(util::parse_hash_hex("0123456789ABCDEF", back));  // upper
}

TEST(UtilHash, NoCollisionAcrossConfigCorpus) {
    // A small corpus of realistic near-identical config strings must not
    // collide (a collision here would silently cross-serve results).
    std::vector<std::string> corpus;
    for (int i = 0; i < 200; ++i) {
        corpus.push_back("{\"sj_uipp\":0." + std::to_string(1000 + i) +
                         "}");
        corpus.push_back("{\"rj_uirms\":0." + std::to_string(1000 + i) +
                         "}");
    }
    std::vector<std::uint64_t> hashes;
    for (const auto& s : corpus) hashes.push_back(util::fnv1a64(s));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()),
              hashes.end());
}

// --- canonical JSON ------------------------------------------------------

std::string canon(std::string_view text) {
    std::string out;
    std::string err;
    EXPECT_TRUE(obs::canonicalize(text, out, &err)) << err;
    return out;
}

TEST(Canonical, SortsKeysAndStripsWhitespace) {
    EXPECT_EQ(canon(R"({ "b" : 1 , "a" : 2 })"), R"({"a":2,"b":1})");
    EXPECT_EQ(canon(R"({"b":1,"a":2})"), canon(R"({"a":2,"b":1})"));
}

TEST(Canonical, KeyReorderHashesIdentically) {
    obs::JsonValue a, b;
    ASSERT_TRUE(obs::json_parse(R"({"x":{"q":1,"p":2},"y":[3]})", a));
    ASSERT_TRUE(obs::json_parse(R"({"y":[3],"x":{"p":2,"q":1}})", b));
    EXPECT_EQ(obs::canonical_hash(a), obs::canonical_hash(b));
}

TEST(Canonical, NumberSpellingsCollapse) {
    EXPECT_EQ(canon("1"), "1");
    EXPECT_EQ(canon("1.0"), "1");
    EXPECT_EQ(canon("1e0"), "1");
    EXPECT_EQ(canon("10e-1"), "1");
    EXPECT_EQ(canon("-0.0"), "0");
    EXPECT_EQ(canon("-0"), "0");
    EXPECT_EQ(canon("0.5"), canon("5e-1"));
}

TEST(Canonical, ExactUint64SurvivesBeyondDoubleRange) {
    // 2^63 + 1 is not representable as a double; the integer token's
    // digits must pass through untouched.
    EXPECT_EQ(canon("9223372036854775809"), "9223372036854775809");
    EXPECT_EQ(canon("18446744073709551615"), "18446744073709551615");
}

TEST(Canonical, DuplicateKeysKeepFirst) {
    // Matches obs::JsonValue::find (first match wins).
    EXPECT_EQ(canon(R"({"a":1,"a":2})"), R"({"a":1})");
}

TEST(Canonical, IdempotentThroughReparse) {
    const char* docs[] = {
        R"({"b":[1,2.5,{"c":-0.0}],"a":"s\n"})",
        R"({"mc":{"max_evals":200000},"seed":9223372036854775809})",
        "[1e308,2e-308,0.1]",
    };
    for (const char* doc : docs) {
        const std::string once = canon(doc);
        EXPECT_EQ(canon(once), once) << doc;
    }
}

// --- protocol: resolved spec + cache key ---------------------------------

JobSpec parse_ok(const std::string& body) {
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::json_parse(body, v, &err)) << err;
    JobSpec spec;
    EXPECT_TRUE(parse_job(v, spec, err)) << err;
    return spec;
}

TEST(Protocol, OmittedDefaultsHashLikeExplicitDefaults) {
    const JobSpec a = parse_ok(R"({"type":"ber"})");
    const JobSpec b = parse_ok(
        R"({"type":"ber","config":{"dj_uipp":0.4,"rj_uirms":0.021}})");
    EXPECT_EQ(spec_config_hash(a), spec_config_hash(b));
}

TEST(Protocol, KeyOrderAndFloatSpellingInvariant) {
    const JobSpec a = parse_ok(
        R"({"type":"ber","config":{"sj_uipp":0.1,"rj_uirms":0.02}})");
    const JobSpec b = parse_ok(
        R"({"config":{"rj_uirms":2e-2,"sj_uipp":1e-1},"type":"ber"})");
    EXPECT_EQ(spec_config_hash(a), spec_config_hash(b));
}

TEST(Protocol, SeedIsKeyComponentNotConfig) {
    const JobSpec a = parse_ok(R"({"type":"ber","seed":1})");
    const JobSpec b = parse_ok(R"({"type":"ber","seed":2})");
    EXPECT_EQ(spec_config_hash(a), spec_config_hash(b));
    EXPECT_NE(JobExecutor::key_of(a), JobExecutor::key_of(b));
}

TEST(Protocol, DifferentWorkloadsHashDifferently) {
    const JobSpec ber = parse_ok(R"({"type":"ber"})");
    const JobSpec eye = parse_ok(R"({"type":"eye"})");
    const JobSpec tweaked =
        parse_ok(R"({"type":"ber","config":{"sj_uipp":0.1}})");
    EXPECT_NE(spec_config_hash(ber), spec_config_hash(eye));
    EXPECT_NE(spec_config_hash(ber), spec_config_hash(tweaked));
}

TEST(Protocol, ResolvedSpecIsAlreadyCanonical) {
    const JobSpec spec = parse_ok(
        R"({"type":"sweep","axes":[{"name":"sj_uipp","values":[0.1,0.2]}]})");
    const std::string resolved = resolved_spec_json(spec);
    std::string recanon;
    ASSERT_TRUE(obs::canonicalize(resolved, recanon, nullptr));
    EXPECT_EQ(recanon, resolved);
}

TEST(Protocol, UnknownKeysAreHardErrors) {
    obs::JsonValue v;
    JobSpec spec;
    std::string err;
    ASSERT_TRUE(obs::json_parse(R"({"type":"ber","sj_uipp":0.1})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // config knob at top level
    ASSERT_TRUE(
        obs::json_parse(R"({"type":"ber","config":{"sj_uip":0.1}})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // typo'd knob
    ASSERT_TRUE(obs::json_parse(R"({"type":"warp"})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // unknown type
    ASSERT_TRUE(obs::json_parse(
        R"({"type":"ber","axes":[{"name":"sj_uipp","values":[1]}]})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // axes on a non-sweep
    ASSERT_TRUE(obs::json_parse(R"({"type":"sweep","axes":[
        {"name":"sj_uipp","values":[0.1,0.2],"bogus":1}]})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // unknown key inside an axis
    ASSERT_TRUE(obs::json_parse(R"({"type":"sweep","axes":[
        {"name":"sj_uipp","values":[0.1,0.2],
         "linspace":{"from":0.1,"to":0.2,"points":2}}]})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // two values specs in an axis
    ASSERT_TRUE(
        obs::json_parse(R"({"type":"mc","mc":{"confidence":0.9}})", v));
    EXPECT_FALSE(parse_job(v, spec, err));  // mc takes the budget keys only
}

TEST(Protocol, GeneratorAxesHashLikeTheirExpansion) {
    // Sweep axes are read by the scenario axis reader: generator forms
    // expand at parse time, so the cache key sees only the values.
    const JobSpec gen = parse_ok(R"({"type":"sweep","axes":[
        {"name":"sj_uipp","linspace":{"from":0,"to":1,"points":5}}]})");
    const JobSpec literal = parse_ok(R"({"type":"sweep","axes":[
        {"name":"sj_uipp","values":[0,0.25,0.5,0.75,1]}]})");
    ASSERT_EQ(gen.axes.size(), 1u);
    EXPECT_EQ(gen.axes[0].values, literal.axes[0].values);
    EXPECT_EQ(spec_config_hash(gen), spec_config_hash(literal));
}

TEST(Protocol, IntegerKeysAcceptAnyIntegralNumber) {
    // One integer rule for both grammars: any integral-valued number, so
    // 6.0 and 6e0 mean 6 and hash like it.
    const JobSpec spelled = parse_ok(R"({"type":"mc","seed":2.0,
        "config":{"max_cid":6.0,"cid_ref":4e0},"mc":{"max_evals":3e5}})");
    const JobSpec plain = parse_ok(R"({"type":"mc","seed":2,
        "config":{"max_cid":6,"cid_ref":4},"mc":{"max_evals":300000}})");
    EXPECT_EQ(spelled.cfg.max_cid, 6);
    EXPECT_EQ(spelled.mc.max_evals, 300000u);
    EXPECT_EQ(spec_config_hash(spelled), spec_config_hash(plain));
    EXPECT_EQ(JobExecutor::key_of(spelled), JobExecutor::key_of(plain));
    for (const char* body : {R"({"type":"ber","config":{"max_cid":6.5}})",
                             R"({"type":"mc","mc":{"max_evals":1.5}})",
                             R"({"type":"ber","seed":-1})",
                             R"({"type":"ber","seed":1.5})"}) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::json_parse(body, v)) << body;
        JobSpec spec;
        std::string err;
        EXPECT_FALSE(parse_job(v, spec, err)) << body;
    }
}

TEST(Protocol, ModelsTheGridCannotHoldAreRejected) {
    // statmodel::check_model_config on the config and on every sweep
    // point: a tiny grid_dx would size a ~1e9-bin PDF, and axis values
    // bypass the config section's own checks.
    const struct {
        const char* body;
        const char* expect;  ///< substring of the error
    } rows[] = {
        {R"({"type":"ber","config":{"grid_dx":1e-9}})",
         "config.grid_dx: too fine for the jitter budget"},
        {R"({"type":"eye","config":{"grid_dx":1e-7}})",
         "config.grid_dx: too fine for the jitter budget"},
        {R"({"type":"ber","config":{"dj_uipp":-0.1}})",
         "config.dj_uipp: want >= 0"},
        {R"({"type":"ber","config":{"rj_uirms":-0.01}})",
         "config.rj_uirms: want >= 0"},
        {R"({"type":"mc","config":{"sj_uipp":-0.2}})",
         "config.sj_uipp: want >= 0"},
        {R"({"type":"ber","config":{"ckj_uirms":-0.001}})",
         "config.ckj_uirms: want >= 0"},
        {R"({"type":"sweep","axes":[{"name":"grid_dx","values":[0]}]})",
         "sweep point 0: grid_dx: want > 0"},
        {R"({"type":"sweep","axes":[{"name":"grid_dx","values":[-0.001]}]})",
         "sweep point 0: grid_dx: want > 0"},
        {R"({"type":"sweep","axes":[{"name":"sj_uipp","values":[0.1,0.2]},
             {"name":"grid_dx","values":[0.01,1e-9]}]})",
         "sweep point 1: grid_dx: too fine for the jitter budget"},
        {R"({"type":"sweep","config":{"grid_dx":0.01},
             "axes":[{"name":"rj_uirms","values":[0.02,-0.02]}]})",
         "sweep point 1: rj_uirms: want >= 0"},
        {R"({"type":"sweep","axes":[
             {"name":"sj_uipp","linspace":{"from":0.1,"to":0.5,"points":10000}},
             {"name":"sj_freq_norm",
              "linspace":{"from":0.01,"to":0.5,"points":10000}}]})",
         "grid of 100000000 points exceeds the cap of 100000"},
    };
    for (const auto& row : rows) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::json_parse(row.body, v)) << row.body;
        JobSpec spec;
        std::string err;
        EXPECT_FALSE(parse_job(v, spec, err)) << row.body;
        EXPECT_NE(err.find(row.expect), std::string::npos)
            << row.body << ": got \"" << err << "\"";
    }
    // The same axes with valid values still parse.
    (void)parse_ok(R"({"type":"sweep","config":{"grid_dx":0.01},
        "axes":[{"name":"grid_dx","values":[0.01,0.02]},
                {"name":"rj_uirms","values":[0,0.02]}]})");
}

TEST(Protocol, SweepPointsShareKeyspaceWithStandaloneBer) {
    const JobSpec sweep = parse_ok(
        R"({"type":"sweep","seed":7,
            "axes":[{"name":"sj_uipp","values":[0.1,0.2]}]})");
    exec::SweepGrid grid;
    for (const auto& axis : sweep.axes) grid.axis(axis.name, axis.values);
    const exec::SweepPoint p1 = grid.point(1, sweep.seed);
    const JobSpec point = sweep_point_spec(sweep, p1);
    EXPECT_EQ(point.type, JobType::kBer);
    EXPECT_TRUE(point.axes.empty());
    EXPECT_EQ(point.seed, p1.seed);
    // A standalone BER request for the same config hits the same entry.
    const JobSpec standalone =
        parse_ok(R"({"type":"ber","config":{"sj_uipp":0.2}})");
    EXPECT_EQ(spec_config_hash(point), spec_config_hash(standalone));
}

TEST(Protocol, ConfigHashesArePinned) {
    // Persisted cache segments are keyed by these hashes: a ber job with
    // every config field set and a 2-axis sweep. Moving them orphans
    // every stored entry.
    const JobSpec ber = parse_ok(R"({"type":"ber","config":{
        "sj_freq_norm":0.01,"freq_offset":0.001,"sampling_advance_ui":0.1,
        "trigger_mismatch_uirms":0.005,"grid_dx":0.002,
        "pdf_prune_floor":1e-14,"dj_uipp":0.3,"rj_uirms":0.02,
        "sj_uipp":0.2,"ckj_uirms":0.01,"max_cid":6,"cid_ref":4,
        "run_model":"worst_case"}})");
    EXPECT_EQ(util::hash_hex(spec_config_hash(ber)), "5b87405f3bb15f7c");
    const JobSpec sweep = parse_ok(R"({"type":"sweep",
        "config":{"grid_dx":0.002},
        "axes":[{"name":"sj_freq_norm","values":[0.01,0.1]},
                {"name":"sj_uipp","values":[0.1,0.2,0.3]}]})");
    EXPECT_EQ(util::hash_hex(spec_config_hash(sweep)), "c0c72316b0780ca4");
}

TEST(Protocol, EyeAndMcConfigHashesArePinned) {
    // The other two statmodel job kinds, every field set.
    const JobSpec eye = parse_ok(R"({"type":"eye","ber_target":1e-10,
        "config":{"sj_freq_norm":0.01,"freq_offset":0.001,
        "sampling_advance_ui":0.1,"trigger_mismatch_uirms":0.005,
        "grid_dx":0.002,"pdf_prune_floor":1e-14,"dj_uipp":0.3,
        "rj_uirms":0.02,"sj_uipp":0.2,"ckj_uirms":0.01,"max_cid":6,
        "cid_ref":4,"run_model":"worst_case"}})");
    EXPECT_EQ(util::hash_hex(spec_config_hash(eye)), "3d4c37217646c36b");
    const JobSpec mc = parse_ok(R"({"type":"mc",
        "mc":{"max_evals":300000,"target_rel_err":0.2},
        "config":{"sj_freq_norm":0.01,"freq_offset":0.001,
        "sampling_advance_ui":0.1,"trigger_mismatch_uirms":0.005,
        "grid_dx":0.002,"pdf_prune_floor":1e-14,"dj_uipp":0.3,
        "rj_uirms":0.02,"sj_uipp":0.2,"ckj_uirms":0.01,"max_cid":6,
        "cid_ref":4,"run_model":"worst_case"}})");
    EXPECT_EQ(util::hash_hex(spec_config_hash(mc)), "b6c338110f14ff69");
}

// --- result cache --------------------------------------------------------

CacheKey key_for(std::uint64_t n) {
    CacheKey k;
    k.config_hash = util::fnv1a64("cfg" + std::to_string(n));
    k.seed = n;
    k.model_hash = util::fnv1a64(kModelVersion);
    return k;
}

TEST(ResultCacheTest, LookupStoreAndStats) {
    ResultCache cache;
    std::string out;
    EXPECT_FALSE(cache.lookup(key_for(1), out));
    cache.store(key_for(1), R"({"ber":1.25e-13})");
    ASSERT_TRUE(cache.lookup(key_for(1), out));
    EXPECT_EQ(out, R"({"ber":1.25e-13})");
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.5);
}

TEST(ResultCacheTest, LruEvictionDropsColdEntries) {
    ResultCache cache({}, /*max_entries=*/2);
    cache.store(key_for(1), "1");
    cache.store(key_for(2), "2");
    std::string out;
    ASSERT_TRUE(cache.lookup(key_for(1), out));  // 1 now most recent
    cache.store(key_for(3), "3");                // evicts 2
    EXPECT_TRUE(cache.contains(key_for(1)));
    EXPECT_FALSE(cache.contains(key_for(2)));
    EXPECT_TRUE(cache.contains(key_for(3)));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, PersistReloadIsBitIdentical) {
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_test.jsonl";
    std::remove(path.c_str());
    // Payload with formatting that naive re-serialization would mangle.
    const std::string payload =
        R"({"ber":1.2500000000000001e-13,"eye_margin_ui":0.25})";
    {
        ResultCache cache(path);
        ASSERT_TRUE(cache.load());
        cache.store(key_for(1), payload);
        cache.store(key_for(2), R"({"points":[{"ber":1e-9},null]})");
    }
    ResultCache reloaded(path);
    ASSERT_TRUE(reloaded.load());
    EXPECT_EQ(reloaded.stats().loaded, 2u);
    std::string out;
    ASSERT_TRUE(reloaded.lookup(key_for(1), out));
    EXPECT_EQ(out, payload);  // byte-for-byte
    ASSERT_TRUE(reloaded.lookup(key_for(2), out));
    EXPECT_EQ(out, R"({"points":[{"ber":1e-9},null]})");
    std::remove(path.c_str());
}

TEST(ResultCacheTest, ReloadSkipsCorruptTruncatedAndForeignLines) {
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_corrupt.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store(key_for(1), R"({"ber":1e-9})");
    }
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"schema\":\"gcdr.serve.cache/v1\",\"trunc\n";  // crash
        os << "{\"schema\":\"gcdr.bench.ledger/v1\"}\n";        // foreign
        os << "not json at all\n";
        os << "\n";  // blank: free to skip
    }
    {
        ResultCache cache(path);
        cache.store(key_for(2), R"({"ber":2e-9})");
    }
    ResultCache reloaded(path);
    ASSERT_TRUE(reloaded.load());
    const CacheStats s = reloaded.stats();
    EXPECT_EQ(s.loaded, 2u);        // both real records survive
    EXPECT_EQ(s.load_skipped, 3u);  // truncated + foreign + garbage
    EXPECT_TRUE(reloaded.contains(key_for(1)));
    EXPECT_TRUE(reloaded.contains(key_for(2)));
    std::remove(path.c_str());
}

TEST(ResultCacheTest, DuplicateKeyOnReloadLastWriterWins) {
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_dup.jsonl";
    std::remove(path.c_str());
    {
        ResultCache cache(path);
        cache.store(key_for(1), R"({"v":1})");
        cache.store(key_for(1), R"({"v":2})");  // appends a second record
    }
    ResultCache reloaded(path);
    ASSERT_TRUE(reloaded.load());
    std::string out;
    ASSERT_TRUE(reloaded.lookup(key_for(1), out));
    EXPECT_EQ(out, R"({"v":2})");
    EXPECT_EQ(reloaded.stats().entries, 1u);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, CompactRewritesToLiveSet) {
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_compact.jsonl";
    std::remove(path.c_str());
    ResultCache cache(path, /*max_entries=*/2);
    cache.store(key_for(1), "1");
    cache.store(key_for(2), "2");
    cache.store(key_for(3), "3");  // evicts 1; segment has 3 records
    ASSERT_TRUE(cache.compact());
    ResultCache reloaded(path);
    ASSERT_TRUE(reloaded.load());
    EXPECT_EQ(reloaded.stats().loaded, 2u);
    EXPECT_FALSE(reloaded.contains(key_for(1)));
    EXPECT_TRUE(reloaded.contains(key_for(2)));
    EXPECT_TRUE(reloaded.contains(key_for(3)));
    std::remove(path.c_str());
}

TEST(ResultCacheTest, CompactKeepsRecencyOrderAfterTouchesAndOverwrites) {
    // The recency list is threaded through the map's own nodes: touching
    // the head, a middle entry and the tail, overwriting and evicting must
    // leave compact()'s oldest-first order where LRU semantics put it.
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_order.jsonl";
    std::remove(path.c_str());
    ResultCache cache(path, /*max_entries=*/4);
    for (int i = 1; i <= 4; ++i) {
        cache.store(key_for(i), std::to_string(i));  // newest first: 4 3 2 1
    }
    std::string out;
    ASSERT_TRUE(cache.lookup(key_for(2), out));  // middle: 2 4 3 1
    ASSERT_TRUE(cache.lookup(key_for(2), out));  // head: unchanged
    ASSERT_TRUE(cache.lookup(key_for(1), out));  // tail: 1 2 4 3
    cache.store(key_for(4), "44");               // overwrite: 4 1 2 3
    cache.store(key_for(5), "5");                // evicts 3: 5 4 1 2
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.contains(key_for(3)));
    ASSERT_TRUE(cache.lookup(key_for(4), out));
    EXPECT_EQ(out, "44");
    ASSERT_TRUE(cache.compact());
    std::ifstream is(path);
    std::vector<std::string> payloads;
    for (std::string line; std::getline(is, line);) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::json_parse(line, v));
        payloads.push_back(obs::canonical_json(*v.find("payload")));
    }
    // The lookup of 4 made it newest: oldest first is 2 1 5 4.
    EXPECT_EQ(payloads, (std::vector<std::string>{"2", "1", "5", "44"}));
    std::remove(path.c_str());
}

TEST(ResultCacheTest, ReloadReadsEveryLayoutLikeTheFullParse) {
    // Lines in record_json's own layout skip building the record's JSON
    // tree; any other line takes the full parse. Both must load and skip
    // the same lines with the same key and payload bytes.
    const std::string mh = util::hash_hex(key_for(1).model_hash);
    auto cfg = [](std::uint64_t n) {
        return util::hash_hex(key_for(n).config_hash);
    };
    auto own = [&](const std::string& config_hex, const std::string& seed,
                   const std::string& payload) {
        return std::string(R"({"schema":"gcdr.serve.cache/v1","config_hash":")") +
               config_hex + R"(","seed":)" + seed + R"(,"model_hash":")" + mh +
               R"(","payload":)" + payload + "}";
    };
    auto nested = [](int depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    std::string escaped = cfg(7);
    char esc[8];
    std::snprintf(esc, sizeof esc, "\\u%04x",
                  static_cast<unsigned>(escaped[0]));
    escaped = esc + escaped.substr(1);
    std::string upper = cfg(12);
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    const std::string truncated = own(cfg(13), "13", R"({"ber":13})");
    CacheKey big_seed = key_for(6);
    big_seed.seed = 18446744073709551615ull;
    CacheKey zero_seed = key_for(18);
    zero_seed.seed = 0;
    struct Row {
        std::string line;
        CacheKey key;
        std::optional<std::string> payload;  ///< nullopt: line skipped
    };
    const Row rows[] = {
        {own(cfg(1), "1", R"({"ber":1.5e-13})"), key_for(1),
         R"({"ber":1.5e-13})"},
        {own(cfg(2), "2", " [1, 2]"), key_for(2), " [1, 2]"},
        {R"({"model_hash":")" + mh + R"(","seed":3,"config_hash":")" +
             cfg(3) +
             R"(","schema":"gcdr.serve.cache/v1","payload":{"x":1}})",
         key_for(3), R"({"x":1})"},
        {own(cfg(5), "0005", "5"), key_for(5), "5"},
        {own(cfg(6), "18446744073709551615", "6"), big_seed, "6"},
        {own(escaped, "7", "7"), key_for(7), "7"},
        {own(cfg(8), "8", "null"), key_for(8), std::nullopt},
        {own(cfg(9), "9", "9") + " x", key_for(9), std::nullopt},
        // The record adds one level: 126 nested arrays reach the parser's
        // depth cap of 128, 127 exceed it.
        {own(cfg(10), "10", nested(126)), key_for(10), nested(126)},
        {own(cfg(11), "11", nested(127)), key_for(11), std::nullopt},
        {own(upper, "12", "12"), key_for(12), std::nullopt},
        {truncated.substr(0, truncated.size() - 4), key_for(13),
         std::nullopt},
        {own(cfg(15), "15", "15") + " ", key_for(15), "15"},
        {own(cfg(16), "16", R"("s\u0041")"), key_for(16), R"("s\u0041")"},
        {own(cfg(17), "17", "[]"), key_for(17), "[]"},
        {own(cfg(18), "0", "18"), zero_seed, "18"},
    };
    const std::string path =
        ::testing::TempDir() + "gcdr_serve_cache_layouts.jsonl";
    {
        std::ofstream os(path);
        for (const Row& r : rows) os << r.line << '\n';
    }
    ResultCache cache(path);
    ASSERT_TRUE(cache.load());
    EXPECT_EQ(cache.stats().loaded, 11u);
    EXPECT_EQ(cache.stats().load_skipped, 5u);
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        std::string out;
        const bool hit = cache.lookup(rows[i].key, out);
        ASSERT_EQ(hit, rows[i].payload.has_value()) << "row " << i;
        if (hit) {
            EXPECT_EQ(out, *rows[i].payload) << "row " << i;
        }
    }
    std::remove(path.c_str());
}

// --- job queue -----------------------------------------------------------

JobSpec quick_spec(int priority = 0, double deadline_s = 0.0) {
    JobSpec spec;
    spec.type = JobType::kBer;
    spec.priority = priority;
    spec.deadline_s = deadline_s;
    return spec;
}

TEST(JobQueueTest, PriorityThenFifoOrder) {
    JobQueue q;
    const auto low = q.submit(quick_spec(0));
    const auto high = q.submit(quick_spec(5));
    const auto low2 = q.submit(quick_spec(0));
    ASSERT_TRUE(low && high && low2);
    EXPECT_EQ(q.pop()->id(), high->id());
    EXPECT_EQ(q.pop()->id(), low->id());  // FIFO among equal priority
    EXPECT_EQ(q.pop()->id(), low2->id());
    EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueueTest, CancelBeforePopRetiresWithoutRunning) {
    JobQueue q;
    const auto a = q.submit(quick_spec());
    const auto b = q.submit(quick_spec());
    ASSERT_TRUE(q.cancel(a->id()));
    const auto popped = q.pop();
    ASSERT_TRUE(popped);
    EXPECT_EQ(popped->id(), b->id());
    EXPECT_EQ(a->status(), JobStatus::kCancelled);
    EXPECT_NE(a->result().find("\"cancelled\""), std::string::npos);
    EXPECT_FALSE(q.cancel(999));  // unknown id
}

TEST(JobQueueTest, LapsedDeadlineRetiresAsExpired) {
    JobQueue q;
    const auto doomed = q.submit(quick_spec(0, /*deadline_s=*/1e-9));
    const auto live = q.submit(quick_spec());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto popped = q.pop();
    ASSERT_TRUE(popped);
    EXPECT_EQ(popped->id(), live->id());
    EXPECT_EQ(doomed->status(), JobStatus::kExpired);
}

TEST(JobQueueTest, StopWakesBlockedPopAndRejectsSubmits) {
    JobQueue q;
    std::thread waiter([&] { EXPECT_EQ(q.pop(), nullptr); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.stop();
    waiter.join();
    EXPECT_EQ(q.submit(quick_spec()), nullptr);
}

TEST(JobQueueTest, WaitBlocksUntilFinish) {
    JobQueue q;
    const auto job = q.submit(quick_spec());
    std::thread worker([&] {
        const auto j = q.pop();
        ASSERT_TRUE(j);
        EXPECT_EQ(j->status(), JobStatus::kRunning);
        j->finish(JobStatus::kDone, "{\"x\":1}");
    });
    EXPECT_EQ(job->wait(), JobStatus::kDone);
    EXPECT_EQ(job->result(), "{\"x\":1}");
    worker.join();
    // First terminal status wins; later finishes are ignored.
    job->finish(JobStatus::kFailed, "{}");
    EXPECT_EQ(job->status(), JobStatus::kDone);
}

// --- executor ------------------------------------------------------------

/// Fast config for tests: a coarse PDF grid keeps ber_of cheap.
std::string fast_cfg(const char* extra = "") {
    return std::string(R"({"grid_dx":0.01)") + extra + "}";
}

TEST(JobExecutorTest, CacheHitIsBitIdenticalToRecompute) {
    ResultCache cache;
    JobExecutor executor(cache);
    exec::ThreadPool pool(1);
    const JobSpec spec =
        parse_ok(R"({"type":"ber","config":)" + fast_cfg() + "}");
    JobState cold(1, spec), warm(2, spec);
    const ExecOutcome first = executor.execute(cold, pool);
    const ExecOutcome second = executor.execute(warm, pool);
    EXPECT_EQ(first.status, JobStatus::kDone);
    EXPECT_EQ(first.cache_misses, 1u);
    EXPECT_EQ(second.cache_hits, 1u);
    // Envelopes differ (job ids, hit tallies); payloads must not.
    auto payload_of = [](const std::string& env) {
        obs::JsonValue v;
        EXPECT_TRUE(obs::json_parse(env, v));
        const obs::JsonValue* p = v.find("payload");
        EXPECT_NE(p, nullptr);
        return obs::canonical_json(*p);
    };
    EXPECT_EQ(payload_of(first.envelope), payload_of(second.envelope));
    // And the raw stored payload is untouched by a reload round-trip:
    // executor payloads re-canonicalize to themselves.
    std::string stored;
    ASSERT_TRUE(cache.lookup(JobExecutor::key_of(spec), stored));
    std::string recanon;
    ASSERT_TRUE(obs::canonicalize(stored, recanon, nullptr));
    EXPECT_EQ(recanon, stored);
}

TEST(JobExecutorTest, SweepCachesPointsAndResumes) {
    ResultCache cache;
    JobExecutor executor(cache);
    exec::ThreadPool pool(2);
    const JobSpec sweep = parse_ok(
        R"({"type":"sweep","config":{"grid_dx":0.01},
            "axes":[{"name":"sj_uipp","values":[0.05,0.1,0.15]}]})");
    JobState job(1, sweep);
    const ExecOutcome out = executor.execute(job, pool);
    EXPECT_EQ(out.status, JobStatus::kDone);
    EXPECT_EQ(out.cache_misses, 3u);
    EXPECT_EQ(cache.stats().entries, 3u);
    // Resubmission: all points hit.
    JobState again(2, sweep);
    const ExecOutcome rerun = executor.execute(again, pool);
    EXPECT_EQ(rerun.cache_hits, 3u);
    EXPECT_EQ(rerun.cache_misses, 0u);
    // The sweep payload lists points in grid order.
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(rerun.envelope, v));
    const obs::JsonValue* points = v.find("payload")->find("points");
    ASSERT_TRUE(points && points->is_array());
    EXPECT_EQ(points->items.size(), 3u);
}

TEST(JobExecutorTest, SweepPayloadsMatchSingleBerJobsByteForByte) {
    // A sweep evaluates its points through one model where they share its
    // edge PDFs (the SJ axes), and through per-point models where they do
    // not (an rj_uirms axis); either way each point stores the bytes a
    // standalone ber job for it stores.
    const char* sweeps[] = {
        R"({"type":"sweep","config":{"grid_dx":0.01,"rj_uirms":0.021},
            "axes":[{"name":"sj_uipp","values":[0.05,0.15,0.3]},
                    {"name":"sj_freq_norm","values":[0.1,0.4]}]})",
        R"({"type":"sweep","config":{"grid_dx":0.01,"sj_uipp":0.3},
            "axes":[{"name":"rj_uirms","values":[0.018,0.021,0.024]}]})",
        R"({"type":"sweep","config":{"grid_dx":0.01,"sj_uipp":0.3},
            "axes":[{"name":"rj_uirms","values":[0.018,0.024]},
                    {"name":"sj_freq_norm","values":[0.1,0.4]}]})",
    };
    exec::ThreadPool pool(2);
    for (const char* body : sweeps) {
        const JobSpec sweep = parse_ok(body);
        ResultCache sweep_cache;
        JobExecutor sweep_executor(sweep_cache);
        JobState job(1, sweep);
        ASSERT_EQ(sweep_executor.execute(job, pool).status, JobStatus::kDone);
        const exec::SweepGrid grid(sweep.axes);
        bool any_nonzero = false;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const JobSpec point =
                sweep_point_spec(sweep, grid.point(i, sweep.seed));
            ResultCache single_cache;
            JobExecutor single_executor(single_cache);
            JobState single(2, point);
            ASSERT_EQ(single_executor.execute(single, pool).status,
                      JobStatus::kDone);
            std::string from_sweep, from_single;
            ASSERT_TRUE(
                sweep_cache.lookup(JobExecutor::key_of(point), from_sweep));
            ASSERT_TRUE(
                single_cache.lookup(JobExecutor::key_of(point), from_single));
            EXPECT_EQ(from_sweep, from_single) << body << " point " << i;
            any_nonzero |= from_single != R"({"ber":0})";
        }
        EXPECT_TRUE(any_nonzero) << body;
    }
}

TEST(JobExecutorTest, CancelledSweepReturnsPartialProgress) {
    ResultCache cache;
    JobExecutor executor(cache);
    exec::ThreadPool pool(1);  // serial: cancel after point 0 is exact
    const JobSpec sweep = parse_ok(
        R"({"type":"sweep","config":{"grid_dx":0.01},
            "axes":[{"name":"sj_uipp","values":[0.05,0.1,0.15,0.2]}]})");
    JobState job(1, sweep);
    std::atomic<int> emitted{0};
    job.stream_sink = [&](const std::string&) {
        if (++emitted == 1) job.request_cancel();
    };
    const ExecOutcome out = executor.execute(job, pool);
    EXPECT_EQ(out.status, JobStatus::kCancelled);
    const std::size_t done = cache.stats().entries;
    EXPECT_GE(done, 1u);
    EXPECT_LT(done, 4u);
    // Resume: only the missing points compute.
    JobState resume(2, sweep);
    const ExecOutcome out2 = executor.execute(resume, pool);
    EXPECT_EQ(out2.status, JobStatus::kDone);
    EXPECT_EQ(out2.cache_hits, done);
    EXPECT_EQ(out2.cache_misses, 4u - done);
}

TEST(JobExecutorTest, PreExpiredSingleJobSkipsCompute) {
    ResultCache cache;
    JobExecutor executor(cache);
    exec::ThreadPool pool(1);
    JobSpec spec = parse_ok(R"({"type":"ber"})");
    spec.deadline_s = 1e-9;
    JobState job(1, spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const ExecOutcome out = executor.execute(job, pool);
    EXPECT_EQ(out.status, JobStatus::kExpired);
    EXPECT_EQ(cache.stats().entries, 0u);
}

// --- HTTP server ----------------------------------------------------------

/// VmSize from /proc/self/status, in bytes (0 when unreadable).
std::uint64_t vm_size_bytes() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmSize:", 0) == 0) {
            return std::stoull(line.substr(7)) * 1024;
        }
    }
    return 0;
}

TEST(HttpServerTest, SequentialConnectionsReleaseTheirThreads) {
    // One connection at a time, each closed by the client: a server that
    // keeps every ended connection's thread unjoined keeps its stack
    // mapped, and VmSize grows by one stack per connection.
    HttpServer server;
    ASSERT_TRUE(server.start(0, [](const HttpRequest&, HttpExchange& ex) {
        ex.respond(200, "{}");
    }));
    auto one_connection = [&] {
        HttpClient client("127.0.0.1", server.port());
        HttpClient::Response resp;
        return client.get("/", resp) && resp.status == 200;
    };
    // Warm up the allocator arenas and the thread-stack cache first.
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(one_connection());
    const std::uint64_t before = vm_size_bytes();
    ASSERT_GT(before, 0u) << "no VmSize in /proc/self/status";
    constexpr int kConnections = 300;
    for (int i = 0; i < kConnections; ++i) ASSERT_TRUE(one_connection());
    const std::uint64_t after = vm_size_bytes();
    server.stop();

    pthread_attr_t attr;
    ASSERT_EQ(pthread_attr_init(&attr), 0);
    std::size_t stack = 0;
    ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack), 0);
    pthread_attr_destroy(&attr);
    const std::uint64_t growth = after > before ? after - before : 0;
    EXPECT_LT(growth, kConnections * stack / 8)
        << "VmSize " << before << " -> " << after << " bytes over "
        << kConnections << " connections (thread stack " << stack << ")";
}

// --- HTTP daemon end to end ----------------------------------------------

class ServeHttpTest : public ::testing::Test {
protected:
    void SetUp() override {
        ServerOptions opts;
        opts.workers = 2;
        opts.job_threads = 1;
        server_ = std::make_unique<ServeServer>(opts);
        ASSERT_TRUE(server_->start());
        client_ = std::make_unique<HttpClient>("127.0.0.1",
                                               server_->port());
    }
    void TearDown() override { server_->stop(); }

    std::unique_ptr<ServeServer> server_;
    std::unique_ptr<HttpClient> client_;
};

TEST_F(ServeHttpTest, RunBerWarmHitIsBitIdentical) {
    const std::string body =
        R"({"type":"ber","config":{"grid_dx":0.01}})";
    HttpClient::Response cold, warm;
    ASSERT_TRUE(client_->post("/v1/run", body, cold));
    ASSERT_EQ(cold.status, 200);
    ASSERT_TRUE(client_->post("/v1/run", body, warm));
    ASSERT_EQ(warm.status, 200);
    obs::JsonValue vc, vw;
    ASSERT_TRUE(obs::json_parse(cold.body, vc));
    ASSERT_TRUE(obs::json_parse(warm.body, vw));
    EXPECT_EQ(vc.find("schema")->string_or(""), "gcdr.serve.result/v1");
    EXPECT_EQ(vc.find("status")->string_or(""), "done");
    EXPECT_EQ(vc.find("cache")->find("misses")->uint_or(0), 1u);
    EXPECT_EQ(vw.find("cache")->find("hits")->uint_or(0), 1u);
    EXPECT_EQ(obs::canonical_json(*vc.find("payload")),
              obs::canonical_json(*vw.find("payload")));
    EXPECT_GE(vc.find("payload")->find("ber")->number_or(-1), 0.0);
}

TEST_F(ServeHttpTest, AsyncJobLifecycle) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post(
        "/v1/jobs", R"({"type":"eye","config":{"grid_dx":0.01}})", resp));
    ASSERT_EQ(resp.status, 202);
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    const std::uint64_t id = v.find("job_id")->uint_or(0);
    ASSERT_GT(id, 0u);
    // Poll until terminal (bounded).
    std::string status;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(
            client_->get("/v1/jobs/" + std::to_string(id), resp));
        ASSERT_EQ(resp.status, 200);
        ASSERT_TRUE(obs::json_parse(resp.body, v));
        status = v.find("status")->string_or("");
        if (status == "done") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(status, "done");
    const obs::JsonValue* result = v.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_GT(
        result->find("payload")->find("eye_margin_ui")->number_or(-1),
        0.0);
}

TEST_F(ServeHttpTest, CancelEndpointAndUnknownIds) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/jobs",
                              R"({"type":"ber","config":{"grid_dx":0.01},
                                  "priority":-1})",
                              resp));
    ASSERT_EQ(resp.status, 202);
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    const std::uint64_t id = v.find("job_id")->uint_or(0);
    ASSERT_TRUE(client_->post(
        "/v1/jobs/" + std::to_string(id) + "/cancel", "", resp));
    EXPECT_EQ(resp.status, 200);
    ASSERT_TRUE(client_->post("/v1/jobs/424242/cancel", "", resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client_->get("/v1/jobs/not-a-number", resp));
    EXPECT_EQ(resp.status, 400);
}

TEST_F(ServeHttpTest, StreamingSweepChunksArriveInIndexOrder) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post(
        "/v1/run",
        R"({"type":"sweep","config":{"grid_dx":0.01},"stream":true,
            "axes":[{"name":"sj_uipp","values":[0.05,0.1]}]})",
        resp));
    ASSERT_EQ(resp.status, 200);
    EXPECT_TRUE(resp.chunked);
    // Two per-point chunks plus the final envelope chunk.
    ASSERT_EQ(resp.chunks.size(), 3u);
    obs::JsonValue p0, p1, env;
    ASSERT_TRUE(obs::json_parse(resp.chunks[0], p0));
    ASSERT_TRUE(obs::json_parse(resp.chunks[1], p1));
    ASSERT_TRUE(obs::json_parse(resp.chunks[2], env));
    EXPECT_EQ(p0.find("index")->uint_or(99), 0u);
    EXPECT_EQ(p1.find("index")->uint_or(99), 1u);
    EXPECT_EQ(env.find("status")->string_or(""), "done");
    EXPECT_EQ(env.find("points_done")->uint_or(0), 2u);
}

TEST_F(ServeHttpTest, BadRequestsGet400AndUnknownRoutes404) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/run", "not json", resp));
    EXPECT_EQ(resp.status, 400);
    ASSERT_TRUE(client_->post("/v1/run", R"({"type":"warp"})", resp));
    EXPECT_EQ(resp.status, 400);
    ASSERT_TRUE(
        client_->post("/v1/run", R"({"type":"ber","bogus":1})", resp));
    EXPECT_EQ(resp.status, 400);
    ASSERT_TRUE(client_->get("/v1/nope", resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client_->get("/v1/run", resp));  // wrong method
    EXPECT_EQ(resp.status, 405);
}

TEST_F(ServeHttpTest, HealthStatsAndMetricsEndpoints) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->get("/v1/healthz", resp));
    ASSERT_EQ(resp.status, 200);
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    EXPECT_EQ(v.find("status")->string_or(""), "ok");

    // One computed + one cached request make the stats non-trivial.
    HttpClient::Response run;
    const std::string body =
        R"({"type":"ber","config":{"grid_dx":0.01,"sj_uipp":0.11}})";
    ASSERT_TRUE(client_->post("/v1/run", body, run));
    ASSERT_TRUE(client_->post("/v1/run", body, run));

    ASSERT_TRUE(client_->get("/v1/stats", resp));
    ASSERT_EQ(resp.status, 200);
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    EXPECT_EQ(v.find("cache")->find("hits")->uint_or(0), 1u);
    EXPECT_EQ(v.find("cache")->find("stores")->uint_or(0), 1u);
    EXPECT_GE(v.find("jobs_submitted")->uint_or(0), 2u);

    ASSERT_TRUE(client_->get("/metrics", resp));
    ASSERT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("gcdr_serve_cache_hits"), std::string::npos);
    EXPECT_NE(resp.body.find("gcdr_serve_requests_total"),
              std::string::npos);
}

TEST_F(ServeHttpTest, ShutdownEndpointFlagsTheMainLoop) {
    EXPECT_FALSE(server_->shutdown_requested());
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/shutdown", "", resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_TRUE(server_->shutdown_requested());
}

// --- live lane-health streaming ------------------------------------------

/// A one-lane health_probe scenario job, small enough to finish in well
/// under a second: a 12-bit pattern tiled 60x through one jitter-free
/// channel, probed in 4 frames.
const char* kHealthProbeJob = R"({"type":"scenario","seed":1,"scenario":{
  "schema":"gcdr.scenario/v1","name":"watch_probe","title":"watch probe",
  "model":{"dj_uipp":0.0,"rj_uirms":0.0,"sj_uipp":0.0,"ckj_uirms":0.0},
  "netlist":{"instances":{
    "src0":{"kind":"source","pattern":[1,1,0,0,1,0,1,1,1,1,0,1],
            "repeat":60,"start_ns":4.0},
    "lane0":{"kind":"channel","f_osc_hz":2.5e9,"ckj_uirms":0.0},
    "mon0":{"kind":"monitor"}},
   "wires":[{"from":"src0.out","to":"lane0.din"},
            {"from":"lane0.dout","to":"mon0.in"}]},
  "tasks":[{"kind":"health_probe","prefix":"w","frames":4}]}})";

std::vector<std::string> lane_states_of(const obs::JsonValue& health) {
    std::vector<std::string> states;
    const obs::JsonValue* lanes = health.find("lanes");
    if (!lanes) return states;
    for (const auto& lane : lanes->items) {
        states.push_back(lane.find("state")->string_or(""));
    }
    return states;
}

TEST_F(ServeHttpTest, WatchStreamsIncrementalHealthFrames) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/jobs", kHealthProbeJob, resp));
    ASSERT_EQ(resp.status, 202);
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    const std::uint64_t id = v.find("job_id")->uint_or(0);
    ASSERT_GT(id, 0u);

    // The watch blocks until the job is terminal; frames are retained in
    // the job state, so attaching late loses nothing.
    HttpClient::Response watch;
    ASSERT_TRUE(client_->get("/v1/watch/" + std::to_string(id), watch));
    ASSERT_EQ(watch.status, 200);
    EXPECT_TRUE(watch.chunked);
    // frames=4 -> 3 incremental snapshots + the final one + the trailer.
    ASSERT_EQ(watch.chunks.size(), 5u);
    for (std::size_t i = 0; i + 1 < watch.chunks.size(); ++i) {
        obs::JsonValue frame;
        ASSERT_TRUE(obs::json_parse(watch.chunks[i], frame)) << i;
        EXPECT_EQ(frame.find("schema")->string_or(""), "gcdr.health/v1")
            << i;
        ASSERT_EQ(frame.find("lanes")->items.size(), 1u) << i;
    }
    obs::JsonValue trailer;
    ASSERT_TRUE(obs::json_parse(watch.chunks.back(), trailer));
    EXPECT_EQ(trailer.find("job_id")->uint_or(0), id);
    EXPECT_EQ(trailer.find("status")->string_or(""), "done");
    EXPECT_EQ(trailer.find("frames")->uint_or(0), 4u);

    // The final frame must agree with the result payload's health block:
    // identical lock states, and byte-identical content once both are in
    // canonical form (the cacheable payload is canonicalized, the live
    // frame is the runner's raw compact serialization).
    ASSERT_TRUE(client_->get("/v1/jobs/" + std::to_string(id), resp));
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    ASSERT_EQ(v.find("status")->string_or(""), "done");
    const obs::JsonValue* tasks =
        v.find("result")->find("payload")->find("tasks");
    ASSERT_NE(tasks, nullptr);
    const obs::JsonValue* health = tasks->find("w")->find("health");
    ASSERT_NE(health, nullptr);
    obs::JsonValue final_frame;
    ASSERT_TRUE(
        obs::json_parse(watch.chunks[watch.chunks.size() - 2], final_frame));
    EXPECT_EQ(lane_states_of(final_frame), lane_states_of(*health));
    EXPECT_EQ(lane_states_of(final_frame),
              std::vector<std::string>{"locked"});
    std::string canon_frame;
    ASSERT_TRUE(obs::canonicalize(watch.chunks[watch.chunks.size() - 2],
                                  canon_frame, nullptr));
    EXPECT_EQ(canon_frame, obs::canonical_json(*health));

    // /v1/health snapshot lists the job with its latest frame.
    ASSERT_TRUE(client_->get("/v1/health", resp));
    ASSERT_EQ(resp.status, 200);
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    const obs::JsonValue* jobs = v.find("jobs");
    ASSERT_NE(jobs, nullptr);
    bool found = false;
    for (const auto& j : jobs->items) {
        if (j.find("job_id")->uint_or(0) != id) continue;
        found = true;
        EXPECT_EQ(j.find("status")->string_or(""), "done");
        EXPECT_EQ(j.find("frames")->uint_or(0), 4u);
        EXPECT_EQ(j.find("health")->find("schema")->string_or(""),
                  "gcdr.health/v1");
    }
    EXPECT_TRUE(found);
}

TEST_F(ServeHttpTest, WatchOnFullyCachedJobStreamsOnlyTheTrailer) {
    // Warm the cache, then resubmit: the cached job produces no live
    // frames (documented), so the watch sees the trailer alone.
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/run", kHealthProbeJob, resp));
    ASSERT_EQ(resp.status, 200);
    ASSERT_TRUE(client_->post("/v1/jobs", kHealthProbeJob, resp));
    ASSERT_EQ(resp.status, 202);
    obs::JsonValue v;
    ASSERT_TRUE(obs::json_parse(resp.body, v));
    const std::uint64_t id = v.find("job_id")->uint_or(0);

    HttpClient::Response watch;
    ASSERT_TRUE(client_->get("/v1/watch/" + std::to_string(id), watch));
    ASSERT_EQ(watch.status, 200);
    ASSERT_EQ(watch.chunks.size(), 1u);
    obs::JsonValue trailer;
    ASSERT_TRUE(obs::json_parse(watch.chunks[0], trailer));
    EXPECT_EQ(trailer.find("status")->string_or(""), "done");
    EXPECT_EQ(trailer.find("frames")->uint_or(99), 0u);
}

TEST_F(ServeHttpTest, WatchRejectsUnknownAndMalformedIds) {
    HttpClient::Response resp;
    ASSERT_TRUE(client_->get("/v1/watch/424242", resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client_->get("/v1/watch/nope", resp));
    EXPECT_EQ(resp.status, 400);
}

TEST_F(ServeHttpTest, MetricsCarryQueueWaitAndCacheAgeHistograms) {
    // A cold run records queue-wait; the warm rerun records the served
    // entry's age.
    const std::string body =
        R"({"type":"ber","config":{"grid_dx":0.01,"sj_uipp":0.13}})";
    HttpClient::Response resp;
    ASSERT_TRUE(client_->post("/v1/run", body, resp));
    ASSERT_TRUE(client_->post("/v1/run", body, resp));
    ASSERT_TRUE(client_->get("/metrics", resp));
    ASSERT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("gcdr_serve_queue_wait_seconds_count"),
              std::string::npos);
    EXPECT_NE(resp.body.find("gcdr_serve_cache_entry_age_seconds_count"),
              std::string::npos);
    EXPECT_NE(resp.body.find("gcdr_serve_cache_oldest_entry_age_seconds"),
              std::string::npos);
}

class CaptureLogSink : public obs::LogSink {
public:
    void write(const obs::LogRecord& rec) override {
        std::lock_guard<std::mutex> lk(mu_);
        records_.push_back(rec);
    }
    [[nodiscard]] std::vector<obs::LogRecord> records() {
        std::lock_guard<std::mutex> lk(mu_);
        return records_;
    }

private:
    std::mutex mu_;
    std::vector<obs::LogRecord> records_;
};

TEST_F(ServeHttpTest, EveryRequestGetsAnAccessLogLine) {
    auto sink = std::make_shared<CaptureLogSink>();
    obs::Logger::global().clear_sinks();
    obs::Logger::global().add_sink(sink);

    HttpClient::Response resp;
    ASSERT_TRUE(client_->get("/v1/healthz", resp));
    ASSERT_EQ(resp.status, 200);

    // The access line is written right after the response bytes go out;
    // give the connection thread a bounded moment to reach it.
    bool found = false;
    for (int i = 0; i < 200 && !found; ++i) {
        for (const auto& rec : sink->records()) {
            if (rec.component != "serve.access") continue;
            if (rec.message != "GET /v1/healthz") continue;
            found = true;
            std::uint64_t bytes = 0;
            std::int64_t status = 0;
            double duration = -1.0;
            for (const auto& f : rec.fields) {
                if (f.key == "status") status = f.i;
                if (f.key == "bytes") bytes = f.u;
                if (f.key == "duration_s") duration = f.d;
            }
            EXPECT_EQ(status, 200);
            EXPECT_EQ(bytes, resp.body.size());
            EXPECT_GE(duration, 0.0);
        }
        if (!found) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    obs::Logger::global().reset();
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gcdr::serve
