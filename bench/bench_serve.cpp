// bench_serve — load generator for the simulation-serving daemon.
//
// Drives a mixed ber/eye/sweep/mc workload through the daemon's HTTP
// front end in three phases:
//
//   cold       every distinct spec once (misses on a fresh cache)
//   duplicate  a shuffle-free re-issue of half the specs (immediate hits)
//   warm       the full spec set again (every request must hit)
//
// and reports sustained queries/s, p50/p99 request latency, and the
// cache hit ratio per phase. By default it hosts the daemon in-process
// on an ephemeral port (fresh in-memory cache, so "cold" is honestly
// cold); --connect HOST:PORT drives an external gcdr_served instead —
// that is what the CI serve-smoke job does, twice, against one daemon,
// and diffs the two reports.
//
// Identity contract (bench_diff --require-identical-counters): counters
// hold only order-independent payload checksums and result counts —
// values that must be bit-identical between a cold run and a warm
// replay. Phase timings, hit ratios, and latency percentiles are
// gauges. On top of the checksum, the warm phase string-compares every
// response payload against the cold phase's: any drift fails --check.
//
// Flags (beyond bench_common's): --connect HOST:PORT, --specs N (distinct
// specs per type), --check (gate warm hit ratio >= 0.95, payload
// identity, and — when the cold phase actually missed — warm speedup
// >= 10x).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "obs/canonical.hpp"
#include "obs/json_parse.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"
#include "util/parse_uint.hpp"

namespace {

using gcdr::bench::Options;
using gcdr::bench::RunReport;
using gcdr::serve::HttpClient;

struct Spec {
    std::string type;  ///< metrics bucket: "ber", "eye", "sweep", "mc"
    std::string body;  ///< request JSON
};

/// The mixed workload: `n` distinct configs per type, spread over a
/// physically plausible jitter range so compute costs vary.
std::vector<Spec> make_specs(std::size_t n, std::uint64_t seed) {
    std::vector<Spec> specs;
    char buf[512];
    for (std::size_t i = 0; i < n; ++i) {
        const double sj = 0.05 + 0.01 * static_cast<double>(i);
        const double rj = 0.018 + 0.0005 * static_cast<double>(i);
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"ber\",\"config\":{\"sj_uipp\":%.3f,"
                      "\"rj_uirms\":%.4f},\"seed\":%llu}",
                      sj, rj, static_cast<unsigned long long>(seed));
        specs.push_back({"ber", buf});
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double rj = 0.019 + 0.0005 * static_cast<double>(i);
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"eye\",\"config\":{\"rj_uirms\":%.4f},"
                      "\"ber_target\":1e-12,\"seed\":%llu}",
                      rj, static_cast<unsigned long long>(seed));
        specs.push_back({"eye", buf});
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double f0 = 0.05 + 0.05 * static_cast<double>(i);
        std::snprintf(
            buf, sizeof buf,
            "{\"type\":\"sweep\",\"config\":{\"rj_uirms\":0.021},"
            "\"axes\":[{\"name\":\"sj_uipp\",\"values\":[0.05,0.1,0.15]},"
            "{\"name\":\"sj_freq_norm\",\"values\":[%.2f,%.2f]}],"
            "\"seed\":%llu}",
            f0, f0 + 0.4, static_cast<unsigned long long>(seed));
        specs.push_back({"sweep", buf});
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double sj = 0.08 + 0.02 * static_cast<double>(i);
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"mc\",\"config\":{\"sj_uipp\":%.2f},"
                      "\"mc\":{\"max_evals\":60000,"
                      "\"target_rel_err\":0.2},\"seed\":%llu}",
                      sj, static_cast<unsigned long long>(seed + i));
        specs.push_back({"mc", buf});
    }
    return specs;
}

struct PhaseResult {
    double seconds = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::vector<double> latencies_ms;
    std::vector<std::string> payloads;  ///< indexed like the spec list
    bool ok = true;

    [[nodiscard]] double hit_ratio() const {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/// Pull status / cache tallies / payload out of a result envelope.
bool digest_envelope(const std::string& envelope, std::uint64_t& hits,
                     std::uint64_t& misses, std::string& payload_canonical) {
    gcdr::obs::JsonValue v;
    if (!gcdr::obs::json_parse(envelope, v) ||
        v.type != gcdr::obs::JsonValue::Type::kObject) {
        return false;
    }
    const gcdr::obs::JsonValue* status = v.find("status");
    if (!status || status->text != "done") return false;
    if (const gcdr::obs::JsonValue* cache = v.find("cache")) {
        if (const auto* h = cache->find("hits")) hits += h->uint_or(0);
        if (const auto* m = cache->find("misses")) misses += m->uint_or(0);
    }
    const gcdr::obs::JsonValue* payload = v.find("payload");
    if (!payload) return false;
    payload_canonical = gcdr::obs::canonical_json(*payload);
    return true;
}

PhaseResult run_phase(HttpClient& client, const std::vector<Spec>& specs,
                      const std::vector<std::size_t>& order) {
    PhaseResult r;
    r.payloads.resize(specs.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::size_t i : order) {
        const auto req_t0 = std::chrono::steady_clock::now();
        HttpClient::Response resp;
        if (!client.post("/v1/run", specs[i].body, resp) ||
            resp.status != 200) {
            std::fprintf(stderr, "bench_serve: request %zu failed (%d)\n",
                         i, resp.status);
            r.ok = false;
            continue;
        }
        r.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - req_t0)
                .count());
        if (!digest_envelope(resp.body, r.hits, r.misses, r.payloads[i])) {
            std::fprintf(stderr,
                         "bench_serve: bad envelope for request %zu\n", i);
            r.ok = false;
        }
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
    Options opts = Options::parse(argc, argv);
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0: host the daemon in-process
    std::size_t n_specs = 3;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
            const std::string_view connect = argv[++i];
            const std::size_t colon = connect.rfind(':');
            const auto port_value =
                colon == std::string_view::npos
                    ? std::nullopt
                    : gcdr::util::parse_uint(connect.substr(colon + 1),
                                             65535);
            if (!port_value || *port_value == 0) {
                std::fprintf(stderr, "--connect wants HOST:PORT\n");
                return 2;
            }
            host = connect.substr(0, colon);
            port = static_cast<std::uint16_t>(*port_value);
        } else if (std::strcmp(argv[i], "--specs") == 0) {
            n_specs = gcdr::bench::uint_flag(argc, argv, i);
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else {
            return gcdr::bench::unknown_flag(argv[i]);
        }
    }
    RunReport report(opts, "serve",
                     "Serving daemon: mixed workload, cache-hit replay");
    if (!opts.quiet) {
        gcdr::bench::header("bench_serve",
                            "simulation-as-a-service load generator");
    }

    // Host the daemon in-process unless --connect points elsewhere. The
    // in-process cache is memory-only so the cold phase is honestly cold.
    std::unique_ptr<gcdr::serve::ServeServer> server;
    if (port == 0) {
        gcdr::serve::ServerOptions sopts;
        sopts.workers = 2;
        sopts.job_threads = opts.resolved_threads();
        server = std::make_unique<gcdr::serve::ServeServer>(sopts);
        if (!server->start()) {
            std::fprintf(stderr, "bench_serve: cannot start server\n");
            return 1;
        }
        port = server->port();
    }
    HttpClient client(host, port);

    const std::vector<Spec> specs = make_specs(n_specs, opts.seed);
    std::vector<std::size_t> all(specs.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    // The duplicate phase re-issues every other spec — interleaved types,
    // no new cache entries.
    std::vector<std::size_t> dup;
    for (std::size_t i = 0; i < all.size(); i += 2) dup.push_back(i);

    if (!opts.quiet) gcdr::bench::section("cold pass");
    PhaseResult cold = run_phase(client, specs, all);
    if (!opts.quiet) gcdr::bench::section("duplicate pass");
    PhaseResult duplicate = run_phase(client, specs, dup);
    if (!opts.quiet) gcdr::bench::section("warm pass");
    PhaseResult warm = run_phase(client, specs, all);
    if (server) server->stop();

    bool ok = cold.ok && duplicate.ok && warm.ok;

    // Bit-identity: the warm payload for every spec must equal the cold
    // one byte for byte (both are canonicalized the same way, and the
    // cache stores/returns verbatim bytes, so equality here means the
    // hit path reproduced the computation exactly).
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (cold.payloads[i] != warm.payloads[i]) {
            ++mismatches;
            std::fprintf(stderr,
                         "bench_serve: warm payload %zu differs from "
                         "cold\n",
                         i);
        }
    }
    ok = ok && mismatches == 0;

    // Counters: order-independent payload checksum (wrapping sum of
    // per-payload fnv1a64) + per-type result counts. Identical between a
    // cold run and a warm replay by the bit-identity contract.
    auto& m = report.metrics();
    std::uint64_t checksum = 0;
    for (const std::string& p : cold.payloads) {
        checksum += gcdr::util::fnv1a64(p);  // wrapping add on purpose
    }
    m.counter("serve.result_checksum").inc(checksum);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        m.counter("serve.results." + specs[i].type).inc();
    }
    m.counter("serve.requests")
        .inc(static_cast<std::uint64_t>(cold.latencies_ms.size() +
                                        duplicate.latencies_ms.size() +
                                        warm.latencies_ms.size()));

    // Gauges: timings and ratios (vary run to run, excluded from the
    // identity diff).
    std::vector<double> lat = cold.latencies_ms;
    lat.insert(lat.end(), duplicate.latencies_ms.begin(),
               duplicate.latencies_ms.end());
    lat.insert(lat.end(), warm.latencies_ms.begin(),
               warm.latencies_ms.end());
    const double total_s =
        cold.seconds + duplicate.seconds + warm.seconds;
    const double qps =
        total_s > 0 ? static_cast<double>(lat.size()) / total_s : 0.0;
    const double speedup =
        warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
    m.gauge("serve.qps").set(qps);
    m.gauge("serve.p50_ms").set(percentile(lat, 0.50));
    m.gauge("serve.p99_ms").set(percentile(lat, 0.99));
    m.gauge("serve.cold_seconds").set(cold.seconds);
    m.gauge("serve.warm_seconds").set(warm.seconds);
    m.gauge("serve.warm_speedup").set(speedup);
    m.gauge("serve.cold_hit_ratio").set(cold.hit_ratio());
    m.gauge("serve.warm_hit_ratio").set(warm.hit_ratio());
    m.gauge("serve.duplicate_hit_ratio").set(duplicate.hit_ratio());

    if (!opts.quiet) {
        gcdr::bench::section("summary");
        std::printf("requests           : %zu\n", lat.size());
        std::printf("sustained queries/s: %.1f\n", qps);
        std::printf("p50 / p99 latency  : %.2f / %.2f ms\n",
                    percentile(lat, 0.50), percentile(lat, 0.99));
        std::printf("cold pass          : %.3f s (hit ratio %.2f)\n",
                    cold.seconds, cold.hit_ratio());
        std::printf("duplicate pass     : %.3f s (hit ratio %.2f)\n",
                    duplicate.seconds, duplicate.hit_ratio());
        std::printf("warm pass          : %.3f s (hit ratio %.2f)\n",
                    warm.seconds, warm.hit_ratio());
        std::printf("warm speedup       : %.1fx\n", speedup);
        std::printf("payload identity   : %s\n",
                    mismatches == 0 ? "bit-identical" : "MISMATCH");
    }

    if (check) {
        if (warm.hit_ratio() < 0.95) {
            std::fprintf(stderr,
                         "bench_serve: CHECK FAILED warm hit ratio %.3f "
                         "< 0.95\n",
                         warm.hit_ratio());
            ok = false;
        }
        // The speedup gate only means something when the cold pass
        // actually computed (a second run against a persistent daemon
        // cache is all-hit in both passes).
        if (cold.misses > 0 && speedup < 10.0) {
            std::fprintf(stderr,
                         "bench_serve: CHECK FAILED warm speedup %.1fx "
                         "< 10x\n",
                         speedup);
            ok = false;
        }
        if (!opts.quiet) {
            std::printf("check              : %s\n",
                        ok ? "PASS" : "FAIL");
        }
    }

    if (!report.write()) ok = false;
    return ok ? 0 : 1;
}
