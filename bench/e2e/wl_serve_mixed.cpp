// serve_mixed — the simulation daemon under a closed-loop client mix. An
// in-process ServeServer (one worker per --threads, 1 job thread each,
// file-backed cache) is started per rep; setup is the request plan,
// daemon start and the reload of a cache segment holding ~20k seeded
// background records (never requested) plus every result computed so
// far. The clients, one per --threads, each with its own keep-alive
// HttpClient, then run a closed loop over one shared request plan: 9 in
// 10 requests are Zipf-distributed repeats of a popular set computed
// during the warm-up rep (cache reads), 1 in 10 is a first-time spec of
// type ber, eye, 6-point sweep or small 4-lane scenario (compute, store,
// append). One operation is one request. No recorded daemon traffic
// exists: the 9:1 split and the job kinds are the benchmark's
// specification, the Zipf exponent, popular-set size and spec ranges are
// assumptions.
//
// Why: serve dominates hits while misses reuse statmodel_sweep's layers,
// so a convolve speedup should move miss_p50_ms but not hit_p50_ms; a
// cache change that speeds reads but slows writes shows as a split
// between the two.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"
#include "harness.hpp"
#include "obs/json_parse.hpp"
#include "obs/trace_span.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace gcdr::e2e {

namespace {

struct Sizes {
    std::size_t background;  ///< seeded segment records
    std::size_t popular;     ///< specs the repeats are drawn from
    std::size_t requests;    ///< per rep, over all clients
};

constexpr Sizes kFull{20000, 64, 1200};
constexpr Sizes kSmoke{2000, 8, 80};

constexpr std::size_t kMissEvery = 10;
constexpr double kZipfS = 1.1;

/// Background records use seeds no request uses, so they only size the
/// index and the segment reload.
constexpr std::uint64_t kBackgroundSeedBase = 1ull << 62;

enum class Job { kBer, kEye, kSweep, kScenario };

/// First-time jobs cycle through this mix: half sweeps, a quarter eyes, an
/// eighth each ber and scenario. Their latencies form four separate
/// clusters (ber ~6 ms, scenario ~8 ms, sweep ~35 ms, eye ~170 ms). With
/// equal shares the median miss falls in the gap between the scenario and
/// sweep clusters, where it is the mean of the rep's slowest scenario and
/// fastest sweep; with half sweeps it is the sweeps' median, a convolve-
/// bound job, and p99 stays inside the eye cluster.
constexpr Job kMix[] = {Job::kSweep, Job::kEye, Job::kSweep, Job::kBer,
                        Job::kSweep, Job::kEye, Job::kSweep, Job::kScenario};

std::string fresh_spec(Rng& rng, std::size_t index) {
    char buf[1024];
    switch (kMix[index % std::size(kMix)]) {
        case Job::kBer:
            std::snprintf(buf, sizeof buf,
                          "{\"type\":\"ber\",\"config\":{\"sj_uipp\":%.17g,"
                          "\"sj_freq_norm\":%.17g,\"rj_uirms\":%.17g},"
                          "\"seed\":1}",
                          rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                          rng.uniform(0.018, 0.024));
            return buf;
        case Job::kEye:
            // Table 1 budget within +-15%, at the model's default grid.
            std::snprintf(buf, sizeof buf,
                          "{\"type\":\"eye\",\"config\":{\"rj_uirms\":%.17g,"
                          "\"dj_uipp\":%.17g},\"ber_target\":1e-12,\"seed\":1}",
                          0.021 * rng.uniform(0.85, 1.15),
                          0.4 * rng.uniform(0.85, 1.15));
            return buf;
        case Job::kSweep: {
            const double f = rng.uniform(0.05, 0.2);
            std::snprintf(
                buf, sizeof buf,
                "{\"type\":\"sweep\",\"config\":{\"rj_uirms\":%.17g},"
                "\"axes\":[{\"name\":\"sj_uipp\",\"values\":[0.05,0.15,0.3]},"
                "{\"name\":\"sj_freq_norm\",\"values\":[%.17g,%.17g]}],"
                "\"seed\":1}",
                rng.uniform(0.018, 0.024), f, f + 0.3);
            return buf;
        }
        case Job::kScenario: {
            std::string inst;
            std::string wires;
            for (int i = 0; i < 4; ++i) {
                std::snprintf(buf, sizeof buf,
                              "%s\"s%d\":{\"kind\":\"source\",\"bits\":1000},"
                              "\"l%d\":{\"kind\":\"channel\"}",
                              i ? "," : "", i, i);
                inst += buf;
                std::snprintf(buf, sizeof buf,
                              "%s{\"from\":\"s%d.out\",\"to\":\"l%d.din\","
                              "\"skew_ps\":%.17g}",
                              i ? "," : "", i, i, rng.uniform(0.0, 400.0));
                wires += buf;
            }
            return "{\"type\":\"scenario\",\"seed\":1,\"scenario\":{"
                   "\"schema\":\"gcdr.scenario/v1\",\"name\":\"e2e_serve\","
                   "\"netlist\":{\"instances\":{" +
                   inst + "},\"wires\":[" + wires +
                   "]},\"tasks\":[{\"kind\":\"netlist_run\","
                   "\"prefix\":\"lanes\"}]}}";
        }
    }
    return {};
}

/// One planned request of a rep.
struct Planned {
    bool repeat;        ///< Zipf repeat of a popular spec (expected hit)
    std::size_t index;  ///< popular index when repeat
    std::string body;
};

/// What a client saw for one planned request; checked in plan order after
/// the clients join.
struct Answer {
    double ms = 0.0;
    std::string error;  ///< empty when the response is a done envelope
    std::string payload;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/// The payload is spliced last into every envelope as ,"payload":<bytes>}.
bool payload_bytes(const std::string& envelope, std::string& out) {
    const std::string marker = ",\"payload\":";
    const std::size_t at = envelope.rfind(marker);
    if (at == std::string::npos || envelope.empty() ||
        envelope.back() != '}') {
        return false;
    }
    const std::size_t from = at + marker.size();
    out = envelope.substr(from, envelope.size() - 1 - from);
    return true;
}

class ServeMixed final : public Workload {
public:
    explicit ServeMixed(const Options& opts)
        : sizes_(opts.smoke ? kSmoke : kFull),
          clients_(opts.threads),
          work_dir_(opts.work_dir) {
        Rng rng(exec::derive_seed(opts.seed, 0x5e5e));
        for (std::size_t i = 0; i < sizes_.popular; ++i) {
            popular_.push_back(fresh_spec(rng, i));
        }
        // Zipf(s) CDF over popularity ranks.
        double total = 0.0;
        for (std::size_t k = 1; k <= sizes_.popular; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k), kZipfS);
            zipf_cdf_.push_back(total);
        }
        for (double& c : zipf_cdf_) c /= total;
        cold_.assign(sizes_.popular, std::string());
    }

    ~ServeMixed() override {
        if (server_) server_->stop();
        if (!dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
        }
    }
    ServeMixed(const ServeMixed&) = delete;
    ServeMixed& operator=(const ServeMixed&) = delete;

    const char* digest_name() const override {
        return "digest.serve_payloads";
    }
    bool own_root_spans() const override { return true; }

    void begin_phase() override {
        // Every phase starts from the background segment alone, so the
        // traced phase sees the same misses as the untraced one.
        if (!dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
        }
        std::string tmpl = work_dir_ + "/serve_mixed-XXXXXX";
        if (!mkdtemp(tmpl.data())) {
            throw std::runtime_error("serve_mixed: cannot create a cache "
                                     "directory under " + work_dir_);
        }
        dir_ = tmpl;
        cache_path_ = dir_ + "/cache.jsonl";
        std::ofstream seg(cache_path_);
        Rng rng(0xbac6);
        const std::uint64_t model_hash =
            util::fnv1a64(serve::kModelVersion);
        char payload[64];
        for (std::size_t i = 0; i < sizes_.background; ++i) {
            serve::CacheKey key;
            key.config_hash = rng.generator()();
            key.seed = kBackgroundSeedBase + i;
            key.model_hash = model_hash;
            std::snprintf(payload, sizeof payload, "{\"ber\":%.6e}",
                          rng.uniform(1e-15, 1e-3));
            seg << serve::ResultCache::record_json(key, payload) << '\n';
        }
        warm_ = true;
    }

    void setup(std::uint64_t rep_seed) override {
        {
            obs::TraceSpan span("e2e.generate");
            plan_ = plan(rep_seed);
        }
        obs::TraceSpan span("serve.start");
        serve::ServerOptions so;
        so.cache_path = cache_path_;
        // --threads 4: 4 clients and 4 single-threaded workers. A client
        // waits while its request computes, so at most one thread per
        // client is busy.
        so.workers = clients_;
        so.job_threads = 1;
        server_ = std::make_unique<serve::ServeServer>(so);
        if (!server_->start()) {
            throw std::runtime_error("serve_mixed: cannot start the daemon");
        }
    }

    void run(RepRecord& rec, std::uint64_t& digest) override {
        // The clients take the next request of one shared plan, so a
        // client held up by a slow job (or a slow core) does not hold up
        // the rest of the rep: the rep ends when the plan is done, not
        // when the slowest of fixed shares is.
        std::vector<Answer> answers(plan_.size());
        std::atomic<std::size_t> next{0};
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients_; ++c) {
            threads.emplace_back([&] {
                obs::TraceSpan root("e2e.root");
                serve::HttpClient client("127.0.0.1", server_->port());
                for (std::size_t i; (i = next.fetch_add(1)) < plan_.size();) {
                    send(client, plan_[i].body, answers[i]);
                }
            });
        }
        for (auto& t : threads) t.join();
        const double wall_s = ms_since(t0) / 1e3;

        std::vector<double> all_ms;
        std::vector<double> hit_ms;
        std::vector<double> miss_ms;
        for (std::size_t i = 0; i < plan_.size(); ++i) {
            const Planned& p = plan_[i];
            Answer& a = answers[i];
            ++rec.attempted;
            all_ms.push_back(a.ms);
            if (!a.error.empty()) {
                rec.fail("serve_mixed: " + a.error);
                continue;
            }
            fold(digest, a.payload);
            if (!p.repeat) {
                miss_ms.push_back(a.ms);
                if (a.hits != 0) rec.fail("serve_mixed: first-time spec hit");
                continue;
            }
            if (warm_) {
                // The popular spec's cold computation in this phase. A
                // popular spec recomputed in a later phase must give the
                // bytes of its first computation.
                if (cold_[p.index].empty()) {
                    cold_[p.index] = std::move(a.payload);
                } else if (cold_[p.index] != a.payload) {
                    rec.fail("serve_mixed: popular spec " +
                             std::to_string(p.index) +
                             " recomputed to different bytes");
                }
                continue;
            }
            hit_ms.push_back(a.ms);
            if (a.misses != 0 || a.payload != cold_[p.index]) {
                rec.fail("serve_mixed: popular spec " +
                         std::to_string(p.index) +
                         (a.misses != 0 ? " missed the cache"
                                        : " hit with bytes that differ "
                                          "from its cold payload"));
            }
        }
        rec.samples["qps"] = static_cast<double>(all_ms.size()) / wall_s;
        rec.samples["hit_p50_ms"] = percentile(hit_ms, 0.5);
        rec.samples["miss_p50_ms"] = percentile(miss_ms, 0.5);
        rec.samples["p99_ms"] = percentile(all_ms, 0.99);

        if (traced_) {
            obs::MetricsRegistry& m = server_->metrics();
            const double req_p50_ms =
                1e3 * m.histogram("serve.request_seconds").quantile(0.5);
            counters_["serve.request_p50_ms"] += req_p50_ms;
            counters_["serve.queue_wait_p50_ms"] +=
                1e3 * m.histogram("serve.queue_wait_seconds").quantile(0.5);
            counters_["serve.http_p50_ms"] +=
                percentile(all_ms, 0.5) - req_p50_ms;
            const serve::CacheStats cs = server_->cache().stats();
            counters_["serve.cache.hits"] += static_cast<double>(cs.hits);
            counters_["serve.cache.misses"] +=
                static_cast<double>(cs.misses);
            counters_["serve.cache.stores"] +=
                static_cast<double>(cs.stores);
            // ResultCache::load on its own: the reload the setup pays.
            serve::ResultCache probe(cache_path_);
            obs::TraceSpan span("serve.cache.reload");
            (void)probe.load();
        }
        warm_ = false;
    }

    void teardown() override {
        if (server_) server_->stop();
        server_.reset();
    }

    void add_counters(Counters& out) const override {
        for (const auto& [k, v] : counters_) out[k] += v;
    }

private:
    std::vector<Planned> plan(std::uint64_t seed) const {
        std::vector<Planned> out;
        if (warm_) {
            // Warm-up rep: compute the popular set, nothing else, so every
            // later repeat is a hit.
            for (std::size_t i = 0; i < popular_.size(); ++i) {
                out.push_back({true, i, popular_[i]});
            }
            return out;
        }
        Rng rng(seed);
        for (std::size_t r = 0; r < sizes_.requests; ++r) {
            if (r % kMissEvery == kMissEvery - 1) {
                out.push_back({false, 0, fresh_spec(rng, r / kMissEvery)});
            } else {
                const double u = rng.uniform();
                const std::size_t i = static_cast<std::size_t>(
                    std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                    zipf_cdf_.begin());
                const std::size_t idx = std::min(i, popular_.size() - 1);
                out.push_back({true, idx, popular_[idx]});
            }
        }
        return out;
    }

    void send(serve::HttpClient& client, const std::string& body,
              Answer& out) {
        if (traced_) probe_protocol(body);
        serve::HttpClient::Response resp;
        const auto t0 = std::chrono::steady_clock::now();
        bool sent = false;
        {
            obs::TraceSpan span("serve.request");
            sent = client.post("/v1/run", body, resp);
        }
        out.ms = ms_since(t0);

        obs::TraceSpan span("e2e.check");
        if (!sent || resp.status != 200) {
            out.error = "request answered " + std::to_string(resp.status);
        } else if (!check_envelope(resp.body, out.payload, out.hits,
                                   out.misses)) {
            out.error = "bad envelope";
        }
    }

    static bool check_envelope(const std::string& body, std::string& payload,
                               std::uint64_t& hits, std::uint64_t& misses) {
        obs::JsonValue v;
        if (!obs::json_parse(body, v) || !v.is_object()) return false;
        const obs::JsonValue* status = v.find("status");
        const obs::JsonValue* cache = v.find("cache");
        if (!status || status->text != "done" || !cache || !v.find("payload")) {
            return false;
        }
        if (const auto* h = cache->find("hits")) hits = h->uint_or(0);
        if (const auto* m = cache->find("misses")) misses = m->uint_or(0);
        return payload_bytes(body, payload);
    }

    /// Traced reps only: the request's protocol and cache-key work, run
    /// from outside the daemon so each gets its own span.
    void probe_protocol(const std::string& body) {
        serve::JobSpec spec;
        {
            obs::TraceSpan span("serve.protocol.parse");
            obs::JsonValue v;
            std::string err;
            if (!obs::json_parse(body, v, &err) ||
                !serve::parse_job(v, spec, err)) {
                return;
            }
        }
        serve::CacheKey key;
        {
            obs::TraceSpan span("serve.protocol.hash");
            key = serve::JobExecutor::key_of(spec);
        }
        obs::TraceSpan span("serve.cache.lookup");
        (void)server_->cache().contains(key);
    }

    Sizes sizes_;
    std::size_t clients_;  ///< also the daemon's worker count
    std::string work_dir_;
    std::string dir_;
    std::string cache_path_;
    std::vector<std::string> popular_;
    std::vector<double> zipf_cdf_;
    /// First payload of each popular spec, kept across reps and phases.
    std::vector<std::string> cold_;
    bool warm_ = false;  ///< this rep is a phase's warm-up rep
    std::vector<Planned> plan_;
    std::unique_ptr<serve::ServeServer> server_;
    Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& opts) {
    return std::make_unique<ServeMixed>(opts);
}

}  // namespace gcdr::e2e
