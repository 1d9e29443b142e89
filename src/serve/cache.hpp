#pragma once
// Content-addressed result memoization store — the reason the daemon can
// serve the million-user traffic shape: fleets of near-identical configs
// re-query the same points, and a completed point never recomputes.
//
// Key = (config_hash, seed, model_hash):
//   - config_hash: fnv1a64 of the RESOLVED canonical job spec
//     (serve/protocol.hpp) — stable across key order, float formatting,
//     omitted defaults, and platforms,
//   - seed: the job's base seed (sweep points use their derived seed),
//   - model_hash: fnv1a64(model_version_of(type)) — statmodel jobs stamp
//     kModelVersion, scenario jobs kScenarioModelVersion; bumping a
//     version orphans every stale entry instead of serving wrong numbers.
//
// Value = the compact result-payload JSON exactly as the executor
// produced it. Hits return the stored bytes verbatim, so a cache hit is
// bit-identical to recomputation by construction (the executor's
// payloads are deterministic functions of the key).
//
// Persistence: append-only JSONL segments (gcdr.serve.cache/v1), one
// record per store, reloaded through obs::json_parse with a tolerant
// reader — blank/truncated/foreign lines are counted and skipped, a
// crash mid-append never poisons the store, and segments from different
// daemons merge with `cat`. Duplicate keys on reload: last writer wins
// (a later record can only be a re-computation of the same content).
//
// Eviction: optional max_entries bound on the in-memory index, evicting
// least-recently-used entries. The segment file is not rewritten on
// eviction (append-only contract); compact() rewrites it to exactly the
// live set when a maintenance window wants the disk back.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace gcdr::serve {

inline constexpr const char* kCacheSchema = "gcdr.serve.cache/v1";

struct CacheKey {
    std::uint64_t config_hash = 0;
    std::uint64_t seed = 0;
    std::uint64_t model_hash = 0;

    [[nodiscard]] bool operator==(const CacheKey& o) const = default;
    /// fnv1a64 over the three components (little-endian), platform-stable.
    [[nodiscard]] std::uint64_t mix() const;
};

/// noexcept, so std::unordered_map recomputes the hash instead of storing
/// it in every node.
struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
        return static_cast<std::size_t>(k.mix());
    }
};

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t loaded = 0;        ///< records restored from segments
    std::uint64_t load_skipped = 0;  ///< malformed/foreign lines skipped
    std::size_t entries = 0;
    [[nodiscard]] double hit_ratio() const {
        const std::uint64_t n = hits + misses;
        return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
    }
};

/// Thread-safe memoization store. All methods may be called concurrently
/// from executor workers and HTTP connection threads.
class ResultCache {
public:
    /// `path` empty = in-memory only (tests, --cache ""). `max_entries`
    /// 0 = unbounded.
    explicit ResultCache(std::string path = {}, std::size_t max_entries = 0);

    /// Load every well-formed record from the segment file (no-op when
    /// the path is empty or missing). Returns false only when the file
    /// exists but cannot be opened.
    bool load();

    /// On hit, copies the stored payload into `out` and refreshes LRU
    /// recency. Tallies hits/misses.
    [[nodiscard]] bool lookup(const CacheKey& key, std::string& out);

    /// Probe without copying or touching hit/miss tallies — the sweep
    /// executor's pre-pass uses this to partition cached vs missing
    /// points before deciding what to compute.
    [[nodiscard]] bool contains(const CacheKey& key) const;

    /// Insert/overwrite and append one segment record. `payload` must be
    /// a complete compact JSON value (it is spliced into the record
    /// verbatim). I/O failure is soft: the in-memory entry still lands,
    /// a warning is logged once per open failure. A payload of 4 GiB or
    /// more is neither held nor appended.
    void store(const CacheKey& key, const std::string& payload);

    /// Rewrite the segment file to exactly the live in-memory set.
    /// Returns false on I/O failure (the old file is left in place).
    bool compact();

    [[nodiscard]] CacheStats stats() const;
    [[nodiscard]] const std::string& path() const { return path_; }

    /// Attach live instrumentation: every subsequent hit records the
    /// served entry's age into serve.cache.entry_age_seconds. Call once,
    /// before concurrent use (the server does, at construction).
    void attach_metrics(obs::MetricsRegistry* reg);

    /// Mirror stats into serve.cache.* counters/gauges on a registry
    /// (called by the server's stats endpoints; cheap, snapshot-style).
    /// Also refreshes serve.cache.oldest_entry_age_seconds.
    void publish(obs::MetricsRegistry& reg) const;

    /// One segment line (exposed for tests / offline tooling).
    [[nodiscard]] static std::string record_json(const CacheKey& key,
                                                 std::string_view payload);

private:
    struct Entry;
    /// One map node. Nodes never move, so the recency links below stay
    /// valid until their node is erased.
    using Slot = std::pair<const CacheKey, Entry>;
    struct Entry {
        /// The payload bytes. A pointer and a 32-bit size instead of a
        /// std::string keep the whole map node at 72 bytes.
        std::unique_ptr<char[]> payload;
        std::uint32_t payload_size = 0;
        /// When the payload landed (insert or overwrite) — the age
        /// recorded on hits and behind the oldest-entry gauge.
        std::chrono::steady_clock::time_point stored_at;
        /// Recency list threaded through the map's own nodes:
        /// newer = toward lru_head_, older = toward lru_tail_.
        Slot* newer = nullptr;
        Slot* older = nullptr;
    };

    [[nodiscard]] static std::string_view payload_of(const Entry& e) {
        return {e.payload.get(), e.payload_size};
    }
    void link_front_locked(Slot& s);
    void unlink_locked(Slot& s);
    void touch_locked(Slot& s);
    /// Payloads of 4 GiB or more are not held (false): the 32-bit size
    /// cannot record them.
    bool insert_locked(const CacheKey& key, std::string_view payload,
                       bool persist);
    bool append_record_locked(const CacheKey& key, std::string_view payload);

    std::string path_;
    std::size_t max_entries_;

    mutable std::mutex mu_;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
    Slot* lru_head_ = nullptr;  ///< most recently used
    Slot* lru_tail_ = nullptr;  ///< least recently used, evicted first
    CacheStats stats_;
    obs::Histogram* age_hist_ = nullptr;  ///< set by attach_metrics
    bool warned_io_ = false;
};

}  // namespace gcdr::serve
