#include "serve/cache.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "obs/json_parse.hpp"
#include "obs/log.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {

std::uint64_t CacheKey::mix() const {
    std::uint64_t h = util::kFnv1a64OffsetBasis;
    h = util::fnv1a64_u64(config_hash, h);
    h = util::fnv1a64_u64(seed, h);
    h = util::fnv1a64_u64(model_hash, h);
    return h;
}

ResultCache::ResultCache(std::string path, std::size_t max_entries)
    : path_(std::move(path)), max_entries_(max_entries) {
    // Two entries per bucket on average: the bucket array costs 4-8
    // bytes per entry instead of 8-16, for about one more key compare
    // per lookup.
    map_.max_load_factor(2.0f);
}

std::string ResultCache::record_json(const CacheKey& key,
                                     std::string_view payload) {
    // Hand-assembled so the already-compact payload splices in verbatim
    // (JsonWriter has no raw-value injection, and re-parsing the payload
    // just to re-print it would be wasted work on the store hot path).
    std::string line = "{\"schema\":\"";
    line += kCacheSchema;
    line += "\",\"config_hash\":\"";
    line += util::hash_hex(key.config_hash);
    line += "\",\"seed\":";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(key.seed));
    line += buf;
    line += ",\"model_hash\":\"";
    line += util::hash_hex(key.model_hash);
    line += "\",\"payload\":";
    line += payload;
    line += '}';
    return line;
}

namespace {

/// The key and payload bytes of any well-formed segment line, through the
/// full JSON parse.
bool read_record(std::string_view line, CacheKey& key,
                 std::string_view& payload) {
    obs::JsonValue v;
    if (!obs::json_parse(line, v, nullptr) || !v.is_object()) return false;
    const obs::JsonValue* schema = v.find("schema");
    const obs::JsonValue* config_hash = v.find("config_hash");
    const obs::JsonValue* seed = v.find("seed");
    const obs::JsonValue* model_hash = v.find("model_hash");
    const obs::JsonValue* value = v.find("payload");
    if (!schema || schema->string_or("") != kCacheSchema || !config_hash ||
        !config_hash->is_string() ||
        !util::parse_hash_hex(config_hash->text, key.config_hash) ||
        !seed || !seed->is_number() || !model_hash ||
        !model_hash->is_string() ||
        !util::parse_hash_hex(model_hash->text, key.model_hash) || !value ||
        value->is_null()) {
        return false;
    }
    key.seed = seed->uint_or(0);
    // Re-extract the payload's exact source bytes: the stored value
    // starts right after "payload": and runs to the record's closing
    // brace. Re-serializing the parsed tree could reformat numbers,
    // breaking the bit-identity contract, so slice the line instead.
    const std::size_t pos = line.find("\"payload\":");
    if (pos == std::string_view::npos) return false;
    const std::size_t begin = pos + 10;
    const std::size_t end = line.rfind('}');
    if (end == std::string_view::npos || end <= begin) return false;
    payload = line.substr(begin, end - begin);
    return true;
}

/// read_record for a line in record_json's own layout, without building
/// the record's JSON tree: the key comes from the fixed prefix and only
/// the payload is parsed, wrapped in "[...]" so it nests exactly as deep
/// as in the line. Any other line returns false and takes read_record;
/// whenever this accepts, read_record gives the same key and payload.
bool read_own_record(std::string_view line, std::string& wrapped,
                     CacheKey& key, std::string_view& payload) {
    std::size_t pos = 0;
    const auto eat = [&](std::string_view lit) {
        if (line.substr(pos, lit.size()) != lit) return false;
        pos += lit.size();
        return true;
    };
    const auto hash = [&](std::uint64_t& out) {
        if (!util::parse_hash_hex(line.substr(pos, 16), out)) return false;
        pos += 16;
        return true;
    };
    if (!eat("{\"schema\":\"") || !eat(kCacheSchema) ||
        !eat("\",\"config_hash\":\"") || !hash(key.config_hash) ||
        !eat("\",\"seed\":")) {
        return false;
    }
    // 1 to 19 digits without a leading zero: a value uint_or reads
    // exactly, and below 2^64.
    const std::size_t digits = pos;
    key.seed = 0;
    while (pos < line.size() && pos - digits < 20 && line[pos] >= '0' &&
           line[pos] <= '9') {
        key.seed = key.seed * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
    }
    const std::size_t n = pos - digits;
    if (n == 0 || n > 19 || (n > 1 && line[digits] == '0')) return false;
    if (!eat(",\"model_hash\":\"") || !hash(key.model_hash) ||
        !eat("\",\"payload\":") || line.back() != '}') {
        return false;
    }
    payload = line.substr(pos, line.size() - 1 - pos);
    wrapped.assign(1, '[');
    wrapped.append(payload);
    wrapped.push_back(']');
    obs::JsonValue v;
    return obs::json_parse(wrapped, v, nullptr) && v.items.size() == 1 &&
           !v.items[0].is_null();
}

}  // namespace

bool ResultCache::load() {
    if (path_.empty()) return true;
    std::ifstream is(path_);
    if (!is) return true;  // no segment yet: cold store
    std::string line;
    std::string wrapped;
    std::lock_guard<std::mutex> lk(mu_);
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.find_first_not_of(" \t") == std::string::npos) continue;
        CacheKey key;
        std::string_view payload;
        if ((!read_own_record(line, wrapped, key, payload) &&
             !read_record(line, key, payload)) ||
            !insert_locked(key, payload, /*persist=*/false)) {
            ++stats_.load_skipped;
            continue;
        }
        ++stats_.loaded;
    }
    return true;
}

bool ResultCache::lookup(const CacheKey& key, std::string& out) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    if (age_hist_) {
        age_hist_->record(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              it->second.stored_at)
                              .count());
    }
    touch_locked(*it);
    out = payload_of(it->second);
    return true;
}

void ResultCache::attach_metrics(obs::MetricsRegistry* reg) {
    std::lock_guard<std::mutex> lk(mu_);
    age_hist_ = reg ? &reg->histogram("serve.cache.entry_age_seconds")
                    : nullptr;
}

bool ResultCache::contains(const CacheKey& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.count(key) != 0;
}

void ResultCache::store(const CacheKey& key, const std::string& payload) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.stores;
    insert_locked(key, payload, /*persist=*/true);
}

void ResultCache::link_front_locked(Slot& s) {
    s.second.newer = nullptr;
    s.second.older = lru_head_;
    if (lru_head_) {
        lru_head_->second.newer = &s;
    } else {
        lru_tail_ = &s;
    }
    lru_head_ = &s;
}

void ResultCache::unlink_locked(Slot& s) {
    Entry& e = s.second;
    (e.newer ? e.newer->second.older : lru_head_) = e.older;
    (e.older ? e.older->second.newer : lru_tail_) = e.newer;
}

void ResultCache::touch_locked(Slot& s) {
    if (&s != lru_head_) {
        unlink_locked(s);
        link_front_locked(s);
    }
}

bool ResultCache::insert_locked(const CacheKey& key, std::string_view payload,
                                bool persist) {
    if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
        return false;
    }
    if (persist && !path_.empty() && !append_record_locked(key, payload)) {
        if (!warned_io_) {
            warned_io_ = true;
            obs::log_warn("serve.cache",
                          "cannot append cache segment; store continues "
                          "in-memory only",
                          {{"path", path_}});
        }
    }
    const auto [it, inserted] = map_.try_emplace(key);
    Entry& e = it->second;
    e.payload = std::make_unique_for_overwrite<char[]>(payload.size());
    std::copy(payload.begin(), payload.end(), e.payload.get());
    e.payload_size = static_cast<std::uint32_t>(payload.size());
    e.stored_at = std::chrono::steady_clock::now();
    if (!inserted) {
        touch_locked(*it);
        return true;
    }
    link_front_locked(*it);
    while (max_entries_ != 0 && map_.size() > max_entries_) {
        const CacheKey victim = lru_tail_->first;
        unlink_locked(*lru_tail_);
        map_.erase(victim);
        ++stats_.evictions;
    }
    return true;
}

bool ResultCache::append_record_locked(const CacheKey& key,
                                       std::string_view payload) {
    std::ofstream os(path_, std::ios::app);
    if (!os) return false;
    os << record_json(key, payload) << '\n';
    os.flush();
    return os.good();
}

bool ResultCache::compact() {
    std::lock_guard<std::mutex> lk(mu_);
    if (path_.empty()) return true;
    const std::string tmp = path_ + ".compact";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) return false;
        // Oldest first, so a reload replays inserts in recency order and
        // the rebuilt LRU matches the live one.
        for (const Slot* s = lru_tail_; s; s = s->second.newer) {
            os << record_json(s->first, payload_of(s->second)) << '\n';
        }
        os.flush();
        if (!os.good()) return false;
    }
    return std::rename(tmp.c_str(), path_.c_str()) == 0;
}

CacheStats ResultCache::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    CacheStats s = stats_;
    s.entries = map_.size();
    return s;
}

void ResultCache::publish(obs::MetricsRegistry& reg) const {
    const CacheStats s = stats();
    auto set_counter = [&reg](const char* name, std::uint64_t v) {
        obs::Counter& c = reg.counter(name);
        const std::uint64_t cur = c.value();
        if (v > cur) c.inc(v - cur);
    };
    set_counter("serve.cache.hits", s.hits);
    set_counter("serve.cache.misses", s.misses);
    set_counter("serve.cache.stores", s.stores);
    set_counter("serve.cache.evictions", s.evictions);
    set_counter("serve.cache.loaded", s.loaded);
    set_counter("serve.cache.load_skipped", s.load_skipped);
    reg.gauge("serve.cache.entries").set(static_cast<double>(s.entries));
    reg.gauge("serve.cache.hit_ratio").set(s.hit_ratio());
    double oldest_s = 0.0;
    {
        const auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto& [key, e] : map_) {
            oldest_s = std::max(
                oldest_s,
                std::chrono::duration<double>(now - e.stored_at).count());
        }
    }
    reg.gauge("serve.cache.oldest_entry_age_seconds").set(oldest_s);
}

}  // namespace gcdr::serve
