#include "util/sim_time.hpp"

#include <cmath>
#include <cstdio>

#include "util/fast_round.hpp"

namespace gcdr {

SimTime SimTime::from_seconds(double s) {
    const double fs = s * 1e15;
    // llround_i64 equals std::llround below 2^62 without its libm call;
    // larger and non-finite values keep libm's behaviour.
    if (std::abs(fs) < 0x1p62) return SimTime{util::llround_i64(fs)};
    return SimTime{static_cast<std::int64_t>(std::llround(fs))};
}

std::string SimTime::to_string() const {
    const double abs_fs = std::abs(static_cast<double>(fs_));
    char buf[48];
    if (abs_fs >= 1e9) {
        std::snprintf(buf, sizeof buf, "%.6gus", static_cast<double>(fs_) * 1e-9);
    } else if (abs_fs >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.6gns", static_cast<double>(fs_) * 1e-6);
    } else if (abs_fs >= 1e3) {
        std::snprintf(buf, sizeof buf, "%.6gps", static_cast<double>(fs_) * 1e-3);
    } else {
        std::snprintf(buf, sizeof buf, "%lldfs", static_cast<long long>(fs_));
    }
    return buf;
}

}  // namespace gcdr
