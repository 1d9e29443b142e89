#include "sim/vcd.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace gcdr::sim {

namespace {

// VCD timescale: 1 ps, the paper's VHDL resolution.
constexpr std::int64_t kTimescaleFs = 1000;

}  // namespace

void VcdWriter::watch(Wire& w) {
    const std::size_t idx = names_.size();
    // VCD identifiers must not contain whitespace; replace just in case.
    std::string name = w.name();
    for (char& c : name) {
        if (c == ' ') c = '_';
    }
    names_.push_back(name);
    initial_.push_back(w.value());
    w.on_change([this, idx, &w] {
        record(w.scheduler().now().femtoseconds(), idx, w.value());
    });
}

void VcdWriter::record(std::int64_t time_fs, std::size_t signal, bool value) {
    if (max_changes_ == 0 || changes_.size() < max_changes_) {
        changes_.push_back(Change{time_fs, signal, value});
        return;
    }
    // Ring is full: the oldest change becomes part of the pre-window
    // state, and its slot takes the new change.
    Change& oldest = changes_[evict_pos_];
    initial_[oldest.signal] = oldest.value;
    oldest = Change{time_fs, signal, value};
    evict_pos_ = (evict_pos_ + 1) % max_changes_;
}

void VcdWriter::set_max_changes(std::size_t n) {
    // Linearize the ring, fold anything beyond the new cap into the
    // initial values, and restart the ring at slot 0.
    std::vector<Change> ordered;
    ordered.reserve(changes_.size());
    for (std::size_t i = 0; i < changes_.size(); ++i) {
        ordered.push_back(change(i));
    }
    if (n != 0 && ordered.size() > n) {
        const std::size_t drop = ordered.size() - n;
        for (std::size_t i = 0; i < drop; ++i) {
            initial_[ordered[i].signal] = ordered[i].value;
        }
        ordered.erase(ordered.begin(),
                      ordered.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    changes_ = std::move(ordered);
    max_changes_ = n;
    evict_pos_ = 0;
}

std::string VcdWriter::id_of(std::size_t index) const {
    // Printable-ASCII identifier code, base 94 starting at '!'.
    std::string id;
    do {
        id.push_back(static_cast<char>('!' + index % 94));
        index /= 94;
    } while (index != 0);
    return id;
}

std::string VcdWriter::render(const std::string& module_name,
                              const std::vector<bool>& state_in,
                              std::int64_t t0_fs, std::int64_t t1_fs) const {
    // Fold everything before the window into the starting state and keep
    // the in-window changes in recorded (ring) order, which is time order.
    std::vector<bool> state = state_in;
    std::vector<Change> window;
    for (std::size_t i = 0; i < changes_.size(); ++i) {
        const Change& c = change(i);
        if (c.time_fs < t0_fs) {
            state[c.signal] = c.value;
        } else if (c.time_fs <= t1_fs) {
            window.push_back(c);
        }
    }

    std::ostringstream os;
    os << "$comment gcco-cdr behavioral simulation $end\n";
    os << "$timescale 1 ps $end\n";
    os << "$scope module " << module_name << " $end\n";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        os << "$var wire 1 " << id_of(i) << ' ' << names_[i] << " $end\n";
    }
    os << "$upscope $end\n$enddefinitions $end\n";
    os << "$dumpvars\n";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        os << (state[i] ? '1' : '0') << id_of(i) << '\n';
    }
    os << "$end\n";
    std::int64_t last_time = std::numeric_limits<std::int64_t>::min();
    for (const auto& c : window) {
        const std::int64_t t = c.time_fs / kTimescaleFs;
        if (t != last_time) {
            os << '#' << t << '\n';
            last_time = t;
        }
        os << (c.value ? '1' : '0') << id_of(c.signal) << '\n';
    }
    return os.str();
}

std::string VcdWriter::to_string(const std::string& module_name) const {
    return render(module_name, initial_,
                  std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
}

std::string VcdWriter::to_string_window(std::int64_t t0_fs, std::int64_t t1_fs,
                                        const std::string& module_name) const {
    return render(module_name, initial_, t0_fs, t1_fs);
}

bool VcdWriter::write_file(const std::string& path,
                           const std::string& module_name) const {
    std::ofstream f(path);
    if (!f) return false;
    f << to_string(module_name);
    return static_cast<bool>(f);
}

bool VcdWriter::write_window(const std::string& path, std::int64_t t0_fs,
                             std::int64_t t1_fs,
                             const std::string& module_name) const {
    std::ofstream f(path);
    if (!f) return false;
    f << to_string_window(t0_fs, t1_fs, module_name);
    return static_cast<bool>(f);
}

std::vector<SimTime> VcdWriter::edges_of(const std::string& name,
                                         bool rising_only) const {
    // An unknown name must not look like a watched signal that never
    // toggled: a typo would "pass" with zero edges.
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end()) {
        std::string msg = "VcdWriter::edges_of: signal '" + name +
                          "' is not watched; watched signals:";
        for (const auto& n : names_) msg += " '" + n + "'";
        throw std::invalid_argument(msg);
    }
    const auto signal = static_cast<std::size_t>(it - names_.begin());
    std::vector<SimTime> out;
    for (std::size_t i = 0; i < changes_.size(); ++i) {
        const Change& c = change(i);
        if (c.signal == signal && (!rising_only || c.value)) {
            out.push_back(SimTime::fs(c.time_fs));
        }
    }
    return out;
}

std::string VcdWriter::ascii_diagram(SimTime t0, SimTime t1,
                                     std::size_t columns) const {
    // One row per signal: the label padded to the longest one plus a
    // space, then the bins, so every row's time axis starts in the same
    // column.
    std::size_t label_width = 0;
    for (const auto& n : names_) label_width = std::max(label_width, n.size());
    std::string out;
    out.reserve(names_.size() * (label_width + 1 + columns + 1));
    const double span = static_cast<double>((t1 - t0).femtoseconds());
    for (std::size_t s = 0; s < names_.size(); ++s) {
        // Reconstruct the level in each time bin from the change list.
        bool level = initial_[s];
        std::size_t ci = 0;
        std::string row(columns, ' ');
        for (std::size_t col = 0; col < columns; ++col) {
            const SimTime bin_end =
                t0 + SimTime{static_cast<std::int64_t>(
                         span * static_cast<double>(col + 1) /
                         static_cast<double>(columns))};
            bool toggled = false;
            while (ci < changes_.size() &&
                   change(ci).time_fs <= bin_end.femtoseconds()) {
                if (change(ci).signal == s) {
                    level = change(ci).value;
                    toggled = true;
                }
                ++ci;
            }
            row[col] = toggled ? '|' : (level ? '#' : '_');
        }
        out += names_[s];
        out.append(label_width + 1 - names_[s].size(), ' ');
        out += row;
        out += '\n';
    }
    return out;
}

}  // namespace gcdr::sim
