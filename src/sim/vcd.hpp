#pragma once
// IEEE 1364 VCD (value change dump) writer for the behavioral simulation:
// attach wires, run, then emit a dump readable by GTKWave & co, or read
// the recorded changes back (edge times, an ASCII timing diagram for the
// benches). The behavioral layer replaces the paper's VHDL simulator;
// this replaces its waveform viewer hookup. The timescale is 1 ps, the
// paper's VHDL resolution.

#include <string>
#include <vector>

#include "sim/wire.hpp"
#include "util/sim_time.hpp"

namespace gcdr::sim {

class VcdWriter {
public:
    /// Attach a wire; transitions from now on are recorded.
    void watch(Wire& w);

    /// Bound the retained history to the newest `n` changes (0 = unbounded,
    /// the default). Evicted changes fold into the per-signal initial
    /// values, so a capped writer still renders a correct waveform for the
    /// window it retains — this is what lets the flight recorder watch a
    /// channel for an entire run without unbounded growth.
    void set_max_changes(std::size_t n);

    /// Render the complete VCD document.
    [[nodiscard]] std::string to_string(
        const std::string& module_name = "gcco_cdr") const;

    /// Render only changes with time_fs in [t0_fs, t1_fs]; changes before
    /// the window fold into the initial values, so signal states entering
    /// the window are correct. Used for flight-recorder failure windows.
    [[nodiscard]] std::string to_string_window(
        std::int64_t t0_fs, std::int64_t t1_fs,
        const std::string& module_name = "gcco_cdr") const;

    /// Write to a file; returns false on I/O failure.
    bool write_file(const std::string& path,
                    const std::string& module_name = "gcco_cdr") const;

    /// write_file restricted to the [t0_fs, t1_fs] window.
    bool write_window(const std::string& path, std::int64_t t0_fs,
                      std::int64_t t1_fs,
                      const std::string& module_name = "gcco_cdr") const;

    /// Retained change times of one watched signal (named as in the
    /// dump: spaces become '_'), in time order, optionally rising edges
    /// only. A watched signal with no changes returns an empty vector; a
    /// name that was never watched throws std::invalid_argument listing
    /// the watched signals.
    [[nodiscard]] std::vector<SimTime> edges_of(const std::string& name,
                                                bool rising_only = false) const;

    /// ASCII timing diagram over [t0, t1] in `columns` time bins, one row
    /// per signal: '_' low, '#' high, '|' a bin with a change — a textual
    /// Fig 8.
    [[nodiscard]] std::string ascii_diagram(SimTime t0, SimTime t1,
                                            std::size_t columns = 100) const;

    [[nodiscard]] std::size_t signal_count() const { return names_.size(); }
    [[nodiscard]] std::size_t change_count() const { return changes_.size(); }

private:
    struct Change {
        std::int64_t time_fs;
        std::size_t signal;
        bool value;
    };

    [[nodiscard]] std::string id_of(std::size_t index) const;
    void record(std::int64_t time_fs, std::size_t signal, bool value);
    /// The i-th retained change in time order: the ring starts at
    /// evict_pos_ (0 while unbounded).
    [[nodiscard]] const Change& change(std::size_t i) const {
        return changes_[(evict_pos_ + i) % changes_.size()];
    }
    /// Header + $dumpvars with `state` as the initial values, then every
    /// change in [t0_fs, t1_fs].
    [[nodiscard]] std::string render(const std::string& module_name,
                                     const std::vector<bool>& state,
                                     std::int64_t t0_fs,
                                     std::int64_t t1_fs) const;

    std::vector<std::string> names_;
    std::vector<bool> initial_;
    std::vector<Change> changes_;
    std::size_t max_changes_ = 0;  ///< 0 = unbounded
    std::size_t evict_pos_ = 0;    ///< ring start when bounded
};

}  // namespace gcdr::sim
