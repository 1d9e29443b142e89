#pragma once
// Batched structure-of-arrays execution of N homogeneous GCCO CDR lanes.
//
// The generic event kernel (sim/Scheduler + Wire + gates/) spends most of
// each event on dispatch machinery: calendar-queue bookkeeping, listener
// indirection through InlineCallback, telemetry branches, string-named
// wires. A multi-channel receiver — or a Monte-Carlo engine running
// thousands of clones of one channel — simulates N *identical* netlists
// that differ only in seed, GCCO frequency and input edges, so all of
// that generality is paid N times for nothing.
//
// ChannelBatch replaces it with a flat per-lane micro-kernel:
//
//  - lane state is plain arrays (wire values, per-wire pending transport
//    rings, a small (time, seq) commit heap, edge cursor) — no listeners,
//    no allocation in steady state — and each lane's hot state sits on
//    cache lines no other lane writes;
//  - gate/oscillator update equations are the SAME header-only functions
//    the event path uses (gates/cml_equations.hpp, cdr/lane_step.hpp);
//  - jitter normals come from a NormalBank: per-lane xoshiro256++ streams
//    refilled ahead of each slice, by the thread running the lane;
//  - run_until()/run_all() hand each lane to one pool item, which walks
//    the lane through kSliceUi-wide slices on its own — refill, run,
//    repeat — with no barrier between slices (lanes are independent, so
//    results are bit-identical for any thread count).
//
// Correctness contract (enforced by tests/test_batch.cpp): for any seed,
// lane k of a batched run produces the same decision stream, margins and
// executed-event count as a scalar cdr::GccoChannel driven with the same
// config, seed and edges — the kernel replicates VHDL transport-delay
// wire semantics, (time, insertion-seq) event order and the draw-when-
// jitter-enabled RNG discipline exactly, including no-op commits of
// cancelled transport transactions.
//
// The event kernel is still the right tool when a run needs causal
// tracing / flight recording, or when the netlist under study is not the
// fixed GCCO channel topology; see DESIGN.md "Batched SoA execution".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdr/channel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace gcdr::sim::batch {

class ChannelBatch {
public:
    /// All lanes share `cfg` (homogeneous channels); per-lane variation
    /// enters through seed_lane(), set_lane_frequency() and drive().
    ChannelBatch(const cdr::ChannelConfig& cfg, std::size_t lanes);
    ~ChannelBatch();

    ChannelBatch(const ChannelBatch&) = delete;
    ChannelBatch& operator=(const ChannelBatch&) = delete;

    [[nodiscard]] std::size_t lanes() const;

    /// Seed lane `k`'s jitter stream; equivalent to handing the scalar
    /// channel `Rng(seed)`.
    void seed_lane(std::size_t lane, std::uint64_t seed);
    /// Seed lane `k` from a generator state; equivalent to handing the
    /// scalar channel `Rng(gen)`.
    void seed_lane(std::size_t lane, const Xoshiro256& gen);

    /// Run lane `k`'s GCCO at `f_hz` instead of the shared config's
    /// gcco.frequency_at(control_current_a) — a receiver's per-channel
    /// CCO mismatch. Equivalent to a scalar channel whose GccoParams
    /// oscillate at `f_hz` at its control current.
    void set_lane_frequency(std::size_t lane, double f_hz);

    /// Schedule an edge stream onto lane `k`'s input (times ascending).
    /// All drives must precede the first run — event sequence numbers are
    /// frozen when the kernel starts, exactly as GccoChannel::drive()
    /// allocates them before any event executes.
    void drive(std::size_t lane, const std::vector<jitter::Edge>& edges);

    /// Per-lane end time used by run_all() (default: unbounded).
    void set_horizon(std::size_t lane, SimTime t_end);

    /// Advance every lane to `t_end`. With a pool, each lane is one pool
    /// item that runs all of its slices; bit-identical for any pool size
    /// and for any split of [0, t_end] into successive calls.
    void run_until(SimTime t_end, exec::ThreadPool* pool = nullptr);

    /// Advance every lane to its own horizon (set_horizon).
    void run_all(exec::ThreadPool* pool = nullptr);

    [[nodiscard]] const std::vector<cdr::Decision>& decisions(
        std::size_t lane) const;
    [[nodiscard]] const std::vector<double>& margins_ui(
        std::size_t lane) const;
    /// Count of 1-decisions on the lane (the margin model's ground truth).
    [[nodiscard]] std::uint64_t ones(std::size_t lane) const;

    /// Events executed, including no-op commits of cancelled transport
    /// transactions — comparable 1:1 with Scheduler::executed_events().
    [[nodiscard]] std::uint64_t events_executed(std::size_t lane) const;
    [[nodiscard]] std::uint64_t events_executed() const;

    /// kSliceUi-wide slices run so far: per call, the slices of the grid
    /// that starts at the earliest lane time and covers the latest
    /// target, whichever lanes actually had work in them.
    [[nodiscard]] std::uint64_t batch_steps() const;
    /// Wall seconds spent inside run_until()/run_all().
    [[nodiscard]] double run_seconds() const;

    /// Attach an in-situ health hub (obs/health): (re)configures `hub`
    /// with one monitor per lane — UI / sampling center from the shared
    /// channel config — and feeds each monitor its lane's margin stream,
    /// identical to what GccoChannel::attach_health feeds the scalar
    /// path (the batch-vs-scalar health-identity test relies on this).
    /// Pure observation: decisions, margins and event counts are
    /// unchanged, and each monitor is only touched by the thread running
    /// its lane, so snapshots are thread-count invariant. Call before
    /// running; `hub` must outlive the batch.
    void attach_health(obs::health::HealthHub& hub);

    /// Per-lane telemetry under the names GccoChannel::attach_metrics
    /// registers, with the same values:
    ///   <prefix>.decisions                 counter (all decisions)
    ///   <prefix>.edet.pulses / .gcco.gatings   EDET falls after attach
    ///   <prefix>.gcco.restarts             EDET rises after attach
    ///   <prefix>.gcco.period_ps            histogram, ckout rise spacing
    ///   <prefix>.din.transitions / .q.transitions
    /// Counters are published at the end of each run_until()/run_all(),
    /// by the thread that ran the lane; the histogram records live.
    /// `registry` must outlive the batch.
    void attach_metrics(std::size_t lane, obs::MetricsRegistry& registry,
                        const std::string& prefix);

    /// Doubles per SIMD register in this build (1 = scalar fallback).
    [[nodiscard]] static std::size_t simd_width();

    /// Publish batched-path runtime metrics under `prefix`:
    ///   <prefix>.lanes / .simd_width          gauges
    ///   <prefix>.steps_per_s                  gauge (slices / wall)
    ///   <prefix>.events / .steps              counters
    void publish_metrics(obs::MetricsRegistry& registry,
                         const std::string& prefix) const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace gcdr::sim::batch
