#include "sim/batch/channel_batch.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

#include "cdr/lane_step.hpp"
#include "gates/cml_equations.hpp"
#include "sim/batch/lane_rng.hpp"
#include "sim/batch/line_vector.hpp"
#include "util/simd.hpp"

namespace gcdr::sim::batch {

namespace {

constexpr std::int64_t kNoHorizon = std::numeric_limits<std::int64_t>::max();

/// Pending transport transactions of one wire — sim::Wire's deque with a
/// consumed-prefix index instead of node allocation. The scheduler seq of
/// the commit event doubles as the transaction id: it is unique, and a
/// cancelled transaction's commit simply finds a different seq (or an
/// empty queue) at the front, exactly like Wire's id check. The posted
/// value is packed into seq's low bit to keep the struct at 16 bytes
/// (the queues sit on the hottest loads of the kernel).
struct Pend {
    std::int64_t time;
    std::uint64_t seq_val;  ///< (seq << 1) | value

    [[nodiscard]] std::uint64_t seq() const { return seq_val >> 1; }
    [[nodiscard]] bool value() const { return (seq_val & 1) != 0; }
};

struct PendQ {
    LineVector<Pend> buf;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == buf.size(); }
    [[nodiscard]] const Pend& front() const { return buf[head]; }
    [[nodiscard]] const Pend& back() const { return buf.back(); }
    void pop_front() {
        ++head;
        if (head == buf.size()) clear();
    }
    void pop_back() {
        buf.pop_back();
        if (head == buf.size()) clear();
    }
    void push_back(const Pend& p) { buf.push_back(p); }
    void clear() {
        buf.clear();
        head = 0;
    }
};

/// A scheduled wire-commit event. (time, seq) replicate the scheduler's
/// total order; seq also identifies the transaction (no-op commit when
/// the front pending entry carries a different seq), exactly like
/// Wire::commit's id check. The wire index lives in seq's low 16 bits so
/// the struct stays at 16 bytes; ordering on the packed field equals
/// ordering on seq because seqs are unique.
struct CommitEv {
    std::int64_t time;
    std::uint64_t seq_wire;  ///< (seq << 16) | wire

    [[nodiscard]] std::uint64_t seq() const { return seq_wire >> 16; }
    [[nodiscard]] std::uint32_t wire() const {
        return static_cast<std::uint32_t>(seq_wire & 0xFFFFu);
    }
};

/// Executes-earlier order: (time, seq) ascending.
inline bool runs_before(const CommitEv& a, const CommitEv& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_wire < b.seq_wire;
}

/// Shared (lane-invariant) compile of the channel topology: delays in
/// integer femtoseconds, jitter sigmas, and the flat wire numbering.
///
/// Wire layout (C = delay-line cells):
///   0         din
///   1..C      delay-line nodes (C = line out)
///   C+1       edet          C+2  ddin
///   C+3..C+6  vinv1..vinv4
///   C+7       ckout         C+8  q
struct KernelConfig {
    explicit KernelConfig(const cdr::ChannelConfig& cfg) : rate(cfg.rate) {
        n_cells = static_cast<std::uint32_t>(cfg.edge_detector.n_cells);
        cell_fs = cfg.edge_detector.cell_delay.femtoseconds();
        cell_jitter = cfg.edge_detector.cell_jitter_rel;
        xor_fs = cfg.edge_detector.xor_delay.femtoseconds();
        xor_jitter = cfg.edge_detector.xor_jitter_rel;
        SimTime dummy = cfg.edge_detector.dummy_delay;
        if (dummy < SimTime{0}) dummy = cfg.edge_detector.xor_delay;
        dummy_fs = dummy.femtoseconds();
        // Control current is fixed for the batch channel, so the nominal
        // stage delay 1/(8f) hoists out of the per-event path.
        stage_d0 = 1.0 / (8.0 * cfg.gcco.frequency_at(cfg.control_current_a));
        gcco_sigma = cfg.gcco.jitter_sigma;
        // CmlSampler posts q with jittered_delay(clk_to_q) at jitter 0:
        // the nominal delay clamped to >= 1 fs, no draw.
        sampler_fs = std::max<std::int64_t>(
            cfg.sampler_delay.femtoseconds(), 1);
        improved = cfg.improved_sampling;

        line_out = n_cells;
        edet = n_cells + 1;
        ddin = n_cells + 2;
        v1 = n_cells + 3;
        v2 = n_cells + 4;
        v3 = n_cells + 5;
        v4 = n_cells + 6;
        ckout = n_cells + 7;
        q = n_cells + 8;
        n_wires = n_cells + 9;
        // CommitEv packs the wire index into 16 bits (delay lines are a
        // handful of cells; this leaves 48 bits of seq, ~2.8e14 events).
        assert(n_wires < 0x10000u);
    }

    LinkRate rate;
    std::uint32_t n_cells;
    std::int64_t cell_fs;
    double cell_jitter;
    std::int64_t xor_fs;
    double xor_jitter;
    std::int64_t dummy_fs;
    double stage_d0;  ///< nominal GCCO stage delay 1/(8f), seconds
    double gcco_sigma;
    std::int64_t sampler_fs;
    bool improved;
    std::uint32_t line_out, edet, ddin, v1, v2, v3, v4, ckout, q, n_wires;
};

/// Dispatch codes, one per wire role (precomputed in Lane::init so the
/// listener dispatch is a jump table instead of a comparison ladder).
enum : std::uint8_t {
    kActNone = 0,
    kActDin,
    kActInner,
    kActLineOut,
    kActEdet,
    kActDdin,
    kActV1,
    kActV2,
    kActV3,
    kActV4,
    kActCkout,
    kActQ,  // no listeners; only its transitions are tallied
};

/// Instruments of one lane, mirroring GccoChannel::attach_metrics. The
/// kernel tallies into plain integers and publishes them at the end of
/// each run, so the hot loop never touches an atomic counter.
struct LaneMetrics {
    obs::Counter* decisions = nullptr;
    obs::Counter* edet_pulses = nullptr;
    obs::Counter* gatings = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* din = nullptr;
    obs::Counter* q = nullptr;
    obs::Histogram* period_ps = nullptr;
    std::int64_t last_ckout_rise = -1;
    std::size_t decisions_seen = 0;  ///< decisions already published
};

/// One lane's flat event kernel. Event kinds and their sequence numbers
/// replicate the scalar construction order: the GCCO startup kick is the
/// first event scheduled (seq 0, time 0), GccoChannel::drive() then
/// allocates one seq per input edge (1..E), and every wire commit takes
/// the next seq at post time. The next event is the (time, seq) minimum
/// across {kick, edge cursor, commit heap}.
///
/// A lane runs on whichever pool thread picked it up, so everything it
/// writes per event — the struct itself, val, pend, evq — is kept on
/// cache lines of its own (alignas + LineVector).
struct alignas(kCacheLine) Lane {
    const KernelConfig* kc = nullptr;
    NormalBank* nb = nullptr;
    std::size_t lane = 0;
    double stage_d0 = 0.0;  ///< this lane's nominal GCCO stage delay, s

    LineVector<std::uint8_t> val;
    std::vector<std::uint8_t> action;  ///< dispatch code per wire
    LineVector<PendQ> pend;
    LineVector<CommitEv> evq;

    // Cached NormalBank window, valid only inside run_to (see draw()).
    const double* rn = nullptr;
    std::size_t rn_head = 0;
    std::size_t rn_end = 0;

    std::vector<jitter::Edge> edges;
    std::size_t edge_cursor = 0;
    bool kicked = false;
    bool started = false;
    std::uint64_t seq_next = 0;

    std::int64_t now = 0;
    std::int64_t horizon = kNoHorizon;
    std::uint64_t executed = 0;

    std::vector<cdr::Decision> decisions;
    std::vector<double> margins;
    std::uint64_t ones = 0;
    std::int64_t last_clk_rise = -1;
    obs::health::LaneHealthMonitor* health = nullptr;

    // Transitions since the last metrics publish.
    std::uint64_t din_transitions = 0;
    std::uint64_t edet_falls = 0;
    std::uint64_t edet_rises = 0;
    std::uint64_t q_transitions = 0;
    std::unique_ptr<LaneMetrics> metrics;

    void init(const KernelConfig& k, NormalBank& bank, std::size_t idx) {
        kc = &k;
        nb = &bank;
        lane = idx;
        stage_d0 = k.stage_d0;
        val.assign(k.n_wires, 0);
        // Initial wire values of the scalar netlist: EDET idles high
        // (XNOR of equal inputs), the ring starts in the frozen pattern
        // (0,1,0,1); everything else follows din = low.
        val[k.edet] = 1;
        val[k.v2] = 1;
        val[k.v4] = 1;
        pend.assign(k.n_wires, PendQ{});
        for (PendQ& pq : pend) pq.buf.reserve(16);
        evq.reserve(32);
        action.assign(k.n_wires, kActNone);
        action[0] = kActDin;
        for (std::uint32_t w = 1; w < k.line_out; ++w) action[w] = kActInner;
        action[k.line_out] = kActLineOut;
        action[k.edet] = kActEdet;
        action[k.ddin] = kActDdin;
        action[k.v1] = kActV1;
        action[k.v2] = kActV2;
        action[k.v3] = kActV3;
        action[k.v4] = kActV4;
        action[k.ckout] = kActCkout;
        action[k.q] = kActQ;
    }

    /// Pop a normal from the cached bank window; the slow path syncs the
    /// head, lets the bank refill, and re-caches.
    [[nodiscard]] double draw() {
        if (rn_head < rn_end) return rn[rn_head++];
        return draw_slow();
    }

    [[nodiscard]] double draw_slow() {
        nb->set_head(lane, rn_head);
        const double v = nb->next(lane);
        rn = nb->data(lane);
        rn_head = nb->head(lane);
        rn_end = nb->size(lane);
        return v;
    }

    /// Schedule v on wire w at absolute time `when`. The current event
    /// time is threaded through as a parameter (rather than read from a
    /// member) so the compiler can keep it in a register across the
    /// vector stores below, which would otherwise force reloads.
    void post(std::uint32_t w, std::int64_t when, bool v) {
        PendQ& q = pend[w];
        // Transport rule + dedup, verbatim from Wire::post_transport: a
        // dropped post consumes neither a transaction id nor an event seq.
        while (!q.empty() && q.back().time >= when) q.pop_back();
        if (q.empty() ? (v == static_cast<bool>(val[w]))
                      : (q.back().value() == v)) {
            return;
        }
        const std::uint64_t seq = seq_next++;
        q.push_back(Pend{when, (seq << 1) | (v ? 1u : 0u)});
        const CommitEv ev{when, (seq << 16) | w};
        std::size_t i = evq.size();
        while (i > 0 && runs_before(evq[i - 1], ev)) --i;
        evq.insert(evq.begin() + static_cast<std::ptrdiff_t>(i), ev);
    }

    void apply(std::uint32_t w, bool v, std::int64_t t) {
        if (static_cast<bool>(val[w]) == v) return;
        val[w] = v ? 1 : 0;
        dispatch(w, t);
    }

    // --- gate evaluations (listener bodies of the scalar netlist) ---

    void eval_cell(std::uint32_t i, std::int64_t t) {  // cell i: i -> i+1
        const double z = kc->cell_jitter > 0.0 ? draw() : 0.0;
        post(i + 1,
             t + gates::eq::cml_delay_fs(kc->cell_fs, kc->cell_jitter, z),
             gates::eq::buffer_value(val[i], false));
    }

    void eval_xnor(std::int64_t t) {  // EDET = XNOR(din, line out)
        const bool v = gates::eq::xor_value(val[0], val[kc->line_out], true);
        const double z = kc->xor_jitter > 0.0 ? draw() : 0.0;
        post(kc->edet,
             t + gates::eq::cml_delay_fs(kc->xor_fs, kc->xor_jitter, z), v);
    }

    void eval_dummy(std::int64_t t) {  // DDIN = line out via dummy gate
        const double z = kc->xor_jitter > 0.0 ? draw() : 0.0;
        post(kc->ddin,
             t + gates::eq::cml_delay_fs(kc->dummy_fs, kc->xor_jitter, z),
             gates::eq::buffer_value(val[kc->line_out], false));
    }

    [[nodiscard]] std::int64_t stage_delay_fs() {
        const double z = kc->gcco_sigma > 0.0 ? draw() : 0.0;
        return cdr::lane_step::gcco_stage_delay_fs(stage_d0, kc->gcco_sigma,
                                                   z);
    }

    void eval_stage1(std::int64_t t) {
        const bool v =
            cdr::lane_step::gcco_gate_value(val[kc->v4], val[kc->edet]);
        post(kc->v1, t + stage_delay_fs(), v);
    }

    void eval_inv(std::uint32_t j, std::int64_t t) {  // vinv_j, j in 2..4
        const bool v =
            cdr::lane_step::gcco_inverter_value(val[kc->v1 + j - 2]);
        post(kc->v1 + j - 1, t + stage_delay_fs(), v);
    }

    void eval_ckout(std::int64_t t) {
        post(kc->ckout, t + 1, !val[kc->v4]);
    }

    /// GatedRingOscillator's period_ps listener: ckout rise-to-rise.
    void record_period(std::int64_t t) {
        LaneMetrics& m = *metrics;
        if (m.last_ckout_rise >= 0) {
            m.period_ps->record(
                (SimTime{t} - SimTime{m.last_ckout_rise}).picoseconds());
        }
        m.last_ckout_rise = t;
    }

    /// Publish the tallies gathered since the last publish.
    void publish_metrics() {
        if (!metrics) return;
        LaneMetrics& m = *metrics;
        m.decisions->inc(decisions.size() - m.decisions_seen);
        m.decisions_seen = decisions.size();
        m.edet_pulses->inc(edet_falls);
        m.gatings->inc(edet_falls);
        m.restarts->inc(edet_rises);
        m.din->inc(din_transitions);
        m.q->inc(q_transitions);
        din_transitions = edet_falls = edet_rises = q_transitions = 0;
    }

    void on_clk_change(std::uint32_t w, std::int64_t t) {
        if (!val[w]) return;  // sampler + eye fold act on rises only
        // CmlSampler::on_clk: latch DDIN, post q (no jitter draw), record
        // the decision...
        const bool bit = val[kc->ddin];
        post(kc->q, t + kc->sampler_fs, bit);
        decisions.push_back(cdr::Decision{SimTime{t}, bit});
        ones += bit ? 1u : 0u;
        // ...then the channel's eye-fold listener notes the clock rise.
        last_clk_rise = t;
    }

    void on_ddin(std::int64_t t) {
        if (last_clk_rise < 0) return;  // clock not started yet
        const double margin = cdr::lane_step::fold_margin_ui(
            kc->rate, SimTime{t}, SimTime{last_clk_rise}, kc->improved);
        margins.push_back(margin);
        if (health) health->on_margin(t, margin);
    }

    /// Listener dispatch for wire `w`; each case runs that wire's scalar
    /// listeners in registration order.
    void dispatch(std::uint32_t w, std::int64_t t) {
        const KernelConfig& k = *kc;
        switch (action[w]) {
            case kActDin:  // din: [delay-line cell 0, XNOR input a]
                ++din_transitions;
                eval_cell(0, t);
                eval_xnor(t);
                break;
            case kActInner:  // inner node: feeds the next cell
                eval_cell(w, t);
                break;
            case kActLineOut:  // line out: [XNOR input b, dummy]
                eval_xnor(t);
                eval_dummy(t);
                break;
            case kActEdet:  // GCCO gating input
                ++(val[w] ? edet_rises : edet_falls);
                eval_stage1(t);
                break;
            case kActDdin:  // margin measurement
                on_ddin(t);
                break;
            case kActV1:
                eval_inv(2, t);
                break;
            case kActV2:
                eval_inv(3, t);
                break;
            case kActV3:  // [inverter 3] + sampler in improved mode
                eval_inv(4, t);
                if (k.improved) on_clk_change(w, t);
                break;
            case kActV4:  // [gating stage, ckout complement]
                eval_stage1(t);
                eval_ckout(t);
                break;
            case kActCkout:
                if (!k.improved) on_clk_change(w, t);
                if (metrics && val[w]) record_period(t);
                break;
            case kActQ:
                ++q_transitions;
                break;
            default:
                break;
        }
    }

    /// Drain every event with time <= t_end, in scheduler (time, seq)
    /// order, including no-op commits of cancelled transactions. The seq
    /// discipline collapses to a static priority at equal times — kick
    /// (seq 0) < drive edges (seqs 1..E, cursor order) < commits (seqs
    /// allocated from 1+E at post time) — so the loop drains the commit
    /// heap up to each edge instead of re-deriving a three-way minimum
    /// per event.
    void run_to(std::int64_t t_end) {
        // Cache the lane's normals window for the duration of the slice.
        rn = nb->data(lane);
        rn_head = nb->head(lane);
        rn_end = nb->size(lane);
        run_to_inner(t_end);
        nb->set_head(lane, rn_head);
    }

    void run_to_inner(std::int64_t t_end) {
        if (!started) {
            started = true;
            seq_next = 1 + edges.size();
        }
        if (!kicked) {  // GCCO startup kick at (time 0, seq 0)
            if (t_end < 0) return;
            kicked = true;
            now = 0;
            ++executed;
            eval_stage1(0);
        }
        const std::size_t n_edges = edges.size();
        std::uint64_t ran = 0;
        std::int64_t t_now = now;
        for (;;) {
            const std::int64_t edge_t =
                edge_cursor < n_edges
                    ? edges[edge_cursor].time.femtoseconds()
                    : kNoHorizon;
            // Commits strictly before the next edge (same-time commits
            // carry larger seqs and run after it).
            const std::int64_t cap = std::min(t_end, edge_t - 1);
            while (!evq.empty() && evq.back().time <= cap) {
                const CommitEv ev = evq.back();
                evq.pop_back();
                t_now = ev.time;
                ++ran;
                PendQ& pq = pend[ev.wire()];
                if (!pq.empty() && pq.front().seq() == ev.seq()) {
                    const bool v = pq.front().value();
                    pq.pop_front();
                    apply(ev.wire(), v, t_now);
                }
            }
            if (edge_t > t_end) break;
            t_now = edge_t;
            ++ran;
            const bool v = edges[edge_cursor++].value;
            pend[0].clear();  // input drive: din set_now semantics
            apply(0, v, t_now);
        }
        now = t_now;
        executed += ran;
    }
};

}  // namespace

struct ChannelBatch::Impl {
    Impl(const cdr::ChannelConfig& c, std::size_t n)
        : cfg(c), kc(c), bank(n), lanes(n) {
        for (std::size_t l = 0; l < n; ++l) lanes[l].init(kc, bank, l);
    }

    cdr::ChannelConfig cfg;
    KernelConfig kc;
    NormalBank bank;
    std::vector<Lane> lanes;
    std::uint64_t steps = 0;
    double run_seconds = 0.0;

    /// Slice length. A lane refills its normals once per slice, so long
    /// slices amortize the refill call and keep each lane's streams
    /// (edges in, decisions out, normals in) running sequentially; 1024
    /// UI keeps the refilled window (kSliceDraws doubles) cache-resident.
    static constexpr std::int64_t kSliceUi = 1024;
    /// Normals one slice can draw: ring + delay line together draw ~10
    /// per UI, so 12 per UI covers a slice and underflow (the bank's
    /// chunked refill) stays rare.
    static constexpr std::size_t kDrawsPerUi = 12;
    static constexpr std::size_t kSliceDraws = kDrawsPerUi * kSliceUi;

    /// Refill size for a span of `span_fs`: what the span can draw, so a
    /// short MC clone generates a few hundred normals, not a full slice.
    [[nodiscard]] static std::size_t draws_for(std::int64_t span_fs,
                                               std::int64_t ui_fs) {
        if (span_fs < 0) return 0;
        const auto ui = static_cast<std::size_t>(span_fs / ui_fs) + 1;
        return std::min(kSliceDraws, kDrawsPerUi * ui);
    }

    void run_to_targets(const std::vector<std::int64_t>& targets,
                        exec::ThreadPool* pool) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::int64_t ui_fs = kc.rate.ui_time().femtoseconds();
        const std::int64_t slice_fs = kSliceUi * ui_fs;
        std::int64_t begin = kNoHorizon;
        std::int64_t end = 0;
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            begin = std::min(begin, lanes[l].now);
            end = std::max(end, targets[l]);
        }
        // Every lane walks the same slice grid, anchored at the earliest
        // lane time; a lane stops at its own target.
        auto work = [&](std::size_t l) {
            Lane& ln = lanes[l];
            for (std::int64_t lo = begin;; lo += slice_fs) {
                const std::int64_t cap = std::min(lo + slice_fs, targets[l]);
                bank.refill(l, draws_for(cap - std::max(lo, ln.now), ui_fs));
                ln.run_to(cap);
                if (cap >= targets[l]) break;
            }
            ln.publish_metrics();
        };
        if (pool != nullptr) {
            // Always dispatch through the pool when one is given, even
            // at size 1: parallel_for's serial path runs the same
            // per-lane code and the same .jobs/.items accounting, so
            // pool counters depend only on the workload, never on the
            // thread count — required by the CI identical-counters
            // diffs across --threads values.
            pool->parallel_for(lanes.size(), work);
        } else {
            for (std::size_t l = 0; l < lanes.size(); ++l) work(l);
        }
        // Slices of the grid up to the latest target (at least one).
        steps += end - begin > slice_fs
                     ? static_cast<std::uint64_t>(
                           (end - begin + slice_fs - 1) / slice_fs)
                     : 1;
        run_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    }
};

ChannelBatch::ChannelBatch(const cdr::ChannelConfig& cfg, std::size_t lanes)
    : impl_(std::make_unique<Impl>(cfg, lanes)) {
    assert(lanes >= 1);
}

ChannelBatch::~ChannelBatch() = default;

std::size_t ChannelBatch::lanes() const { return impl_->lanes.size(); }

void ChannelBatch::seed_lane(std::size_t lane, std::uint64_t seed) {
    impl_->bank.seed_lane(lane, seed);
}

void ChannelBatch::seed_lane(std::size_t lane, const Xoshiro256& gen) {
    impl_->bank.seed_lane(lane, gen);
}

void ChannelBatch::set_lane_frequency(std::size_t lane, double f_hz) {
    assert(f_hz > 0.0);
    // The arithmetic of GatedRingOscillator::stage_delay_sample.
    impl_->lanes[lane].stage_d0 = 1.0 / (8.0 * f_hz);
}

void ChannelBatch::drive(std::size_t lane,
                         const std::vector<jitter::Edge>& edges) {
    Lane& ln = impl_->lanes[lane];
    assert(!ln.started && "drive() must precede the first run");
    ln.edges.insert(ln.edges.end(), edges.begin(), edges.end());
    // Clock rises land about once per UI and DDIN toggles once per input
    // edge; reserving up front keeps reallocation out of the event loop.
    ln.decisions.reserve(ln.edges.size() * 2 + 64);
    ln.margins.reserve(ln.edges.size() + 64);
}

void ChannelBatch::set_horizon(std::size_t lane, SimTime t_end) {
    impl_->lanes[lane].horizon = t_end.femtoseconds();
}

void ChannelBatch::run_until(SimTime t_end, exec::ThreadPool* pool) {
    std::vector<std::int64_t> targets(impl_->lanes.size(),
                                      t_end.femtoseconds());
    impl_->run_to_targets(targets, pool);
}

void ChannelBatch::attach_health(obs::health::HealthHub& hub) {
    hub.configure(impl_->lanes.size(), cdr::health_config_for(impl_->cfg));
    for (std::size_t l = 0; l < impl_->lanes.size(); ++l) {
        impl_->lanes[l].health = &hub.lane(l);
    }
}

void ChannelBatch::attach_metrics(std::size_t lane,
                                  obs::MetricsRegistry& registry,
                                  const std::string& prefix) {
    Lane& ln = impl_->lanes[lane];
    auto m = std::make_unique<LaneMetrics>();
    m->decisions = &registry.counter(prefix + ".decisions");
    m->edet_pulses = &registry.counter(prefix + ".edet.pulses");
    m->gatings = &registry.counter(prefix + ".gcco.gatings");
    m->restarts = &registry.counter(prefix + ".gcco.restarts");
    m->period_ps = &registry.histogram(prefix + ".gcco.period_ps");
    m->din = &registry.counter(prefix + ".din.transitions");
    m->q = &registry.counter(prefix + ".q.transitions");
    // Transitions count from attach on; decisions count from the start
    // (GccoChannel::attach_metrics back-fills its decision counter).
    ln.din_transitions = ln.edet_falls = ln.edet_rises = ln.q_transitions = 0;
    ln.metrics = std::move(m);
    ln.publish_metrics();
}

void ChannelBatch::run_all(exec::ThreadPool* pool) {
    std::vector<std::int64_t> targets(impl_->lanes.size());
    for (std::size_t l = 0; l < targets.size(); ++l) {
        targets[l] = impl_->lanes[l].horizon;
        assert(targets[l] != kNoHorizon &&
               "run_all() requires set_horizon on every lane");
    }
    impl_->run_to_targets(targets, pool);
}

const std::vector<cdr::Decision>& ChannelBatch::decisions(
    std::size_t lane) const {
    return impl_->lanes[lane].decisions;
}

const std::vector<double>& ChannelBatch::margins_ui(std::size_t lane) const {
    return impl_->lanes[lane].margins;
}

std::uint64_t ChannelBatch::ones(std::size_t lane) const {
    return impl_->lanes[lane].ones;
}

std::uint64_t ChannelBatch::events_executed(std::size_t lane) const {
    return impl_->lanes[lane].executed;
}

std::uint64_t ChannelBatch::events_executed() const {
    std::uint64_t total = 0;
    for (const Lane& l : impl_->lanes) total += l.executed;
    return total;
}

std::uint64_t ChannelBatch::batch_steps() const { return impl_->steps; }

double ChannelBatch::run_seconds() const { return impl_->run_seconds; }

std::size_t ChannelBatch::simd_width() {
    return gcdr::simd::width_doubles();
}

void ChannelBatch::publish_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
    registry.gauge(prefix + ".lanes")
        .set(static_cast<double>(impl_->lanes.size()));
    registry.gauge(prefix + ".simd_width")
        .set(static_cast<double>(simd_width()));
    registry.gauge(prefix + ".steps_per_s")
        .set(impl_->run_seconds > 0.0
                 ? static_cast<double>(impl_->steps) / impl_->run_seconds
                 : 0.0);
    registry.counter(prefix + ".events").inc(events_executed());
    registry.counter(prefix + ".steps").inc(impl_->steps);
}

}  // namespace gcdr::sim::batch
