#include "scenario/compile.hpp"

namespace gcdr::scenario {

CompiledNetlist compile_netlist(const NetlistSpec& net) {
    CompiledNetlist out;
    out.config.n_channels = static_cast<int>(net.channels.size());
    if (!net.channels.empty()) {
        const ChannelSpec& t = net.channels.front();
        out.config.channel =
            cdr::ChannelConfig::nominal(t.f_osc_hz, t.ckj_uirms);
        out.config.channel.improved_sampling = t.improved_sampling;
    }

    for (const ChannelSpec& c : net.channels) {
        CompiledLane lane;
        lane.channel = c.name;
        // The loader guarantees exactly one wire into <c>.din and at most
        // one monitor on <c>.dout.
        for (const WireSpec& w : net.wires) {
            if (w.to == c.name + ".din") {
                lane.source = endpoint_instance(w.from);
                lane.skew_ps = w.skew_ps;
            }
            if (w.from == c.name + ".dout") {
                lane.monitor = endpoint_instance(w.to);
            }
        }
        for (const SourceSpec& s : net.sources) {
            if (s.name == lane.source) {
                lane.bits = s.bits;
                lane.prbs = s.prbs;
                lane.start_ns = s.start_ns;
                lane.pattern = s.pattern;
                lane.repeat = s.repeat;
                lane.rate_offset = s.rate_offset;
            }
        }
        out.lanes.push_back(std::move(lane));
    }
    return out;
}

exec::SweepGrid compile_grid(const TaskSpec& task) {
    return exec::SweepGrid(task.axes);
}

statmodel::ModelConfig compile_point_model(
    const statmodel::ModelConfig& base,
    const std::vector<exec::SweepAxis>& axes, const exec::SweepPoint& p) {
    statmodel::ModelConfig cfg = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        // Axis names were validated at load time; apply cannot fail.
        (void)apply_model_field(cfg, axes[a].name, p.value[a]);
    }
    return cfg;
}

mc::McBudget compile_budget(const McSpec& mc, std::uint64_t base_seed) {
    mc::McBudget budget;
    budget.target_rel_err = mc.target_rel_err;
    budget.max_evals = mc.max_evals;
    budget.confidence = mc.confidence;
    budget.base_seed = base_seed;
    return budget;
}

}  // namespace gcdr::scenario
