#include "cdr/elastic_buffer.hpp"

#include <cassert>

namespace gcdr::cdr {

ElasticBuffer::ElasticBuffer(std::size_t depth)
    : depth_(depth), ring_(depth) {
    assert(depth >= 4);
    // Prime to half depth so both clock domains have slack from the start.
    // Priming bits are NOT skippable: they must drain exactly once, or a
    // consumer that empties the buffer would read duplicated filler.
    size_ = depth_ / 2;
}

void ElasticBuffer::write(bool bit, bool skippable) {
    if (size_ >= depth_) {
        ++overflows_;
        if (m_overflows_) m_overflows_->inc();
        if (fault_hook_) fault_hook_("elastic_overflow");
        recenter();
        if (size_ >= depth_) return;  // recentering found no slack
    }
    ring_[slot(size_)] = Entry{bit, skippable};
    ++size_;
    note_occupancy();
    if (size_ > (3 * depth_) / 4) recenter();
}

std::optional<bool> ElasticBuffer::read() {
    if (size_ == 0) {
        ++underflows_;
        if (m_underflows_) m_underflows_->inc();
        if (fault_hook_) fault_hook_("elastic_underflow");
        return std::nullopt;
    }
    const Entry e = ring_[head_];
    if (size_ - 1 < depth_ / 4 && e.skippable) {
        // Repeat the skippable bit to refill toward the midpoint: it stays
        // in its slot and is read again next time.
        ++inserted_;
        if (m_inserted_) m_inserted_->inc();
    } else {
        head_ = slot(1);
        --size_;
    }
    note_occupancy();
    return e.bit;
}

void ElasticBuffer::recenter() {
    // Drop the oldest skippable entry to pull occupancy toward midpoint;
    // the entries ahead of it move one slot back to close the gap.
    for (std::size_t k = 0; k < size_; ++k) {
        if (ring_[slot(k)].skippable) {
            for (std::size_t j = k; j > 0; --j) {
                ring_[slot(j)] = ring_[slot(j - 1)];
            }
            head_ = slot(1);
            --size_;
            ++dropped_;
            if (m_dropped_) m_dropped_->inc();
            return;
        }
    }
}

void ElasticBuffer::note_occupancy() {
    if (!m_occ_high_) return;
    const double occ = static_cast<double>(size_);
    m_occ_high_->set_max(occ);
    m_occ_low_->set_min(occ);
}

void ElasticBuffer::attach_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) {
    m_overflows_ = &registry.counter(prefix + ".overflows");
    m_underflows_ = &registry.counter(prefix + ".underflows");
    m_dropped_ = &registry.counter(prefix + ".skips_dropped");
    m_inserted_ = &registry.counter(prefix + ".skips_inserted");
    m_occ_high_ = &registry.gauge(prefix + ".occupancy_high_water");
    m_occ_low_ = &registry.gauge(prefix + ".occupancy_low_water");
    note_occupancy();
}

}  // namespace gcdr::cdr
