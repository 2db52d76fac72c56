#include "memo/reuse_stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nlfm::memo
{

ReuseStats::ReuseStats(std::size_t gate_count)
    : gateTotal_(gate_count, 0), gateReused_(gate_count, 0)
{
}

void
ReuseStats::record(std::size_t gate_instance, std::uint64_t reused,
                   std::uint64_t total)
{
    nlfm_assert(gate_instance < gateTotal_.size(),
                "gate instance out of range");
    nlfm_assert(reused <= total, "reused more neurons than exist");
    total_ += total;
    reused_ += reused;
    gateTotal_[gate_instance] += total;
    gateReused_[gate_instance] += reused;
}

double
ReuseStats::reuseFraction() const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(reused_) / static_cast<double>(total_);
}

double
ReuseStats::gateReuseFraction(std::size_t gate_instance) const
{
    nlfm_assert(gate_instance < gateTotal_.size(),
                "gate instance out of range");
    if (gateTotal_[gate_instance] == 0)
        return 0.0;
    return static_cast<double>(gateReused_[gate_instance]) /
           static_cast<double>(gateTotal_[gate_instance]);
}

std::uint64_t
ReuseStats::gateSlots(std::size_t gate_instance) const
{
    nlfm_assert(gate_instance < gateTotal_.size(),
                "gate instance out of range");
    return gateTotal_[gate_instance];
}

std::uint64_t
ReuseStats::gateReused(std::size_t gate_instance) const
{
    nlfm_assert(gate_instance < gateReused_.size(),
                "gate instance out of range");
    return gateReused_[gate_instance];
}

void
ReuseStats::reset()
{
    total_ = 0;
    reused_ = 0;
    std::fill(gateTotal_.begin(), gateTotal_.end(), 0);
    std::fill(gateReused_.begin(), gateReused_.end(), 0);
}

std::vector<double>
layerReuseFractions(const ReuseStats &stats,
                    std::span<const nn::GateInstance> instances)
{
    std::size_t layers = 0;
    for (const auto &inst : instances)
        layers = std::max(layers, inst.layer + 1);

    std::vector<double> reused(layers, 0.0);
    std::vector<double> total(layers, 0.0);
    for (const auto &inst : instances) {
        const double fraction =
            stats.gateReuseFraction(inst.instanceId);
        const auto slots = static_cast<double>(inst.neurons);
        reused[inst.layer] += fraction * slots;
        total[inst.layer] += slots;
    }
    std::vector<double> out(layers, 0.0);
    for (std::size_t l = 0; l < layers; ++l)
        out[l] = total[l] > 0 ? reused[l] / total[l] : 0.0;
    return out;
}

std::size_t
SequenceTrace::steps() const
{
    std::size_t best = 0;
    for (const auto &gate : gates)
        best = std::max(best, gate.misses.size());
    return best;
}

} // namespace nlfm::memo
