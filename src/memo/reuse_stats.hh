/**
 * @file
 * Reuse accounting for the fuzzy memoization engine.
 *
 * ReuseStats aggregates how many neuron evaluations were avoided (the
 * paper's "computation reuse" percentage). ReuseTrace keeps the per-gate,
 * per-timestep miss counts that the E-PUR timing/energy models consume
 * (a hit costs the 5-cycle FMU probe; a miss additionally streams the
 * neuron's weights through the DPU).
 */

#ifndef NLFM_MEMO_REUSE_STATS_HH
#define NLFM_MEMO_REUSE_STATS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "nn/gate.hh"

namespace nlfm::memo
{

/** Aggregate reuse counters (whole workload). */
class ReuseStats
{
  public:
    ReuseStats() = default;

    /** @param gate_count number of gate instances in the network. */
    explicit ReuseStats(std::size_t gate_count);

    /** Record @p reused hits out of @p total neuron slots of one gate. */
    void record(std::size_t gate_instance, std::uint64_t reused,
                std::uint64_t total);

    /** Fraction of neuron evaluations avoided overall. */
    double reuseFraction() const;

    /** Fraction avoided within one gate instance. */
    double gateReuseFraction(std::size_t gate_instance) const;

    std::uint64_t totalSlots() const { return total_; }
    std::uint64_t totalReused() const { return reused_; }

    /** Neuron slots and hits recorded for one gate instance. */
    std::uint64_t gateSlots(std::size_t gate_instance) const;
    std::uint64_t gateReused(std::size_t gate_instance) const;

    void reset();

  private:
    std::uint64_t total_ = 0;
    std::uint64_t reused_ = 0;
    std::vector<std::uint64_t> gateTotal_;
    std::vector<std::uint64_t> gateReused_;
};

/**
 * Reuse fraction per stack layer (averaged over the layer's gates,
 * weighted by slots). The paper's DeepSpeech discussion (§5) hinges on
 * how reuse-injected error propagates through deep stacks; this view
 * shows where the reuse actually happens.
 */
std::vector<double>
layerReuseFractions(const ReuseStats &stats,
                    std::span<const nn::GateInstance> instances);

/** Per-step miss counts of one gate instance over one sequence. */
struct GateStepTrace
{
    /** misses[s] = neurons fully evaluated at processing step s. */
    std::vector<std::uint32_t> misses;
};

/**
 * Trace of one input sequence: per gate instance, the per-step miss
 * counts (hits = neurons - misses). Step indices follow each cell's
 * processing order, so backward cells of bidirectional layers count
 * their own reversed traversal.
 */
struct SequenceTrace
{
    std::vector<GateStepTrace> gates;

    /** Number of processing steps recorded (0 when empty). */
    std::size_t steps() const;
};

} // namespace nlfm::memo

#endif // NLFM_MEMO_REUSE_STATS_HH
