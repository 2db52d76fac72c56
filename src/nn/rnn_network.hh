/**
 * @file
 * Deep RNN: a stack of (optionally bidirectional) recurrent layers with a
 * network-wide enumeration of gate instances and flat neuron indices.
 */

#ifndef NLFM_NN_RNN_NETWORK_HH
#define NLFM_NN_RNN_NETWORK_HH

#include <span>
#include <vector>

#include "nn/rnn_layer.hh"

namespace nlfm
{
class ThreadPool;
}

namespace nlfm::nn
{

/**
 * Fewest rows per sequence chunk RnnNetwork::forwardBatch accepts
 * before it switches to one chunk with neuron-split gate calls. Sequence
 * chunks each stream every weight, a neuron split streams each weight
 * once; on DeepSpeech2 (5x800 GRU, 4-core host) the split ran 1.3-2x
 * faster at 1-2 rows per chunk (batches 4-8), broke even at 3 (batch
 * 12) and lost by about 1.4x at 4 (batch 16).
 */
constexpr std::size_t kMinChunkRows = 3;

/**
 * Scheduling knobs of the batched forward path.
 *
 * The batch is split into chunks of consecutive sequences; each chunk
 * runs the whole stack with panel kernels and the chunks are
 * distributed over the thread pool (see RnnNetwork::forwardBatch for
 * the partition rule). Per-row results do not depend on where the chunk
 * boundaries fall, so outputs and statistics are reproducible for any
 * chunk size and pool size.
 */
struct BatchForwardOptions
{
    /** Pool to schedule chunks on; null means ThreadPool::global(). */
    ThreadPool *pool = nullptr;
    /**
     * Upper bound on sequences per chunk; the effective chunk is
     * min(chunkSize, ceil(batch / threads)), so every thread gets rows
     * whenever the batch has at least one per thread. Weight reads
     * amortize across a chunk. Chunks of fewer than 64 rows share cache
     * lines of the batch memo table's 1-byte valid_ column across
     * workers; that false sharing is benign for correctness and, on the
     * DeepSpeech2 batch of 16, costs far less than the three idle cores
     * a single 64-row chunk would leave (perfbench batch-ds2 on a
     * 4-core host: 3.2x the memoized and 3.5x the exact sequences/s of
     * one 16-row chunk).
     */
    std::size_t chunkSize = 64;
    /**
     * Schedule chunks on the thread pool; false runs every chunk on
     * the calling thread (debugging / baselines), with identical
     * results either way.
     */
    bool threaded = true;
};

/**
 * Stacked deep RNN (paper §2.1.1).
 *
 * Construction enumerates every gate in the network into a flat
 * GateInstance table; instanceId indexes that table and
 * neuronBase + n gives every neuron a global index. Both are the keys
 * used by the memoization engine and the accelerator model.
 */
class RnnNetwork
{
  public:
    explicit RnnNetwork(const RnnConfig &config);

    RnnNetwork(const RnnNetwork &) = delete;
    RnnNetwork &operator=(const RnnNetwork &) = delete;

    const RnnConfig &config() const { return config_; }

    std::size_t layerCount() const { return layers_.size(); }
    RnnLayer &layer(std::size_t index);
    const RnnLayer &layer(std::size_t index) const;

    /** All gate instances, indexed by GateInstance::instanceId. */
    const std::vector<GateInstance> &gateInstances() const
    {
        return instances_;
    }

    /** Parameters of the gate identified by @p instance_id. */
    const GateParams &gateParams(std::size_t instance_id) const;
    GateParams &gateParams(std::size_t instance_id);

    /** Total number of neurons across all gate instances. */
    std::size_t totalNeurons() const { return totalNeurons_; }

    /**
     * Run a full sequence through the stack. Returns the top layer's
     * per-timestep outputs (width config().outputSize()).
     *
     * Calls eval.beginSequence() first, so a memoizing evaluator starts
     * from a cold table for each sequence.
     */
    Sequence forward(const Sequence &inputs, GateEvaluator &eval);

    /** Convenience: forward with the exact full-precision evaluator. */
    Sequence forwardBaseline(const Sequence &inputs);

    /**
     * Run many sequences through the stack with panel kernels, using
     * every pool thread.
     *
     * Partition rule: sequence chunks of min(options.chunkSize,
     * ceil(batch / threads)) rows, one pool task each, when that is at
     * least kMinChunkRows rows. Otherwise, if any gate has at least
     * kNeuronSplitGrain weights, chunks of up to options.chunkSize rows
     * run on the caller and their gate calls split the neuron loop
     * across the pool (NeuronSplit); small networks keep the sequence
     * chunks.
     *
     * Calls eval.beginBatch(inputs.size()) once, then evaluates every
     * chunk through the batched seam. Output i is bitwise identical to
     * forward(inputs[i], serial counterpart of eval) for every chunk
     * size, worker count, and batch composition.
     */
    std::vector<Sequence> forwardBatch(
        std::span<const Sequence> inputs, BatchGateEvaluator &eval,
        const BatchForwardOptions &options = {});

    /** Convenience: batched forward with the exact evaluator. */
    std::vector<Sequence> forwardBatchBaseline(
        std::span<const Sequence> inputs,
        const BatchForwardOptions &options = {});

  private:
    RnnConfig config_;
    std::vector<RnnLayer> layers_;
    std::vector<GateInstance> instances_;
    // instanceId -> (layer, direction, gate) for parameter lookup.
    struct ParamRef { std::size_t layer, direction, gate; };
    std::vector<ParamRef> paramRefs_;
    std::size_t totalNeurons_ = 0;
};

} // namespace nlfm::nn

#endif // NLFM_NN_RNN_NETWORK_HH
