/**
 * @file
 * Batched counterpart of the GateEvaluator seam.
 *
 * The serial seam (nn/gate.hh) evaluates one gate for one sequence per
 * call; the batched seam evaluates one gate for a whole panel of
 * sequences, so implementations can stream each neuron's weight row
 * across the batch instead of re-reading all weights per sequence.
 *
 * Contract mirroring the serial seam: for every active row b the filled
 * pre-activations must be bitwise identical to what the corresponding
 * serial evaluator would produce for sequence b alone. Rows not listed in
 * @p rows (finished sequences) must be left untouched.
 */

#ifndef NLFM_NN_BATCH_EVALUATOR_HH
#define NLFM_NN_BATCH_EVALUATOR_HH

#include <functional>
#include <utility>

#include "nn/gate.hh"

namespace nlfm
{
class ThreadPool;
}

namespace nlfm::nn
{

/**
 * Weight rows per neuron block: the BNN probe panel height of the
 * batched memo engine and the alignment of every neuron-split task
 * boundary. Aligned blocks keep each task's neuron range on the same
 * kernel paths (full probe blocks, one tail block per gate) as the
 * unsplit loop.
 */
constexpr std::size_t kNeuronBlock = 32;

/**
 * Smallest gate, in weights (neurons x (xSize + hSize)), whose neuron
 * loop is split. Set end to end: forwardBatch at batch 1 and 3 on
 * five-layer GRU stacks (161 inputs, 20 steps) on a 4-core host, split
 * against one task. Hidden 128 (32-37 K weights per gate) lost up to
 * half its memoized throughput to the split, hidden 192 (68-74 K) was
 * mixed, hidden 256 (131 K) gained 1.3-1.7x and DeepSpeech2's 800-wide
 * gates (0.77-1.28 M) about 3x. Below the grain the per-call hand-off
 * and reuse-counter reduction outweigh the divided work. IMDB's
 * 128-wide LSTM gates (24.6 K weights) stay single-task.
 */
constexpr std::size_t kNeuronSplitGrain = std::size_t{1} << 17;

class NeuronGang;

/**
 * How one batched gate call divides its neuron loop.
 *
 * A closed batch too small to give every pool thread kMinChunkRows
 * sequences is better served by splitting neurons than sequences, so
 * RnnNetwork::forwardBatch runs it as one chunk on the calling thread
 * under runWithNeuronSplit. Gate calls
 * issued on that thread then split their neurons into kNeuronBlock-
 * aligned ranges, one task each. Per-row results are computed neuron
 * by neuron either way, so outputs do not depend on the split.
 */
struct NeuronSplit
{
    NeuronGang *gang = nullptr;
    std::size_t tasks = 1;

    /**
     * Tasks a gate of @p instance's shape splits into on @p threads:
     * 1 below kNeuronSplitGrain weights, else one per thread, capped at
     * the gate's neuron blocks.
     */
    static std::size_t taskCount(const GateInstance &instance,
                                 std::size_t threads);

    /**
     * Split of @p instance on the calling thread: one task outside
     * runWithNeuronSplit (every pool worker, every serving tick) or
     * below the grain.
     */
    static NeuronSplit forGate(const GateInstance &instance);

    /** Neuron range [first, second) of @p task over @p neurons. */
    std::pair<std::size_t, std::size_t> range(std::size_t task,
                                              std::size_t neurons) const;

    /**
     * Run body(task) for every task and wait for all of them; task 0
     * runs on the caller. A single task runs inline.
     */
    void run(const std::function<void(std::size_t)> &body) const;
};

/**
 * Run @p work on the calling thread with neuron-split gate calls
 * enabled for every gate call it issues on this thread.
 *
 * One ThreadPool::run covers the whole of @p work: the pool's other
 * threads stay in it as a gang that spins between gate calls and picks
 * up each split task as soon as it is posted. A fresh pool dispatch per
 * gate call would wake sleeping workers every time, and on a virtual
 * 4-core host those wake-ups (measured: workers starting 20-330 us
 * after the dispatch) cost more than the split saved. The enabling state is thread-local rather than
 * a seam argument, so it reaches the evaluator through any decorator
 * wrapping the seam, and no gate call on a pool worker ever splits,
 * so ThreadPool::run is never nested.
 */
void runWithNeuronSplit(ThreadPool &pool, const std::function<void()> &work);

/**
 * Recurrent state of one cell for a whole batch, shaped by the cell's
 * descriptor. h is state slot 0, [B x hidden] (row b = sequence slot
 * b); extra[i] is descriptor state slot i+1 (LSTM: extra[0] = cell
 * state c); preact holds one [B x hidden] scratch panel per gate;
 * scratch is the modulated-hidden panel of cells whose candidate gate
 * reads a gated recurrent operand (GRU r.h, BRC a.h). Owned per
 * evaluation chunk, so concurrent chunks never share mutable state.
 */
struct BatchCellState
{
    tensor::Matrix h;
    std::vector<tensor::Matrix> extra;
    std::vector<tensor::Matrix> preact;
    tensor::Matrix scratch;
};

/**
 * Strategy for computing one gate's pre-activations across a panel of
 * sequences.
 *
 * Calls may come from several worker threads concurrently, each covering
 * a disjoint set of sequence slots; implementations keyed by slot (the
 * batched memo engine) index their state with slot_base + local row and
 * must keep per-slot entries disjoint. A call may itself split its
 * neuron loop across a pool (NeuronSplit::forGate); it returns only
 * after every neuron is written.
 */
class BatchGateEvaluator
{
  public:
    virtual ~BatchGateEvaluator() = default;

    /**
     * Reset per-batch state for @p total_sequences slots; called once by
     * RnnNetwork::forwardBatch before any panel work starts.
     */
    virtual void beginBatch(std::size_t total_sequences)
    {
        (void)total_sequences;
    }

    /**
     * Fill preact(b, n) for every row b in @p rows and neuron n.
     *
     * @param x         [B x xSize] forward-input panel
     * @param h         [B x hSize] recurrent-input panel
     * @param rows      active rows (ascending, within this chunk's panel)
     * @param slot_base global sequence index of panel row 0
     * @param preact    [B x neurons] output panel
     */
    virtual void evaluateGateBatch(const GateInstance &instance,
                                   const GateParams &params,
                                   const tensor::Matrix &x,
                                   const tensor::Matrix &h,
                                   std::span<const std::size_t> rows,
                                   std::size_t slot_base,
                                   tensor::Matrix &preact) = 0;
};

/**
 * Baseline batched evaluator: exact full-precision panel products,
 * bitwise identical per row to DirectEvaluator.
 */
class DirectBatchEvaluator : public BatchGateEvaluator
{
  public:
    void evaluateGateBatch(const GateInstance &instance,
                           const GateParams &params, const tensor::Matrix &x,
                           const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override;
};

} // namespace nlfm::nn

#endif // NLFM_NN_BATCH_EVALUATOR_HH
