/**
 * @file
 * Determinism of the batched evaluation path under every partition
 * forwardBatch picks: sequence chunks running concurrently on the pool,
 * one chunk whose gate calls split their neurons across the pool, and
 * the unthreaded fallback. For every batch size and worker count,
 * outputs and per-gate reuse counts must equal those of the serial
 * per-sequence forward() path, an independent oracle, for the exact
 * evaluator and for the memoized ones (BNN predictor with fixed-point
 * and with double deltas, Oracle predictor).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "nn/init.hh"
#include "nn/rnn_network.hh"

namespace nlfm
{
namespace
{

/** With more than one worker, batches 1-3 (and 13 on 7 workers) run as
 *  a neuron split; 13 on 2 or 4 workers and 70 on any run several
 *  sequence chunks at once. */
constexpr std::size_t kBatches[] = {1, 2, 3, 13, 70};
constexpr std::size_t kWorkers[] = {1, 2, 4, 7};

/** Every gate holds exactly kNeuronSplitGrain weights, so every gate
 *  call of a small batch splits. */
nn::RnnConfig
wideConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 256;
    config.hiddenSize = 256;
    config.layers = 1;
    config.bidirectional = true;
    config.peepholes = true;
    return config;
}

/** Sequences of 1-6 slowly drifting frames, so the memo engines reuse. */
std::vector<nn::Sequence>
makeSequences(std::size_t batch, std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        sequences[b].assign(1 + (b * 5) % 6, std::vector<float>(width));
        rng.fillNormal(sequences[b][0], 0.0, 1.0);
        for (std::size_t t = 1; t < sequences[b].size(); ++t) {
            rng.fillNormal(sequences[b][t], 0.0, 0.05);
            for (std::size_t i = 0; i < width; ++i)
                sequences[b][t][i] += sequences[b][t - 1][i];
        }
    }
    return sequences;
}

enum class Kind { Direct, BnnFixedPoint, BnnDouble, Oracle };

memo::MemoOptions
memoOptions(Kind kind)
{
    memo::MemoOptions options;
    options.predictor = kind == Kind::Oracle ? memo::PredictorKind::Oracle
                                             : memo::PredictorKind::Bnn;
    options.fixedPoint = kind != Kind::BnnDouble;
    options.theta = kind == Kind::Oracle ? 0.05 : 0.3;
    return options;
}

/** Per-sequence results of the serial path. */
struct SerialResult
{
    nn::Sequence output;
    std::vector<std::uint64_t> gateReused;
    std::vector<std::uint64_t> gateSlots;
};

class BatchDeterminismTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        network_ = std::make_unique<nn::RnnNetwork>(wideConfig());
        Rng rng(19);
        nn::initNetwork(*network_, rng);
        bnn_ = std::make_unique<nn::BinarizedNetwork>(*network_);
        inputs_ = makeSequences(70, wideConfig().inputSize, 91);
    }

    static void TearDownTestSuite()
    {
        bnn_.reset();
        network_.reset();
        inputs_.clear();
    }

    /** The serial forward() of every sequence, on its own. */
    static std::vector<SerialResult> serialReference(Kind kind)
    {
        const std::size_t gates = network_->gateInstances().size();
        std::vector<SerialResult> results(inputs_.size());
        nn::DirectEvaluator direct;
        memo::MemoEngine engine(*network_, bnn_.get(), memoOptions(kind));
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            SerialResult &result = results[i];
            if (kind == Kind::Direct) {
                result.output = network_->forward(inputs_[i], direct);
                continue;
            }
            engine.resetStats();
            result.output = network_->forward(inputs_[i], engine);
            for (std::size_t g = 0; g < gates; ++g) {
                result.gateReused.push_back(engine.stats().gateReused(g));
                result.gateSlots.push_back(engine.stats().gateSlots(g));
            }
        }
        return results;
    }

    /** forwardBatch on the first @p batch sequences must reproduce the
     *  serial results, outputs and per-gate counts alike. */
    static void expectMatchesSerial(Kind kind,
                                    const std::vector<SerialResult> &serial,
                                    std::size_t batch,
                                    const nn::BatchForwardOptions &options,
                                    const std::string &where)
    {
        const std::span<const nn::Sequence> inputs(inputs_.data(), batch);
        nn::DirectBatchEvaluator direct;
        memo::BatchMemoEngine engine(*network_, bnn_.get(),
                                     memoOptions(kind));
        nn::BatchGateEvaluator &eval =
            kind == Kind::Direct
                ? static_cast<nn::BatchGateEvaluator &>(direct)
                : engine;
        const auto outputs = network_->forwardBatch(inputs, eval, options);

        ASSERT_EQ(outputs.size(), batch) << where;
        for (std::size_t b = 0; b < batch; ++b) {
            ASSERT_EQ(outputs[b].size(), serial[b].output.size())
                << where << " sequence " << b;
            for (std::size_t t = 0; t < outputs[b].size(); ++t)
                for (std::size_t i = 0; i < outputs[b][t].size(); ++i)
                    ASSERT_EQ(outputs[b][t][i], serial[b].output[t][i])
                        << where << " sequence " << b << " step " << t
                        << " element " << i;
        }
        if (kind == Kind::Direct)
            return;
        const memo::ReuseStats stats = engine.stats();
        for (std::size_t g = 0; g < network_->gateInstances().size(); ++g) {
            std::uint64_t reused = 0;
            std::uint64_t slots = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                reused += serial[b].gateReused[g];
                slots += serial[b].gateSlots[g];
            }
            EXPECT_EQ(stats.gateReused(g), reused) << where << " gate " << g;
            EXPECT_EQ(stats.gateSlots(g), slots) << where << " gate " << g;
        }
    }

    static void checkKind(Kind kind)
    {
        const auto serial = serialReference(kind);
        if (kind != Kind::Direct) {
            std::uint64_t reused = 0;
            for (const SerialResult &result : serial)
                for (const std::uint64_t r : result.gateReused)
                    reused += r;
            ASSERT_GT(reused, 0u) << "the reuse counts would be vacuous";
        }
        for (const std::size_t workers : kWorkers) {
            ThreadPool pool(workers);
            nn::BatchForwardOptions options;
            options.pool = &pool;
            for (const std::size_t batch : kBatches)
                expectMatchesSerial(kind, serial, batch, options,
                                    "batch " + std::to_string(batch) +
                                        " on " + std::to_string(workers) +
                                        " workers");
        }
        nn::BatchForwardOptions unthreaded;
        unthreaded.threaded = false;
        for (const std::size_t batch : kBatches)
            expectMatchesSerial(kind, serial, batch, unthreaded,
                                "batch " + std::to_string(batch) +
                                    " unthreaded");
    }

    static std::unique_ptr<nn::RnnNetwork> network_;
    static std::unique_ptr<nn::BinarizedNetwork> bnn_;
    static std::vector<nn::Sequence> inputs_;
};

std::unique_ptr<nn::RnnNetwork> BatchDeterminismTest::network_;
std::unique_ptr<nn::BinarizedNetwork> BatchDeterminismTest::bnn_;
std::vector<nn::Sequence> BatchDeterminismTest::inputs_;

TEST_F(BatchDeterminismTest, DirectMatchesSerialForward)
{
    checkKind(Kind::Direct);
}

TEST_F(BatchDeterminismTest, BnnFixedPointMatchesSerialForward)
{
    checkKind(Kind::BnnFixedPoint);
}

TEST_F(BatchDeterminismTest, BnnDoubleDeltaMatchesSerialForward)
{
    checkKind(Kind::BnnDouble);
}

TEST_F(BatchDeterminismTest, OracleMatchesSerialForward)
{
    checkKind(Kind::Oracle);
}

/**
 * Records, per gate call, whether the call could split its neurons and
 * which thread issued it; forwards to the exact evaluator.
 */
class PartitionProbe : public nn::BatchGateEvaluator
{
  public:
    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            threads_.insert(std::this_thread::get_id());
            if (nn::NeuronSplit::forGate(instance).tasks > 1)
                ++splitCalls_;
            ++calls_;
        }
        inner_.evaluateGateBatch(instance, params, x, h, rows, slot_base,
                                 preact);
    }

    std::size_t threads() const { return threads_.size(); }
    std::size_t splitCalls() const { return splitCalls_; }
    std::size_t calls() const { return calls_; }

  private:
    nn::DirectBatchEvaluator inner_;
    std::mutex mutex_;
    std::set<std::thread::id> threads_;
    std::size_t splitCalls_ = 0;
    std::size_t calls_ = 0;
};

TEST(NeuronSplitTest, RangesAreBlockAlignedAndCoverTheGate)
{
    for (const std::size_t neurons : {1u, 31u, 32u, 100u, 256u, 800u}) {
        for (std::size_t tasks = 1; tasks <= 7; ++tasks) {
            nn::NeuronSplit split;
            split.tasks = tasks;
            std::size_t next = 0;
            for (std::size_t task = 0; task < tasks; ++task) {
                const auto [begin, end] = split.range(task, neurons);
                EXPECT_EQ(begin, next) << neurons << "/" << tasks;
                EXPECT_EQ(begin % nn::kNeuronBlock, 0u);
                EXPECT_TRUE(end % nn::kNeuronBlock == 0 || end == neurons);
                next = std::max(next, end);
            }
            EXPECT_EQ(next, neurons) << neurons << "/" << tasks;
        }
    }
}

// The cases above only mean something if the partitions they name are
// the ones that run: several chunks on distinct threads at once, or one
// thread whose every gate call splits.
TEST_F(BatchDeterminismTest, PartitionsUseThePool)
{
    for (const nn::GateInstance &gate : network_->gateInstances())
        ASSERT_GT(nn::NeuronSplit::taskCount(gate, 4), 1u);

    ThreadPool pool(4);
    nn::BatchForwardOptions options;
    options.pool = &pool;
    const std::map<std::size_t, bool> splits = {
        {1, true}, {2, true}, {3, true}, {13, false}, {70, false}};
    for (const auto &[batch, split] : splits) {
        PartitionProbe probe;
        network_->forwardBatch(
            std::span<const nn::Sequence>(inputs_.data(), batch), probe,
            options);
        if (split) {
            EXPECT_EQ(probe.threads(), 1u) << "batch " << batch;
            EXPECT_EQ(probe.splitCalls(), probe.calls()) << "batch " << batch;
        } else {
            EXPECT_GE(probe.threads(), 2u) << "batch " << batch;
            EXPECT_EQ(probe.splitCalls(), 0u) << "batch " << batch;
        }
    }

    // Gate calls on a thread outside forwardBatch never split.
    EXPECT_EQ(nn::NeuronSplit::forGate(network_->gateInstances()[0]).tasks,
              1u);
}

} // namespace
} // namespace nlfm
