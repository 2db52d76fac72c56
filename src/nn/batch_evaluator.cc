#include "nn/batch_evaluator.hh"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace nlfm::nn
{

namespace
{

/** Spin-wait step: a pause hint, and a yield every 64 spins so an
 *  oversubscribed host still schedules the thread being waited for. */
void
spinOnce(std::uint32_t spins)
{
    if (spins % 64 == 0) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace

/**
 * The threads runWithNeuronSplit holds: member 0 is the calling thread,
 * members 1..threads-1 are pool threads that spin on their own go word
 * and run task `member` of each split they are signalled for.
 */
class NeuronGang
{
  public:
    explicit NeuronGang(std::size_t threads) : members_(threads) {}

    NeuronGang(const NeuronGang &) = delete;
    NeuronGang &operator=(const NeuronGang &) = delete;

    std::size_t threads() const { return members_.size(); }

    /** Caller side: task 0 inline, tasks 1..tasks-1 on members. */
    void run(std::size_t tasks,
             const std::function<void(std::size_t)> &body)
    {
        body_ = &body;
        pending_.store(tasks - 1, std::memory_order_relaxed);
        ++epoch_;
        for (std::size_t member = 1; member < tasks; ++member)
            members_[member].go.store(epoch_, std::memory_order_release);
        // Wait for the members even if body(0) throws: they run body
        // through body_.
        struct Join
        {
            const std::atomic<std::size_t> &pending;
            ~Join()
            {
                for (std::uint32_t spins = 1;
                     pending.load(std::memory_order_acquire) != 0; ++spins)
                    spinOnce(spins);
            }
        } join{pending_};
        body(0);
    }

    /** Member side: run signalled tasks until stop(). */
    void serve(std::size_t member)
    {
        const std::atomic<std::uint64_t> &go = members_[member].go;
        std::uint64_t seen = 0;
        while (true) {
            std::uint64_t epoch = go.load(std::memory_order_acquire);
            for (std::uint32_t spins = 1; epoch == seen; ++spins) {
                if (stopped_.load(std::memory_order_acquire))
                    return;
                spinOnce(spins);
                epoch = go.load(std::memory_order_acquire);
            }
            seen = epoch;
            (*body_)(member);
            pending_.fetch_sub(1, std::memory_order_release);
        }
    }

    /** Release the members; only after the last run() returned. */
    void stop() { stopped_.store(true, std::memory_order_release); }

  private:
    struct alignas(64) Member
    {
        std::atomic<std::uint64_t> go{0};
    };

    std::vector<Member> members_;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::uint64_t epoch_ = 0;
    alignas(64) std::atomic<std::size_t> pending_{0};
    std::atomic<bool> stopped_{false};
};

namespace
{

/** Gang of the runWithNeuronSplit active on this thread, if any. */
thread_local NeuronGang *activeGang = nullptr;

} // namespace

std::size_t
NeuronSplit::taskCount(const GateInstance &instance, std::size_t threads)
{
    const std::size_t weights =
        instance.neurons * (instance.xSize + instance.hSize);
    if (weights < kNeuronSplitGrain)
        return 1;
    const std::size_t blocks =
        (instance.neurons + kNeuronBlock - 1) / kNeuronBlock;
    return std::max<std::size_t>(1, std::min(threads, blocks));
}

NeuronSplit
NeuronSplit::forGate(const GateInstance &instance)
{
    NeuronSplit split;
    if (activeGang != nullptr) {
        split.tasks = taskCount(instance, activeGang->threads());
        if (split.tasks > 1)
            split.gang = activeGang;
    }
    return split;
}

std::pair<std::size_t, std::size_t>
NeuronSplit::range(std::size_t task, std::size_t neurons) const
{
    // Whole blocks dealt contiguously: only the last task can end on a
    // partial block, and that is the gate's own tail.
    const std::size_t blocks = (neurons + kNeuronBlock - 1) / kNeuronBlock;
    const std::size_t first = task * blocks / tasks * kNeuronBlock;
    const std::size_t last = (task + 1) * blocks / tasks * kNeuronBlock;
    return {std::min(first, neurons), std::min(last, neurons)};
}

void
NeuronSplit::run(const std::function<void(std::size_t)> &body) const
{
    if (tasks == 1)
        body(0);
    else
        gang->run(tasks, body);
}

void
runWithNeuronSplit(ThreadPool &pool, const std::function<void()> &work)
{
    NeuronGang gang(pool.threadCount());
    // One task per pool thread; the pool runs task 0 on this thread.
    pool.run(gang.threads(), [&](std::size_t member, std::size_t end) {
        nlfm_assert(end == member + 1, "neuron gang: one member per task");
        if (member != 0) {
            gang.serve(member);
            return;
        }
        // Release the members however work() leaves, so the pool's
        // barrier can complete.
        struct Active
        {
            NeuronGang &gang;
            NeuronGang *previous = activeGang;
            ~Active()
            {
                activeGang = previous;
                gang.stop();
            }
        } active{gang};
        activeGang = &gang;
        work();
    });
}

void
DirectBatchEvaluator::evaluateGateBatch(const GateInstance &instance,
                                        const GateParams &params,
                                        const tensor::Matrix &x,
                                        const tensor::Matrix &h,
                                        std::span<const std::size_t> rows,
                                        std::size_t slot_base,
                                        tensor::Matrix &preact)
{
    (void)slot_base;
    nlfm_assert(preact.cols() == instance.neurons,
                "preact panel width mismatch for gate instance ",
                instance.instanceId);
    // Two panel passes per neuron range: preact = Wx * x_b, then
    // += Wh * h_b. Per row this is the same float(dot + dot) the serial
    // DirectEvaluator computes, whatever the split.
    const NeuronSplit split = NeuronSplit::forGate(instance);
    split.run([&](std::size_t task) {
        const auto [begin, end] = split.range(task, instance.neurons);
        params.wx.matvecPanel(x, rows, preact, false, begin, end);
        params.wh.matvecPanel(h, rows, preact, true, begin, end);
    });
}

} // namespace nlfm::nn
