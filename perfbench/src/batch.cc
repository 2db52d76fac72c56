/// @file
/// Closed-batch workloads (batch-ds2, batch-imdb): one
/// RnnNetwork::forwardBatch over a fixed batch, memoized at a frozen
/// theta and exact, alternating until the run's time is spent.

#include <atomic>

#include "bench.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "memo/memo_batch.hh"

namespace perfbench
{

using namespace nlfm;

namespace
{

/// One closed-batch workload.
struct BatchWorkload
{
    const char *name;
    const char *network;
    std::size_t batch;
    std::size_t steps;
    double theta;
    /// Sequences checked against a batch-of-one run.
    std::size_t checkSequences;
};

constexpr BatchWorkload kBatchWorkloads[] = {
    {"batch-ds2", "DeepSpeech2", 16, 80, kDs2Theta, 2},
    {"batch-imdb", "IMDB", 256, 100, kImdbTheta, 8},
};

/// Timing decorator around the BatchGateEvaluator seam: records one
/// span per gate call, parented to the current forwardBatch span.
class TimedEvaluator : public nn::BatchGateEvaluator
{
  public:
    TimedEvaluator(nn::BatchGateEvaluator &inner, SpanLog &log,
                   const char *name, const char *layer)
        : inner_(inner), log_(log), name_(name), layer_(layer)
    {
    }

    void setParent(std::uint64_t parent) { parent_.store(parent); }

    void beginBatch(std::size_t total_sequences) override
    {
        inner_.beginBatch(total_sequences);
    }

    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override
    {
        Span span;
        span.startNs = log_.nowNs();
        inner_.evaluateGateBatch(instance, params, x, h, rows, slot_base,
                                 preact);
        span.endNs = log_.nowNs();
        span.parent = parent_.load();
        span.name = name_;
        span.layer = layer_;
        log_.add(std::move(span));
    }

  private:
    nn::BatchGateEvaluator &inner_;
    SpanLog &log_;
    const char *name_;
    const char *layer_;
    std::atomic<std::uint64_t> parent_{0};
};

/// Gate-time accounting of one traced forwardBatch: thread-seconds
/// inside gate calls, and each thread's active window (first gate start
/// to last gate end) minus its gate time — cell elementwise work and
/// glue between gate calls.
struct GateAccount
{
    double gateS = 0.0;
    double outsideS = 0.0;
};

GateAccount
accountGates(const std::vector<Span> &gates)
{
    std::map<int, std::pair<std::int64_t, std::int64_t>> window;
    GateAccount account;
    for (const Span &s : gates) {
        account.gateS += (s.endNs - s.startNs) * 1e-9;
        auto [it, fresh] = window.try_emplace(s.tid, s.startNs, s.endNs);
        if (!fresh) {
            it->second.first = std::min(it->second.first, s.startNs);
            it->second.second = std::max(it->second.second, s.endNs);
        }
    }
    double active = 0.0;
    for (const auto &[tid, w] : window)
        active += (w.second - w.first) * 1e-9;
    account.outsideS = active - account.gateS;
    return account;
}

} // namespace

Result
runBatch(const RunOptions &options)
{
    const BatchWorkload *spec = nullptr;
    for (const BatchWorkload &w : kBatchWorkloads)
        if (options.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        nlfm_fatal("perfbench: unknown workload '", options.workload, "'");
    const std::size_t batch = spec->batch;
    const std::size_t steps = spec->steps;
    memo::MemoOptions memo_options;
    memo_options.theta = spec->theta;

    Result result;

    // Set-up: model file -> loaded network, BNN mirror, engine sized
    // for the batch.
    LoadedModel model;
    std::unique_ptr<memo::BatchMemoEngine> engine;
    const SetupTimes setup = timeSetups(
        [&] {
            engine.reset();
            model = LoadedModel{};
        },
        [&] {
            SetupTimes times;
            model = loadModel(options.modelDir, spec->network, times);
            const auto start = Clock::now();
            engine = std::make_unique<memo::BatchMemoEngine>(
                model.network(), model.bnn(), memo_options);
            engine->beginBatch(batch);
            times.serverS = secondsSince(start);
            return times;
        });
    loadScorer(model, options.modelDir);
    nn::RnnNetwork &net = model.network();

    const auto inputs = generateBatch(model, batch, steps, options.seed);

    // Warm-up pass of each kind; its outputs are what every timed pass
    // and the correctness gate compare against.
    nn::DirectBatchEvaluator direct;
    const auto memo_out = net.forwardBatch(inputs, *engine);
    const memo::ReuseStats reuse = engine->stats();
    const auto exact_out = net.forwardBatch(inputs, direct);

    SpanLog log;
    memo::GatePhaseTimes phases;
    TimedEvaluator timed_memo(*engine, log, "memo.gate", "memo");
    TimedEvaluator timed_exact(direct, log, "tensor.gate", "tensor");

    // Untraced walls, and traced walls of the memoized passes with the
    // phase sink attached and of the exact passes.
    std::vector<double> memo_s, exact_s, memo_phases_s, exact_traced_s;
    std::uint64_t batches_run = 0;

    enum class Pass { Memo, MemoPhases, Exact };
    auto one_pass = [&](Pass pass, bool traced) {
        const bool memoized = pass != Pass::Exact;
        nn::BatchGateEvaluator *eval =
            memoized ? static_cast<nn::BatchGateEvaluator *>(engine.get())
                     : &direct;
        TimedEvaluator &timed = memoized ? timed_memo : timed_exact;
        Span root;
        if (traced) {
            eval = &timed;
            root.id = log.newId();
            timed.setParent(root.id);
            root.startNs = log.nowNs();
        }
        const auto start = Clock::now();
        const auto out = net.forwardBatch(inputs, *eval);
        const double wall = secondsSince(start);
        if (traced) {
            root.endNs = log.nowNs();
            root.name = pass == Pass::Memo ? "nn.forwardBatch.memo"
                        : pass == Pass::Exact
                            ? "nn.forwardBatch.exact"
                            : "nn.forwardBatch.memo.phases";
            root.layer = "nn";
            log.add(root);
        }
        ++batches_run;
        const auto &expected = memoized ? memo_out : exact_out;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (!sameBits(out[i], expected[i])) {
                result.mismatch("timed pass output differs from the "
                                "warm-up pass, sequence " +
                                std::to_string(i));
                break;
            }
        }
        if (!traced)
            (memoized ? memo_s : exact_s).push_back(wall);
        else if (pass == Pass::MemoPhases)
            memo_phases_s.push_back(wall);
        else if (pass == Pass::Exact)
            exact_traced_s.push_back(wall);
    };

    // Timed region: memoized and exact passes alternate, at least three
    // of each. A traced run spends half its time untraced and half
    // traced, so the difference is the tracing overhead. The phase
    // sink reads the clock inside every gate call, so a traced run adds
    // a third pass with it attached: the gate spans of the pass without
    // it are what memo.net_saving_pct compares with the exact ones.
    const double budget = options.trace ? options.seconds / 2
                                        : options.seconds;
    auto timed_loop = [&](bool traced) {
        const auto start = Clock::now();
        std::size_t rounds = 0;
        while (rounds < 3 || secondsSince(start) < budget) {
            one_pass(Pass::Memo, traced);
            one_pass(Pass::Exact, traced);
            if (traced) {
                engine->setPhaseSink(&phases);
                one_pass(Pass::MemoPhases, traced);
                engine->setPhaseSink(nullptr);
            }
            ++rounds;
        }
    };
    timed_loop(false);

    CpuMeter cpu;
    if (options.trace) {
        cpu.start();
        const auto start = Clock::now();
        timed_loop(true);
        cpu.stop(secondsSince(start));
    }

    // Correctness gate, outside the timed region.
    auto reference = net.forwardBatchBaseline(inputs);
    if (options.corruptReference)
        corrupt(reference[0]);
    for (std::size_t i = 0; i < batch; ++i) {
        if (!sameBits(exact_out[i], reference[i])) {
            result.mismatch("exact pass differs from forwardBatchBaseline, "
                            "sequence " + std::to_string(i));
            break;
        }
    }
    Rng pick(options.seed ^ 0x5eedull);
    for (std::size_t c = 0; c < std::min(spec->checkSequences, batch); ++c) {
        const std::size_t i = pick.uniformInt(batch);
        memo::BatchMemoEngine single(net, model.bnn(), memo_options);
        const auto alone = net.forwardBatch(
            std::span<const nn::Sequence>(&inputs[i], 1), single);
        if (!sameBits(alone[0], memo_out[i]))
            result.mismatch("memoized sequence " + std::to_string(i) +
                            " differs from its batch-of-one run");
    }
    Phase phase{"batch", batches_run * batch, batches_run * batch, 0, 0};
    result.phases.push_back(phase);

    std::vector<metrics::TokenSeq> exact_decodes, memo_decodes;
    for (std::size_t i = 0; i < batch; ++i) {
        exact_decodes.push_back(model.scorer->decodeSequence(exact_out[i]));
        memo_decodes.push_back(model.scorer->decodeSequence(memo_out[i]));
    }
    const double quality_loss =
        model.scorer->scoreLoss(exact_decodes, memo_decodes);

    const double reuse_pct = 100.0 * static_cast<double>(reuse.totalReused()) /
                             static_cast<double>(reuse.totalSlots());
    result.info("quality_loss_pts", quality_loss, "pts");
    result.info("reuse_pct", reuse_pct, "%");
    result.info("evals_total", static_cast<double>(reuse.totalSlots()),
                "count");
    result.info("batch", static_cast<double>(batch), "seq");
    result.info("steps", static_cast<double>(steps), "steps");
    result.info("theta", memo_options.theta, "theta");

    if (!options.trace) {
        const double memo_median = median(memo_s);
        const double exact_median = median(exact_s);
        result.e2e("setup_s", setup.total(), "s");
        result.e2e("peak_rss_mb", peakRssMb(), "MB");
        result.e2e("throughput_per_s", batch / memo_median, "1/s");
        result.e2e("exact_throughput_per_s", batch / exact_median, "1/s");
        result.e2e("latency_p50_ms", 1e3 * memo_median, "ms");
        result.e2e("latency_p95_ms", 1e3 * percentile(memo_s, 95.0), "ms");
        result.info("seq_per_s", batch / memo_median, "seq/s");
        result.info("exact_seq_per_s", batch / exact_median, "seq/s");
        result.info("batches_timed", static_cast<double>(memo_s.size()),
                    "count");
        return result;
    }

    // Per-layer metrics of the traced half: gate spans grouped by the
    // forwardBatch call that issued them.
    std::map<std::uint64_t, std::vector<Span>> gates;
    std::map<std::uint64_t, std::string> root_name;
    for (const Span &s : log.spans()) {
        if (s.parent != 0)
            gates[s.parent].push_back(s);
        else
            root_name[s.id] = s.name;
    }
    std::vector<double> memo_gate_s, exact_gate_s, exact_outside_s;
    for (const auto &[root, calls] : gates) {
        const GateAccount account = accountGates(calls);
        if (root_name[root] == "nn.forwardBatch.memo") {
            memo_gate_s.push_back(account.gateS);
        } else if (root_name[root] == "nn.forwardBatch.exact") {
            exact_gate_s.push_back(account.gateS);
            exact_outside_s.push_back(account.outsideS);
        }
    }
    // Phase times accumulate over the passes with the sink attached.
    const double evals = static_cast<double>(reuse.totalSlots()) *
                         static_cast<double>(memo_phases_s.size());
    const double misses =
        static_cast<double>(reuse.totalSlots() - reuse.totalReused()) *
        static_cast<double>(memo_phases_s.size());
    // Overhead of full tracing: gate spans plus the phase sink.
    const double untraced = median(memo_s) + median(exact_s);
    const double traced = median(memo_phases_s) + median(exact_traced_s);

    measureMachineAndKernels(net, *model.bnn(), std::min<std::size_t>(batch,
                                                                      64),
                             result);
    result.layer("memo.probe_ns_per_slot",
                 static_cast<double>(phases.probeNs.load()) / evals, "ns");
    result.layer("memo.decide_ns_per_slot",
                 static_cast<double>(phases.decideNs.load()) / evals, "ns");
    result.layer("memo.commit_ns_per_miss",
                 static_cast<double>(phases.commitNs.load()) / misses, "ns");
    result.layer("memo.reuse_pct", reuse_pct, "%");
    result.layer("memo.evals_total", static_cast<double>(reuse.totalSlots()),
                 "count");
    result.layer("memo.quality_loss_pts", quality_loss, "pts");
    result.layer("memo.net_saving_pct",
                 100.0 * (1.0 - median(memo_gate_s) / median(exact_gate_s)),
                 "%");
    result.layer("nn.gate_s", median(exact_gate_s), "s");
    result.layer("nn.outside_gate_s", median(exact_outside_s), "s");
    result.layer("pool.threads_active", cpu.activeThreads(), "count");
    result.layer("pool.busy_share", cpu.busyShare(), "ratio");
    result.layer("setup.load_s", setup.loadS, "s");
    result.layer("setup.bnn_s", setup.bnnS, "s");
    result.layer("setup.server_s", setup.serverS, "s");
    result.layer("trace.overhead_pct", 100.0 * (traced / untraced - 1.0),
                 "%");
    finishTrace(log, options, result);
    return result;
}

} // namespace perfbench
