/// @file
/// fleet-sessions: a serve::FleetServer with DeepSpeech2 and IMDB
/// resident, one slot pool under DRR weights. A fixed population of
/// clients, each bound to one model and one session, sends a fixed list
/// of items in a closed loop (the next item goes out when the previous
/// reply arrives); most items are session-tagged turns, some untagged.
/// The same items run on a memoized and on an exact fleet, alternating
/// in rounds.

#include <cmath>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "memo/memo_batch.hh"
#include "serve/fleet_server.hh"

namespace perfbench
{

using namespace nlfm;

namespace
{

/// Items each client sends, over all rounds.
constexpr std::size_t kTurns = 60;
constexpr std::size_t kRounds = 6;
/// Every n-th item of a client carries no session tag.
constexpr std::size_t kUntaggedEvery = 8;

/// One resident model and its client population.
struct FleetModel
{
    const char *name;
    double theta;
    double weight;         ///< DRR weight
    std::size_t sessions;  ///< clients, one session each
    std::size_t baseSteps; ///< items are 50% to 100% of it
};

const std::vector<FleetModel> kModels = {
    {"DeepSpeech2", kDs2Theta, 2.0, 6, 8},
    {"IMDB", kImdbTheta, 1.0, 6, 8},
};

struct Item
{
    nn::Sequence input;
    bool tagged = true;
};

struct Client
{
    std::size_t model = 0;
    std::string session;
    std::vector<Item> items;
};

/// Reply record of one item.
struct Reply
{
    bool ok = false;
    bool warm = false;
    double latencyMs = 0.0;
    double lagMs = 0.0; ///< completion -> noticed by the generator
    double reuse = 0.0;
    std::size_t steps = 0;
    Clock::time_point done;
    nn::Sequence output;
};

/// Replies of every item of every client, filled round by round.
struct LoopRun
{
    std::vector<std::vector<Reply>> replies; ///< [client][item]
};

/// The steady window of one round: from its start until the first
/// client sends its last item of the round, while every client has an
/// item in flight. Rates and latencies are taken inside it, so the
/// drain at the end of a round does not count.
struct RoundStats
{
    double seconds = 0.0;
    std::size_t completions = 0;
    std::vector<double> latencyMs;
    std::vector<double> lagMs;
    std::vector<std::size_t> perModel;
};

/// One closed-loop round over items [first, last) of every client, on
/// one generator thread: every client keeps one item in flight; a
/// reply is noticed by polling and the client's next item is sent at
/// once.
RoundStats
closedLoop(serve::FleetServer &fleet, const std::vector<Client> &clients,
           std::size_t first, std::size_t last, std::size_t models,
           LoopRun &run, Phase &phase)
{
    if (run.replies.empty()) {
        run.replies.resize(clients.size());
        for (std::size_t c = 0; c < clients.size(); ++c)
            run.replies[c].resize(clients[c].items.size());
    }
    std::vector<std::size_t> next(clients.size(), first);
    std::vector<std::future<serve::Response>> inflight(clients.size());
    std::vector<Clock::time_point> sent(clients.size());
    auto send = [&](std::size_t c) {
        const Item &item = clients[c].items[next[c]];
        serve::Request request;
        request.input = item.input;
        if (item.tagged)
            request.sessionId = clients[c].session;
        sent[c] = Clock::now();
        inflight[c] = fleet.enqueue(clients[c].model, std::move(request));
        ++phase.sent;
    };
    const auto start = Clock::now();
    auto steady_end = Clock::time_point::max();
    for (std::size_t c = 0; c < clients.size(); ++c)
        send(c);
    std::size_t open = clients.size();
    while (open > 0) {
        bool progressed = false;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            if (!inflight[c].valid() ||
                inflight[c].wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                continue;
            progressed = true;
            const auto noticed = Clock::now();
            Reply &reply = run.replies[c][next[c]];
            try {
                serve::Response response = inflight[c].get();
                reply.ok = true;
                reply.warm = response.warmResumed;
                reply.latencyMs = response.latencyMs;
                reply.reuse = response.reuseFraction;
                reply.steps = response.steps;
                reply.done = sent[c] +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     response.latencyMs));
                reply.lagMs = 1e3 * secondsBetween(reply.done, noticed);
                reply.output = std::move(response.output);
                ++phase.succeeded;
            } catch (const serve::ShedError &) {
                ++phase.shed;
            } catch (const std::exception &) {
                ++phase.failed;
            }
            if (++next[c] < last) {
                if (next[c] + 1 == last)
                    steady_end = std::min(steady_end, Clock::now());
                send(c);
            } else {
                inflight[c] = {};
                --open;
            }
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    RoundStats stats;
    stats.perModel.assign(models, 0);
    stats.seconds = secondsBetween(start, steady_end);
    for (std::size_t c = 0; c < clients.size(); ++c)
        for (std::size_t k = first; k < last; ++k) {
            const Reply &reply = run.replies[c][k];
            if (!reply.ok || reply.done > steady_end)
                continue;
            ++stats.completions;
            ++stats.perModel[clients[c].model];
            stats.latencyMs.push_back(reply.latencyMs);
            stats.lagMs.push_back(reply.lagMs);
        }
    return stats;
}

/// Check every reply against a cold closed forwardBatch: a warm turn
/// continues its session, so each run of warm turns is compared with
/// the concatenation of its items from the last cold turn, evaluated
/// as one sequence, memoized at the model's theta or (@p exact)
/// exact.
void
checkReplies(std::vector<LoadedModel *> models,
             const std::vector<double> &thetas, bool exact,
             const std::vector<Client> &clients, const LoopRun &run,
             bool corrupt_reference, const std::string &label,
             Result &result)
{
    for (std::size_t m = 0; m < models.size(); ++m) {
        // Segments: the items of one client evaluated as one sequence
        // (a cold item plus the warm turns that continue it).
        struct Segment
        {
            std::size_t client;
            std::vector<std::size_t> items;
        };
        std::vector<Segment> segments;
        std::vector<nn::Sequence> inputs;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            if (clients[c].model != m)
                continue;
            const auto &items = clients[c].items;
            const auto &replies = run.replies[c];
            std::size_t open = 0; // segment index + 1 of the session
            for (std::size_t k = 0; k < items.size(); ++k) {
                if (!replies[k].ok)
                    continue;
                if (items[k].tagged && replies[k].warm && open > 0) {
                    segments[open - 1].items.push_back(k);
                    auto &concat = inputs[open - 1];
                    concat.insert(concat.end(), items[k].input.begin(),
                                  items[k].input.end());
                    continue;
                }
                segments.push_back({c, {k}});
                inputs.push_back(items[k].input);
                if (items[k].tagged)
                    open = segments.size();
            }
        }
        if (inputs.empty())
            continue;
        nn::RnnNetwork &net = models[m]->network();
        nn::BatchForwardOptions forward;
        forward.chunkSize = std::max<std::size_t>(1, inputs.size() / 4);
        std::vector<nn::Sequence> reference;
        if (exact) {
            reference = net.forwardBatchBaseline(inputs, forward);
        } else {
            memo::MemoOptions memo_options;
            memo_options.theta = thetas[m];
            memo::BatchMemoEngine engine(net, models[m]->bnn(), memo_options);
            reference = net.forwardBatch(inputs, engine, forward);
        }
        if (corrupt_reference)
            corrupt(reference[0]);
        for (std::size_t s = 0; s < segments.size(); ++s) {
            const Segment &segment = segments[s];
            const auto &items = clients[segment.client].items;
            const auto &replies = run.replies[segment.client];
            std::size_t offset = 0;
            for (const std::size_t k : segment.items) {
                const std::size_t length = items[k].input.size();
                const nn::Sequence expected(
                    reference[s].begin() + static_cast<std::ptrdiff_t>(offset),
                    reference[s].begin() +
                        static_cast<std::ptrdiff_t>(offset + length));
                offset += length;
                if (!sameBits(replies[k].output, expected))
                    result.mismatch(label + ": client " +
                                    std::to_string(segment.client) +
                                    " item " + std::to_string(k) +
                                    " differs from its cold reference");
            }
        }
    }
}

} // namespace

Result
runFleet(const RunOptions &options)
{
    static_assert(kTurns >= 2 * kRounds,
                  "fleet-sessions needs at least two items per round");
    std::vector<std::string> names;
    std::vector<double> thetas, weights;
    std::size_t clients_total = 0;
    for (const FleetModel &m : kModels) {
        names.push_back(m.name);
        thetas.push_back(m.theta);
        weights.push_back(m.weight);
        clients_total += m.sessions;
    }

    Result result;
    serve::FleetOptions fleet_options;
    fleet_options.slots = kServingSlots;
    fleet_options.workers = servingWorkers();
    fleet_options.sessionCapacity = clients_total;
    fleet_options.queueCapacity = clients_total;

    auto registry_of = [&](std::vector<LoadedModel> &models, bool memoized) {
        serve::ModelRegistry registry;
        for (std::size_t m = 0; m < models.size(); ++m) {
            serve::ModelSpec spec;
            spec.name = names[m];
            spec.network = &models[m].network();
            spec.bnn = memoized ? models[m].bnn() : nullptr;
            spec.memo.theta = thetas[m];
            spec.memoized = memoized;
            spec.weight = weights[m];
            registry.add(spec);
        }
        return registry;
    };

    // Set-up: both model files -> networks, BNN mirrors, running fleet.
    std::vector<LoadedModel> models;
    std::unique_ptr<serve::FleetServer> fleet;
    const SetupTimes setup = timeSetups(
        [&] {
            fleet.reset();
            models.clear();
        },
        [&] {
            SetupTimes times;
            for (const auto &name : names)
                models.push_back(loadModel(options.modelDir, name, times));
            const auto start = Clock::now();
            fleet = std::make_unique<serve::FleetServer>(
                registry_of(models, true), fleet_options);
            times.serverS = secondsSince(start);
            return times;
        });
    for (LoadedModel &model : models)
        loadScorer(model, options.modelDir);
    serve::FleetServer exact_fleet(registry_of(models, false), fleet_options);
    std::unique_ptr<serve::FleetServer> traced_fleet;
    if (options.trace) {
        serve::FleetOptions traced_options = fleet_options;
        traced_options.telemetry.trace = true;
        traced_options.telemetry.traceCapacity = std::size_t{1} << 19;
        traced_fleet = std::make_unique<serve::FleetServer>(
            registry_of(models, true), traced_options);
    }

    // Clients: every item's input and whether it carries the session.
    Rng rng(options.seed);
    std::vector<Client> clients;
    for (std::size_t m = 0; m < names.size(); ++m)
        for (std::size_t s = 0; s < kModels[m].sessions; ++s) {
            Client client;
            client.model = m;
            client.session = names[m] + "-" + std::to_string(s);
            Rng client_rng = rng.fork(clients.size());
            for (std::size_t k = 0; k < kTurns; ++k) {
                Item item;
                item.tagged = k % kUntaggedEvery != kUntaggedEvery - 1;
                const std::size_t length =
                    stratifiedLength(kModels[m].baseSteps, clients.size() + k);
                item.input = generateInput(names[m], length, client_rng);
                client.items.push_back(std::move(item));
            }
            clients.push_back(std::move(client));
        }

    // Rounds: each runs the next slice of every client's items on the
    // memoized fleet, then on the exact fleet (and, traced, on an
    // untraced memoized fleet), so host drift touches every variant.
    serve::FleetServer &measured = options.trace ? *traced_fleet : *fleet;
    Phase memo_phase{"sessions"};
    Phase exact_phase{"sessions-exact"};
    Phase untraced_phase{"sessions-untraced"};
    LoopRun memo_run, exact_run, untraced_run;
    std::vector<double> memo_rate, exact_rate, untraced_rate, latency, lag;
    std::vector<double> per_weight(names.size(), 0.0);
    CpuMeter memo_cpu;
    for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t first = round * kTurns / kRounds;
        const std::size_t last = (round + 1) * kTurns / kRounds;
        memo_cpu.start();
        const auto round_start = Clock::now();
        const auto memo = closedLoop(measured, clients, first, last,
                                     names.size(), memo_run, memo_phase);
        memo_cpu.stop(secondsSince(round_start));
        memo_rate.push_back(memo.completions / memo.seconds);
        latency.insert(latency.end(), memo.latencyMs.begin(),
                       memo.latencyMs.end());
        lag.insert(lag.end(), memo.lagMs.begin(), memo.lagMs.end());
        for (std::size_t m = 0; m < names.size(); ++m)
            per_weight[m] += memo.perModel[m] / weights[m];
        const auto exact = closedLoop(exact_fleet, clients, first, last,
                                      names.size(), exact_run, exact_phase);
        exact_rate.push_back(exact.completions / exact.seconds);
        if (options.trace) {
            const auto untraced =
                closedLoop(*fleet, clients, first, last, names.size(),
                           untraced_run, untraced_phase);
            untraced_rate.push_back(untraced.completions / untraced.seconds);
        }
    }
    if (options.trace)
        result.phases.push_back(untraced_phase);
    result.phases.push_back(memo_phase);
    result.phases.push_back(exact_phase);

    std::vector<LoadedModel *> model_ptrs = {&models[0], &models[1]};
    checkReplies(model_ptrs, thetas, false, clients, memo_run,
                 options.corruptReference, "sessions", result);
    checkReplies(model_ptrs, thetas, true, clients, exact_run, false,
                 "sessions-exact", result);

    // Counts over every reply of the memoized fleet.
    double tagged = 0, warm = 0, evals = 0, reused = 0;
    for (std::size_t c = 0; c < clients.size(); ++c)
        for (std::size_t k = 0; k < clients[c].items.size(); ++k) {
            const Reply &reply = memo_run.replies[c][k];
            if (!reply.ok)
                continue;
            if (clients[c].items[k].tagged && k > 0) {
                tagged += 1;
                warm += reply.warm ? 1 : 0;
            }
            const double e =
                static_cast<double>(reply.steps) *
                static_cast<double>(
                    models[clients[c].model].network().totalNeurons());
            evals += e;
            reused += std::round(reply.reuse * e);
        }

    // Quality: each model's canonical loss of memoized vs exact replies
    // to the same items, averaged over the two models.
    double quality_loss = 0.0;
    for (std::size_t m = 0; m < names.size(); ++m) {
        std::vector<metrics::TokenSeq> exact_decodes, memo_decodes;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            if (clients[c].model != m)
                continue;
            for (std::size_t k = 0; k < clients[c].items.size(); ++k) {
                const Reply &memo = memo_run.replies[c][k];
                const Reply &exact = exact_run.replies[c][k];
                if (!memo.ok || !exact.ok)
                    continue;
                memo_decodes.push_back(
                    models[m].scorer->decodeSequence(memo.output));
                exact_decodes.push_back(
                    models[m].scorer->decodeSequence(exact.output));
            }
        }
        quality_loss += models[m].scorer->scoreLoss(exact_decodes,
                                                    memo_decodes) /
                        static_cast<double>(names.size());
    }
    const double failed_pct = failedPct(result.phases);
    const double turns_per_s = median(memo_rate);
    const double exact_turns_per_s = median(exact_rate);
    result.info("turns_per_s", turns_per_s, "1/s");
    result.info("exact_turns_per_s", exact_turns_per_s, "1/s");
    result.info("turn_latency_p50_ms", percentile(latency, 50.0), "ms");
    result.info("turn_latency_p95_ms", percentile(latency, 95.0), "ms");
    result.info("turns_sampled", static_cast<double>(latency.size()),
                "count");
    result.info("failed_pct", failed_pct, "%");
    result.info("reuse_pct", 100.0 * reused / evals, "%");
    result.info("evals_total", evals, "count");
    result.info("quality_loss_pts", quality_loss, "pts");
    result.info("warm_resume_pct", 100.0 * warm / tagged, "%");

    if (!options.trace) {
        result.e2e("setup_s", setup.total(), "s");
        result.e2e("peak_rss_mb", peakRssMb(), "MB");
        result.e2e("throughput_per_s", turns_per_s, "1/s");
        result.e2e("exact_throughput_per_s", exact_turns_per_s, "1/s");
        result.e2e("latency_p50_ms", percentile(latency, 50.0), "ms");
        result.e2e("latency_p95_ms", percentile(latency, 95.0), "ms");
        return result;
    }

    measured.stop();
    const serve::DriverTracer &tracer = *measured.telemetry()->tracer();
    SpanLog log;
    const DriverPhaseNs phase_ns = importDriverSpans(tracer, log);

    measureMachineAndKernels(models[0].network(), *models[0].bnn(),
                             kServingSlots,
                             result);
    result.layer("memo.probe_ns_per_slot", phase_ns.probe / evals, "ns");
    result.layer("memo.decide_ns_per_slot", phase_ns.decide / evals, "ns");
    result.layer("memo.commit_ns_per_miss",
                 phase_ns.commit / (evals - reused), "ns");
    result.layer("memo.reuse_pct", 100.0 * reused / evals, "%");
    result.layer("memo.evals_total", evals, "count");
    result.layer("memo.quality_loss_pts", quality_loss, "pts");
    result.layer("memo.net_saving_pct",
                 100.0 * (1.0 - median(exact_rate) / median(untraced_rate)),
                 "%");
    // Over the whole memoized rounds, drains included.
    result.layer("pool.threads_active", memo_cpu.activeThreads(), "count");
    result.layer("pool.busy_share", memo_cpu.busyShare(), "ratio");
    result.layer("serve.session.warm_resume_pct", 100.0 * warm / tagged, "%");
    result.layer("serve.drr.fairness_ratio", per_weight[0] / per_weight[1],
                 "ratio");
    result.layer("setup.load_s", setup.loadS, "s");
    result.layer("setup.bnn_s", setup.bnnS, "s");
    result.layer("setup.server_s", setup.serverS, "s");
    result.layer("loadgen.lag_ms.p95", percentile(lag, 95.0), "ms");
    result.layer("loadgen.failed_pct", failed_pct, "%");
    result.layer("trace.overhead_pct",
                 100.0 * (median(untraced_rate) / median(memo_rate) - 1.0),
                 "%");
    result.info("session_restore_ms", phase_ns.restore * 1e-6, "ms");
    finishTrace(log, options, result);
    return result;
}

} // namespace perfbench
