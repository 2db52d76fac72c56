/// @file
/// serve-ds2: a continuous-batching serve::Server holding DeepSpeech2.
///
/// Phases: capacity (every request queued up front) on a memoized and
/// on an exact server, and an open-loop Poisson ladder of absolute
/// rates, interleaved in rounds. Latency is timed from each request's
/// scheduled send time; the generator records how late it ran. Every
/// delivered output is compared bit for bit with a closed forwardBatch
/// at the request's theta, computed before the load phases.

#include <cmath>
#include <string_view>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "memo/memo_batch.hh"
#include "serve/server.hh"

namespace perfbench
{

using namespace nlfm;

namespace
{

/// Base request length; requests are 50% to 100% of it.
constexpr std::size_t kBaseSteps = 8;
/// Distinct request inputs.
constexpr std::size_t kPoolSize = 64;
/// Requests of one capacity burst, all queued up front.
constexpr std::size_t kCapacityRequests = 128;
/// Measurement rounds; every phase runs a slice in each.
constexpr std::size_t kRounds = 4;
/// Per-request thetas, alternating: the frozen DeepSpeech2 theta and
/// the tuner's pick within 5 points of the theta-0 loss (README.md).
const std::vector<double> kThetas = {kDs2Theta, 0.130667};
/// p95 latency limit of slo_rate_rps.
constexpr double kP95LimitMs = 150.0;

/// One rung of the open-loop ladder: an absolute Poisson arrival rate
/// and the requests sent at it over all rounds.
struct Rung
{
    const char *name;
    double rate;
    std::size_t requests;
};

constexpr Rung kLadder[] = {
    {"light", 40.0, 240},
    {"heavy", 60.0, 400},
    {"r90", 90.0, 240},
    {"r110", 110.0, 240},
};

/// One request of a phase: which pooled input, at which theta, when.
struct Planned
{
    std::size_t input = 0;
    std::size_t thetaIndex = 0;
    double sendS = 0.0; ///< scheduled send, seconds after phase start
};

/// What came back for one planned request.
struct Outcome
{
    bool ok = false;
    double lagMs = 0.0;     ///< send time minus scheduled time
    double latencyMs = 0.0; ///< scheduled send -> completion
    double queueMs = 0.0;
    double serviceMs = 0.0;
    double reuse = 0.0;
    std::size_t steps = 0;
    std::uint64_t serverId = 0;
    Clock::time_point scheduled;
    Clock::time_point sent;
    Clock::time_point done;
};

/// Load phase results.
struct PhaseRun
{
    std::vector<Outcome> outcomes;
    double wallS = 0.0;          ///< first send -> last completion
    double backlogGrowth = 0.0;  ///< fitted queue growth over the phase
    Clock::time_point start;
};

/// Work served by one server, summed over its replies: slot-steps,
/// neuron evaluations and how many of them were reused (exact counts:
/// reuseFraction times a whole evaluation count).
struct Served
{
    double steps = 0.0;
    double evals = 0.0;
    double reused = 0.0;
};

/// Per-input references: outputs[theta index][input] plus exact.
struct References
{
    std::vector<std::vector<nn::Sequence>> memo;
    std::vector<nn::Sequence> exact;
};

/// Send @p plan to @p server (open loop: each request at its scheduled
/// time, never waiting for replies), then collect every reply and check
/// it against @p expected.
PhaseRun
runPhase(serve::Server &server, const std::vector<nn::Sequence> &pool,
         const std::vector<double> &thetas,
         const std::vector<Planned> &plan,
         const std::vector<std::vector<nn::Sequence>> &expected,
         double neurons, Phase &phase, Served &served, Result &result)
{
    PhaseRun run;
    run.outcomes.resize(plan.size());
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(plan.size());
    std::vector<std::pair<double, double>> depth; // (time s, queue depth)
    run.start = Clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Outcome &o = run.outcomes[i];
        o.scheduled = run.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          plan[i].sendS));
        std::this_thread::sleep_until(o.scheduled);
        serve::Request request;
        request.input = pool[plan[i].input];
        request.theta = thetas[plan[i].thetaIndex];
        o.sent = Clock::now();
        futures.push_back(server.enqueue(std::move(request)));
        depth.push_back({secondsBetween(run.start, o.sent),
                         static_cast<double>(server.queueDepth())});
    }
    phase.sent += plan.size();
    Clock::time_point last_done = run.start;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Outcome &o = run.outcomes[i];
        try {
            serve::Response response = futures[i].get();
            o.ok = true;
            o.lagMs = 1e3 * secondsBetween(o.scheduled, o.sent);
            o.latencyMs = o.lagMs + response.latencyMs;
            o.queueMs = response.queueMs;
            o.serviceMs = response.serviceMs;
            o.reuse = response.reuseFraction;
            o.steps = response.steps;
            o.serverId = response.id;
            const auto done =
                o.sent + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 response.latencyMs));
            last_done = std::max(last_done, done);
            o.done = done;
            ++phase.succeeded;
            const double evals = static_cast<double>(o.steps) * neurons;
            served.steps += static_cast<double>(o.steps);
            served.evals += evals;
            served.reused += std::round(o.reuse * evals);
            if (!sameBits(response.output,
                          expected[plan[i].thetaIndex][plan[i].input]))
                result.mismatch(phase.name + ": response " +
                                std::to_string(i) +
                                " differs from the closed forwardBatch at "
                                "its theta");
        } catch (const serve::ShedError &) {
            ++phase.shed;
        } catch (const std::exception &) {
            ++phase.failed;
        }
    }
    run.wallS = secondsBetween(run.start, last_done);
    // Least-squares slope of queue depth over the send window, times its
    // length: how many requests the queue gained while load was offered.
    if (depth.size() >= 2) {
        double st = 0, sd = 0, stt = 0, std_ = 0;
        const double n = static_cast<double>(depth.size());
        for (const auto &[t, d] : depth) {
            st += t;
            sd += d;
            stt += t * t;
            std_ += t * d;
        }
        const double denom = n * stt - st * st;
        const double slope = denom > 0 ? (n * std_ - st * sd) / denom : 0.0;
        run.backlogGrowth = slope * (depth.back().first - depth.front().first);
    }
    return run;
}

/// Completions per second while every slot had work queued: the first
/// N - slots completions of a burst of N requests, before the drain.
double
steadyRate(const PhaseRun &run, std::size_t slots)
{
    std::vector<Clock::time_point> done;
    for (const Outcome &o : run.outcomes)
        if (o.ok)
            done.push_back(o.done);
    if (done.empty())
        return 0.0;
    std::sort(done.begin(), done.end());
    const std::size_t k = done.size() > slots ? done.size() - slots
                                              : done.size();
    return static_cast<double>(k) / secondsBetween(run.start, done[k - 1]);
}

std::vector<double>
field(const std::vector<Outcome> &outcomes, double Outcome::*member)
{
    std::vector<double> out;
    for (const Outcome &o : outcomes)
        if (o.ok)
            out.push_back(o.*member);
    return out;
}

} // namespace

DriverPhaseNs
importDriverSpans(const serve::DriverTracer &tracer, SpanLog &log)
{
    if (tracer.dropped() > 0)
        nlfm_fatal("perfbench: the driver trace ring dropped ",
                   tracer.dropped(), " spans");
    DriverPhaseNs ns;
    const std::int64_t offset =
        log.toNs(Clock::now()) - tracer.toNs(Clock::now());
    std::uint64_t step_id = 0;
    for (const serve::TraceSpan &s : tracer.spans()) {
        Span span;
        span.startNs = s.startNs + offset;
        span.endNs = span.startNs + s.durNs;
        span.name = std::string("serve.") + serve::tracePhaseName(s.phase);
        span.layer = "serve";
        span.request = s.requestId;
        span.tid = 1;
        const auto dur = static_cast<double>(s.durNs);
        switch (s.phase) {
          case serve::TracePhase::Step:
            span.name = "nn.step";
            span.layer = "nn";
            span.id = step_id = log.newId();
            break;
          case serve::TracePhase::Probe:
          case serve::TracePhase::Decide:
          case serve::TracePhase::Commit:
            (s.phase == serve::TracePhase::Probe    ? ns.probe
             : s.phase == serve::TracePhase::Decide ? ns.decide
                                                    : ns.commit) += dur;
            span.name = std::string("memo.") + serve::tracePhaseName(s.phase);
            span.layer = "memo";
            span.parent = step_id;
            break;
          case serve::TracePhase::SessionRestore:
            ns.restore += dur;
            span.layer = "session";
            break;
          case serve::TracePhase::Queue:
          case serve::TracePhase::Service:
            span.layer = "request";
            span.tid = 2;
            break;
          default:
            break;
        }
        log.add(std::move(span));
    }
    return ns;
}

Result
runServe(const RunOptions &options)
{
    const std::string network_name = "DeepSpeech2";
    const std::size_t slots = kServingSlots;
    std::size_t ladder_requests = 0;
    for (const Rung &rung : kLadder)
        ladder_requests += rung.requests;

    Result result;
    serve::ServerOptions server_options;
    server_options.slots = slots;
    server_options.workers = servingWorkers();
    server_options.queueCapacity = ladder_requests + kCapacityRequests;
    server_options.memo.theta = kThetas[0];

    // Set-up: model file -> network, BNN mirror, running server.
    LoadedModel model;
    std::unique_ptr<serve::Server> server;
    const SetupTimes setup = timeSetups(
        [&] {
            server.reset();
            model = LoadedModel{};
        },
        [&] {
            SetupTimes times;
            model = loadModel(options.modelDir, network_name, times);
            const auto start = Clock::now();
            server = std::make_unique<serve::Server>(
                model.network(), model.bnn(), server_options);
            times.serverS = secondsSince(start);
            return times;
        });
    loadScorer(model, options.modelDir);
    nn::RnnNetwork &net = model.network();

    serve::ServerOptions exact_options = server_options;
    exact_options.memoized = false;
    serve::Server exact_server(net, nullptr, exact_options);
    std::unique_ptr<serve::Server> traced_server;
    if (options.trace) {
        serve::ServerOptions traced_options = server_options;
        traced_options.telemetry.trace = true;
        traced_options.telemetry.traceCapacity = std::size_t{1} << 19;
        traced_server = std::make_unique<serve::Server>(net, model.bnn(),
                                                        traced_options);
    }
    serve::Server &measured = options.trace ? *traced_server : *server;

    // Inputs: a pool of distinct sequences, lengths 50-100% of the base.
    Rng rng(options.seed);
    std::vector<nn::Sequence> pool;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        Rng seq_rng = rng.fork(i);
        const std::size_t length = stratifiedLength(kBaseSteps, i);
        pool.push_back(generateInput(network_name, length, seq_rng));
    }
    // Each block of pool.size() requests uses every pooled input once,
    // in a seeded order, so the length mix is the same for every seed.
    auto plan_phase = [&](std::uint64_t tag, std::size_t count,
                          double rate) {
        Rng plan_rng = rng.fork(1000 + tag);
        std::vector<Planned> plan(count);
        std::vector<std::size_t> order(pool.size());
        double t = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            if (i % pool.size() == 0) {
                for (std::size_t j = 0; j < order.size(); ++j)
                    order[j] = j;
                for (std::size_t j = order.size() - 1; j > 0; --j)
                    std::swap(order[j], order[plan_rng.uniformInt(j + 1)]);
            }
            plan[i].input = order[i % pool.size()];
            plan[i].thetaIndex = i % 2;
            if (rate > 0) {
                t += -std::log(1.0 - plan_rng.uniform()) / rate;
                plan[i].sendS = t;
            }
        }
        return plan;
    };

    // References, computed before load so the phases can check every
    // reply as it is collected; the global pool runs them on all cores
    // and then sits idle while load runs.
    References refs;
    nn::BatchForwardOptions forward;
    forward.chunkSize = std::max<std::size_t>(1, pool.size() / 8);
    for (const double theta : kThetas) {
        memo::MemoOptions memo_options = server_options.memo;
        memo_options.theta = theta;
        memo::BatchMemoEngine engine(net, model.bnn(), memo_options);
        refs.memo.push_back(net.forwardBatch(pool, engine, forward));
    }
    refs.exact = net.forwardBatchBaseline(pool, forward);
    if (options.corruptReference)
        for (auto &reference : refs.memo[0])
            corrupt(reference);
    const std::vector<std::vector<nn::Sequence>> exact_expected(
        kThetas.size(), refs.exact);

    // Measurement rounds: each round runs one capacity burst (every
    // request queued up front) on the memoized and on the exact server,
    // then a slice of every ladder rung, so host drift during the run
    // touches every phase alike.
    const double neurons = static_cast<double>(net.totalNeurons());
    Served served, unused;
    Phase capacity_phase{"capacity"};
    Phase exact_phase{"capacity-exact"};
    std::vector<Phase> rung_phases;
    std::map<std::string, PhaseRun> rungs;
    for (const Rung &rung : kLadder)
        rung_phases.push_back(Phase{rung.name});
    std::vector<double> capacity_rps, exact_rps, untraced_rps;
    CpuMeter heavy_cpu;
    for (std::size_t round = 0; round < kRounds; ++round) {
        const auto plan = plan_phase(round, kCapacityRequests, 0.0);
        capacity_rps.push_back(steadyRate(
            runPhase(measured, pool, kThetas, plan, refs.memo, neurons,
                     capacity_phase, served, result),
            slots));
        exact_rps.push_back(steadyRate(
            runPhase(exact_server, pool, kThetas, plan, exact_expected,
                     neurons, exact_phase, unused, result),
            slots));
        if (options.trace)
            untraced_rps.push_back(steadyRate(
                runPhase(*server, pool, kThetas, plan, refs.memo, neurons,
                         capacity_phase, unused, result),
                slots));
        for (std::size_t r = 0; r < std::size(kLadder); ++r) {
            const Rung &rung = kLadder[r];
            const auto slice = plan_phase(100 + r * kRounds + round,
                                          rung.requests / kRounds, rung.rate);
            const bool heavy = std::string_view(rung.name) == "heavy";
            if (heavy)
                heavy_cpu.start();
            PhaseRun run = runPhase(measured, pool, kThetas, slice, refs.memo,
                                    neurons, rung_phases[r], served, result);
            if (heavy)
                heavy_cpu.stop(run.wallS);
            PhaseRun &pooled = rungs[rung.name];
            pooled.outcomes.insert(pooled.outcomes.end(),
                                   run.outcomes.begin(), run.outcomes.end());
            pooled.backlogGrowth += run.backlogGrowth / kRounds;
        }
    }
    result.phases.push_back(capacity_phase);
    result.phases.push_back(exact_phase);

    // The ladder: latency per rung, pooled over the rounds.
    double slo_rate = 0.0;
    std::vector<double> all_lag;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
        const std::string name = kLadder[r].name;
        const double rate = kLadder[r].rate;
        const Phase &phase = rung_phases[r];
        const PhaseRun &run = rungs[name];
        const auto latency = field(run.outcomes, &Outcome::latencyMs);
        const auto lag = field(run.outcomes, &Outcome::lagMs);
        all_lag.insert(all_lag.end(), lag.begin(), lag.end());
        const double p95 = percentile(latency, 95.0);
        const bool met = phase.succeeded == phase.sent && p95 <= kP95LimitMs &&
                         run.backlogGrowth <= static_cast<double>(slots);
        if (met)
            slo_rate = std::max(slo_rate, rate);
        result.info(name + ".rate_rps", rate, "1/s");
        result.info(name + ".latency_p50_ms", percentile(latency, 50.0), "ms");
        result.info(name + ".latency_p95_ms", p95, "ms");
        result.info(name + ".samples", static_cast<double>(latency.size()),
                    "count");
        result.info(name + ".backlog_growth", run.backlogGrowth, "requests");
        result.info(name + ".lag_ms_p95", percentile(lag, 95.0), "ms");
        result.phases.push_back(phase);
    }

    const double failed_pct = failedPct(result.phases);
    const auto light = field(rungs["light"].outcomes, &Outcome::latencyMs);
    const auto heavy = field(rungs["heavy"].outcomes, &Outcome::latencyMs);
    result.info("capacity_rps", median(capacity_rps), "1/s");
    result.info("exact_capacity_rps", median(exact_rps), "1/s");
    result.info("slo_rate_rps", slo_rate, "1/s");
    result.info("p95_limit_ms", kP95LimitMs, "ms");
    result.info("failed_pct", failed_pct, "%");
    std::vector<metrics::TokenSeq> exact_decodes, memo_decodes;
    for (const auto &memo_outputs : refs.memo)
        for (std::size_t i = 0; i < pool.size(); ++i) {
            exact_decodes.push_back(
                model.scorer->decodeSequence(refs.exact[i]));
            memo_decodes.push_back(
                model.scorer->decodeSequence(memo_outputs[i]));
        }
    const double quality_loss =
        model.scorer->scoreLoss(exact_decodes, memo_decodes);
    result.info("quality_loss_pts", quality_loss, "pts");
    result.info("reuse_pct", 100.0 * served.reused / served.evals, "%");
    result.info("evals_total", served.evals, "count");

    if (!options.trace) {
        result.e2e("setup_s", setup.total(), "s");
        result.e2e("peak_rss_mb", peakRssMb(), "MB");
        result.e2e("throughput_per_s", median(capacity_rps), "1/s");
        result.e2e("exact_throughput_per_s", median(exact_rps), "1/s");
        result.e2e("latency_p50_ms", percentile(light, 50.0), "ms");
        result.e2e("latency_p95_ms", percentile(heavy, 95.0), "ms");
        return result;
    }

    // ---------------------------------------------- traced per-layer view
    measured.stop();
    const serve::DriverTracer &tracer = *measured.telemetry()->tracer();
    const auto driver = tracer.spans();

    // Ticks: the driver admits, stages, steps and completes, in that
    // order, so the first Admit or Stage after a Step opens the next
    // tick. Attribution spans (probe/decide/commit) and request
    // lifecycle spans carry no tick extent.
    std::vector<double> tick_ms;
    double tick_total = 0.0, step_total = 0.0;
    std::size_t steps_spans = 0;
    std::int64_t tick_start = 0, tick_end = 0, step_ns = 0;
    auto close_tick = [&] {
        if (step_ns > 0) {
            tick_ms.push_back((tick_end - tick_start) * 1e-6);
            tick_total += static_cast<double>(tick_end - tick_start);
            step_total += static_cast<double>(step_ns);
        }
        step_ns = 0;
    };
    for (const serve::TraceSpan &s : driver) {
        const std::int64_t end = s.startNs + s.durNs;
        switch (s.phase) {
          case serve::TracePhase::Admit:
          case serve::TracePhase::Stage:
            if (step_ns > 0 || tick_end == 0) {
                close_tick();
                tick_start = s.startNs;
            }
            tick_end = end;
            break;
          case serve::TracePhase::Step:
            ++steps_spans;
            step_ns += s.durNs;
            tick_end = end;
            break;
          case serve::TracePhase::Complete:
            tick_end = end;
            break;
          default:
            break;
        }
    }
    close_tick();

    SpanLog log;
    const DriverPhaseNs phase_ns = importDriverSpans(tracer, log);
    // Load generator lag, one span per ladder request before its send.
    for (const auto &[name, run] : rungs)
        for (const Outcome &o : run.outcomes) {
            Span span;
            span.startNs = log.toNs(o.scheduled);
            span.endNs = log.toNs(o.sent);
            span.name = "loadgen.lag";
            span.layer = "loadgen";
            span.request = o.serverId;
            span.tid = 3;
            log.add(std::move(span));
        }

    const auto &heavy_run = rungs["heavy"];
    const auto &light_run = rungs["light"];
    measureMachineAndKernels(net, *model.bnn(), slots, result);
    result.layer("memo.probe_ns_per_slot", phase_ns.probe / served.evals,
                 "ns");
    result.layer("memo.decide_ns_per_slot", phase_ns.decide / served.evals,
                 "ns");
    result.layer("memo.commit_ns_per_miss",
                 phase_ns.commit / (served.evals - served.reused), "ns");
    result.layer("memo.reuse_pct", 100.0 * served.reused / served.evals, "%");
    result.layer("memo.evals_total", served.evals, "count");
    result.layer("memo.quality_loss_pts", quality_loss, "pts");
    result.layer("memo.net_saving_pct",
                 100.0 * (1.0 - median(exact_rps) / median(untraced_rps)),
                 "%");
    result.layer("pool.threads_active", heavy_cpu.activeThreads(), "count");
    result.layer("pool.busy_share", heavy_cpu.busyShare(), "ratio");
    result.layer("serve.queue_ms.p50",
                 percentile(field(heavy_run.outcomes, &Outcome::queueMs),
                            50.0),
                 "ms");
    result.layer("serve.queue_ms.p95",
                 percentile(field(heavy_run.outcomes, &Outcome::queueMs),
                            95.0),
                 "ms");
    result.layer("serve.service_ms.p50",
                 percentile(field(light_run.outcomes, &Outcome::serviceMs),
                            50.0),
                 "ms");
    result.layer("serve.tick_ms.p50", percentile(tick_ms, 50.0), "ms");
    result.layer("serve.slots_per_tick.mean",
                 served.steps / static_cast<double>(steps_spans), "slots");
    result.layer("serve.driver_overhead_pct",
                 100.0 * (tick_total - step_total) / tick_total, "%");
    result.layer("setup.load_s", setup.loadS, "s");
    result.layer("setup.bnn_s", setup.bnnS, "s");
    result.layer("setup.server_s", setup.serverS, "s");
    result.layer("loadgen.lag_ms.p95", percentile(all_lag, 95.0), "ms");
    result.layer("loadgen.backlog_growth", heavy_run.backlogGrowth,
                 "requests");
    result.layer("loadgen.failed_pct", failed_pct, "%");
    result.layer("trace.overhead_pct",
                 100.0 * (median(untraced_rps) / median(capacity_rps) - 1.0),
                 "%");
    finishTrace(log, options, result);
    return result;
}

} // namespace perfbench
