#include "serve/server.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace nlfm::serve
{

namespace
{

AdmissionConfig
serverAdmissionConfig(const ServerOptions &options)
{
    AdmissionConfig config;
    config.server = "serve::Server";
    config.queueCapacity = options.queueCapacity;
    config.slots = options.slots;
    config.queuePolicy = options.queuePolicy;
    config.shedExpired = options.shedExpired;
    config.shedPredicted = options.shedPredicted;
    config.sessionCapacity = options.sessionCapacity;
    return config;
}

std::vector<AdmissionModel>
serverAdmissionModel(const nn::RnnNetwork &network,
                     const ServerOptions &options)
{
    AdmissionModel model;
    model.inputLabel = "network input";
    model.inputWidth = network.config().inputSize;
    model.stepCostMs = options.calibratedStepCostMs;
    model.defaultTheta = options.memoized ? options.memo.theta : 0.0;
    return {model};
}

} // namespace

Server::Server(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
               const ServerOptions &options)
    : network_(network), options_(options),
      admission_(serverAdmissionConfig(options),
                 serverAdmissionModel(network, options)),
      scheduler_(options.slots), stepper_(network, options.slots)
{
    nlfm_assert(!options_.shedPredicted ||
                    options_.calibratedStepCostMs > 0.0,
                "shedPredicted needs calibratedStepCostMs > 0 (the "
                "estimate has no scale without it)");
    nlfm_assert(!options_.autopilot.enabled || options_.memoized,
                "theta autopilot on an exact server has no knob to "
                "turn (requires memoized)");
    // Single model: the aggregate IS the model, so no per-model sinks.
    admission_.attachStats(stats_);
    if (options_.autopilot.enabled)
        controller_ = std::make_unique<ThetaController>(
            options_.autopilot, options_.memo.theta);
    if (options_.memoized) {
        engine_ = std::make_unique<memo::BatchMemoEngine>(
            network, bnn, options_.memo);
        // Size the slot-keyed memo table to the pool once; admission
        // recycles slots individually from here on.
        engine_->beginBatch(options_.slots);
        evaluator_ = engine_.get();
    } else {
        exact_ = std::make_unique<nn::DirectBatchEvaluator>();
        exact_->beginBatch(options_.slots);
        evaluator_ = exact_.get();
    }
    if (options_.telemetry.enabled()) {
        telemetry_ = std::make_unique<Telemetry>(
            options_.telemetry, std::vector<std::string>{"default"});
        admission_.attachTelemetry(telemetry_.get());
        // Phase attribution only pays its clock reads when someone can
        // see them: the sink exists iff the tracer does.
        if (telemetry_->tracer() != nullptr && engine_)
            engine_->setPhaseSink(&phaseTimes_);
    }
    if (options_.workers > 1)
        pool_ = std::make_unique<ThreadPool>(options_.workers);
    // Effective chunk size: chunkSize is an upper bound, capped so the
    // requested workers can actually split the slot range (the same
    // rule as RnnNetwork::forwardBatch).
    chunkSize_ = cappedChunkSize(options_.chunkSize, options_.slots,
                                 options_.workers);
    // The measured interval opens with the server, so throughput
    // denominators cover queueing from the very first enqueue.
    stats_.start();
    driver_ = std::thread([this] { driverLoop(); });
}

Server::~Server()
{
    stop();
}

std::future<Response>
Server::enqueue(Request request)
{
    return admission_.submit(0, std::move(request));
}

Response
Server::collect(std::future<Response> &future)
{
    return future.get();
}

Response
Server::collect(std::future<Response> &&future)
{
    return future.get();
}

void
Server::drain()
{
    admission_.drain();
}

void
Server::stop()
{
    if (stopping_.exchange(true))
        return;
    admission_.close();
    if (driver_.joinable())
        driver_.join();
}

void
Server::driverLoop()
{
    while (true) {
        controllerTick();
        admitPending();
        if (scheduler_.activeCount() == 0) {
            if (admission_.drainedAndClosed())
                break;
            admission_.waitWork(std::chrono::milliseconds(2));
            continue;
        }
        tick();
    }
}

void
Server::controllerTick()
{
    if (!controller_)
        return;
    ThetaSignals signals;
    signals.occupancy = static_cast<double>(scheduler_.activeCount()) /
                        static_cast<double>(options_.slots);
    signals.queueDepth = admission_.queueDepth(0);
    const StatsCounters counters = stats_.counters();
    signals.shed = counters.shed;
    signals.deadlineMissed = counters.deadlineMissed();
    if (controller_->tick(signals))
        admission_.setThetaFloor(0, controller_->floor());
}

void
Server::admitPending()
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    while (scheduler_.hasFree()) {
        QueuedRequest item;
        const Admission::Pop outcome = admission_.pop(0, item);
        if (outcome == Admission::Pop::Empty)
            break;
        if (outcome == Admission::Pop::Shed)
            continue;
        // Frame widths were validated at submit(). Theta is the merge
        // of the request's own value with the autopilot floor — the
        // request's value verbatim (sentinel included) when no floor
        // binds.
        const double theta = admission_.mergedTheta(0, item.request);
        const std::int64_t t_admit = tracer ? tracer->nowNs() : 0;
        const std::size_t slot = scheduler_.admit(std::move(item));
        stepper_.resetSlot(slot);
        if (engine_)
            engine_->admitSlot(slot, theta);
        // Session warm start: restore the session's snapshot over the
        // freshly reset slot (memo table + recurrent rows), leaving the
        // admission just done — theta and reuse counters — alone. No
        // snapshot (unknown id, evicted, in flight) = cold start.
        SlotState &admitted = scheduler_.slot(slot);
        if (admission_.sessionsEnabled() &&
            !admitted.request.sessionId.empty()) {
            const std::int64_t t_restore =
                tracer ? tracer->nowNs() : 0;
            if (auto snap =
                    admission_.takeSession(0, admitted.request.sessionId)) {
                if (engine_ && !snap->memo.empty())
                    engine_->restoreSlot(slot, snap->memo);
                stepper_.restoreSlot(slot, snap->cell);
                admitted.warmStart = true;
                if (tracer != nullptr) {
                    TraceSpan span;
                    span.phase = TracePhase::SessionRestore;
                    span.startNs = t_restore;
                    span.durNs = tracer->nowNs() - t_restore;
                    span.slot = static_cast<std::uint32_t>(slot);
                    span.requestId = admitted.id;
                    span.warmResumed = true;
                    tracer->record(span);
                }
            }
        }
        if (tracer != nullptr) {
            TraceSpan span;
            span.phase = TracePhase::Admit;
            span.startNs = t_admit;
            span.durNs = tracer->nowNs() - t_admit;
            span.slot = static_cast<std::uint32_t>(slot);
            span.requestId = admitted.id;
            span.theta = static_cast<float>(
                engine_ ? engine_->slotTheta(slot)
                        : servedTheta(admitted.request));
            span.warmResumed = admitted.warmStart;
            tracer->record(span);
        }
        // A zero-length sequence has nothing to step: complete in place
        // so it never wastes a panel row.
        if (admitted.request.input.empty())
            completeSlot(slot);
    }
}

void
Server::tick()
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    const std::span<const std::size_t> rows = scheduler_.activeRows();

    // Stage each active slot's current input frame into its panel row.
    const std::int64_t t_stage = tracer ? tracer->nowNs() : 0;
    tensor::Matrix &input = stepper_.inputPanel();
    for (const std::size_t slot : rows) {
        const SlotState &state = scheduler_.slot(slot);
        const auto &frame = state.request.input[state.step];
        std::copy(frame.begin(), frame.end(), input.row(slot).begin());
    }
    const std::int64_t t_step = tracer ? tracer->nowNs() : 0;
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Stage;
        span.startNs = t_stage;
        span.durNs = t_step - t_stage;
        tracer->record(span);
    }

    // Step every active slot one timestep, split into slot-range chunks
    // (boundaries depend only on the effective chunk size, as in
    // forwardBatch, so panel composition per chunk is independent of
    // worker count).
    const std::size_t chunk_size = chunkSize_;
    if (pool_ == nullptr ||
        rows.back() / chunk_size == rows.front() / chunk_size) {
        stepper_.step(rows, *evaluator_);
    } else {
        // tickRanges_[i] = [begin, end) indices into rows of chunk i's
        // slots. A member, not a lambda-local: the lambda runs on pool
        // workers, and they all need to read the driver's list.
        auto &ranges = tickRanges_;
        ranges.clear();
        std::size_t begin = 0;
        for (std::size_t i = 1; i <= rows.size(); ++i) {
            if (i == rows.size() ||
                rows[i] / chunk_size != rows[begin] / chunk_size) {
                ranges.emplace_back(begin, i);
                begin = i;
            }
        }
        pool_->run(ranges.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t c = lo; c < hi; ++c)
                stepper_.step(rows.subspan(ranges[c].first,
                                           ranges[c].second -
                                               ranges[c].first),
                              *evaluator_);
        });
    }
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Step;
        span.startNs = t_step;
        span.durNs = tracer->nowNs() - t_step;
        tracer->record(span);
        // Attribute the step to probe/decide/commit from the engine's
        // cumulative phase counters, laid back to back inside the step
        // window. With pool workers the phase times are summed CPU ns
        // across workers, so they can exceed the step's wall duration —
        // the spans show attribution, not a timeline.
        if (engine_) {
            std::int64_t cursor = t_step;
            const auto sub = [&](TracePhase phase, std::uint64_t total,
                                 std::uint64_t &last) {
                const std::int64_t dur =
                    static_cast<std::int64_t>(total - last);
                last = total;
                if (dur <= 0)
                    return;
                TraceSpan attribution;
                attribution.phase = phase;
                attribution.startNs = cursor;
                attribution.durNs = dur;
                tracer->record(attribution);
                cursor += dur;
            };
            sub(TracePhase::Probe,
                phaseTimes_.probeNs.load(std::memory_order_relaxed),
                lastProbeNs_);
            sub(TracePhase::Decide,
                phaseTimes_.decideNs.load(std::memory_order_relaxed),
                lastDecideNs_);
            sub(TracePhase::Commit,
                phaseTimes_.commitNs.load(std::memory_order_relaxed),
                lastCommitNs_);
        }
    }

    // Collect outputs; completions release slots, which invalidates the
    // active-row span, so gather them first.
    auto &done = tickDone_;
    done.clear();
    for (const std::size_t slot : rows) {
        SlotState &state = scheduler_.slot(slot);
        const auto out = stepper_.output(slot);
        state.output.emplace_back(out.begin(), out.end());
        if (++state.step == state.request.input.size())
            done.push_back(slot);
    }
    for (const std::size_t slot : done)
        completeSlot(slot);
}

void
Server::completeSlot(std::size_t slot)
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    const std::int64_t t_complete = tracer ? tracer->nowNs() : 0;
    SlotState &state = scheduler_.slot(slot);
    const double theta =
        engine_ ? engine_->slotTheta(slot) : servedTheta(state.request);
    const double reuse =
        engine_ ? engine_->slotReuseFraction(slot) : 0.0;
    const std::uint64_t request_id = state.id;
    const bool warm = state.warmStart;
    // Snapshot the finished slot for the session's next turn before the
    // response gives anything away. Exact servers still warm-start the
    // recurrent state; the memo half stays empty.
    if (admission_.sessionsEnabled() && !state.request.sessionId.empty()) {
        SessionState snap;
        if (engine_)
            engine_->exportSlot(slot, snap.memo);
        stepper_.exportSlot(slot, snap.cell);
        admission_.storeSession(0, state.request.sessionId,
                                std::move(snap));
    }
    admission_.complete(0, slot, state, theta, reuse);
    // Restore the default theta while the slot sits free: a stale
    // non-default value would keep counting against the engine's
    // uniform-theta vector decision path even with no such tenant
    // active. (Admission re-resets it anyway.)
    if (engine_)
        engine_->setSlotTheta(slot, engine_->theta());
    scheduler_.release(slot);
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Complete;
        span.startNs = t_complete;
        span.durNs = tracer->nowNs() - t_complete;
        span.slot = static_cast<std::uint32_t>(slot);
        span.requestId = request_id;
        span.theta = static_cast<float>(theta);
        span.warmResumed = warm;
        tracer->record(span);
    }
}

} // namespace nlfm::serve
