/// @file
/// Shared pieces of the performance benchmark: timing, percentiles, the
/// result record every workload fills, the in-memory span log of traced
/// runs, and the model/input helpers.
///
/// The benchmark measures every layer from outside: it times calls into
/// public functions of the nlfm library and never changes library code.

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "nn/binarized.hh"
#include "workloads/evaluators.hh"

namespace nlfm::serve
{
class DriverTracer;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

inline double
median(std::vector<double> values)
{
    return nlfm::percentile(std::move(values), 50.0);
}

/// The frozen thresholds, picked once with the repository's tuner
/// (README.md, "Frozen thresholds").
constexpr double kDs2Theta = 0.010667;
constexpr double kImdbTheta = 1.0;

/// Slot pool width of the serving workloads.
constexpr std::size_t kServingSlots = 8;

/// Stepping threads of a server, its driver included: every core but
/// the one the load generator runs on.
inline std::size_t
servingWorkers()
{
    return std::max(2u, std::thread::hardware_concurrency()) - 1;
}

/// Peak resident set size of this process, in MB (getrusage).
double peakRssMb();

/// CPU use of the process over one or more measured windows: busy
/// share of the machine and how many threads did the work.
class CpuMeter
{
  public:
    /// Open a window.
    void start();
    /// Close the window opened by start(), @p wall_s seconds long.
    void stop(double wall_s);

    /// Process CPU seconds / (wall seconds x nproc) over the windows.
    double busyShare() const;
    /// Threads that used at least 5% of the windows' wall time.
    double activeThreads() const;

  private:
    double cpuStart_ = 0.0;
    std::map<int, double> threadStart_;
    double cpu_ = 0.0;
    double wall_ = 0.0;
    std::map<int, double> threadCpu_;
};

/// Requests of one measurement phase: what the load generator sent and
/// what came back. Every sent request must be accounted for.
struct Phase
{
    std::string name;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
};

/// Everything one workload run reports.
struct Result
{
    /// Set to false by any correctness mismatch.
    bool correct = true;
    std::vector<std::string> mismatches;
    std::vector<Phase> phases;
    /// Metrics by name -> (value, unit). endToEnd and perLayer carry
    /// the names BENCHMARK.json lists; detail carries the per-workload
    /// names of the metric catalogue (perfbench/README.md).
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        endToEnd, perLayer, detail;

    void mismatch(const std::string &what);
    void e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, {value, unit}});
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        perLayer.push_back({name, {value, unit}});
    }
    void info(const std::string &name, double value, const std::string &unit)
    {
        detail.push_back({name, {value, unit}});
    }
    /// The result as one JSON object (the binary's last output line).
    std::string json() const;
};

/// One recorded span of a traced run. Times are ns since the log's
/// epoch; parent is the id of the enclosing span (0 = root).
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string name;  ///< e.g. "nn.gate"
    std::string layer; ///< module the span measures, e.g. "nn"
    int tid = 0;
};

/// In-memory span log: thread-safe append, Chrome trace-event export
/// and per-layer self time at the end of the run.
class SpanLog
{
  public:
    SpanLog();

    std::int64_t nowNs() const { return toNs(Clock::now()); }
    std::int64_t toNs(Clock::time_point t) const;
    std::uint64_t newId();
    void add(Span span);
    std::vector<Span> spans() const;

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it covered by its children.
    std::map<std::string, double> selfSeconds() const;

    /// Write the spans as Chrome trace-event JSON; false on IO error.
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

struct RunOptions;

/// Report per-layer self time (`self_s.<layer>` detail rows) and write
/// the Chrome trace, when the run asked for one.
void finishTrace(const SpanLog &log, const RunOptions &options,
                 Result &result);

/// (failed + shed + unaccounted) / sent over @p phases, in percent.
double failedPct(const std::vector<Phase> &phases);

/// Run-wide options shared by all workloads.
struct RunOptions
{
    std::string workload; ///< workload name, as in BENCHMARK.json
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string modelDir;
    std::string traceOut;       ///< Chrome trace path (traced runs)
    bool corruptReference = false; ///< self-test: gate must fail
};

/// A loaded model: network, BNN mirror and the zoo's decode head, ready
/// for scoring quality with the repository's canonical task metrics.
struct LoadedModel
{
    std::unique_ptr<nlfm::workloads::Workload> workload;
    std::unique_ptr<nlfm::workloads::WorkloadEvaluator> scorer;

    nlfm::nn::RnnNetwork &network() { return *workload->network; }
    nlfm::nn::BinarizedNetwork *bnn() { return workload->bnn.get(); }
};

/// Seconds of one set-up, by stage: nn::loadNetwork, the BNN mirror,
/// and engine or server construction.
struct SetupTimes
{
    double loadS = 0.0;
    double bnnS = 0.0;
    double serverS = 0.0;

    double total() const { return loadS + bnnS + serverS; }
};

/// nn::loadNetwork + BinarizedNetwork of one model file; adds the two
/// stage times to @p times. No scorer yet (loadScorer).
LoadedModel loadModel(const std::string &dir, const std::string &network,
                      SetupTimes &times);

/// Read the model's decode head and build its quality scorer. Not part
/// of set-up: the scorer only judges quality, outside every timed
/// region.
void loadScorer(LoadedModel &model, const std::string &dir);

/// Median set-up times of one workload. @p build builds the model(s)
/// and engine or server and returns its stage times; @p teardown
/// destroys what it built. A sample repeats teardown + build for at
/// least 50 ms and averages, so sub-millisecond set-ups are timed over
/// many repetitions; the median of nine samples is returned. What the
/// last build made stays alive.
SetupTimes timeSetups(const std::function<void()> &teardown,
                      const std::function<SetupTimes()> &build);

/// Write every zoo network the workloads use (model file via
/// nn::saveNetwork plus its decode head) into @p dir.
void prepareModels(const std::string &dir);

/// Input generators: speech frames for DeepSpeech2, embedded Markov
/// token streams for IMDB, with the zoo's generator settings.
nlfm::nn::Sequence generateInput(const std::string &network,
                                 std::size_t steps, nlfm::Rng &rng);

/// A closed batch of @p count inputs of @p steps from @p seed; for
/// sentiment networks, the confidently classified half of twice as many.
std::vector<nlfm::nn::Sequence> generateBatch(LoadedModel &model,
                                              std::size_t count,
                                              std::size_t steps,
                                              std::uint64_t seed);

/// Length of the @p index-th input: every length in [base / 2, base] in
/// turn, so the length mix is the same for every seed.
std::size_t stratifiedLength(std::size_t base, std::size_t index);

/// Bitwise equality of two output sequences.
bool sameBits(const nlfm::nn::Sequence &a, const nlfm::nn::Sequence &b);

/// Flip one mantissa bit of the first output value (self-test of the
/// correctness gate).
void corrupt(nlfm::nn::Sequence &sequence);

/// Measured roofline denominators and the kernel layer, on the shapes
/// of @p network with panel width @p panel (traced runs only).
void measureMachineAndKernels(nlfm::nn::RnnNetwork &network,
                              nlfm::nn::BinarizedNetwork &bnn,
                              std::size_t panel, Result &result);

/// Gate-phase and session-restore nanoseconds of a server's driver.
struct DriverPhaseNs
{
    double probe = 0.0;
    double decide = 0.0;
    double commit = 0.0;
    double restore = 0.0;
};

/// Copy a stopped server's driver spans into @p log (each step span
/// parents its probe/decide/commit attribution spans) and sum the
/// phase times. Fatal when the ring dropped spans.
DriverPhaseNs importDriverSpans(const nlfm::serve::DriverTracer &tracer,
                                SpanLog &log);

// Workloads.
Result runBatch(const RunOptions &options);
Result runServe(const RunOptions &options);
Result runFleet(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
