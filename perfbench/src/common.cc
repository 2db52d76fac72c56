#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "nn/serialize.hh"
#include "workloads/generators.hh"

namespace perfbench
{

using namespace nlfm;

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace
{

/// Process CPU time (user + system) in seconds, all threads.
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// CPU seconds used so far by each live thread (/proc/self/task).
std::map<int, double>
threadCpuSeconds()
{
    std::map<int, double> out;
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return out;
    while (dirent *entry = readdir(dir)) {
        if (entry->d_name[0] == '.')
            continue;
        std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                           "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // utime and stime are fields 14 and 15; the command name before
        // them is parenthesised and may contain spaces.
        const auto close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 2));
        std::string field;
        double utime = 0.0;
        double stime = 0.0;
        for (int index = 3; rest >> field; ++index) {
            if (index == 14)
                utime = std::stod(field);
            if (index == 15) {
                stime = std::stod(field);
                break;
            }
        }
        out[std::atoi(entry->d_name)] = (utime + stime) / tick;
    }
    closedir(dir);
    return out;
}

} // namespace

void
CpuMeter::start()
{
    cpuStart_ = processCpuSeconds();
    threadStart_ = threadCpuSeconds();
}

void
CpuMeter::stop(double wall_s)
{
    cpu_ += processCpuSeconds() - cpuStart_;
    wall_ += wall_s;
    for (const auto &[tid, cpu] : threadCpuSeconds()) {
        const auto it = threadStart_.find(tid);
        threadCpu_[tid] += cpu - (it == threadStart_.end() ? 0.0 : it->second);
    }
}

double
CpuMeter::busyShare() const
{
    return cpu_ / (wall_ * std::max(1u, std::thread::hardware_concurrency()));
}

double
CpuMeter::activeThreads() const
{
    int active = 0;
    for (const auto &[tid, cpu] : threadCpu_)
        if (cpu >= 0.05 * wall_)
            ++active;
    return active;
}

void
Result::mismatch(const std::string &what)
{
    correct = false;
    if (mismatches.size() < 20)
        mismatches.push_back(what);
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
jsonMetrics(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>
        &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].first) + ": {\"value\": " +
               jsonNumber(metrics[i].second.first) +
               ", \"unit\": " + jsonString(metrics[i].second.second) + "}";
    }
    return out + "}";
}

} // namespace

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"mismatches\": [";
    for (std::size_t i = 0; i < mismatches.size(); ++i)
        out += (i ? ", " : "") + jsonString(mismatches[i]);
    out += "], \"phases\": [";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase &p = phases[i];
        out += (i ? ", " : "");
        out += "{\"name\": " + jsonString(p.name) +
               ", \"sent\": " + std::to_string(p.sent) +
               ", \"succeeded\": " + std::to_string(p.succeeded) +
               ", \"failed\": " + std::to_string(p.failed) +
               ", \"shed\": " + std::to_string(p.shed) + "}";
    }
    out += "], \"end_to_end\": " + jsonMetrics(endToEnd);
    out += ", \"per_layer\": " + jsonMetrics(perLayer);
    out += ", \"detail\": " + jsonMetrics(detail) + "}";
    return out;
}

// ------------------------------------------------------------- spans

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::int64_t
SpanLog::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

std::uint64_t
SpanLog::newId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
SpanLog::add(Span span)
{
    if (span.tid == 0)
        span.tid = static_cast<int>(syscall(SYS_gettid));
    std::lock_guard<std::mutex> lock(mutex_);
    if (span.id == 0)
        span.id = nextId_++;
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of each span, as intervals; their union is subtracted.
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back({s.startNs, s.endNs});
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t cursor = s.startNs;
            for (auto [b, e] : intervals) {
                b = std::max(b, cursor);
                e = std::min(e, s.endNs);
                if (e > b) {
                    covered += e - b;
                    cursor = e;
                }
            }
        }
        self[s.layer] += static_cast<double>(s.endNs - s.startNs - covered) *
                         1e-9;
    }
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buffer[512];
        std::snprintf(buffer, sizeof buffer,
                      "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %d, \"args\": {\"id\": %llu, "
                      "\"parent\": %llu, \"request\": %llu}}%s\n",
                      jsonString(s.name).c_str(),
                      jsonString(s.layer).c_str(), s.startNs * 1e-3,
                      (s.endNs - s.startNs) * 1e-3, s.tid,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request),
                      i + 1 < spans_.size() ? "," : "");
        out << buffer;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void
finishTrace(const SpanLog &log, const RunOptions &options, Result &result)
{
    for (const auto &[layer, seconds] : log.selfSeconds())
        result.info("self_s." + layer, seconds, "s");
    if (!options.traceOut.empty() && !log.writeChromeTrace(options.traceOut))
        result.mismatch("cannot write trace " + options.traceOut);
}

double
failedPct(const std::vector<Phase> &phases)
{
    std::uint64_t attempted = 0, lost = 0;
    for (const Phase &p : phases) {
        attempted += p.sent;
        lost += p.sent - p.succeeded;
    }
    return 100.0 * static_cast<double>(lost) /
           static_cast<double>(std::max<std::uint64_t>(1, attempted));
}

// ------------------------------------------------------------ models

namespace
{

const char *
fileStem(const std::string &network)
{
    if (network == "DeepSpeech2")
        return "ds2";
    if (network == "IMDB")
        return "imdb";
    nlfm_fatal("perfbench: unsupported network ", network);
}

/// File names of a zoo network's model and decode head in @p dir.
std::string
modelPath(const std::string &dir, const std::string &network)
{
    return dir + "/" + fileStem(network) + ".nlfm";
}

std::string
headPath(const std::string &dir, const std::string &network)
{
    return dir + "/" + fileStem(network) + ".head";
}

void
saveHead(const tensor::Matrix &head, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t shape[2] = {head.rows(), head.cols()};
    out.write(reinterpret_cast<const char *>(shape), sizeof shape);
    out.write(reinterpret_cast<const char *>(head.data().data()),
              static_cast<std::streamsize>(head.size() * sizeof(float)));
    if (!out)
        nlfm_fatal("perfbench: cannot write ", path);
}

tensor::Matrix
loadHead(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t shape[2] = {0, 0};
    in.read(reinterpret_cast<char *>(shape), sizeof shape);
    if (!in || shape[0] == 0 || shape[1] == 0 || shape[0] > 4096 ||
        shape[1] > 65536)
        nlfm_fatal("perfbench: bad decode head ", path);
    tensor::Matrix head(shape[0], shape[1]);
    in.read(reinterpret_cast<char *>(head.data().data()),
            static_cast<std::streamsize>(head.size() * sizeof(float)));
    if (!in)
        nlfm_fatal("perfbench: short decode head ", path);
    return head;
}

/// The zoo's token embedding table of IMDB (model_zoo.cc: vocabulary
/// 64, seeded from the spec seed), so generated token inputs match
/// what the network was built for.
const workloads::TokenEmbedder &
imdbEmbedder()
{
    static const workloads::TokenEmbedder embedder = [] {
        const auto &spec = workloads::specByName("IMDB");
        Rng rng(spec.seed * 7919 + 17);
        return workloads::TokenEmbedder(64, spec.rnn.inputSize, rng,
                                        spec.embedMeanScale);
    }();
    return embedder;
}

} // namespace

LoadedModel
loadModel(const std::string &dir, const std::string &network,
          SetupTimes &times)
{
    LoadedModel model;
    model.workload = std::make_unique<workloads::Workload>();
    model.workload->spec = workloads::specByName(network);
    auto start = Clock::now();
    model.workload->network = nn::loadNetwork(modelPath(dir, network));
    times.loadS += secondsSince(start);
    start = Clock::now();
    model.workload->bnn =
        std::make_unique<nn::BinarizedNetwork>(*model.workload->network);
    times.bnnS += secondsSince(start);
    return model;
}

void
loadScorer(LoadedModel &model, const std::string &dir)
{
    model.workload->decodeHead =
        loadHead(headPath(dir, model.workload->spec.name));
    model.scorer =
        std::make_unique<workloads::WorkloadEvaluator>(*model.workload);
}

SetupTimes
timeSetups(const std::function<void()> &teardown,
           const std::function<SetupTimes()> &build)
{
    constexpr std::size_t kSamples = 9;
    constexpr double kSampleSeconds = 0.05;
    std::vector<double> load, bnn, server;
    for (std::size_t sample = 0; sample < kSamples; ++sample) {
        SetupTimes sum;
        std::size_t reps = 0;
        while (reps == 0 || sum.total() < kSampleSeconds) {
            // Every set-up starts cold, as a process's first one does:
            // whether the allocator kept the freed pages would
            // otherwise decide whether the next set-up page-faults,
            // and that differs from one process to the next.
            teardown();
            malloc_trim(0);
            const SetupTimes once = build();
            sum.loadS += once.loadS;
            sum.bnnS += once.bnnS;
            sum.serverS += once.serverS;
            ++reps;
        }
        load.push_back(sum.loadS / static_cast<double>(reps));
        bnn.push_back(sum.bnnS / static_cast<double>(reps));
        server.push_back(sum.serverS / static_cast<double>(reps));
    }
    return {median(load), median(bnn), median(server)};
}

void
prepareModels(const std::string &dir)
{
    for (const std::string network : {"DeepSpeech2", "IMDB"}) {
        // One short sequence per split: only the weights and the decode
        // head are kept.
        auto workload = workloads::buildWorkload(
            workloads::specByName(network), 2, 2);
        nn::saveNetwork(*workload->network, modelPath(dir, network));
        saveHead(workload->decodeHead, headPath(dir, network));
    }
}

nn::Sequence
generateInput(const std::string &network, std::size_t steps, Rng &rng)
{
    const auto &spec = workloads::specByName(network);
    if (spec.task == workloads::TaskKind::SpeechWer) {
        workloads::SpeechGenOptions options;
        options.dim = spec.rnn.inputSize;
        options.correlation = spec.inputSmoothness;
        return workloads::generateSpeechFrames(steps, options, rng);
    }
    const auto tokens = workloads::generateMarkovTokens(
        steps, imdbEmbedder().vocab(), spec.inputSmoothness, rng);
    return imdbEmbedder().embedSequence(tokens);
}

std::vector<nn::Sequence>
generateBatch(LoadedModel &model, std::size_t count, std::size_t steps,
              std::uint64_t seed)
{
    const auto &spec = model.workload->spec;
    const bool sentiment =
        spec.task == workloads::TaskKind::SentimentAccuracy;
    Rng rng(seed);
    std::vector<nn::Sequence> inputs;
    for (std::size_t i = 0; i < (sentiment ? 2 * count : count); ++i) {
        Rng seq_rng = rng.fork(i);
        inputs.push_back(generateInput(spec.name, steps, seq_rng));
    }
    if (!sentiment)
        return inputs;
    // Keep the confidently classified half of an oversampled pool, as
    // the zoo's sentiment splits do (model_zoo.cc): a trained classifier
    // decides most examples with margin, a random head does not.
    const auto outputs = model.network().forwardBatchBaseline(inputs);
    const auto &head = model.workload->decodeHead;
    std::vector<std::pair<double, std::size_t>> margins;
    std::vector<float> pooled(head.rows()), step(head.rows());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        std::fill(pooled.begin(), pooled.end(), 0.0f);
        for (const auto &h : outputs[i]) {
            head.matvec(h, step);
            for (std::size_t k = 0; k < pooled.size(); ++k)
                pooled[k] += step[k];
        }
        margins.emplace_back(-std::fabs(pooled[0] - pooled[1]), i);
    }
    std::sort(margins.begin(), margins.end());
    std::vector<std::size_t> keep;
    for (std::size_t r = 0; r < count; ++r)
        keep.push_back(margins[r].second);
    std::sort(keep.begin(), keep.end());
    std::vector<nn::Sequence> kept;
    for (const std::size_t i : keep)
        kept.push_back(std::move(inputs[i]));
    return kept;
}

std::size_t
stratifiedLength(std::size_t base, std::size_t index)
{
    const std::size_t lo = std::max<std::size_t>(1, base / 2);
    return lo + index % (base - lo + 1);
}

bool
sameBits(const nn::Sequence &a, const nn::Sequence &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size())
            return false;
        if (std::memcmp(a[t].data(), b[t].data(),
                        a[t].size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

void
corrupt(nn::Sequence &sequence)
{
    if (sequence.empty() || sequence[0].empty())
        return;
    auto bits = std::bit_cast<std::uint32_t>(sequence[0][0]);
    sequence[0][0] = std::bit_cast<float>(bits ^ 1u);
}

} // namespace perfbench
