/// @file
/// Measured machine roofline (STREAM-style triad, FMA peak loop) and the
/// tensor kernel layer (Matrix::matvecPanel, bnnDotPanel) called
/// directly on a network's gate shapes, all on nproc threads.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench.hh"
#include "tensor/bitpack.hh"

namespace perfbench
{

using namespace nlfm;

namespace
{

std::size_t
threadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/// Run body(thread_index) on every thread and join them all.
template <typename Body>
void
onAllThreads(Body body)
{
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < threadCount(); ++t)
        threads.emplace_back(body, t);
    for (auto &thread : threads)
        thread.join();
}

/// Last-level cache size in bytes (sysfs), 32 MiB when unknown.
std::size_t
llcBytes()
{
    for (int index = 4; index >= 0; --index) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size");
        std::string text;
        if (in >> text && !text.empty()) {
            std::size_t value = std::stoul(text);
            if (text.back() == 'K')
                value <<= 10;
            else if (text.back() == 'M')
                value <<= 20;
            return value;
        }
    }
    return std::size_t{32} << 20;
}

/// STREAM triad a = b + s * c over three double arrays whose combined
/// size is at least 4x the LLC; best of five passes, in GB/s (STREAM's
/// byte count: three arrays per pass).
double
streamTriadGbs(Result &result)
{
    const std::size_t llc = llcBytes();
    const std::size_t per_array = (4 * llc / 3 / sizeof(double) + 4095) &
                                  ~std::size_t{4095};
    const std::size_t threads = threadCount();
    std::vector<double> a(per_array), b(per_array), c(per_array);
    auto slice = [&](std::size_t t) {
        const std::size_t chunk = per_array / threads;
        const std::size_t begin = t * chunk;
        return std::pair{begin, t + 1 == threads ? per_array : begin + chunk};
    };
    onAllThreads([&](std::size_t t) {
        auto [begin, end] = slice(t);
        for (std::size_t i = begin; i < end; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    double best = 1e30;
    for (int pass = 0; pass < 5; ++pass) {
        const auto start = Clock::now();
        onAllThreads([&](std::size_t t) {
            auto [begin, end] = slice(t);
            const double s = 3.0;
            for (std::size_t i = begin; i < end; ++i)
                a[i] = b[i] + s * c[i];
        });
        best = std::min(best, secondsSince(start));
    }
    if (a[per_array / 2] != 7.0)
        result.mismatch("stream triad computed a wrong value");
    result.info("machine.llc_mb", static_cast<double>(llc) / (1 << 20), "MB");
    result.info("machine.stream_array_mb",
                static_cast<double>(per_array * sizeof(double)) / (1 << 20),
                "MB");
    return 3.0 * static_cast<double>(per_array * sizeof(double)) / best /
           1e9;
}

constexpr int kChains = 12;

__attribute__((target("avx2,fma"))) float
fmaChainsAvx2(std::size_t iterations, float seed)
{
    __m256 acc[kChains];
    for (int k = 0; k < kChains; ++k)
        acc[k] = _mm256_set1_ps(seed + static_cast<float>(k));
    const __m256 mul = _mm256_set1_ps(0.999999f);
    const __m256 add = _mm256_set1_ps(1e-7f);
    for (std::size_t i = 0; i < iterations; ++i)
        for (int k = 0; k < kChains; ++k)
            acc[k] = _mm256_fmadd_ps(acc[k], mul, add);
    float sum = 0.0f;
    alignas(32) float lanes[8];
    for (int k = 0; k < kChains; ++k) {
        _mm256_store_ps(lanes, acc[k]);
        sum += lanes[0];
    }
    return sum;
}

__attribute__((target("avx512f"))) float
fmaChainsAvx512(std::size_t iterations, float seed)
{
    __m512 acc[kChains];
    for (int k = 0; k < kChains; ++k)
        acc[k] = _mm512_set1_ps(seed + static_cast<float>(k));
    const __m512 mul = _mm512_set1_ps(0.999999f);
    const __m512 add = _mm512_set1_ps(1e-7f);
    for (std::size_t i = 0; i < iterations; ++i)
        for (int k = 0; k < kChains; ++k)
            acc[k] = _mm512_fmadd_ps(acc[k], mul, add);
    float sum = 0.0f;
    alignas(64) float lanes[16];
    for (int k = 0; k < kChains; ++k) {
        _mm512_store_ps(lanes, acc[k]);
        sum += lanes[0];
    }
    return sum;
}

/// FMA peak on every thread with the widest vector ISA the CPU has, in
/// GFLOP/s (one FMA = 2 flops per lane).
double
fmaPeakGflops(Result &result)
{
    const bool wide = __builtin_cpu_supports("avx512f");
    const int lanes = wide ? 16 : 8;
    const std::size_t iterations = 60'000'000;
    std::vector<float> sink(threadCount());
    const auto start = Clock::now();
    onAllThreads([&](std::size_t t) {
        const float seed = 1.0f + static_cast<float>(t);
        sink[t] = wide ? fmaChainsAvx512(iterations, seed)
                       : fmaChainsAvx2(iterations, seed);
    });
    const double wall = secondsSince(start);
    float total = 0.0f;
    for (const float s : sink)
        total += s;
    result.info("machine.fma_lanes", lanes, "lanes");
    if (!std::isfinite(total))
        result.mismatch("FMA peak loop produced a non-finite value");
    return 2.0 * lanes * kChains * static_cast<double>(iterations) *
           static_cast<double>(threadCount()) / wall / 1e9;
}

/// Every gate weight matrix (wx and wh) of the network.
std::vector<const tensor::Matrix *>
gateMatrices(nn::RnnNetwork &network)
{
    std::vector<const tensor::Matrix *> out;
    for (const auto &instance : network.gateInstances()) {
        const auto &params = network.gateParams(instance.instanceId);
        out.push_back(&params.wx);
        out.push_back(&params.wh);
    }
    return out;
}

constexpr double kKernelSeconds = 0.4;

} // namespace

void
measureMachineAndKernels(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
                         std::size_t panel, Result &result)
{
    const double stream_gbs = streamTriadGbs(result);
    const double peak_gflops = fmaPeakGflops(result);
    result.layer("machine.stream_gbs", stream_gbs, "GB/s");
    result.layer("machine.fma_peak_gflops", peak_gflops, "GFLOP/s");

    // FMA panel kernel: each thread streams its share of the network's
    // gate matrices (one network step of weights across the machine)
    // against its own [panel x cols] input panel.
    const auto matrices = gateMatrices(network);
    const std::size_t threads = threadCount();
    std::vector<double> flops(threads, 0.0);
    std::vector<std::size_t> rows(panel);
    for (std::size_t r = 0; r < panel; ++r)
        rows[r] = r;
    onAllThreads([&](std::size_t t) {
        std::vector<const tensor::Matrix *> mine;
        for (std::size_t m = t; m < matrices.size(); m += threads)
            mine.push_back(matrices[m]);
        if (mine.empty())
            return;
        std::vector<tensor::Matrix> inputs, outputs;
        for (const tensor::Matrix *w : mine) {
            inputs.emplace_back(panel, w->cols());
            for (auto &v : inputs.back().data())
                v = 0.01f;
            outputs.emplace_back(panel, w->rows());
        }
        const auto start = Clock::now();
        while (secondsSince(start) < kKernelSeconds) {
            for (std::size_t m = 0; m < mine.size(); ++m) {
                mine[m]->matvecPanel(inputs[m], rows, outputs[m], m % 2 == 1);
                flops[t] += 2.0 * static_cast<double>(mine[m]->size()) *
                            static_cast<double>(panel);
            }
        }
        flops[t] /= secondsSince(start);
    });
    double fma_rate = 0.0;
    for (const double f : flops)
        fma_rate += f;
    double bytes_per_step = 0.0;
    double flops_per_step = 0.0;
    for (const tensor::Matrix *w : matrices) {
        // Weights once, the input panel once, the output panel read and
        // written: computed from tensor sizes, not measured.
        bytes_per_step += 4.0 * (static_cast<double>(w->size()) +
                                 static_cast<double>(panel * w->cols()) +
                                 2.0 * static_cast<double>(panel * w->rows()));
        flops_per_step += 2.0 * static_cast<double>(w->size() * panel);
    }
    const double intensity = flops_per_step / bytes_per_step;
    const double attainable =
        std::min(peak_gflops, intensity * stream_gbs);
    result.layer("tensor.fma.gflops", fma_rate / 1e9, "GFLOP/s");
    result.layer("tensor.fma.roofline_pct",
                 100.0 * fma_rate / 1e9 / attainable, "%");
    result.layer("tensor.fma.bytes_per_step", bytes_per_step,
                 "B-computed");

    // BNN probe panel kernel on the mirror's sign matrices.
    std::vector<double> ops(threads, 0.0);
    onAllThreads([&](std::size_t t) {
        std::vector<const tensor::BitMatrix *> mine;
        for (std::size_t g = t; g < bnn.gateCount(); g += threads)
            mine.push_back(&bnn.gate(g).weights());
        if (mine.empty())
            return;
        Rng rng(t + 1);
        std::vector<std::vector<tensor::BitVector>> inputs(mine.size());
        std::vector<std::vector<const std::uint64_t *>> pointers(mine.size());
        std::vector<std::vector<std::int32_t>> out(mine.size());
        for (std::size_t m = 0; m < mine.size(); ++m) {
            std::vector<float> values(mine[m]->cols());
            for (std::size_t s = 0; s < panel; ++s) {
                for (auto &v : values)
                    v = static_cast<float>(rng.uniform(-1.0, 1.0));
                inputs[m].push_back(tensor::BitVector::fromFloats(values));
            }
            for (const auto &input : inputs[m])
                pointers[m].push_back(input.raw().data());
            out[m].resize(mine[m]->rows() * panel);
        }
        const auto start = Clock::now();
        while (secondsSince(start) < kKernelSeconds) {
            for (std::size_t m = 0; m < mine.size(); ++m) {
                tensor::bnnDotPanel(*mine[m], 0, mine[m]->rows(), pointers[m],
                                    out[m]);
                ops[t] += static_cast<double>(mine[m]->rows() *
                                              mine[m]->cols() * panel);
            }
        }
        ops[t] /= secondsSince(start);
    });
    double probe_rate = 0.0;
    for (const double o : ops)
        probe_rate += o;
    const tensor::BnnIsa isa = tensor::bnnActiveIsa();
    result.layer("tensor.probe.gops", probe_rate / 1e9, "Gop/s");
    result.layer("tensor.probe.isa_bits",
                 isa == tensor::BnnIsa::Avx512 ? 512
                 : isa == tensor::BnnIsa::Avx2 ? 256
                                               : 64,
                 "bits");
}

} // namespace perfbench
