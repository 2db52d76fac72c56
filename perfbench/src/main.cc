/// @file
/// perfbench: the measuring binary behind perfbench/run.py.
///
///   perfbench prepare --model-dir D          write the zoo models
///   perfbench run --workload W --model-dir D --seconds S [--seed N]
///                 [--trace 1 --trace-out P] [--corrupt-reference]
///
/// `run` prints one JSON object as its last line (Result::json); run.py
/// turns it into the benchmark's report. Every workload parameter is a
/// constant of the workload's source file.

#include <cstdio>
#include <string>

#include "bench.hh"
#include "common/cli.hh"
#include "common/logging.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench prepare|run [flags]\n");
        return 2;
    }
    const std::string command = argv[1];
    nlfm::CliParser cli("perfbench " + command);
    cli.addString("model-dir", "", "directory of the prepared model files");
    if (command == "prepare") {
        if (!cli.parse(argc - 1, argv + 1))
            return 0;
        prepareModels(cli.getString("model-dir"));
        return 0;
    }
    if (command != "run") {
        std::fprintf(stderr, "unknown command %s\n", command.c_str());
        return 2;
    }

    cli.addString("workload", "", "workload name (BENCHMARK.json)");
    cli.addInt("seed", 1, "input seed");
    cli.addDouble("seconds", 0.0, "measurement time");
    cli.addInt("trace", 0, "1: traced run, per-layer metrics");
    cli.addString("trace-out", "", "Chrome trace output path");
    cli.addBool("corrupt-reference", false,
                "flip one reference bit (the gate must then fail)");
    if (!cli.parse(argc - 1, argv + 1))
        return 0;

    RunOptions options;
    options.workload = cli.getString("workload");
    options.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    options.seconds = cli.getDouble("seconds");
    options.trace = cli.getInt("trace") != 0;
    options.modelDir = cli.getString("model-dir");
    options.traceOut = cli.getString("trace-out");
    options.corruptReference = cli.getBool("corrupt-reference");
    nlfm_assert(!options.modelDir.empty() && options.seconds > 0,
                "perfbench run needs --model-dir and --seconds");

    Result result;
    if (options.workload == "serve-ds2")
        result = runServe(options);
    else if (options.workload == "fleet-sessions")
        result = runFleet(options);
    else
        result = runBatch(options);
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
