/**
 * @file
 * fxbench: the binary that runs and measures one benchmark workload.
 *
 *   fxbench --workload mnist-b1|test5l-b16-serve|design --seed N
 *           --seconds S --trace 0|1 [--fault site:kind[:trigger]]
 *           [--trace-dir DIR]
 *
 * Prints the host identity as one JSON line, then the result as the
 * last line of standard output:
 *   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
 * With --trace 1 the spans of the run are written to
 * DIR/<workload>-seed<N>.trace.json, and those of the short traced
 * runs of the other workloads to
 * DIR/<workload>-seed<N>.aux-<other>.trace.json. Progress and
 * per-phase request counts go to standard error. Exit code 0 when a result was printed,
 * 2 on a usage error, 1 when the run itself failed.
 */
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunOptions;
using perfbench::Tracer;

/** Measured seconds of each short traced run of another workload. */
constexpr double kAuxSeconds = 1.0;

int
usage(const std::string &why)
{
    std::cerr << "fxbench: " << why << "\n"
              << "usage: fxbench --workload mnist-b1|test5l-b16-serve|"
                 "design --seed N --seconds S --trace 0|1 "
                 "[--fault site:kind[:trigger]] [--trace-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string,
                   std::function<Result(const RunOptions &, Tracer &)>>
        workloads{{"mnist-b1", perfbench::runMnistB1},
                  {"test5l-b16-serve", perfbench::runTest5lServe},
                  {"design", perfbench::runDesign}};

    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage("expected --flag value pairs, got '" + flag + "'");
        args[flag.substr(2)] = argv[i + 1];
    }
    RunOptions options;
    try {
        for (const auto &[flag, value] : args) {
            if (flag == "workload")
                options.workload = value;
            else if (flag == "seed")
                options.seed = std::stoull(value);
            else if (flag == "seconds")
                options.seconds = std::stod(value);
            else if (flag == "trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "fault")
                options.fault = value;
            else if (flag == "trace-dir")
                options.traceDir = value;
            else
                return usage("unknown flag --" + flag);
        }
    } catch (const std::exception &) {
        return usage("malformed number in the arguments");
    }
    const auto workload = workloads.find(options.workload);
    if (workload == workloads.end())
        return usage("unknown workload '" + options.workload + "'");
    if (!(options.seconds > 0.0) || options.seconds > 600.0)
        return usage("--seconds must be in (0, 600]");

    const std::string identity = perfbench::identityJson(
        options, options.workload == "design" ? "none" : "cpu");
    std::cerr << "fxbench " << identity << "\n";
    // One tracer per workload run: span names are only unique within a
    // workload.
    std::map<std::string, Tracer> tracers;
    Result result;
    try {
        result = workload->second(options, tracers[options.workload]);
        if (options.trace) {
            // Per-layer rows the workload does not exercise come from a
            // short traced run of each other workload, so that every row
            // of a traced result is measured.
            for (const auto &[name, run] : workloads) {
                if (name == options.workload)
                    continue;
                RunOptions aux = options;
                aux.workload = name;
                aux.seconds = kAuxSeconds;
                aux.fault.clear();
                std::cerr << "fxbench: short traced run of " << name << "\n";
                result.merge(run(aux, tracers[name]));
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "fxbench: run failed: " << e.what() << "\n";
        return 1;
    }
    for (const auto &[name, tracer] : tracers) {
        if (!options.trace)
            continue;
        std::string path = options.traceDir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
        if (name != options.workload)
            path += ".aux-" + name;
        path += ".trace.json";
        if (tracer.write(path, identity))
            std::cerr << "fxbench: wrote spans to " << path << "\n";
        else
            std::cerr << "fxbench: cannot write " << path << "\n";
    }
    std::cout << "{\"identity\": " << identity << "}\n"
              << result.toJson() << std::endl;
    return EXIT_SUCCESS;
}
