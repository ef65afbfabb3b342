/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation and prints our model-measured values next to the published
 * ones (EXPERIMENTS.md records the comparison). Literature rows are
 * reproduced as published constants, exactly as the paper itself cites
 * them.
 */
#ifndef FXHENN_BENCH_BENCH_UTIL_HPP
#define FXHENN_BENCH_BENCH_UTIL_HPP

#include <iostream>
#include <string>

#include "src/common/table_printer.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"

namespace fxhenn::bench {

/**
 * Compile options of the reproduction benches: the paper's LoLa dense
 * lowering, so reproduced op counts and latencies do not shift with
 * the default (cost-model) lowering.
 */
inline hecnn::CompileOptions
paperCompileOptions()
{
    hecnn::CompileOptions options;
    options.matVec = hecnn::MatVecLowering::lola;
    return options;
}

/** Framework options of the reproduction benches (LoLa lowering). */
inline FxhennOptions
paperOptions()
{
    FxhennOptions options;
    options.matVec = hecnn::MatVecLowering::lola;
    return options;
}

/** Print the standard bench header. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::cout << "==============================================="
                 "=============\n"
              << "FxHENN reproduction: " << what << "\n"
              << "Paper reference: " << paperRef << "\n"
              << "==============================================="
                 "=============\n";
}

/** Published Table VII reference rows (CPU/GPU literature systems). */
struct LiteratureRow
{
    const char *system;
    const char *dataset;
    double latencySeconds;
    double tdpWatts;
    const char *platform;
    const char *scheme;
};

inline constexpr LiteratureRow kLiterature[] = {
    {"CryptoNets [15]", "MNIST", 205.0, 140.0, "Xeon E5-1620L", "BFV"},
    {"nGraph-HE [4]", "MNIST", 16.7, 205.0, "Xeon Platinum 8180",
     "CKKS"},
    {"nGraph-HE [4]", "CIFAR10", 1324.0, 205.0, "Xeon Platinum 8180",
     "CKKS"},
    {"EVA [11]", "MNIST", 121.5, 420.0, "4x Xeon Gold 5120", "CKKS"},
    {"EVA [11]", "CIFAR10", 3062.0, 420.0, "4x Xeon Gold 5120", "CKKS"},
    {"LoLa [5]", "MNIST", 2.2, 880.0, "Azure B8ms 8 vCPU", "BFV"},
    {"LoLa [5]", "CIFAR10", 730.0, 880.0, "Azure B8ms 8 vCPU", "BFV"},
    {"Falcon [18]", "MNIST", 1.2, 880.0, "Azure B8ms 8 vCPU", "BFV"},
    {"Falcon [18]", "CIFAR10", 107.0, 880.0, "Azure B8ms 8 vCPU",
     "BFV"},
    {"AHEC [7]", "MNIST", 29.17, 250.0, "Xeon Platinum 8180", "CKKS"},
    {"A*FV [2]", "MNIST", 5.2, 1000.0, "3xP100 + 1xV100", "BFV"},
    {"A*FV [2]", "CIFAR10", 553.89, 1000.0, "3xP100 + 1xV100", "BFV"},
};

/** The paper's own FxHENN result rows (for paper-vs-measured columns). */
struct PaperFxhennRow
{
    const char *dataset;
    const char *device;
    double latencySeconds;
};

inline constexpr PaperFxhennRow kPaperFxhenn[] = {
    {"MNIST", "ACU15EG", 0.19},
    {"MNIST", "ACU9EG", 0.24},
    {"CIFAR10", "ACU15EG", 54.1},
    {"CIFAR10", "ACU9EG", 254.0},
};

} // namespace fxhenn::bench

#endif // FXHENN_BENCH_BENCH_UTIL_HPP
