/**
 * @file
 * Table VI: the two benchmark HE-CNN networks — layers, HOP counts,
 * accuracy, and model size.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/stats.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Table VI - benchmark HE-CNN networks",
                  "Sec. VII-A, Table VI");

    struct NetRow
    {
        const char *name;
        nn::Network net;
        ckks::CkksParams params;
        bool elide;
        double paperHops1e3;
        double paperAccPct;
        double paperSizeMB;
    };
    NetRow rows[] = {
        {"FxHENN-MNIST", nn::buildMnistNetwork(), ckks::mnistParams(),
         false, 0.83, 98.9, 15.57},
        {"FxHENN-CIFAR10", nn::buildCifar10Network(),
         ckks::cifar10Params(), true, 82.73, 74.1, 2471.25},
    };

    TablePrinter table({"Network", "Layers", "HOPs 1e3 (paper)",
                        "HOPs 1e3 (ours)", "KS 1e3 (ours)",
                        "Acc % (paper)", "Mod.Size MB (paper)",
                        "Mod.Size MB (ours)"});

    for (auto &row : rows) {
        hecnn::CompileOptions opts = bench::paperCompileOptions();
        opts.elideValues = row.elide;
        const auto plan = hecnn::compile(row.net, row.params, opts);
        const auto counts = plan.totalCounts();
        const auto size = hecnn::modelSize(plan);
        table.addRow(
            {row.name, hecnn::layerSummary(plan),
             fmtF(row.paperHops1e3), fmtF(counts.total() / 1e3),
             fmtF(counts.keySwitch() / 1e3),
             fmtF(row.paperAccPct, 1) + " (not re-measured)",
             fmtF(row.paperSizeMB),
             fmtF(double(size.weightPlaintexts) / (1024.0 * 1024.0))});
    }
    table.print(std::cout);

    std::cout
        << "\nNotes: accuracy columns repeat the paper's values — our "
           "networks\nuse seeded synthetic weights (DESIGN.md "
           "substitution table); the\ncorrectness metric is encrypted-"
           "vs-plaintext agreement, covered by the\ntest suite. "
           "Mod.Size counts the packed weight plaintexts.\n";
    return 0;
}
