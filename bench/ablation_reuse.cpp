/**
 * @file
 * Ablation: inter-layer module + buffer reuse on/off, for both models
 * and both devices — generalizing Table IX beyond MNIST/ACU9EG.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Ablation - inter-layer resource reuse",
                  "Sec. V-C / VI-A design choice (extends Table IX)");

    struct Target
    {
        const char *dataset;
        nn::Network net;
        ckks::CkksParams params;
        bool elide;
    };
    Target targets[] = {
        {"MNIST", nn::buildMnistNetwork(), ckks::mnistParams(), false},
        {"CIFAR10", nn::buildCifar10Network(), ckks::cifar10Params(),
         true},
    };

    TablePrinter table({"Model", "Device", "No-reuse s", "FxHENN s",
                        "Speedup", "Agg DSP% (FxHENN)",
                        "Agg BRAM% (FxHENN)"});

    for (auto &target : targets) {
        for (const auto &device : {fpga::acu9eg(), fpga::acu15eg()}) {
            FxhennOptions opts = bench::paperOptions();
            opts.elideValues = target.elide;
            const auto fx = Fxhenn::generate(target.net, target.params,
                                             device, opts);
            const auto base = Fxhenn::generateBaseline(
                target.net, target.params, device, opts);
            const double cap =
                device.effectiveBramBlocks(target.params.n / 4);
            table.addRow(
                {target.dataset, device.name,
                 fmtF(base.latencySeconds, 2),
                 fmtF(fx.latencySeconds(), 2),
                 fmtF(base.latencySeconds / fx.latencySeconds(), 2) +
                     "X",
                 fmtF(100.0 * fx.design.perf.dspAggregate /
                      device.dspSlices),
                 fmtF(100.0 * fx.design.perf.bramAggregate / cap)});
        }
    }
    table.print(std::cout);

    std::cout << "\nReuse wins everywhere; aggregated utilization "
                 "beyond 100% quantifies how\noften the same physical "
                 "modules and buffers serve different layers.\n";
    return 0;
}
