/**
 * @file
 * Fig. 10: the intra-/inter-parallelism the DSE selects for every HE
 * operation module, across the four (model, device) combinations.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;
using fpga::HeOpModule;

int
main()
{
    bench::banner("Fig. 10 - selected intra-/inter-parallelism",
                  "Sec. VII-D, Fig. 10");

    struct Combo
    {
        const char *label;
        nn::Network net;
        ckks::CkksParams params;
        bool elide;
        fpga::DeviceSpec device;
    };
    Combo combos[] = {
        {"(a) MNIST / ACU9EG", nn::buildMnistNetwork(),
         ckks::mnistParams(), false, fpga::acu9eg()},
        {"(b) MNIST / ACU15EG", nn::buildMnistNetwork(),
         ckks::mnistParams(), false, fpga::acu15eg()},
        {"(c) CIFAR10 / ACU9EG", nn::buildCifar10Network(),
         ckks::cifar10Params(), true, fpga::acu9eg()},
        {"(d) CIFAR10 / ACU15EG", nn::buildCifar10Network(),
         ckks::cifar10Params(), true, fpga::acu15eg()},
    };

    for (auto &combo : combos) {
        FxhennOptions opts = bench::paperOptions();
        opts.elideValues = combo.elide;
        const auto sol = Fxhenn::generate(combo.net, combo.params,
                                          combo.device, opts);
        std::cout << "\n" << combo.label
                  << "  (latency " << fmtF(sol.latencySeconds(), 3)
                  << " s, nc_NTT="
                  << sol.design.alloc[HeOpModule::rescale].ncNtt
                  << ")\n";
        TablePrinter table({"HE op", "P_intra", "P_inter"});
        for (std::size_t m = 0; m < fpga::kOpModuleCount; ++m) {
            const auto op = static_cast<HeOpModule>(m);
            const auto &a = sol.design.alloc[op];
            table.addRow({fpga::moduleName(op), fmtI(a.pIntra),
                          fmtI(a.pInter)});
        }
        table.print(std::cout);
    }

    std::cout << "\nShape checks vs the paper: CCmult parallelism "
                 "stays 1 everywhere\n(ciphertext-ciphertext squaring "
                 "is rare); the N=2^14 CIFAR10 buffers pin\nKeySwitch "
                 "parallelism to the minimum on ACU9EG, while MNIST "
                 "affords\nhigher KeySwitch parallelism.\n";
    return 0;
}
