/**
 * @file
 * Fig. 8: per-layer DSP usage of each HE operation module for
 * FxHENN-MNIST on ACU9EG, baseline versus FxHENN — module-level reuse
 * means the same KeySwitch instances serve Fc1, Fc2 and the Act layers.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;
using fpga::HeOpModule;

namespace {

unsigned
layerOpDsp(const hecnn::HeLayerPlan &layer,
           const fpga::ModuleAllocation &alloc, HeOpModule op)
{
    const std::uint64_t count = fpga::opCount(layer, op);
    if (count == 0)
        return 0;
    const auto &oa = alloc[op];
    const unsigned inter = static_cast<unsigned>(
        std::min<std::uint64_t>(oa.pInter, count));
    return inter * oa.pIntra * fpga::dspConst(op, oa.ncNtt);
}

} // namespace

int
main()
{
    bench::banner("Fig. 8 - DSP usage of each HE operation per layer",
                  "Sec. VII-C, Fig. 8");

    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    const auto device = fpga::acu9eg();

    const auto baseline = Fxhenn::generateBaseline(
        net, params, device, bench::paperOptions());
    const auto fx =
        Fxhenn::generate(net, params, device, bench::paperOptions());

    for (int variant = 0; variant < 2; ++variant) {
        std::cout << "\n"
                  << (variant == 0 ? "Baseline (dedicated modules "
                                     "per layer):"
                                   : "FxHENN (shared module instances):")
                  << "\n";
        TablePrinter table({"Layer", "CCadd", "PCmult", "CCmult",
                            "Rescale", "KeySwitch", "Layer total"});
        for (std::size_t i = 0; i < fx.plan.layers.size(); ++i) {
            const auto &layer = fx.plan.layers[i];
            const fpga::ModuleAllocation &alloc =
                (variant == 0) ? baseline.perLayer[i]
                               : fx.design.alloc;
            std::vector<std::string> cells{layer.name};
            unsigned total = 0;
            for (std::size_t m = 0; m < fpga::kOpModuleCount; ++m) {
                const unsigned dsp = layerOpDsp(
                    layer, alloc, static_cast<HeOpModule>(m));
                total += dsp;
                cells.push_back(fmtI(dsp));
            }
            cells.push_back(fmtI(total));
            table.addRow(cells);
        }
        table.print(std::cout);
    }

    // Shared KeySwitch instance count under FxHENN.
    const auto &ks = fx.design.alloc[HeOpModule::keySwitch];
    std::cout << "\nFxHENN deploys " << ks.pInter
              << " shared KeySwitch module(s) (intra=" << ks.pIntra
              << ", nc=" << ks.ncNtt
              << ") used by Fc1/Fc2; Act layers invoke a subset "
                 "(paper: 2 shared\ninstances, Act layers use one "
                 "each). Baseline instantiates per-layer\nmodules with "
                 "lower parallelism and higher latency.\n";
    return 0;
}
