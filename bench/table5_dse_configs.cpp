/**
 * @file
 * Table V: two hand-picked resource allocations for Cnv1 + Fc1 of
 * LoLa-MNIST on ACU9EG, varying only the intra-parallelism split —
 * giving the heavier Fc1 the parallelism wins ~2X with less BRAM.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fpga/layer_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;
using fpga::HeOpModule;

int
main()
{
    bench::banner("Table V - DSE for Cnv1 and Fc1 of LoLa-MNIST",
                  "Sec. III, Table V");

    const auto device = fpga::acu9eg();
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());
    const auto &cnv1 = plan.layers[0];
    const auto &fc1 = plan.layers[2];

    // Config A: intra parallelism to Fc1's KeySwitch (its bottleneck);
    // Config B: intra parallelism to Cnv1's Rescale instead.
    struct Config
    {
        const char *name;
        unsigned cnvIntra; ///< Rescale intra (drives Cnv1)
        unsigned fcIntra;  ///< KeySwitch intra (drives Fc1)
        double paperCnvSec, paperFcSec, paperDspPct, paperBramPct,
            paperSumSec;
    };
    const Config configs[] = {
        {"A", 1, 3, 0.062, 0.29, 18.1, 43.9, 0.352},
        {"B", 4, 1, 0.021, 0.709, 27.9, 49.1, 0.73},
    };

    TablePrinter table({"Cfg", "Cnv1 intra", "Cnv1 s (paper)",
                        "Cnv1 s (ours)", "Fc1 intra", "Fc1 s (paper)",
                        "Fc1 s (ours)", "DSP% (ours)", "BRAM% (ours)",
                        "Sum s (paper)", "Sum s (ours)"});

    double sums[2];
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &cfg = configs[i];
        fpga::ModuleAllocation alloc;
        for (auto &op : alloc.ops)
            op = {2, 1, 1};
        alloc[HeOpModule::rescale].pIntra = cfg.cnvIntra;
        alloc[HeOpModule::keySwitch].pIntra = cfg.fcIntra;

        const auto cnv_perf =
            fpga::evaluateLayer(cnv1, plan.params.n, alloc);
        const auto fc_perf =
            fpga::evaluateLayer(fc1, plan.params.n, alloc);
        const double cnv_s = device.seconds(cnv_perf.cycles);
        const double fc_s = device.seconds(fc_perf.cycles);
        sums[i] = cnv_s + fc_s;
        const double dsp_pct = 100.0 *
                               (cnv_perf.dsp + fc_perf.dsp) /
                               device.dspSlices;
        const double bram_pct =
            100.0 *
            std::max(cnv_perf.bramBlocks, fc_perf.bramBlocks) /
            device.bram36kBlocks;

        table.addRow({cfg.name, fmtI(cfg.cnvIntra),
                      fmtF(cfg.paperCnvSec, 3), fmtF(cnv_s, 3),
                      fmtI(cfg.fcIntra), fmtF(cfg.paperFcSec, 3),
                      fmtF(fc_s, 3), fmtF(dsp_pct, 1),
                      fmtF(bram_pct, 1), fmtF(cfg.paperSumSec, 3),
                      fmtF(sums[i], 3)});
    }
    table.print(std::cout);

    std::cout << "\nConfig A speedup over B: paper 2.07X, ours "
              << fmtF(sums[1] / sums[0], 2)
              << "X -> parallelism belongs with the burdened layer.\n";
    return 0;
}
