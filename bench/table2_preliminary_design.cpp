/**
 * @file
 * Table II: a preliminary (no-reuse) per-layer accelerator for
 * LoLa-MNIST on ACU9EG at nc_NTT = 2 — the motivating observation that
 * aggregate BRAM demand exceeds the chip while DSP sits under-used.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fpga/layer_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

namespace {

struct PaperRow
{
    const char *layer;
    const char *ops;
    double dspPct;
    double bramPct;
};

constexpr PaperRow kPaper[] = {
    {"Cnv1", "OP1,OP2,OP4", 10.0, 25.0},
    {"Act1", "OP3,OP4,OP5", 18.0, 57.0},
    {"Fc1", "OP1,OP2,OP4,OP5", 15.0, 53.0},
    {"Act2", "OP3,OP4,OP5", 12.0, 39.0},
    {"Fc2", "OP1,OP2,OP4,OP5", 10.0, 32.0},
};

} // namespace

int
main()
{
    bench::banner("Table II - preliminary LoLa-MNIST design (nc_NTT=2)",
                  "Sec. III, Table II");

    const auto device = fpga::acu9eg();
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());

    fpga::ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};

    TablePrinter table({"Layer", "HE ops (ours)", "DSP% (paper)",
                        "DSP% (ours)", "BRAM% (paper)", "BRAM% (ours)"});

    double dsp_sum = 0.0, bram_sum = 0.0;
    double paper_dsp_sum = 0.0, paper_bram_sum = 0.0;
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const auto &layer = plan.layers[i];
        const auto perf =
            fpga::evaluateLayer(layer, plan.params.n, alloc);
        const double dsp_pct = 100.0 * perf.dsp / device.dspSlices;
        const double bram_pct =
            100.0 * perf.bramBlocks / device.bram36kBlocks;
        dsp_sum += dsp_pct;
        bram_sum += bram_pct;
        paper_dsp_sum += kPaper[i].dspPct;
        paper_bram_sum += kPaper[i].bramPct;

        std::string ops;
        const auto used = fpga::modulesUsed(layer);
        for (std::size_t m = 0; m < fpga::kOpModuleCount; ++m) {
            if (!used[m])
                continue;
            if (!ops.empty())
                ops += ",";
            ops += fpga::moduleLabel(static_cast<fpga::HeOpModule>(m));
        }

        table.addRow({layer.name, ops, fmtF(kPaper[i].dspPct, 0),
                      fmtF(dsp_pct), fmtF(kPaper[i].bramPct, 0),
                      fmtF(bram_pct)});
    }
    table.addSeparator();
    table.addRow({"Sum", "", fmtF(paper_dsp_sum, 0), fmtF(dsp_sum),
                  fmtF(paper_bram_sum, 0), fmtF(bram_sum)});
    table.print(std::cout);

    std::cout << "\nObservation reproduced: aggregate BRAM demand ("
              << fmtF(bram_sum) << "%) greatly exceeds what one chip "
              << "offers while DSP stays moderate (" << fmtF(dsp_sum)
              << "%) -> inter-layer resource reuse is mandatory.\n";
    return 0;
}
