/**
 * @file
 * Table III: impact of on-chip BRAM on HE-CNN layer latency — Cnv1 and
 * Fc1 of LoLa-MNIST with full buffers versus everything in DRAM.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fpga/layer_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Table III - BRAM usage vs layer latency",
                  "Sec. III, Table III");

    const auto device = fpga::acu9eg();
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());

    fpga::ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};

    struct PaperRow
    {
        const char *layer;
        std::size_t index;
        double paperOnChipBlocks;
        double paperOnChipSec;
        double paperOffChipSec;
    };
    const PaperRow rows[] = {
        {"Cnv1", 0, 292, 0.021, 0.334},
        {"Fc1", 2, 773, 0.162, 22.612},
    };

    TablePrinter table({"Layer", "BRAM36K", "Latency s (paper)",
                        "Latency s (ours)", "Slowdown (paper)",
                        "Slowdown (ours)"});

    for (const auto &row : rows) {
        const auto layer = fpga::summarizeLayer(plan.layers[row.index]);
        const auto on_chip =
            fpga::evaluateLayer(layer, plan.params.n, alloc);
        const auto off_chip =
            fpga::evaluateLayer(layer, plan.params.n, alloc, 0.0);
        const double on_s = device.seconds(on_chip.cycles);
        const double off_s = device.seconds(off_chip.cycles);

        table.addRow({row.layer, fmtF(on_chip.bramBlocks, 0),
                      fmtF(row.paperOnChipSec, 3), fmtF(on_s, 3),
                      "1.00", "1.00"});
        table.addRow({row.layer, "0", fmtF(row.paperOffChipSec, 3),
                      fmtF(off_s, 3),
                      fmtF(row.paperOffChipSec / row.paperOnChipSec, 2),
                      fmtF(off_s / on_s, 2)});
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nShape reproduced: the KeySwitch-heavy Fc1 collapses "
                 "~140X without on-chip buffers; the NKS Cnv1 ~16X.\n";
    return 0;
}
