/**
 * @file
 * Table IV: MAC comparison between the plain CNN and the HE-CNN — the
 * workload amplification that forces per-layer resource provisioning.
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
    bench::banner("Table IV - MACs of CNN vs HE-CNN", "Sec. III, Table IV");

    const auto net = nn::buildMnistNetwork();
    const auto plan = hecnn::compile(net, ckks::mnistParams(),
                                     bench::paperCompileOptions());

    struct PaperRow
    {
        const char *layer;
        std::size_t nnIndex;   ///< layer index in both net and plan
        double paperMacs1e4;
        double paperHops;
        double paperHeMacs1e4;
    };
    const PaperRow rows[] = {
        {"Cnv1", 0, 2.11, 75, 11980.7},
        {"Fc1", 2, 8.45, 325, 155105.28},
    };

    TablePrinter table({"Layer", "MACs 1e4 (paper)", "MACs 1e4 (ours)",
                        "HOPs (paper)", "HOPs (ours)", "KeySwitch (ours)",
                        "HE-MACs 1e4 (paper)", "HE-MACs 1e4 (ours)"});

    double macs[2], he_macs[2];
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &row = rows[i];
        macs[i] = double(net.layer(row.nnIndex).macs());
        he_macs[i] = fpga::layerModMuls(
            fpga::summarizeLayer(plan.layers[row.nnIndex]), plan.params.n);
        const auto counts = plan.layers[row.nnIndex].counts();
        table.addRow({row.layer, fmtF(row.paperMacs1e4),
                      fmtF(macs[i] / 1e4), fmtF(row.paperHops, 0),
                      fmtI(static_cast<long long>(counts.total())),
                      fmtI(static_cast<long long>(counts.keySwitch())),
                      fmtF(row.paperHeMacs1e4, 1),
                      fmtF(he_macs[i] / 1e4, 1)});
    }
    // Fc1 under the default dense lowering (diagonal BSGS, chosen by
    // the cost model) next to the paper's LoLa row.
    const auto fast = hecnn::compile(net, ckks::mnistParams());
    const auto &fast_fc1 = fast.layers[rows[1].nnIndex];
    table.addRow({"Fc1 cost-model lowering", "-", fmtF(macs[1] / 1e4),
                  "-", fmtI(static_cast<long long>(fast_fc1.counts().total())),
                  fmtI(static_cast<long long>(
                      fast_fc1.counts().keySwitch())),
                  "-",
                  fmtF(fpga::layerModMuls(fpga::summarizeLayer(fast_fc1),
                                          fast.params.n) /
                           1e4,
                       1)});
    table.print(std::cout);

    std::cout << "\nWorkload ratios Fc1/Cnv1: plain CNN "
              << fmtF(macs[1] / macs[0]) << "X (paper 4X), HE-CNN "
              << fmtF(he_macs[1] / he_macs[0])
              << "X (paper 12.95X) -> the gap widens under HE, so\n"
                 "inter-layer workload must drive the provisioning.\n";
    return 0;
}
