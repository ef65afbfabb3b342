/**
 * @file
 * Ablation: the nc_NTT knob. Pins the NTT core count to each of
 * {2, 4, 8} and re-runs the DSE for FxHENN-MNIST on ACU9EG, showing
 * why the framework must choose it per design rather than fixing it:
 * more cores cut the NTT latency (Eq. 4) but double the buffer
 * partitioning cost at nc = 8 (Table I's BRAM step).
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/dse/explorer.hpp"
#include "src/fpga/op_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Ablation - nc_NTT choice", "Eq. 4 / Table I knob");

    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());
    const auto device = fpga::acu9eg();

    TablePrinter table({"nc_NTT", "Feasible", "Best lat s", "DSP%",
                        "BRAM%", "KS intra/inter"});

    double best_overall = -1.0;
    unsigned best_nc = 0;
    for (unsigned nc : {2u, 4u, 8u}) {
        dse::ExploreOptions opts;
        opts.ncNttChoices = {nc};
        opts.allowInfeasible = true; // an infeasible pin is a table row
        const auto result = dse::explore(plan, device, opts);
        if (!result.best) {
            table.addRow({fmtI(nc), "0", "-", "-", "-", "-"});
            continue;
        }
        const auto &p = *result.best;
        const auto &ks = p.alloc[fpga::HeOpModule::keySwitch];
        table.addRow({fmtI(nc),
                      fmtI(static_cast<long long>(result.evaluated)),
                      fmtF(p.latencySeconds, 3),
                      fmtF(100.0 * p.dspFraction, 1),
                      fmtF(100.0 * p.bramFraction, 1),
                      fmtI(ks.pIntra) + "/" + fmtI(ks.pInter)});
        if (best_overall < 0.0 || p.latencySeconds < best_overall) {
            best_overall = p.latencySeconds;
            best_nc = nc;
        }
    }
    table.print(std::cout);

    std::cout << "\nBest fixed choice here: nc_NTT = " << best_nc
              << ". The free search picks per-design (Fig. 10), and "
                 "nc = 8's doubled\nbuffer partitioning makes it lose "
                 "on BRAM-bound devices despite the\nfastest NTT.\n";
    return 0;
}
