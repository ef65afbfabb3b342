/**
 * @file
 * Table IX: peak and aggregated DSP/BRAM utilization plus latency for
 * the no-reuse baseline and the full FxHENN flow (FxHENN-MNIST on
 * ACU9EG). Aggregated utilization above 100 % is the signature of
 * cross-layer module and buffer reuse.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Table IX - baseline vs FxHENN on FxHENN-MNIST",
                  "Sec. VII-C, Table IX");

    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    const auto device = fpga::acu9eg();

    const auto baseline = Fxhenn::generateBaseline(
        net, params, device, bench::paperOptions());
    const auto fx =
        Fxhenn::generate(net, params, device, bench::paperOptions());

    const double bram_cap = device.bram36kBlocks;
    auto pct_dsp = [&](double v) { return 100.0 * v / device.dspSlices; };
    auto pct_bram = [&](double v) { return 100.0 * v / bram_cap; };

    TablePrinter table({"Design", "Peak DSP%", "Peak BRAM%", "Agg DSP%",
                        "Agg BRAM%", "Latency s"});
    table.addRow({"Baseline (paper)", "67.78", "81.25", "67.78", "81.25",
                  "1.17"});
    table.addRow({"Baseline (ours)",
                  fmtF(pct_dsp(baseline.perf.dspPhysical)),
                  fmtF(pct_bram(baseline.perf.bramPhysical)),
                  fmtF(pct_dsp(baseline.perf.dspAggregate)),
                  fmtF(pct_bram(baseline.perf.bramAggregate)),
                  fmtF(baseline.latencySeconds, 2)});
    table.addSeparator();
    table.addRow({"FxHENN (paper)", "63.25", "81.36", "136.25", "170.67",
                  "0.24"});
    table.addRow({"FxHENN (ours)",
                  fmtF(pct_dsp(fx.design.perf.dspPhysical)),
                  fmtF(pct_bram(fx.design.perf.bramPhysical)),
                  fmtF(pct_dsp(fx.design.perf.dspAggregate)),
                  fmtF(pct_bram(fx.design.perf.bramAggregate)),
                  fmtF(fx.latencySeconds(), 2)});
    table.print(std::cout);

    std::cout << "\nSpeedup of FxHENN over the baseline: paper 4.88X, "
              << "ours "
              << fmtF(baseline.latencySeconds / fx.latencySeconds(), 2)
              << "X.\nBaseline peak == aggregate (no reuse); FxHENN "
                 "aggregate exceeds 100% on\nboth resources (modules "
                 "and buffers shared across layers).\n";
    return 0;
}
