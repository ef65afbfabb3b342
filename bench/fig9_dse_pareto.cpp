/**
 * @file
 * Fig. 9: the DSE scatter for FxHENN-MNIST — every feasible design
 * point's (BRAM blocks, latency), the Pareto frontier, and the points
 * the framework auto-selects for ACU9EG / ACU15EG.
 */
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "src/dse/pareto.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Fig. 9 - DSE scatter and Pareto frontier",
                  "Sec. VII-D, Fig. 9");

    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());
    const auto device = fpga::acu9eg();

    // Enumerate the whole space once with a generous budget, then bin
    // by BRAM usage (the paper sweeps budgets 350..1500 blocks).
    dse::ExploreOptions opts;
    opts.collectAll = true;
    opts.bramBudgetBlocks = 1500.0;
    const auto result = dse::explore(plan, device, opts);

    std::vector<dse::ParetoSample> samples;
    for (const auto &p : result.all) {
        samples.push_back(
            {p.perf.bramPhysical, p.latencySeconds});
    }
    const auto front = dse::paretoFront(samples);

    std::cout << "Feasible design points (<=1500 blocks): "
              << samples.size() << "\n";

    // Histogram: best latency per 100-block BRAM bucket.
    TablePrinter table({"BRAM blocks", "Designs", "Best lat s",
                        "Median lat s"});
    for (double lo = 350.0; lo < 1500.0; lo += 100.0) {
        std::vector<double> lat;
        for (const auto &s : samples) {
            if (s.bramBlocks >= lo && s.bramBlocks < lo + 100.0)
                lat.push_back(s.latencySeconds);
        }
        if (lat.empty())
            continue;
        std::sort(lat.begin(), lat.end());
        table.addRow({fmtI(static_cast<long long>(lo)) + "-" +
                          fmtI(static_cast<long long>(lo + 100)),
                      fmtI(static_cast<long long>(lat.size())),
                      fmtF(lat.front(), 3), fmtF(lat[lat.size() / 2], 3)});
    }
    table.print(std::cout);

    std::cout << "\nPareto frontier (non-dominated points):\n";
    TablePrinter pf({"BRAM blocks", "Latency s"});
    for (const auto &s : front)
        pf.addRow({fmtF(s.bramBlocks, 0), fmtF(s.latencySeconds, 3)});
    pf.print(std::cout);

    // The auto-selected device solutions must sit on/near the frontier.
    for (const auto &dev : {fpga::acu9eg(), fpga::acu15eg()}) {
        const auto sol =
            Fxhenn::generate(nn::buildMnistNetwork(), ckks::mnistParams(),
                             dev, bench::paperOptions());
        const dse::ParetoSample mine{sol.design.perf.bramPhysical,
                                     sol.latencySeconds()};
        bool dominated = false;
        for (const auto &f : front)
            dominated |= dse::dominates(f, mine);
        std::cout << "\n" << dev.name << " auto-selected: "
                  << fmtF(mine.bramBlocks, 0) << " blocks, "
                  << fmtF(mine.latencySeconds, 3) << " s -> "
                  << (dominated ? "dominated (BRAM-capped device)"
                                : "on the Pareto frontier");
    }
    std::cout << "\n\nShape reproduced: few design choices at small "
                 "budgets, a widening space\nwith diminishing latency "
                 "returns as BRAM grows (paper Fig. 9).\n";
    return 0;
}
