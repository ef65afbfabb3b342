#include "src/fxhenn/report.hpp"

#include <iomanip>
#include <sstream>

#include "src/hecnn/stats.hpp"

namespace fxhenn {

namespace {

std::string
fixed(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

} // namespace

std::string
renderDesignReport(const DesignSolution &solution,
                   const fpga::DeviceSpec &device)
{
    const auto &perf = solution.design.perf;
    std::ostringstream md;

    md << "# FxHENN design report: " << solution.modelName << " on "
       << solution.deviceName << "\n\n"
       << "- CKKS parameters: " << solution.params.describe() << "\n"
       << "- Predicted end-to-end latency: **"
       << fixed(solution.latencySeconds(), 4) << " s**\n"
       << "- Energy per inference (at " << device.tdpWatts
       << " W TDP): " << fixed(solution.energyJoules(device), 3)
       << " J\n"
       << "- Design space: " << solution.dsePointsEvaluated
       << " feasible points evaluated, " << solution.dsePointsPruned
       << " pruned by resource constraints\n\n";

    md << "## Resource summary\n\n"
       << "| Resource | Used | Capacity | Utilization |\n"
       << "|---|---|---|---|\n"
       << "| DSP | " << perf.dspPhysical << " | " << device.dspSlices
       << " | " << fixed(100.0 * solution.design.dspFraction, 1)
       << " % |\n"
       << "| BRAM36K (eq.) | " << fixed(perf.bramPhysical, 0) << " | "
       << fixed(device.effectiveBramBlocks(solution.params.n / 4), 0)
       << " | " << fixed(100.0 * solution.design.bramFraction, 1)
       << " % |\n"
       << "| LUT (est.) | " << perf.lutPhysical << " | " << device.luts
       << " | "
       << fixed(device.luts
                    ? 100.0 * perf.lutPhysical / device.luts
                    : 0.0,
                1)
       << " % |\n\n"
       << "Aggregated (summed per-layer) usage: DSP "
       << perf.dspAggregate << " ("
       << fixed(100.0 * perf.dspAggregate / device.dspSlices, 1)
       << " %), BRAM " << fixed(perf.bramAggregate, 0)
       << " blocks — values above 100 % measure cross-layer reuse.\n\n";

    md << "## HE operation modules\n\n"
       << "| Module | nc_NTT | P_intra | P_inter | DSP | LUT (est.) "
          "|\n"
       << "|---|---|---|---|---|---|\n";
    for (std::size_t m = 0; m < fpga::kOpModuleCount; ++m) {
        const auto op = static_cast<fpga::HeOpModule>(m);
        const auto &a = solution.design.alloc[op];
        md << "| " << fpga::moduleName(op) << " | " << a.ncNtt << " | "
           << a.pIntra << " | " << a.pInter << " | "
           << fpga::dspUsage(op, a) << " | " << fpga::lutUsage(op, a)
           << " |\n";
    }

    md << "\n## Per-layer breakdown\n\n"
       << "| Layer | Class | Latency s | Share | Bottleneck | DSP used "
          "| BRAM blocks |\n"
       << "|---|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < perf.layers.size(); ++i) {
        const auto &lp = perf.layers[i];
        const auto &layer = solution.plan.layers[i];
        md << "| " << lp.name << " | "
           << (layer.cls() == hecnn::LayerClass::ks ? "KS" : "NKS")
           << " | " << fixed(device.seconds(lp.cycles), 4) << " | "
           << fixed(100.0 * lp.cycles / perf.totalCycles, 1) << " % | "
           << fpga::moduleName(lp.bottleneck) << " | " << lp.dsp
           << " | " << fixed(lp.bramBlocks, 0) << " |\n";
    }

    const auto counts = solution.plan.totalCounts();
    md << "\n## Workload\n\n"
       << "- HE operations: " << counts.total() << " (KeySwitch "
       << counts.keySwitch() << ", PCmult " << counts.pcMult
       << ", Rescale " << counts.rescale << ")\n"
       << "- Input ciphertexts: " << solution.plan.inputCiphertexts()
       << ", multiplicative depth: " << solution.plan.depth() << " of "
       << solution.params.levels << " levels\n";
    return md.str();
}

std::string
renderLivenessDelta(const DesignSolution &baseline,
                    const DesignSolution &informed,
                    const fpga::DeviceSpec &device)
{
    (void)device;
    const double base_lat = baseline.latencySeconds();
    const double live_lat = informed.latencySeconds();
    const double base_bram = baseline.design.perf.bramPhysical;
    const double live_bram = informed.design.perf.bramPhysical;
    std::ostringstream md;
    md << "## Liveness-informed buffer bound (Eq. 8-9 tightened)\n\n"
       << "| Metric | plain bound | liveness bound | delta |\n"
       << "|---|---|---|---|\n"
       << "| Latency (s) | " << fixed(base_lat, 4) << " | "
       << fixed(live_lat, 4) << " | "
       << fixed(100.0 * (live_lat - base_lat) /
                    (base_lat > 0.0 ? base_lat : 1.0),
                2)
       << " % |\n"
       << "| BRAM blocks (physical) | " << fixed(base_bram, 0)
       << " | " << fixed(live_bram, 0) << " | "
       << fixed(live_bram - base_bram, 0) << " |\n"
       << "| Feasible DSE points | " << baseline.dsePointsEvaluated
       << " | " << informed.dsePointsEvaluated << " | "
       << (static_cast<long long>(informed.dsePointsEvaluated) -
           static_cast<long long>(baseline.dsePointsEvaluated))
       << " |\n\n"
       << "The liveness bound caps per-layer buffer replication by "
          "the peak number of simultaneously live ciphertext "
          "registers, so BRAM demand never grows and the feasible "
          "set only expands.\n";
    return md.str();
}

} // namespace fxhenn
