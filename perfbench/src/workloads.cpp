#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <map>

#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

void
armRequestedFault(const RunOptions &options)
{
    if (!options.fault.empty())
        fxhenn::robustness::armFault(
            fxhenn::robustness::parseFaultSpec(options.fault));
}

void
addServingTelemetry(Result &result, double requests)
{
    result.add("hecnn.encrypt_ms",
               histogramMeanMs("hecnn.client.encrypt.ns"), "ms");
    result.add("hecnn.decrypt_ms",
               histogramMeanMs("hecnn.client.decrypt.ns"), "ms");
    result.add("ckks.keyswitch_ms",
               histogramMeanMs("ckks.time.keyswitch.ns"), "ms");
    result.add("ckks.rotate_ms", histogramMeanMs("ckks.time.rotate.ns"),
               "ms");
    result.add("ckks.rescale_ms", histogramMeanMs("ckks.time.rescale.ns"),
               "ms");
    result.add("ckks.pc_mult_ms", histogramMeanMs("ckks.time.pc_mult.ns"),
               "ms");
    const double perRequest = requests > 0 ? 1.0 / requests : 0.0;
    for (const char *name :
         {"ckks.keyswitch.decompositions", "ckks.op.rotate",
          "modarith.ntt.forward", "modarith.ntt.inverse"})
        result.add(name, double(counterValue(name)) * perRequest, "1/req");
    const double hits = double(counterValue("rns.workspace.hits"));
    const double misses = double(counterValue("rns.workspace.misses"));
    result.add("rns.workspace.hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
}

void
addKeyswitchCounts(Result &result, const hecnn::HeNetworkPlan &plan,
                   const std::vector<hecnn::MeasuredLayerStats> &rows)
{
    for (std::size_t i = 0; i < rows.size() && i < plan.layers.size(); ++i) {
        const auto &ops = rows[i].executed;
        const std::uint64_t executed = ops.rotate + ops.relinearize;
        const std::uint64_t planned = plan.layers[i].counts().keySwitch();
        if (executed != planned) {
            std::cerr << "layer " << rows[i].name << " executed " << executed
                      << " keyswitches, the plan has " << planned << "\n";
            result.fail();
        }
        result.add("hecnn.layer." + rows[i].name + ".keyswitches",
                   double(executed), "count");
    }
}

double
unattributedFraction(const std::vector<Span> &spans, std::string_view root)
{
    std::map<std::int32_t, double> covered;
    for (const auto &span : spans)
        if (span.parent >= 0)
            covered[span.parent] += span.seconds();
    double total = 0.0;
    double self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != root)
            continue;
        const double d = spans[i].seconds();
        total += d;
        self += d - covered[static_cast<std::int32_t>(i)];
    }
    return total > 0 ? self / total : 0.0;
}

dse::ExploreOptions
designExploreOptions()
{
    dse::ExploreOptions options;
    options.certifyNoise = true;
    options.replaySim = true;
    return options;
}

std::string
checkWinner(const dse::ExploreResult &result)
{
    if (!result.best)
        return "no design point fits the device";
    if (result.best->dspFraction > 1.0)
        return "winner exceeds the DSP budget";
    if (result.best->bramFraction > 1.0)
        return "winner exceeds the BRAM budget";
    if (result.certifiedMinHeadroomBits < 0.0)
        return "plan does not noise-certify";
    return "";
}

std::string
deviceKey(const fpga::DeviceSpec &device)
{
    std::string key = device.name;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return key;
}

void
addWinnerMetrics(Result &result, const std::string &model,
                 const fpga::DeviceSpec &device,
                 const dse::ExploreResult &explored)
{
    if (!explored.best)
        return;
    const auto &best = *explored.best;
    result.add("fpga_pred_s." + model + "." + deviceKey(device),
               best.latencySeconds, "sim_s");
    // The Fig. 7 counterpart: predicted per-layer time of the MNIST
    // winner on ACU9EG, printed beside the measured hecnn.layer.*_s.
    if (model == "mnist" && deviceKey(device) == "acu9eg")
        for (const auto &layer : best.perf.layers)
            result.add("fpga.layer." + layer.name + "_s",
                       device.seconds(layer.cycles), "sim_s");
}

} // namespace perfbench
