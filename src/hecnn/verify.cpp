#include "src/hecnn/verify.hpp"

#include <cmath>
#include <sstream>

#include "src/ckks/context.hpp"
#include "src/common/table_printer.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {

namespace {

std::string
fmtBits(double v)
{
    std::ostringstream oss;
    oss.precision(3);
    oss << v;
    return oss.str();
}

} // namespace

std::string
VerifyResult::renderDiagnosis() const
{
    std::ostringstream oss;
    oss << "noise-budget trajectory (predicted):\n";
    if (noiseBudget.empty())
        oss << "    (none recorded)\n";
    else
        oss << robustness::renderTrajectory(noiseBudget) << "\n";
    oss << "  predicted output headroom: "
        << fmtBits(predictedHeadroomBits) << " bits\n";
    oss << "  measured output headroom:  "
        << fmtBits(measuredHeadroomBits) << " bits\n";
    if (latencyWarning) {
        // Warn level: rendered, never fatal — see VerifyOptions.
        oss << "warning (non-fatal):\n" << latencyWarning->render();
    }
    if (failure)
        oss << failure->render();
    return oss.str();
}

std::string
renderLatencyTable(const std::vector<SimLayerLatency> &rows)
{
    if (rows.empty())
        return "";
    TablePrinter table({"Layer", "Predicted (ms)", "Simulated (ms)",
                        "Error (%)"});
    double predicted = 0.0;
    double simulated = 0.0;
    for (const auto &row : rows) {
        predicted += row.predictedSeconds;
        simulated += row.simulatedSeconds;
        table.addRow({row.layer, fmtF(row.predictedSeconds * 1e3, 3),
                      fmtF(row.simulatedSeconds * 1e3, 3),
                      fmtF(row.errorFrac() * 100.0, 2)});
    }
    table.addSeparator();
    const double totalErr =
        predicted > 0.0
            ? std::abs(simulated - predicted) / predicted
            : 0.0;
    table.addRow({"total", fmtF(predicted * 1e3, 3),
                  fmtF(simulated * 1e3, 3),
                  fmtF(totalErr * 100.0, 2)});
    std::ostringstream oss;
    table.print(oss);
    return oss.str();
}

VerifyResult
verifyAgainstPlaintext(const nn::Network &net,
                       const ckks::CkksParams &params,
                       std::uint64_t inputSeed, std::uint64_t keySeed,
                       const robustness::GuardOptions &guard)
{
    VerifyOptions options;
    options.inputSeed = inputSeed;
    options.keySeed = keySeed;
    options.guard = guard;
    return verifyAgainstPlaintext(net, params, options);
}

VerifyResult
verifyAgainstPlaintext(const nn::Network &net,
                       const ckks::CkksParams &params,
                       const VerifyOptions &options)
{
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    ExecOptions exec;
    exec.backend = options.backend;
    const ClientSession session(plan, ctx, options.keySeed);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool,
                                options.guard, exec);

    const nn::Tensor input = nn::syntheticInput(net, options.inputSeed);
    const nn::Tensor expected = net.forward(input);

    VerifyResult result;
    auto run = executor.execute(session.encryptInput(input, 0));
    result.backendName = std::move(run.backendName);
    result.simulatedLatency = std::move(run.simulated);
    result.noiseBudget = std::move(run.budget);
    if (!result.noiseBudget.empty())
        result.predictedHeadroomBits =
            result.noiseBudget.back().headroomBits;
    result.hopsExecuted = run.executed.total();
    result.layers = std::move(run.layerStats);
    if (run.failure) {
        result.failure = std::move(run.failure);
        return result;
    }

    result.encryptedLogits = session.decryptLogits(run.regs);
    result.plaintextLogits.assign(expected.data().begin(),
                                  expected.data().end());
    result.measuredHeadroomBits = session.outputHeadroomBits(run.regs);

    std::size_t argmax_he = 0, argmax_pt = 0;
    for (std::size_t i = 0; i < result.encryptedLogits.size(); ++i) {
        result.maxAbsError = std::max(
            result.maxAbsError,
            std::abs(result.encryptedLogits[i] -
                     result.plaintextLogits[i]));
        if (result.encryptedLogits[i] >
            result.encryptedLogits[argmax_he])
            argmax_he = i;
        if (result.plaintextLogits[i] >
            result.plaintextLogits[argmax_pt])
            argmax_pt = i;
    }
    result.argmaxMatches = (argmax_he == argmax_pt);

    // Post-hoc classification. A negative measured headroom means the
    // message overflowed the modulus. The predicted trajectory is a
    // worst-case bound on coefficient growth, so a healthy run can
    // never measure below it: a deficit proves non-modeled noise,
    // i.e. ciphertext corruption (residue damage saturates near
    // q/2/scale and so never trips a naive divergence threshold).
    const std::string where =
        result.layers.empty() ? std::string("output")
                              : result.layers.back().name;
    if (result.measuredHeadroomBits < 0.0) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason = "noise budget exhausted: measured output "
                        "headroom " +
                        fmtBits(result.measuredHeadroomBits) + " bits";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    } else if (!result.noiseBudget.empty() &&
               result.measuredHeadroomBits <
                   result.predictedHeadroomBits - 0.5) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason =
            "measured output headroom " +
            fmtBits(result.measuredHeadroomBits) +
            " bits fell below the worst-case prediction of " +
            fmtBits(result.predictedHeadroomBits) +
            " bits: ciphertext state corrupted";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    } else if (result.maxAbsError > 1e3) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason = "catastrophic logit divergence (max |err| = " +
                        fmtBits(result.maxAbsError) +
                        "): ciphertext state corrupted";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    }

    // Predicted-vs-measured latency classification — the latency twin
    // of the headroom check above, fed by a simulating backend's
    // timeline. Gated at warn level: a divergent layer means the
    // closed-form model and the event-driven schedule disagree, which
    // is a performance-model bug to investigate, not a wrong result.
    const SimLayerLatency *worst = nullptr;
    for (const auto &row : result.simulatedLatency) {
        const double err = row.errorFrac();
        if (err > result.maxLatencyErrorFrac) {
            result.maxLatencyErrorFrac = err;
            worst = &row;
        }
    }
    if (worst != nullptr &&
        result.maxLatencyErrorFrac > options.latencyToleranceFrac) {
        robustness::FailureReport report;
        report.layer = "backend";
        report.op = "latency";
        report.reason =
            "simulated latency of layer '" + worst->layer +
            "' diverges from the DSE prediction by " +
            fmtBits(result.maxLatencyErrorFrac * 100.0) +
            "% (tolerance " +
            fmtBits(options.latencyToleranceFrac * 100.0) + "%)";
        result.latencyWarning = std::move(report);
    }
    return result;
}

} // namespace fxhenn::hecnn
