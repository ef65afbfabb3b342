#include "src/hecnn/guard.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/hecnn/noise_cert.hpp"

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

/** The violation @p instr raises against the shapes it reads. */
std::optional<std::string>
instrFinding(const HeNetworkPlan &plan, const HeInstr &instr,
             std::span<const RegShape> regs)
{
    const RegShape &src = regs[static_cast<std::size_t>(instr.src)];
    switch (instr.kind) {
      case HeOpKind::pcMult:
      case HeOpKind::pcAdd: {
        if (instr.pt < 0 ||
            instr.pt >= static_cast<std::int32_t>(plan.plaintexts.size()))
            return "plaintext index out of range (pt " +
                   std::to_string(instr.pt) + ")";
        if (instr.kind == HeOpKind::pcMult) {
            const auto &pt =
                plan.plaintexts[static_cast<std::size_t>(instr.pt)];
            if (pt.level != src.level)
                return "plaintext level " + std::to_string(pt.level) +
                       " does not match ciphertext level " +
                       std::to_string(src.level) + " at r" +
                       std::to_string(instr.src);
        }
        break;
      }
      case HeOpKind::ccAdd: {
        const RegShape &dst = regs[static_cast<std::size_t>(instr.dst)];
        if (dst.level != src.level)
            return "ccAdd level mismatch: r" + std::to_string(instr.dst) +
                   " at level " + std::to_string(dst.level) + ", r" +
                   std::to_string(instr.src) + " at level " +
                   std::to_string(src.level);
        if (dst.parts != src.parts)
            return "ccAdd part-count mismatch";
        if (!scalesAgree(dst.scale, src.scale))
            return "ccAdd scale mismatch: r" + std::to_string(instr.dst) +
                   " at 2^" + fmtBits(std::log2(dst.scale)) + ", r" +
                   std::to_string(instr.src) + " at 2^" +
                   fmtBits(std::log2(src.scale));
        break;
      }
      case HeOpKind::ccMult:
        if (src.parts != 2)
            return "ccMult expects a 2-part operand, r" +
                   std::to_string(instr.src) + " has " +
                   std::to_string(src.parts);
        break;
      case HeOpKind::relinearize:
        if (src.parts != 3)
            return "relinearize expects a 3-part operand, r" +
                   std::to_string(instr.src) + " has " +
                   std::to_string(src.parts);
        break;
      case HeOpKind::rescale:
        if (src.level < 2)
            return "rescale at level " + std::to_string(src.level) +
                   ": no prime left to rescale into";
        break;
      case HeOpKind::rotate:
        if (src.parts != 2)
            return "rotate expects a 2-part operand";
        break;
      case HeOpKind::copy:
        break;
    }
    return std::nullopt;
}

} // namespace

RuntimeGuard::RuntimeGuard(const HeNetworkPlan &plan,
                           const ckks::CkksContext &context,
                           robustness::GuardOptions options)
    : options_(options), layers_(plan.layers.size())
{
    CertifyOptions copts;
    copts.messageBits = options_.messageBits;
    const NoiseCertificate cert = certifyPlan(plan, copts);

    struct Predictor
    {
        const HeNetworkPlan &plan;
        const ckks::CkksContext &context;
        const NoiseCertificate &cert;
        RuntimeGuard &guard;

        bool
        step(const InterpStep &s, std::span<const RegShape> regs)
        {
            auto reason = s.fault ? s.fault
                                  : instrFinding(plan, s.instr, regs);
            if (reason)
                guard.layers_[s.layer].findings.push_back(
                    {s.index, opName(s.instr.kind), std::move(*reason)});
            return true;
        }

        bool
        layerEnd(std::size_t li, std::span<const RegShape> regs)
        {
            const HeLayerPlan &layer = plan.layers[li];
            LayerPrediction &pred = guard.layers_[li];
            pred.shapes.assign(regs.begin(), regs.end());

            std::optional<std::string> metadata;
            double max_scale = 0.0;
            for (const std::int32_t r : layerOutputRegs(layer, regs)) {
                if (r < 0 || r >= static_cast<std::int32_t>(regs.size()))
                    continue;
                const RegShape &shape = regs[static_cast<std::size_t>(r)];
                if (!shape.written) {
                    if (!metadata)
                        metadata = "plan output register r" +
                                   std::to_string(r) +
                                   " was never written";
                    continue;
                }
                max_scale = std::max(max_scale, shape.scale);
                if (shape.level != layer.levelOut && !metadata)
                    metadata = "plan metadata mismatch: r" +
                               std::to_string(r) + " predicted at level " +
                               std::to_string(shape.level) +
                               " but the plan says levelOut " +
                               std::to_string(layer.levelOut);
            }

            robustness::BudgetSample sample;
            sample.layer = layer.name;
            sample.level = layer.levelOut;
            sample.scaleBits =
                max_scale > 0.0 ? std::log2(max_scale) : 0.0;
            // Prefer the statically certified per-layer bound (which
            // accounts for accumulated crypto noise, not just the
            // message magnitude); an invalid certificate falls back to
            // the noise-free formula.
            if (cert.valid && li < cert.layers.size() &&
                cert.layers[li].layer == layer.name) {
                sample.noiseBits = cert.layers[li].noiseBits;
                sample.headroomBits = cert.layers[li].headroomBits;
            } else {
                sample.headroomBits =
                    (context.basis().logQ(layer.levelOut) - 1.0) -
                    sample.scaleBits - guard.options_.messageBits;
            }

            if (metadata)
                pred.endFinding = std::move(metadata);
            else if (sample.headroomBits < 0.0)
                pred.endFinding =
                    "predicted noise budget exhausted after layer " +
                    layer.name + ": certified headroom " +
                    fmtBits(sample.headroomBits) +
                    " bits (the message no longer fits the modulus "
                    "and decryption would be garbage)";
            guard.budget_.push_back(std::move(sample));
            return true;
        }
    };
    interpretPlan(plan, interpDomain(context.params()),
                  Predictor{plan, context, cert, *this});
}

std::optional<std::string>
RuntimeGuard::checkLayerEnd(
    std::size_t layer,
    std::span<const std::optional<ckks::Ciphertext>> regs) const
{
    // The prediction replays the evaluator's arithmetic exactly, so
    // any mismatch means the executed ops differ from the plan
    // (dropped rescale, perturbed scale, corrupted state).
    const LayerPrediction &layerPred = layers_[layer];
    for (std::size_t i = 0; i < layerPred.shapes.size(); ++i) {
        const RegShape &pred = layerPred.shapes[i];
        if (!pred.written)
            continue;
        const auto &actual = regs[i];
        if (!actual.has_value())
            return "register r" + std::to_string(i) +
                   " predicted written but holds no ciphertext";
        if (actual->level() != pred.level)
            return "level diverged at r" + std::to_string(i) +
                   ": predicted " + std::to_string(pred.level) +
                   ", actual " + std::to_string(actual->level()) +
                   " (rescale dropped or misapplied?)";
        if (actual->size() != pred.parts)
            return "part count diverged at r" + std::to_string(i);
        const double rel = std::abs(actual->scale - pred.scale) /
                           std::max(std::abs(pred.scale), 1e-300);
        if (rel > options_.scaleRelTolerance)
            return "scale diverged at r" + std::to_string(i) +
                   ": predicted 2^" + fmtBits(std::log2(pred.scale)) +
                   ", actual 2^" + fmtBits(std::log2(actual->scale));
    }
    return layerPred.endFinding;
}

} // namespace fxhenn::hecnn
