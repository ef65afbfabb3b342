#include "src/hecnn/noise_cert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>

#include "src/ckks/noise.hpp"
#include "src/hecnn/plan_interp.hpp"

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

void
jsonEscapeInto(std::ostringstream &oss, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"': oss << "\\\""; break;
          case '\\': oss << "\\\\"; break;
          case '\n': oss << "\\n"; break;
          case '\t': oss << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                oss << buf;
            } else {
                oss << c;
            }
        }
    }
}

/** log2 bound on a plaintext's scaled slot values. */
double
ptSlotBits(const PlanPlaintext &pt, double ciphertextScale,
           double schemeScale)
{
    // The compiler records maxAbs even for elided plans; an elided
    // plan without it falls back to the |v| <= 1.0 bound the zoo's
    // normalized weights satisfy.
    double max_abs = pt.maxAbs;
    if (max_abs == 0.0) {
        if (!pt.values.empty())
            return -1074.0; // genuinely all-zero plaintext
        max_abs = 1.0;
    }
    const double enc_scale = pt.atSchemeScale ? schemeScale
                                              : ciphertextScale;
    return std::log2(enc_scale * max_abs);
}

/**
 * interpretPlan() visitor that carries a log2 noise bound next to each
 * register's shape and records one LayerNoiseBound per layer end.
 */
struct Certifier
{
    const HeNetworkPlan &plan;
    const CertifyOptions &opts;
    const ckks::NoiseModel &model;
    NoiseCertificate &cert;
    std::vector<double> noiseBits; ///< per register, log2 worst case

    /** Abstract failure: the certificate is invalid from here on. */
    bool
    fail(const InterpStep &s, const std::string &reason)
    {
        cert.invalidReason =
            "layer " + plan.layers[s.layer].name + ": " + reason;
        return false;
    }

    bool
    step(const InterpStep &s, std::span<const RegShape> regs)
    {
        if (s.fault)
            return fail(s, *s.fault);
        const HeInstr &instr = s.instr;
        const RegShape &src = regs[static_cast<std::size_t>(instr.src)];
        const double src_noise =
            noiseBits[static_cast<std::size_t>(instr.src)];
        double &dst_noise = noiseBits[static_cast<std::size_t>(instr.dst)];
        // msg slot bound: scale * max|m| per the certified message
        // assumption.
        auto msgBits = [&] {
            return (src.scale > 0.0 ? std::log2(src.scale) : 0.0) +
                   opts.messageBits;
        };
        switch (instr.kind) {
          case HeOpKind::pcMult: {
            if (instr.pt < 0 ||
                instr.pt >= static_cast<std::int32_t>(
                                plan.plaintexts.size()))
                return fail(s, "plaintext index out of range (pt " +
                                   std::to_string(instr.pt) + ")");
            const auto &pt =
                plan.plaintexts[static_cast<std::size_t>(instr.pt)];
            dst_noise = model.pcMultNoiseBits(
                src_noise,
                ptSlotBits(pt, src.scale, model.params().scale),
                msgBits());
            break;
          }
          case HeOpKind::pcAdd:
            dst_noise = model.pcAddNoiseBits(src_noise);
            break;
          case HeOpKind::ccAdd:
            dst_noise = model.ccAddNoiseBits(dst_noise, src_noise);
            break;
          case HeOpKind::ccMult:
            dst_noise = model.ccMultNoiseBits(src_noise, msgBits());
            break;
          case HeOpKind::relinearize:
          case HeOpKind::rotate:
            dst_noise = model.keySwitchedNoiseBits(src_noise, src.level);
            break;
          case HeOpKind::rescale:
            if (src.level < 2)
                return fail(s, "rescale at effective level " +
                                   std::to_string(src.level) +
                                   ": no prime left to rescale into");
            dst_noise = model.rescaleNoiseBits(src_noise, src.level);
            break;
          case HeOpKind::copy:
            dst_noise = src_noise;
            break;
        }
        return true;
    }

    /** Bound at a layer boundary, over the registers the guard's
     *  layer-end check judges. */
    bool
    layerEnd(std::size_t li, std::span<const RegShape> regs)
    {
        const HeLayerPlan &layer = plan.layers[li];
        LayerNoiseBound bound;
        bound.layer = layer.name;
        bound.level = layer.levelOut >= opts.levelShift
                          ? layer.levelOut - opts.levelShift
                          : 0;
        bound.headroomBits = std::numeric_limits<double>::infinity();
        bool any = false;
        for (const std::int32_t r : layerOutputRegs(layer, regs)) {
            if (r < 0 || r >= static_cast<std::int32_t>(regs.size()))
                continue;
            const RegShape &s = regs[static_cast<std::size_t>(r)];
            if (!s.written)
                continue;
            any = true;
            const double noise = noiseBits[static_cast<std::size_t>(r)];
            const double scale_bits =
                s.scale > 0.0 ? std::log2(s.scale) : 0.0;
            const double headroom = model.headroomBits(
                scale_bits + opts.messageBits, noise, s.level);
            bound.scaleBits = std::max(bound.scaleBits, scale_bits);
            bound.noiseBits = std::max(bound.noiseBits, noise);
            bound.headroomBits =
                std::min(bound.headroomBits, headroom);
        }
        if (!any)
            bound.headroomBits = 0.0;
        cert.minHeadroomBits =
            std::min(cert.minHeadroomBits, bound.headroomBits);
        cert.layers.push_back(bound);
        return true;
    }
};

} // namespace

NoiseCertificate
certifyPlan(const HeNetworkPlan &plan, const CertifyOptions &opts)
{
    NoiseCertificate cert;
    cert.plan = plan.name;
    cert.messageBits = opts.messageBits;
    try {
        plan.params.validate();
        if (opts.levelShift >= plan.params.levels) {
            cert.invalidReason = "levelShift " +
                                 std::to_string(opts.levelShift) +
                                 " leaves no data primes";
            return cert;
        }
        const InterpDomain domain =
            interpDomain(plan.params, opts.levelShift);
        const ckks::NoiseModel model(
            [&] {
                ckks::CkksParams p = plan.params;
                p.levels = domain.levels;
                return p;
            }(),
            domain.primes);
        cert.levels = domain.levels;

        cert.minHeadroomBits =
            std::numeric_limits<double>::infinity();
        Certifier certifier{plan, opts, model, cert, {}};
        const double fresh = ckks::NoiseModel::logAdd(
            model.freshNoiseBits(), model.encodingRoundBits());
        const auto regs = seedRegisters(plan, domain);
        certifier.noiseBits.resize(regs.size(), 0.0);
        for (std::size_t i = 0; i < regs.size(); ++i) {
            if (regs[i].written)
                certifier.noiseBits[i] = fresh;
        }
        if (!interpretPlan(plan, domain, certifier)) {
            cert.minHeadroomBits = 0.0;
            return cert;
        }
        if (cert.layers.empty())
            cert.minHeadroomBits = 0.0;
        cert.valid = true;
    } catch (const std::exception &e) {
        cert.valid = false;
        cert.invalidReason = e.what();
        cert.minHeadroomBits = 0.0;
    }
    return cert;
}

std::string
NoiseCertificate::renderText() const
{
    std::ostringstream oss;
    oss << "noise certificate for plan '" << plan << "' (message <= 2^"
        << fmtBits(messageBits) << ", " << levels
        << "-prime chain)\n";
    if (hasArtifact)
        oss << "  artifact: " << artifactPath << " (crc32 "
            << artifactCrc32 << ")\n";
    if (!valid) {
        oss << "  NOT CERTIFIED: " << invalidReason << "\n";
        return oss.str();
    }
    for (const LayerNoiseBound &b : layers) {
        oss << "  " << b.layer << "  level " << b.level << "  scale 2^"
            << fmtBits(b.scaleBits) << "  noise 2^"
            << fmtBits(b.noiseBits) << "  headroom "
            << (b.headroomBits >= 0.0 ? "+" : "")
            << fmtBits(b.headroomBits) << " bits\n";
    }
    oss << "  certified minimum headroom: "
        << (minHeadroomBits >= 0.0 ? "+" : "")
        << fmtBits(minHeadroomBits) << " bits ("
        << (certified() ? "SAFE" : "UNSAFE") << ")\n";
    return oss.str();
}

std::string
NoiseCertificate::renderJson() const
{
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"fxhenn-noise-cert-v1\",\n";
    oss << "  \"plan\": \"";
    jsonEscapeInto(oss, plan);
    oss << "\",\n";
    if (hasArtifact) {
        oss << "  \"plan_file\": \"";
        jsonEscapeInto(oss, artifactPath);
        oss << "\",\n  \"plan_crc32\": " << artifactCrc32 << ",\n";
    }
    oss << "  \"valid\": " << (valid ? "true" : "false") << ",\n";
    if (!valid) {
        oss << "  \"invalid_reason\": \"";
        jsonEscapeInto(oss, invalidReason);
        oss << "\",\n";
    }
    oss << "  \"certified\": " << (certified() ? "true" : "false")
        << ",\n";
    oss << "  \"message_bits\": " << messageBits << ",\n";
    oss << "  \"levels\": " << levels << ",\n";
    oss << "  \"min_headroom_bits\": " << minHeadroomBits << ",\n";
    oss << "  \"layers\": [";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerNoiseBound &b = layers[i];
        oss << (i ? "," : "") << "\n    {\"layer\": \"";
        jsonEscapeInto(oss, b.layer);
        oss << "\", \"level\": " << b.level
            << ", \"scale_bits\": " << b.scaleBits
            << ", \"noise_bits\": " << b.noiseBits
            << ", \"headroom_bits\": " << b.headroomBits << "}";
    }
    oss << (layers.empty() ? "]" : "\n  ]") << "\n}\n";
    return oss.str();
}

} // namespace fxhenn::hecnn
