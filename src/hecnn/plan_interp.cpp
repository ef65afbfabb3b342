#include "src/hecnn/plan_interp.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/modarith/primes.hpp"

namespace fxhenn::hecnn {

InterpDomain
interpDomain(const ckks::CkksParams &params, std::size_t levelShift)
{
    params.validate();
    FXHENN_FATAL_IF(levelShift >= params.levels,
                    "levelShift " + std::to_string(levelShift) +
                        " leaves no data primes");
    InterpDomain domain;
    domain.scale = params.scale;
    domain.levels = params.levels - levelShift;
    domain.primes =
        generateNttPrimes(params.qBits, params.n, domain.levels);
    return domain;
}

RegShape
transfer(const HeInstr &instr, const RegShape &src, const RegShape &dst,
         const InterpDomain &domain)
{
    RegShape out = instr.kind == HeOpKind::ccAdd ? dst : src;
    switch (instr.kind) {
      case HeOpKind::pcMult:
        out.scale = src.scale * domain.scale;
        break;
      case HeOpKind::ccMult:
        out.scale = src.scale * src.scale;
        out.parts = 3;
        break;
      case HeOpKind::relinearize:
        out.parts = 2;
        break;
      case HeOpKind::rescale:
        if (src.level >= 2) {
            out.scale = src.scale / static_cast<double>(
                                        domain.primes[src.level - 1]);
            out.level = src.level - 1;
        }
        break;
      case HeOpKind::pcAdd: // bias encodes at the ciphertext's scale
      case HeOpKind::ccAdd:
      case HeOpKind::rotate:
      case HeOpKind::copy:
        break;
    }
    out.written = true;
    return out;
}

std::vector<RegShape>
seedRegisters(const HeNetworkPlan &plan, const InterpDomain &domain)
{
    std::vector<RegShape> regs(
        static_cast<std::size_t>(std::max(plan.regCount, 0)));
    const std::size_t inputs =
        std::min(plan.inputGather.size(), regs.size());
    for (std::size_t i = 0; i < inputs; ++i)
        regs[i] = {true, domain.levels, domain.scale, 2};
    return regs;
}

std::vector<std::int32_t>
layerOutputRegs(const HeLayerPlan &layer, std::span<const RegShape> regs)
{
    if (!layer.outputLayout.regs.empty())
        return layer.outputLayout.regs;
    std::vector<std::int32_t> written;
    for (std::size_t i = 0; i < regs.size(); ++i) {
        if (regs[i].written)
            written.push_back(static_cast<std::int32_t>(i));
    }
    return written;
}

bool
scalesAgree(double a, double b)
{
    if (!(a > 0.0) || !(b > 0.0))
        return false;
    const double ratio = a / b;
    return ratio > 0.99 && ratio < 1.01;
}

std::optional<std::string>
structuralFault(const HeInstr &instr, std::span<const RegShape> regs)
{
    const auto count = static_cast<std::int32_t>(regs.size());
    if (instr.dst < 0 || instr.dst >= count || instr.src < 0 ||
        instr.src >= count)
        return "instruction register out of range (dst r" +
               std::to_string(instr.dst) + ", src r" +
               std::to_string(instr.src) + ")";
    if (!regs[static_cast<std::size_t>(instr.src)].written)
        return "read of unwritten register r" + std::to_string(instr.src);
    if (instr.kind == HeOpKind::ccAdd &&
        !regs[static_cast<std::size_t>(instr.dst)].written)
        return "read of unwritten register r" + std::to_string(instr.dst);
    return std::nullopt;
}

} // namespace fxhenn::hecnn
