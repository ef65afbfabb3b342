#include "src/hecnn/plan.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::hecnn {

const char *
opName(HeOpKind kind)
{
    switch (kind) {
      case HeOpKind::pcMult:
        return "PCmult";
      case HeOpKind::pcAdd:
        return "PCadd";
      case HeOpKind::ccAdd:
        return "CCadd";
      case HeOpKind::ccMult:
        return "CCmult";
      case HeOpKind::relinearize:
        return "Relinearize";
      case HeOpKind::rescale:
        return "Rescale";
      case HeOpKind::rotate:
        return "Rotate";
      case HeOpKind::copy:
        return "Copy";
    }
    return "?";
}

bool
SlotLayout::isContiguousSingleReg() const
{
    if (regs.size() != 1)
        return false;
    for (std::size_t e = 0; e < pos.size(); ++e) {
        if (pos[e].first != regs[0] ||
            pos[e].second != static_cast<std::int32_t>(e)) {
            return false;
        }
    }
    return true;
}

HeOpCounts
HeLayerPlan::counts() const
{
    HeOpCounts c;
    for (const auto &instr : instrs) {
        switch (instr.kind) {
          case HeOpKind::ccAdd:
          case HeOpKind::pcAdd:
            ++c.ccAdd;
            break;
          case HeOpKind::pcMult:
            ++c.pcMult;
            break;
          case HeOpKind::ccMult:
            ++c.ccMult;
            break;
          case HeOpKind::rescale:
            ++c.rescale;
            break;
          case HeOpKind::relinearize:
            ++c.relin;
            break;
          case HeOpKind::rotate:
            ++c.rotate;
            break;
          case HeOpKind::copy:
            break;
        }
    }
    return c;
}

HeOpCounts
HeNetworkPlan::totalCounts() const
{
    HeOpCounts total;
    for (const auto &layer : layers) {
        const HeOpCounts c = layer.counts();
        total.ccAdd += c.ccAdd;
        total.pcMult += c.pcMult;
        total.ccMult += c.ccMult;
        total.rescale += c.rescale;
        total.relin += c.relin;
        total.rotate += c.rotate;
    }
    return total;
}

std::set<std::int32_t>
HeNetworkPlan::rotationSteps() const
{
    std::set<std::int32_t> steps;
    for (const auto &layer : layers) {
        for (const auto &instr : layer.instrs) {
            if (instr.kind == HeOpKind::rotate && instr.step != 0)
                steps.insert(instr.step);
        }
    }
    return steps;
}

std::size_t
HeNetworkPlan::depth() const
{
    FXHENN_ASSERT(!layers.empty(), "empty plan");
    return layers.front().levelIn - layers.back().levelOut;
}

} // namespace fxhenn::hecnn
