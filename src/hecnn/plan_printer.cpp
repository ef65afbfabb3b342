#include "src/hecnn/plan_printer.hpp"

#include <ostream>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/table_printer.hpp"
#include "src/hecnn/stats.hpp"

namespace fxhenn::hecnn {

void
summarize(const HeNetworkPlan &plan, std::ostream &os)
{
    os << "HE-CNN plan: " << plan.name << " ("
       << plan.params.describe() << ")\n"
       << "Input ciphertexts: " << plan.inputCiphertexts()
       << ", registers: " << plan.regCount
       << ", plaintexts: " << plan.plaintexts.size()
       << (plan.valuesElided ? " (values elided)" : "") << "\n";

    TablePrinter table({"Layer", "Class", "L_in", "N_in", "PCmult",
                        "CCadd", "CCmult", "Rescale", "KeySwitch",
                        "Total"});
    for (const auto &layer : plan.layers) {
        const HeOpCounts c = layer.counts();
        table.addRow({layer.name,
                      layer.cls() == LayerClass::ks ? "KS" : "NKS",
                      fmtI(static_cast<long long>(layer.levelIn)),
                      fmtI(static_cast<long long>(layer.nIn)),
                      fmtI(static_cast<long long>(c.pcMult)),
                      fmtI(static_cast<long long>(c.ccAdd)),
                      fmtI(static_cast<long long>(c.ccMult)),
                      fmtI(static_cast<long long>(c.rescale)),
                      fmtI(static_cast<long long>(c.keySwitch())),
                      fmtI(static_cast<long long>(c.total()))});
    }
    const HeOpCounts total = plan.totalCounts();
    table.addSeparator();
    table.addRow({"Total", "", "", "",
                  fmtI(static_cast<long long>(total.pcMult)),
                  fmtI(static_cast<long long>(total.ccAdd)),
                  fmtI(static_cast<long long>(total.ccMult)),
                  fmtI(static_cast<long long>(total.rescale)),
                  fmtI(static_cast<long long>(total.keySwitch())),
                  fmtI(static_cast<long long>(total.total()))});
    table.print(os);
}

std::string
formatInstr(const HeInstr &instr)
{
    std::ostringstream oss;
    oss << opName(instr.kind) << " r" << instr.dst;
    switch (instr.kind) {
      case HeOpKind::pcMult:
        oss << " <- r" << instr.src << " * pt" << instr.pt;
        break;
      case HeOpKind::pcAdd:
        oss << " <- r" << instr.src << " + pt" << instr.pt;
        break;
      case HeOpKind::ccAdd:
        oss << " += r" << instr.src;
        break;
      case HeOpKind::ccMult:
        oss << " <- r" << instr.src << "^2";
        break;
      case HeOpKind::relinearize:
      case HeOpKind::rescale:
      case HeOpKind::copy:
        oss << " <- r" << instr.src;
        break;
      case HeOpKind::rotate:
        oss << " <- rot(r" << instr.src << ", " << instr.step << ")";
        break;
    }
    return oss.str();
}

void
disassemble(const HeNetworkPlan &plan, std::size_t layerIndex,
            std::ostream &os, std::size_t maxInstrs)
{
    FXHENN_FATAL_IF(layerIndex >= plan.layers.size(),
                    "layer index out of range");
    const auto &layer = plan.layers[layerIndex];
    os << "Layer " << layer.name << " ("
       << (layer.cls() == LayerClass::ks ? "KS" : "NKS") << ", "
       << layer.instrs.size() << " instructions):\n";
    std::size_t shown = 0;
    for (const auto &instr : layer.instrs) {
        if (maxInstrs != 0 && shown == maxInstrs) {
            os << "  ... (" << layer.instrs.size() - shown
               << " more)\n";
            break;
        }
        os << "  " << formatInstr(instr) << "\n";
        ++shown;
    }
}

} // namespace fxhenn::hecnn
