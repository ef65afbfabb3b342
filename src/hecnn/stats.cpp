#include "src/hecnn/stats.hpp"

#include <ostream>
#include <sstream>

#include "src/ckks/size_model.hpp"
#include "src/common/table_printer.hpp"

namespace fxhenn::hecnn {

std::vector<LayerStats>
layerStats(const HeNetworkPlan &plan)
{
    std::vector<LayerStats> rows;
    rows.reserve(plan.layers.size());
    for (const auto &layer : plan.layers) {
        rows.push_back(LayerStats{layer.name, layer.cls(), layer.nIn,
                                  layer.levelIn, layer.counts()});
    }
    return rows;
}

ModelSize
modelSize(const HeNetworkPlan &plan)
{
    ModelSize size;
    for (const auto &pt : plan.plaintexts)
        size.weightPlaintexts +=
            ckks::plaintextBytes(plan.params, pt.level);
    size.relinKey = ckks::kswKeyBytes(plan.params);
    size.galoisKeys =
        plan.rotationSteps().size() * ckks::kswKeyBytes(plan.params);
    return size;
}

std::string
layerSummary(const HeNetworkPlan &plan)
{
    std::string out;
    for (const auto &layer : plan.layers) {
        if (!out.empty())
            out += ", ";
        out += layer.name;
    }
    return out;
}

void
writeMeasuredStatsJson(std::span<const MeasuredLayerStats> rows,
                       std::ostream &os)
{
    os << "[";
    bool first = true;
    for (const auto &row : rows) {
        os << (first ? "\n" : ",\n") << "  {\"layer\": \"" << row.name
           << "\", \"seconds\": " << row.seconds << ", \"ops\": {"
           << "\"cc_add\": " << row.executed.ccAdd
           << ", \"pc_add\": " << row.executed.pcAdd
           << ", \"pc_mult\": " << row.executed.pcMult
           << ", \"cc_mult\": " << row.executed.ccMult
           << ", \"rescale\": " << row.executed.rescale
           << ", \"relinearize\": " << row.executed.relinearize
           << ", \"rotate\": " << row.executed.rotate << "}}";
        first = false;
    }
    os << (first ? "]" : "\n]") << "\n";
}

std::string
renderMeasuredStats(std::span<const MeasuredLayerStats> rows)
{
    TablePrinter table({"Layer", "Time (ms)", "HOP", "KS", "PCmult",
                        "Rot"});
    double total_s = 0.0;
    std::uint64_t total_hop = 0;
    for (const auto &row : rows) {
        table.addRow({row.name, fmtF(row.seconds * 1e3),
                      fmtI(static_cast<long long>(row.executed.total())),
                      fmtI(static_cast<long long>(
                          row.executed.keySwitch())),
                      fmtI(static_cast<long long>(row.executed.pcMult)),
                      fmtI(static_cast<long long>(row.executed.rotate))});
        total_s += row.seconds;
        total_hop += row.executed.total();
    }
    table.addSeparator();
    table.addRow({"total", fmtF(total_s * 1e3),
                  fmtI(static_cast<long long>(total_hop)), "", "", ""});
    std::ostringstream oss;
    table.print(oss);
    return oss.str();
}

} // namespace fxhenn::hecnn
