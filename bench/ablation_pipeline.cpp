/**
 * @file
 * Ablation: fine-grained pipelining versus coarse serial execution
 * (the Fig. 2 design choice). Uses the event-driven simulator to
 * schedule each layer both ways under the same module allocation.
 */
#include <iostream>

#include "bench_util.hpp"
#include "src/fpga/device.hpp"
#include "src/fpga/pipeline_sim.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    bench::banner("Ablation - intra-layer pipelining (Fig. 2)",
                  "Sec. V-A design choice");

    const auto device = fpga::acu9eg();
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                       bench::paperCompileOptions());

    fpga::ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};

    TablePrinter table({"Layer", "Class", "Serial s", "Pipelined s",
                        "Gain"});
    double serial_total = 0.0, pipe_total = 0.0;
    for (const auto &layer : plan.layers) {
        const auto stages = fpga::layerStages(fpga::summarizeLayer(layer),
                                              plan.params.n, alloc);
        const std::size_t items = std::max<std::size_t>(layer.nIn, 1);
        const double serial =
            device.seconds(fpga::simulateSerial(items, stages));
        const double pipe =
            device.seconds(fpga::simulatePipeline(items, stages));
        serial_total += serial;
        pipe_total += pipe;
        table.addRow({layer.name,
                      layer.cls() == hecnn::LayerClass::ks ? "KS" : "NKS",
                      fmtF(serial, 4), fmtF(pipe, 4),
                      fmtF(serial / pipe, 2) + "X"});
    }
    table.addSeparator();
    table.addRow({"Total", "", fmtF(serial_total, 4),
                  fmtF(pipe_total, 4),
                  fmtF(serial_total / pipe_total, 2) + "X"});
    table.print(std::cout);

    std::cout << "\nMulti-input layers (Cnv1's 25 tap ciphertexts, the "
                 "Fc layers' row groups)\noverlap their stages; "
                 "single-ciphertext Act layers cannot, exactly as\n"
                 "Sec. V-A argues for the two pipeline classes.\n";
    return 0;
}
