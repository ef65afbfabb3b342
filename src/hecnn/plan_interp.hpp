/**
 * @file
 * The one abstract interpreter of the plan IR.
 *
 * interpretPlan() replays the evaluator's own double arithmetic on the
 * (level, scale, parts) shape of every register, so a healthy run's
 * ciphertext tags match the replay bit for bit. Every client that
 * needs a level or scale fact about a plan steps this replay instead
 * of keeping its own copy of the arithmetic:
 *
 *   - RuntimeGuard predicts the shapes and static findings once per
 *     plan and compares the executed ciphertexts at each layer end;
 *   - the scale-level and rescale-placement lint passes check each
 *     instruction against the shapes it reads;
 *   - certifyPlan carries a noise bound next to each shape;
 *   - the rescale rewriter steps the shapes over the stream it emits.
 *
 * Outside src/ckks this file is the only place that knows how an
 * instruction changes a register's scale.
 */
#ifndef FXHENN_HECNN_PLAN_INTERP_HPP
#define FXHENN_HECNN_PLAN_INTERP_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** Abstract shape of one ciphertext register. */
struct RegShape
{
    bool written = false;
    std::size_t level = 0;
    double scale = 0.0;
    std::size_t parts = 2;
};

/** The constants one replay runs over. */
struct InterpDomain
{
    double scale = 0.0;     ///< scheme scale Delta (fresh inputs, pcMult)
    std::size_t levels = 0; ///< level fresh inputs enter at
    std::vector<std::uint64_t> primes; ///< exact q_0..q_{levels-1}
};

/**
 * The domain of @p params with its top @p levelShift data primes
 * removed: the exact NTT prime chain a CkksContext generates for the
 * remaining levels. Throws ConfigError for invalid params or a shift
 * that leaves no data prime.
 */
InterpDomain interpDomain(const ckks::CkksParams &params,
                          std::size_t levelShift = 0);

/**
 * The transfer function: the shape @p instr leaves in its destination,
 * given the shapes of its source and (previous) destination. pcMult
 * multiplies the scale by Delta, ccMult squares it and yields three
 * parts, relinearize yields two, rescale divides by q_(level-1) and
 * drops one level (a no-op at level 1), ccAdd keeps the destination,
 * and every other opcode copies the source.
 */
RegShape transfer(const HeInstr &instr, const RegShape &src,
                  const RegShape &dst, const InterpDomain &domain);

/**
 * Fresh register file of @p plan: one written shape at the domain's
 * level and scale per input ciphertext, clamped to regCount.
 */
std::vector<RegShape> seedRegisters(const HeNetworkPlan &plan,
                                    const InterpDomain &domain);

/**
 * Registers a layer end is judged on: the layer's declared output
 * registers, else every register written so far.
 */
std::vector<std::int32_t>
layerOutputRegs(const HeLayerPlan &layer, std::span<const RegShape> regs);

/** True when both scales are positive and agree within 1%. */
bool scalesAgree(double a, double b);

/**
 * The structural fault of @p instr against @p regs, or nullopt:
 * a register outside the file, or a read of an unwritten register
 * (the source, and the destination of a ccAdd).
 */
std::optional<std::string> structuralFault(const HeInstr &instr,
                                           std::span<const RegShape> regs);

/** One instruction as interpretPlan() presents it to a visitor. */
struct InterpStep
{
    std::size_t layer; ///< index into plan.layers
    std::size_t index; ///< index into the layer's instrs
    const HeInstr &instr;
    /** Set for a structurally broken instruction; the replay then
     *  leaves the register file unchanged across it. */
    std::optional<std::string> fault;
};

/**
 * Replay @p plan over @p domain from seedRegisters(). The visitor
 * provides
 *
 *   bool step(const InterpStep &, std::span<const RegShape> regs);
 *   bool layerEnd(std::size_t layer, std::span<const RegShape> regs);
 *
 * step() sees the register file each instruction reads, before the
 * instruction applies; layerEnd() sees it after a layer's last
 * instruction. Either returning false stops the replay.
 *
 * @return true when every layer was replayed.
 */
template <typename Visitor>
bool
interpretPlan(const HeNetworkPlan &plan, const InterpDomain &domain,
              Visitor &&visitor)
{
    std::vector<RegShape> regs = seedRegisters(plan, domain);
    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
        const std::vector<HeInstr> &instrs = plan.layers[li].instrs;
        for (std::size_t ii = 0; ii < instrs.size(); ++ii) {
            const HeInstr &instr = instrs[ii];
            const InterpStep step{li, ii, instr,
                                  structuralFault(instr, regs)};
            if (!visitor.step(step, std::span<const RegShape>(regs)))
                return false;
            if (!step.fault) {
                RegShape &dst = regs[static_cast<std::size_t>(instr.dst)];
                dst = transfer(instr,
                               regs[static_cast<std::size_t>(instr.src)],
                               dst, domain);
            }
        }
        if (!visitor.layerEnd(li, std::span<const RegShape>(regs)))
            return false;
    }
    return true;
}

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_INTERP_HPP
