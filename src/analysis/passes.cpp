/**
 * @file
 * The standard verification passes over the HE-CNN plan IR.
 *
 * Each pass is a self-contained dataflow check; together they form the
 * contract a well-formed HeNetworkPlan satisfies before the runtime,
 * the statistics pass or the FPGA model may trust it (see
 * docs/ARCHITECTURE.md section 8 for the taxonomy):
 *
 *   1. def-use            register def-before-use and output coverage
 *   2. scale-level        abstract interpretation of (level, scale, parts)
 *   3. liveness           dead results + per-layer peak live registers
 *   4. rotation-keys      Galois key coverage of every rotate step
 *   5. slot-layout        SlotLayout / inputGather / plaintext pool / N_in
 *   6. noise-budget       static noise certification (docs sec. 13)
 *   7. rescale-placement  redundant / deferrable / missing rescales
 *   8. batch-layout       lane-preserving rotations and broadcast
 *                         plaintexts of a batched plan (docs sec. 15)
 */
#include "src/analysis/pass_manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <span>
#include <string>

#include "src/analysis/liveness.hpp"
#include "src/hecnn/noise_cert.hpp"

namespace fxhenn::analysis {

using hecnn::HeInstr;
using hecnn::HeLayerPlan;
using hecnn::HeNetworkPlan;
using hecnn::HeOpKind;
using hecnn::RegShape;

PlanFacts
makePlanFacts(const HeNetworkPlan &plan)
{
    PlanFacts facts{plan};
    facts.slots = static_cast<std::size_t>(plan.params.n / 2);
    try {
        facts.domain = hecnn::interpDomain(plan.params);
        facts.paramsValid = true;
    } catch (const std::exception &) {
        // Diagnosed by the passes that need the prime chain.
    }
    return facts;
}

namespace {

std::string
regName(std::int32_t reg)
{
    return "r" + std::to_string(reg);
}

// --- pass 1: def-before-use ------------------------------------------------

class DefUsePass final : public AnalysisPass
{
  public:
    const char *name() const override { return "def-use"; }
    const char *
    description() const override
    {
        return "register def-before-use, operand ranges and output "
               "coverage";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        if (plan.inputGather.size() >
            static_cast<std::size_t>(std::max(plan.regCount, 0))) {
            report.addNetwork(
                Severity::error, name(),
                "plan declares " +
                    std::to_string(plan.inputGather.size()) +
                    " input ciphertexts but only " +
                    std::to_string(plan.regCount) + " registers",
                "raise regCount to cover the input registers");
        }
        std::vector<char> written(
            static_cast<std::size_t>(std::max(plan.regCount, 0)), 0);
        for (std::size_t i = 0;
             i < plan.inputGather.size() && i < written.size(); ++i)
            written[i] = 1;

        for (std::size_t li = 0; li < plan.layers.size(); ++li) {
            const HeLayerPlan &layer = plan.layers[li];
            for (std::size_t ii = 0; ii < layer.instrs.size(); ++ii) {
                const HeInstr &instr = layer.instrs[ii];
                if (!facts.regOk(instr.dst) || !facts.regOk(instr.src)) {
                    report.addInstr(
                        Severity::error, name(), li, layer.name, ii,
                        std::string(opName(instr.kind)) +
                            " references a register outside the file "
                            "(dst " +
                            regName(instr.dst) + ", src " +
                            regName(instr.src) + ", regCount " +
                            std::to_string(plan.regCount) + ")");
                    continue;
                }
                auto require_written = [&](std::int32_t reg) {
                    if (!written[static_cast<std::size_t>(reg)]) {
                        report.addInstr(
                            Severity::error, name(), li, layer.name,
                            ii,
                            std::string(opName(instr.kind)) +
                                " reads " + regName(reg) +
                                " before any instruction writes it",
                            "reorder the stream or initialize the "
                            "register");
                    }
                };
                require_written(instr.src);
                if (instr.kind == HeOpKind::ccAdd &&
                    instr.dst != instr.src)
                    require_written(instr.dst);
                written[static_cast<std::size_t>(instr.dst)] = 1;
            }
        }

        std::set<std::int32_t> reported;
        for (const auto &[reg, slot] : plan.outputLayout.pos) {
            (void)slot;
            if (facts.regOk(reg) &&
                !written[static_cast<std::size_t>(reg)] &&
                reported.insert(reg).second) {
                report.addNetwork(
                    Severity::error, name(),
                    "output register " + regName(reg) +
                        " is never written by any layer",
                    "the client would decrypt an empty ciphertext");
            }
        }
    }
};

// --- pass 2: scale & level abstract interpretation -------------------------

class ScaleLevelPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "scale-level"; }
    const char *
    description() const override
    {
        return "abstract interpretation of (level, scale, parts) per "
               "register";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        if (!facts.paramsValid) {
            report.addNetwork(Severity::error, name(),
                              "CKKS parameters are invalid; cannot "
                              "derive the prime chain",
                              "fix plan.params before re-linting");
            return;
        }

        // log2 of the modulus at each level (prefix products).
        std::vector<double> log_q(plan.params.levels + 1, 0.0);
        for (std::size_t l = 1; l <= plan.params.levels; ++l)
            log_q[l] = log_q[l - 1] +
                       std::log2(static_cast<double>(
                           facts.domain.primes[l - 1]));

        for (std::size_t li = 0; li < plan.layers.size(); ++li)
            checkLevelChain(facts, li, report);

        struct Visitor
        {
            const ScaleLevelPass &pass;
            const PlanFacts &facts;
            const std::vector<double> &log_q;
            AnalysisReport &report;

            bool
            step(const hecnn::InterpStep &s,
                 std::span<const RegShape> regs)
            {
                // def-use reports range violations and reads of
                // unwritten registers.
                if (!s.fault)
                    pass.checkInstr(facts, s, regs, log_q, report);
                return true;
            }

            bool
            layerEnd(std::size_t li, std::span<const RegShape> regs)
            {
                pass.checkLayerExit(facts, li, regs, report);
                return true;
            }
        };
        hecnn::interpretPlan(plan, facts.domain,
                             Visitor{*this, facts, log_q, report});
    }

  private:
    void
    checkInstr(const PlanFacts &facts, const hecnn::InterpStep &s,
               std::span<const RegShape> regs,
               const std::vector<double> &log_q,
               AnalysisReport &report) const
    {
        const HeNetworkPlan &plan = facts.plan;
        const std::size_t li = s.layer;
        const std::size_t ii = s.index;
        const HeInstr &instr = s.instr;
        const RegShape &src = regs[static_cast<std::size_t>(instr.src)];
        const RegShape &dst = regs[static_cast<std::size_t>(instr.dst)];
        const std::string &lname = plan.layers[li].name;
        // The scale a multiply produces, checked against the modulus.
        auto productScale = [&] {
            return hecnn::transfer(instr, src, dst, facts.domain).scale;
        };
        switch (instr.kind) {
          case HeOpKind::pcMult: {
            if (!facts.ptOk(instr.pt))
                break; // slot-layout reports the pool violation
            const auto &pt =
                plan.plaintexts[static_cast<std::size_t>(instr.pt)];
            if (pt.level != src.level) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "pcMult plaintext " + std::to_string(instr.pt) +
                        " is encoded at level " +
                        std::to_string(pt.level) +
                        " but operand " + regName(instr.src) +
                        " is at level " + std::to_string(src.level),
                    "re-encode the plaintext at level " +
                        std::to_string(src.level));
            }
            checkScaleFits(li, ii, lname, productScale(), src.level,
                           log_q, report);
            break;
          }
          case HeOpKind::pcAdd: {
            if (!facts.ptOk(instr.pt))
                break;
            const auto &pt =
                plan.plaintexts[static_cast<std::size_t>(instr.pt)];
            if (pt.level != src.level) {
                report.addInstr(
                    Severity::warning, name(), li, lname, ii,
                    "pcAdd plaintext " + std::to_string(instr.pt) +
                        " carries stale level metadata (" +
                        std::to_string(pt.level) + " vs operand " +
                        std::to_string(src.level) + ")",
                    "the runtime re-encodes bias adds at the "
                    "ciphertext level; fix the pool level anyway");
            }
            break;
          }
          case HeOpKind::ccAdd: {
            if (dst.level != src.level) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "ccAdd level mismatch: " + regName(instr.dst) +
                        " at level " + std::to_string(dst.level) +
                        ", " + regName(instr.src) + " at level " +
                        std::to_string(src.level),
                    "rescale or mod-switch the higher operand first");
            } else if (dst.parts != src.parts) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "ccAdd part-count mismatch: " +
                        regName(instr.dst) + " has " +
                        std::to_string(dst.parts) + " parts, " +
                        regName(instr.src) + " has " +
                        std::to_string(src.parts),
                    "relinearize the 3-part operand first");
            } else if (!hecnn::scalesAgree(dst.scale, src.scale)) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "ccAdd scale mismatch: " + regName(instr.dst) +
                        " at 2^" + fmtBits(std::log2(dst.scale)) +
                        ", " + regName(instr.src) + " at 2^" +
                        fmtBits(std::log2(src.scale)),
                    "the sum of mis-scaled operands decrypts to "
                    "garbage; align the rescale chains");
            }
            break;
          }
          case HeOpKind::ccMult:
            if (src.parts != 2) {
                report.addInstr(Severity::error, name(), li, lname,
                                ii,
                                "ccMult expects a 2-part operand, " +
                                    regName(instr.src) + " has " +
                                    std::to_string(src.parts),
                                "relinearize before multiplying");
            }
            checkScaleFits(li, ii, lname, productScale(), src.level,
                           log_q, report);
            break;
          case HeOpKind::relinearize:
            if (src.parts != 3) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "relinearize expects a 3-part operand, " +
                        regName(instr.src) + " has " +
                        std::to_string(src.parts));
            }
            break;
          case HeOpKind::rescale:
            if (src.level < 2) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "level underflow: rescale at level " +
                        std::to_string(src.level) +
                        " has no prime left to drop",
                    "deepen the parameter set or shorten the "
                    "network");
            } else if (src.scale < facts.domain.scale * 2.0) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "double rescale: " + regName(instr.src) +
                        " is already at scale 2^" +
                        fmtBits(std::log2(src.scale)) +
                        " (at or below the scheme scale)",
                    "a rescale without a preceding multiply divides "
                    "the message away");
            }
            break;
          case HeOpKind::rotate:
            if (src.parts != 2) {
                report.addInstr(
                    Severity::error, name(), li, lname, ii,
                    "rotate expects a 2-part operand, " +
                        regName(instr.src) + " has " +
                        std::to_string(src.parts),
                    "relinearize before rotating");
            }
            break;
          case HeOpKind::copy:
            break;
        }
    }

    void
    checkScaleFits(std::size_t li, std::size_t ii,
                   const std::string &lname, double product_scale,
                   std::size_t level, const std::vector<double> &log_q,
                   AnalysisReport &report) const
    {
        if (level == 0 || level >= log_q.size())
            return; // level chain errors are reported elsewhere
        // The evaluator's checkScaleFits: +2 bits of drift allowance.
        if (std::log2(product_scale) > log_q[level] + 2.0) {
            report.addInstr(
                Severity::error, name(), li, lname, ii,
                "product scale 2^" +
                    fmtBits(std::log2(product_scale)) +
                    " exceeds the modulus at level " +
                    std::to_string(level) + " (log Q = " +
                    fmtBits(log_q[level]) + ")",
                "rescale before multiplying again");
        }
    }

    void
    checkLevelChain(const PlanFacts &facts, std::size_t li,
                    AnalysisReport &report) const
    {
        const HeNetworkPlan &plan = facts.plan;
        const HeLayerPlan &layer = plan.layers[li];
        if (layer.levelIn == 0 ||
            layer.levelIn > plan.params.levels ||
            layer.levelOut > layer.levelIn) {
            report.addLayer(
                Severity::error, name(), li, layer.name,
                "corrupt layer levels: levelIn " +
                    std::to_string(layer.levelIn) + ", levelOut " +
                    std::to_string(layer.levelOut) + " (params have " +
                    std::to_string(plan.params.levels) + " levels)");
            return;
        }
        if (li == 0) {
            if (layer.levelIn != plan.params.levels) {
                report.addLayer(
                    Severity::error, name(), li, layer.name,
                    "first layer starts at level " +
                        std::to_string(layer.levelIn) +
                        " but fresh ciphertexts enter at level " +
                        std::to_string(plan.params.levels));
            }
        } else if (layer.levelIn != plan.layers[li - 1].levelOut) {
            report.addLayer(
                Severity::error, name(), li, layer.name,
                "level chain broken: levelIn " +
                    std::to_string(layer.levelIn) +
                    " does not match the previous layer's levelOut " +
                    std::to_string(plan.layers[li - 1].levelOut));
        }
    }

    void
    checkLayerExit(const PlanFacts &facts, std::size_t li,
                   std::span<const RegShape> regs,
                   AnalysisReport &report) const
    {
        const HeLayerPlan &layer = facts.plan.layers[li];
        for (std::int32_t reg : layer.outputLayout.regs) {
            if (!facts.regOk(reg))
                continue; // slot-layout reports it
            const auto &state =
                regs[static_cast<std::size_t>(reg)];
            if (!state.written)
                continue; // def-use reports it
            if (state.level != layer.levelOut) {
                report.addLayer(
                    Severity::error, name(), li, layer.name,
                    "levelOut metadata disagrees with the "
                    "instruction stream: " +
                        regName(reg) + " ends at level " +
                        std::to_string(state.level) +
                        " but the plan says " +
                        std::to_string(layer.levelOut),
                    "recompute levelIn/levelOut from the lowered "
                    "stream");
                return; // one metadata finding per layer is enough
            }
        }
    }

    static std::string
    fmtBits(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3g", v);
        return buf;
    }
};

// --- pass 3: liveness ------------------------------------------------------

class LivenessPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "liveness"; }
    const char *
    description() const override
    {
        return "dead results and per-layer peak live registers";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const LivenessInfo info = computeLiveness(facts.plan);
        for (const DeadInstr &dead : info.deadInstrs) {
            const HeLayerPlan &layer = facts.plan.layers[dead.layer];
            const HeInstr &instr = layer.instrs[dead.instr];
            report.addInstr(
                Severity::warning, name(), dead.layer, layer.name,
                dead.instr,
                std::string(opName(instr.kind)) + " result in " +
                    regName(instr.dst) +
                    " never reaches the network outputLayout",
                "delete the instruction or extend the output "
                "layout");
        }
        report.addNetwork(
            Severity::note, name(),
            "peak live registers: " +
                std::to_string(info.peakLiveOverall) +
                " (per-layer peaks drive the DSE buffer model)");
    }
};

// --- pass 4: rotation-key coverage -----------------------------------------

class RotationKeyPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "rotation-keys"; }
    const char *
    description() const override
    {
        return "Galois key coverage of every rotation step";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        const auto steps = plan.rotationSteps();
        const auto slots = static_cast<std::int64_t>(facts.slots);
        for (std::size_t li = 0; li < plan.layers.size(); ++li) {
            const HeLayerPlan &layer = plan.layers[li];
            for (std::size_t ii = 0; ii < layer.instrs.size(); ++ii) {
                const HeInstr &instr = layer.instrs[ii];
                if (instr.kind != HeOpKind::rotate)
                    continue;
                if (instr.step == 0) {
                    report.addInstr(
                        Severity::error, name(), li, layer.name, ii,
                        "rotate by 0: rotationSteps() omits the "
                        "identity step, so no Galois key is ever "
                        "generated for it",
                        "replace the no-op rotate with a copy");
                } else if (std::abs(
                               static_cast<std::int64_t>(instr.step)) >=
                           slots) {
                    report.addInstr(
                        Severity::error, name(), li, layer.name, ii,
                        "rotation step " + std::to_string(instr.step) +
                            " is outside the slot ring (+-" +
                            std::to_string(slots) + ")",
                        "reduce the step modulo the slot count");
                } else if (steps.count(instr.step) == 0) {
                    // Unreachable through rotationSteps() itself; kept
                    // so a future keyset source cannot silently drift.
                    report.addInstr(
                        Severity::error, name(), li, layer.name, ii,
                        "rotation step " + std::to_string(instr.step) +
                            " is not covered by the Galois key set");
                }
            }
        }
        if (steps.size() > 48) {
            report.addNetwork(
                Severity::warning, name(),
                "plan uses " + std::to_string(steps.size()) +
                    " distinct rotation steps; each Galois key is "
                    "2L(L+1)N words of key material",
                "enable CompileOptions::decomposeRotations to shrink "
                "the key set to O(log slots)");
        }
    }
};

// --- pass 5: slot-layout consistency ---------------------------------------

class LayoutPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "slot-layout"; }
    const char *
    description() const override
    {
        return "SlotLayout, inputGather, plaintext-pool and N_in sanity";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        for (std::size_t i = 0; i < plan.inputGather.size(); ++i) {
            const auto &gather = plan.inputGather[i];
            if (gather.size() != facts.slots) {
                report.addNetwork(
                    Severity::error, name(),
                    "inputGather[" + std::to_string(i) + "] has " +
                        std::to_string(gather.size()) +
                        " entries but the ring has " +
                        std::to_string(facts.slots) + " slots");
                continue;
            }
            for (std::size_t s = 0; s < gather.size(); ++s) {
                if (gather[s] < -1) {
                    report.addNetwork(
                        Severity::error, name(),
                        "inputGather[" + std::to_string(i) + "][" +
                            std::to_string(s) +
                            "] = " + std::to_string(gather[s]) +
                            " (entries are element indices or -1 "
                            "for a zero slot)");
                    break;
                }
            }
        }

        for (std::size_t li = 0; li < plan.layers.size(); ++li) {
            checkLayout(facts, plan.layers[li].outputLayout,
                        static_cast<std::int32_t>(li),
                        plan.layers[li].name, report);
            checkInstrPool(facts, li, report);
            if (plan.layers[li].nIn == 0) {
                report.addLayer(
                    Severity::warning, name(), li, plan.layers[li].name,
                    "layer declares zero input ciphertexts (nIn)",
                    "the FPGA pipeline model clamps nIn to 1; fix "
                    "the metadata");
            }
        }
        checkLayout(facts, plan.outputLayout, -1, "", report);

        for (std::size_t p = 0; p < plan.plaintexts.size(); ++p) {
            const auto &pt = plan.plaintexts[p];
            if (pt.level == 0 || pt.level > plan.params.levels) {
                report.addNetwork(
                    Severity::error, name(),
                    "plaintext " + std::to_string(p) +
                        " is encoded at level " +
                        std::to_string(pt.level) +
                        " (valid levels are 1.." +
                        std::to_string(plan.params.levels) + ")");
            }
            const bool empty_ok =
                plan.valuesElided && pt.values.empty();
            if (!empty_ok && pt.values.size() != facts.slots) {
                report.addNetwork(
                    Severity::error, name(),
                    "plaintext " + std::to_string(p) + " has " +
                        std::to_string(pt.values.size()) +
                        " values but the ring has " +
                        std::to_string(facts.slots) + " slots",
                    plan.valuesElided
                        ? "stats-only plans keep payloads empty"
                        : "re-encode the payload at the ring size");
            }
        }
    }

  private:
    void
    checkLayout(const PlanFacts &facts,
                const hecnn::SlotLayout &layout, std::int32_t li,
                const std::string &lname,
                AnalysisReport &report) const
    {
        auto add = [&](Severity sev, const std::string &msg,
                       const std::string &hint = "") {
            if (li >= 0)
                report.addLayer(sev, name(),
                                static_cast<std::size_t>(li), lname,
                                msg, hint);
            else
                report.addNetwork(sev, name(),
                                  "network outputLayout: " + msg,
                                  hint);
        };
        std::set<std::int32_t> carriers;
        for (std::int32_t reg : layout.regs) {
            if (!facts.regOk(reg)) {
                add(Severity::error,
                    "layout register " + regName(reg) +
                        " is outside the register file");
                continue;
            }
            if (!carriers.insert(reg).second)
                add(Severity::error, "layout lists register " +
                                         regName(reg) + " twice");
        }
        bool pos_ok = true;
        for (std::size_t e = 0; e < layout.pos.size() && pos_ok;
             ++e) {
            const auto &[reg, slot] = layout.pos[e];
            if (!facts.regOk(reg)) {
                add(Severity::error,
                    "element " + std::to_string(e) +
                        " lives in out-of-range register " +
                        regName(reg));
                pos_ok = false;
            } else if (slot < 0 ||
                       slot >= static_cast<std::int32_t>(
                                   facts.slots)) {
                add(Severity::error,
                    "element " + std::to_string(e) +
                        " lives at slot " + std::to_string(slot) +
                        " outside [0, " +
                        std::to_string(facts.slots) + ")");
                pos_ok = false;
            } else if (!carriers.empty() &&
                       carriers.count(reg) == 0) {
                add(Severity::error,
                    "element " + std::to_string(e) +
                        " lives in register " + regName(reg) +
                        " which the layout's carrier list omits",
                    "append the register to SlotLayout::regs");
                pos_ok = false;
            }
        }
        if (carriers.empty() && !layout.pos.empty()) {
            add(Severity::warning,
                "layout places " +
                    std::to_string(layout.pos.size()) +
                    " elements but lists no carrier registers",
                "consumers that iterate SlotLayout::regs will see "
                "an empty layout");
        }
    }

    void
    checkInstrPool(const PlanFacts &facts, std::size_t li,
                   AnalysisReport &report) const
    {
        const HeLayerPlan &layer = facts.plan.layers[li];
        for (std::size_t ii = 0; ii < layer.instrs.size(); ++ii) {
            const HeInstr &instr = layer.instrs[ii];
            const bool uses_pool = instr.kind == HeOpKind::pcMult ||
                                   instr.kind == HeOpKind::pcAdd;
            if (uses_pool && !facts.ptOk(instr.pt)) {
                report.addInstr(
                    Severity::error, name(), li, layer.name, ii,
                    std::string(opName(instr.kind)) +
                        " references plaintext " +
                        std::to_string(instr.pt) +
                        " outside the pool of " +
                        std::to_string(facts.plan.plaintexts.size()));
            } else if (!uses_pool && instr.pt != -1) {
                report.addInstr(
                    Severity::warning, name(), li, layer.name, ii,
                    std::string(opName(instr.kind)) +
                        " carries a stray plaintext operand (pt " +
                        std::to_string(instr.pt) + ")",
                    "set pt = -1 on non-plaintext opcodes");
            }
        }
    }
};

// --- pass 6: static noise-budget certification -----------------------------

class NoiseBudgetPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "noise-budget"; }
    const char *
    description() const override
    {
        return "static noise-budget certification (abstract noise "
               "interpretation over the instruction stream)";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const hecnn::NoiseCertificate cert =
            hecnn::certifyPlan(facts.plan);
        if (!cert.valid) {
            report.addNetwork(
                Severity::warning, name(),
                "plan could not be noise-certified: " +
                    cert.invalidReason,
                "fix the structural findings first; the certifier "
                "needs a well-formed plan");
            return;
        }
        // Locate the pinch point (the layer with the least headroom).
        std::size_t pinch = 0;
        for (std::size_t i = 1; i < cert.layers.size(); ++i) {
            if (cert.layers[i].headroomBits <
                cert.layers[pinch].headroomBits)
                pinch = i;
        }
        const std::string where =
            cert.layers.empty() ? std::string("(no layers)")
                                : cert.layers[pinch].layer;
        if (cert.certified()) {
            report.addNetwork(
                Severity::note, name(),
                "certified minimum noise headroom " +
                    fmtSigned(cert.minHeadroomBits) +
                    " bits at layer '" + where + "' (message <= 2^" +
                    fmtBits(cert.messageBits) + ", " +
                    std::to_string(cert.levels) + "-prime chain)");
        } else {
            report.addLayer(
                Severity::error, name(), pinch, where,
                "certified noise headroom is negative: " +
                    fmtSigned(cert.minHeadroomBits) +
                    " bits (decryption of this layer's output would "
                    "be garbage)",
                "deepen the prime chain, lower the scale, or tighten "
                "the message-magnitude assumption");
        }
    }

  private:
    static std::string
    fmtBits(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3g", v);
        return buf;
    }

    static std::string
    fmtSigned(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%+.3f", v);
        return buf;
    }
};

// --- pass 7: rescale placement ---------------------------------------------

class RescalePlacementPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "rescale-placement"; }
    const char *
    description() const override
    {
        return "redundant rescales, deferrable rescales (waterline) "
               "and missing-rescale scale blowups";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        if (!facts.paramsValid)
            return; // scale-level reports the broken prime chain

        // Side table next to the interpreted shapes: who wrote each
        // register last, and whether anything read it since.
        struct Writer
        {
            HeOpKind kind = HeOpKind::copy;
            std::size_t instr = 0;
            bool readSinceWrite = false;
        };
        struct Visitor
        {
            const RescalePlacementPass &pass;
            const PlanFacts &facts;
            AnalysisReport &report;
            std::vector<Writer> writers;
            std::size_t deferrable = 0;

            bool
            step(const hecnn::InterpStep &s,
                 std::span<const RegShape> regs)
            {
                if (s.fault)
                    return true; // def-use reports it
                const HeInstr &instr = s.instr;
                const auto src_r = static_cast<std::size_t>(instr.src);
                const auto dst_r = static_cast<std::size_t>(instr.dst);
                const RegShape &src = regs[src_r];
                const RegShape &dst = regs[dst_r];
                const std::string &lname =
                    facts.plan.layers[s.layer].name;
                const double delta = facts.domain.scale;

                // Missing rescale: an operand still carrying a full
                // multiply's scale growth is about to be multiplied
                // again — the product overshoots the waterline by a
                // whole scale factor.
                if ((instr.kind == HeOpKind::pcMult ||
                     instr.kind == HeOpKind::ccMult) &&
                    src.scale >= delta * delta * 0.5) {
                    report.addInstr(
                        Severity::warning, pass.name(), s.layer, lname,
                        s.index,
                        "missing rescale: operand " +
                            regName(instr.src) + " at scale 2^" +
                            fmtBits(std::log2(src.scale)) +
                            " has not been rescaled since its last "
                            "multiply",
                        "insert a rescale before multiplying again to "
                        "stay at the scale waterline");
                }

                // Deferrable rescale: both operands of an aligned add
                // were produced directly by rescales — sinking the
                // rescale below the add saves one NTT-heavy op.
                if (instr.kind == HeOpKind::ccAdd &&
                    writers[dst_r].kind == HeOpKind::rescale &&
                    writers[src_r].kind == HeOpKind::rescale &&
                    dst.level == src.level &&
                    hecnn::scalesAgree(dst.scale, src.scale))
                    ++deferrable;

                // Redundant rescale: the value a pure overwrite
                // clobbers was produced by a rescale nobody read.
                const bool pure_overwrite =
                    instr.kind != HeOpKind::ccAdd &&
                    instr.dst != instr.src;
                if (pure_overwrite && dst.written &&
                    writers[dst_r].kind == HeOpKind::rescale &&
                    !writers[dst_r].readSinceWrite) {
                    report.addInstr(
                        Severity::warning, pass.name(), s.layer, lname,
                        writers[dst_r].instr,
                        "redundant rescale: the result in " +
                            regName(instr.dst) +
                            " is overwritten before any use",
                        "delete the rescale or consume its result");
                }

                writers[src_r].readSinceWrite = true;
                writers[dst_r] = {instr.kind, s.index, false};
                return true;
            }

            bool
            layerEnd(std::size_t li, std::span<const RegShape>)
            {
                if (deferrable > 0) {
                    report.addLayer(
                        Severity::note, pass.name(), li,
                        facts.plan.layers[li].name,
                        std::to_string(deferrable) +
                            " addition(s) consume freshly rescaled "
                            "operands; deferring those rescales past "
                            "the adds would eliminate up to " +
                            std::to_string(deferrable) +
                            " rescale op(s)",
                        "run `fxhenn lint --rewrite 1` for the "
                        "certified rewrite");
                }
                deferrable = 0;
                return true;
            }
        };
        hecnn::interpretPlan(
            plan, facts.domain,
            Visitor{*this, facts, report,
                    std::vector<Writer>(static_cast<std::size_t>(
                        std::max(plan.regCount, 0))),
                    0});

        // Wasted levels: a chain deeper than the network consumes.
        if (!plan.layers.empty()) {
            const std::size_t final_level =
                plan.layers.back().levelOut;
            if (final_level > 1) {
                report.addNetwork(
                    Severity::note, name(),
                    "plan finishes at level " +
                        std::to_string(final_level) + "; " +
                        std::to_string(final_level - 1) +
                        " data prime(s) are never consumed",
                    "a shallower prime chain shrinks every ciphertext "
                    "and keyswitch");
            }
        }
    }

  private:
    static std::string
    fmtBits(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3g", v);
        return buf;
    }
};

// --- pass 8: batch-layout consistency --------------------------------------

/**
 * Cross-request batching invariants. A plan with batchLanes = B > 1
 * interleaves B independent requests lane-wise (request b's data at
 * physical slots s*B + b), so its correctness rests on structural
 * properties no other pass checks:
 *   - every rotation step is a multiple of B (a non-multiple permutes
 *     data BETWEEN requests — silent cross-tenant corruption);
 *   - every layout position and every active gather entry sits on a
 *     lane-0 slot (s % B == 0);
 *   - B divides the slot count (otherwise the cyclic wraparound of a
 *     rotation crosses lanes even for stride-B steps);
 *   - each register carries at most slots/B elements, i.e.
 *     nSlots >= B x per-request footprint;
 *   - every non-elided plaintext is lane-constant (broadcast), so one
 *     pcMult applies the same weight to every request.
 */
class BatchLayoutPass final : public AnalysisPass
{
  public:
    const char *name() const override { return "batch-layout"; }
    const char *
    description() const override
    {
        return "cross-request batch lane isolation and capacity";
    }

    void
    run(const PlanFacts &facts, AnalysisReport &report) const override
    {
        const HeNetworkPlan &plan = facts.plan;
        const std::size_t lanes = plan.batchLanes;
        if (lanes == 0) {
            report.addNetwork(
                Severity::error, name(),
                "batchLanes is 0 (a plan always has at least the "
                "single lane of an unbatched request)",
                "set batchLanes to 1 for an unbatched plan");
            return;
        }
        if (lanes == 1)
            return; // unbatched: nothing to isolate
        if (facts.slots % lanes != 0 || lanes > facts.slots) {
            report.addNetwork(
                Severity::error, name(),
                "batchLanes " + std::to_string(lanes) +
                    " does not divide the slot count " +
                    std::to_string(facts.slots) +
                    " (the rotation wraparound would cross lanes)",
                "use a power-of-two batch size that divides N/2");
            return; // every lane invariant below presumes divisibility
        }
        const std::size_t perRequest = facts.slots / lanes;

        for (std::size_t li = 0; li < plan.layers.size(); ++li) {
            const HeLayerPlan &layer = plan.layers[li];
            for (std::size_t ii = 0; ii < layer.instrs.size(); ++ii) {
                const HeInstr &instr = layer.instrs[ii];
                if (instr.kind != HeOpKind::rotate)
                    continue;
                const auto step =
                    static_cast<std::int64_t>(instr.step);
                if (step % static_cast<std::int64_t>(lanes) != 0) {
                    report.addInstr(
                        Severity::error, name(), li, layer.name, ii,
                        "rotation step " + std::to_string(instr.step) +
                            " is not a multiple of the " +
                            std::to_string(lanes) +
                            " batch lanes: it moves data between "
                            "requests",
                        "batched rotations must be stride-B; mask or "
                        "recompile with this batch size");
                }
            }
            checkBatchLayout(layer.outputLayout, lanes, perRequest,
                             static_cast<std::int32_t>(li), layer.name,
                             report);
        }
        checkBatchLayout(plan.outputLayout, lanes, perRequest, -1, "",
                         report);

        for (std::size_t i = 0; i < plan.inputGather.size(); ++i) {
            const auto &gather = plan.inputGather[i];
            for (std::size_t s = 0; s < gather.size(); ++s) {
                if (gather[s] >= 0 && s % lanes != 0) {
                    report.addNetwork(
                        Severity::error, name(),
                        "inputGather[" + std::to_string(i) +
                            "] places element " +
                            std::to_string(gather[s]) +
                            " at slot " + std::to_string(s) +
                            ", which is lane " +
                            std::to_string(s % lanes) +
                            " (the gather spec addresses lane 0 "
                            "only; siblings are filled at encrypt "
                            "time)");
                    break;
                }
            }
        }

        for (std::size_t p = 0; p < plan.plaintexts.size(); ++p) {
            const auto &values = plan.plaintexts[p].values;
            if (values.empty())
                continue; // elided payload: nothing to check
            for (std::size_t s = 0; s < values.size(); ++s) {
                if (values[s] != values[(s / lanes) * lanes]) {
                    report.addNetwork(
                        Severity::error, name(),
                        "plaintext " + std::to_string(p) +
                            " is not lane-constant at slot " +
                            std::to_string(s) +
                            ": a batched weight must broadcast the "
                            "same value to all " +
                            std::to_string(lanes) + " lanes");
                    break;
                }
            }
        }
    }

  private:
    /** Lane alignment + per-request slot capacity of one layout. */
    void
    checkBatchLayout(const hecnn::SlotLayout &layout, std::size_t lanes,
                     std::size_t perRequest, std::int32_t li,
                     const std::string &layerName,
                     AnalysisReport &report) const
    {
        const auto add = [&](const std::string &msg,
                             const std::string &hint = "") {
            if (li >= 0) {
                report.addLayer(Severity::error, name(),
                                static_cast<std::size_t>(li), layerName,
                                msg, hint);
            } else {
                report.addNetwork(Severity::error, name(), msg, hint);
            }
        };
        std::map<std::int32_t, std::size_t> elemsPerReg;
        for (const auto &[reg, slot] : layout.pos) {
            if (static_cast<std::size_t>(slot) % lanes != 0) {
                add("layout places an element at slot " +
                        std::to_string(slot) + " of register " +
                        std::to_string(reg) + ", which is lane " +
                        std::to_string(static_cast<std::size_t>(slot) %
                                       lanes) +
                        " (batched layouts address lane 0 only)");
                return;
            }
            ++elemsPerReg[reg];
        }
        for (const auto &[reg, count] : elemsPerReg) {
            if (count > perRequest) {
                add("register " + std::to_string(reg) + " carries " +
                        std::to_string(count) +
                        " elements but a " + std::to_string(lanes) +
                        "-lane batch leaves only " +
                        std::to_string(perRequest) +
                        " slots per request (nSlots >= B x footprint "
                        "is violated)",
                    "reduce the batch size or use larger CKKS N");
                return;
            }
        }
    }
};

} // namespace

// --- pass manager ----------------------------------------------------------

void
PassManager::add(std::unique_ptr<AnalysisPass> pass)
{
    passes_.push_back(std::move(pass));
}

AnalysisReport
PassManager::run(const hecnn::HeNetworkPlan &plan) const
{
    const PlanFacts facts = makePlanFacts(plan);
    AnalysisReport report;
    for (const auto &pass : passes_)
        pass->run(facts, report);
    return report;
}

PassManager
PassManager::standard()
{
    PassManager pm;
    pm.add(makeDefUsePass());
    pm.add(makeScaleLevelPass());
    pm.add(makeLivenessPass());
    pm.add(makeRotationKeyPass());
    pm.add(makeLayoutPass());
    pm.add(makeNoiseBudgetPass());
    pm.add(makeRescalePlacementPass());
    pm.add(makeBatchLayoutPass());
    return pm;
}

std::unique_ptr<AnalysisPass>
makeDefUsePass()
{
    return std::make_unique<DefUsePass>();
}
std::unique_ptr<AnalysisPass>
makeScaleLevelPass()
{
    return std::make_unique<ScaleLevelPass>();
}
std::unique_ptr<AnalysisPass>
makeLivenessPass()
{
    return std::make_unique<LivenessPass>();
}
std::unique_ptr<AnalysisPass>
makeRotationKeyPass()
{
    return std::make_unique<RotationKeyPass>();
}
std::unique_ptr<AnalysisPass>
makeLayoutPass()
{
    return std::make_unique<LayoutPass>();
}
std::unique_ptr<AnalysisPass>
makeNoiseBudgetPass()
{
    return std::make_unique<NoiseBudgetPass>();
}
std::unique_ptr<AnalysisPass>
makeRescalePlacementPass()
{
    return std::make_unique<RescalePlacementPass>();
}
std::unique_ptr<AnalysisPass>
makeBatchLayoutPass()
{
    return std::make_unique<BatchLayoutPass>();
}

} // namespace fxhenn::analysis
