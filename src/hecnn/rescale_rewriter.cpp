#include "src/hecnn/rescale_rewriter.hpp"

#include <set>
#include <sstream>
#include <vector>

#include "src/hecnn/plan_check.hpp"
#include "src/hecnn/plan_interp.hpp"

namespace fxhenn::hecnn {

namespace {

/**
 * Per-layer live-out sets by backward dataflow: liveOut[i] holds the
 * registers whose values layer i must leave in their original
 * (post-rescale) state because a later layer reads them or the plan's
 * final output decodes them.
 */
std::vector<std::set<std::int32_t>>
computeLiveOut(const HeNetworkPlan &plan)
{
    std::vector<std::set<std::int32_t>> liveOut(plan.layers.size());
    std::set<std::int32_t> live(plan.outputLayout.regs.begin(),
                                plan.outputLayout.regs.end());
    for (std::size_t i = plan.layers.size(); i-- > 0;) {
        liveOut[i] = live;
        const auto &instrs = plan.layers[i].instrs;
        for (std::size_t j = instrs.size(); j-- > 0;) {
            const HeInstr &in = instrs[j];
            if (in.kind != HeOpKind::ccAdd)
                live.erase(in.dst); // pure definition
            live.insert(in.src);
            if (in.kind == HeOpKind::ccAdd)
                live.insert(in.dst); // dst is read too
        }
    }
    return liveOut;
}

/** The sinking pass itself; produces a rewritten copy of the plan. */
struct Sinker
{
    const InterpDomain domain;
    std::vector<RegShape> shapes; ///< over the *emitted* stream
    std::vector<bool> pending; ///< register owes one deferred rescale
    std::vector<HeInstr> *out = nullptr;

    explicit Sinker(const HeNetworkPlan &p)
        : domain(interpDomain(p.params)),
          shapes(seedRegisters(p, domain)), pending(shapes.size(), false)
    {
    }

    bool
    inRange(std::int32_t r) const
    {
        return r >= 0 && r < static_cast<std::int32_t>(shapes.size());
    }

    void
    emit(const HeInstr &in)
    {
        out->push_back(in);
        RegShape &dst = shapes[static_cast<std::size_t>(in.dst)];
        dst = transfer(in, shapes[static_cast<std::size_t>(in.src)], dst,
                       domain);
    }

    /** Discharge the deferred rescale on @p r (emits `rescale r,r`). */
    void
    flush(std::int32_t r)
    {
        if (!inRange(r) || !pending[static_cast<std::size_t>(r)])
            return;
        pending[static_cast<std::size_t>(r)] = false;
        emit({HeOpKind::rescale, r, r, -1, 0});
    }

    /** Rewrite one layer; false = bail out (malformed instruction). */
    bool
    rewriteLayer(const HeLayerPlan &layer,
                 const std::set<std::int32_t> &liveOut,
                 std::vector<HeInstr> &rewritten)
    {
        out = &rewritten;
        for (const HeInstr &in : layer.instrs) {
            if (!inRange(in.dst) || !inRange(in.src))
                return false;
            const auto dst = static_cast<std::size_t>(in.dst);
            const auto src = static_cast<std::size_t>(in.src);

            if (in.kind == HeOpKind::rescale && in.dst == in.src) {
                // Defer. A register already owing a rescale discharges
                // it first so at most one is ever outstanding.
                if (pending[src])
                    flush(in.src);
                pending[src] = true;
                continue;
            }
            if (in.kind == HeOpKind::ccAdd) {
                if (pending[dst] && pending[src] &&
                    shapes[dst].written && shapes[src].written &&
                    shapes[dst].level == shapes[src].level &&
                    scalesAgree(shapes[dst].scale, shapes[src].scale)) {
                    // Both operands ride at the same pre-rescale
                    // state: add first, rescale the sum once later.
                    // This is the elimination that turns K rescales
                    // per accumulation into one.
                    emit(in);
                    continue;
                }
                flush(in.dst);
                flush(in.src);
                emit(in);
                continue;
            }
            if (in.kind == HeOpKind::rescale) {
                // rescale r_a, r_b with a != b: not a sinkable form;
                // pass it through against the flushed source.
                flush(in.src);
                pending[dst] = false; // dst overwritten
                emit(in);
                continue;
            }

            // Every other opcode reads src at its original state —
            // including rotate/relinearize, where deferral would run
            // the keyswitch at the higher level for no savings.
            flush(in.src);
            if (in.dst != in.src)
                pending[dst] = false; // pure overwrite kills the debt
            emit(in);
        }

        // Layer boundary: discharge what later layers or the guard's
        // layer-end check (layerOutputRegs) observe; drop debts on
        // dead registers — their rescale is the one we eliminated.
        const auto outputs = layerOutputRegs(layer, shapes);
        std::set<std::int32_t> keep(outputs.begin(), outputs.end());
        keep.insert(liveOut.begin(), liveOut.end());
        for (std::size_t r = 0; r < pending.size(); ++r) {
            if (pending[r] && keep.count(static_cast<std::int32_t>(r)))
                flush(static_cast<std::int32_t>(r));
            else
                pending[r] = false;
        }
        out = nullptr;
        return true;
    }
};

} // namespace

std::string
RewriteSummary::describe() const
{
    std::ostringstream oss;
    oss.precision(4);
    if (applied) {
        oss << "rescale rewrite applied: " << rescalesBefore << " -> "
            << rescalesAfter << " rescales, certified min headroom "
            << minHeadroomBefore << " -> " << minHeadroomAfter
            << " bits";
    } else {
        oss << "rescale rewrite not applied (" << reason
            << "); plan unchanged";
    }
    return oss.str();
}

RewriteSummary
rewriteRescales(HeNetworkPlan &plan, const CertifyOptions &copts)
{
    RewriteSummary summary;
    summary.rescalesBefore = plan.totalCounts().rescale;
    summary.rescalesAfter = summary.rescalesBefore;

    const NoiseCertificate before = certifyPlan(plan, copts);
    summary.minHeadroomBefore = before.minHeadroomBits;
    summary.minHeadroomAfter = before.minHeadroomBits;
    if (!before.valid) {
        summary.reason =
            "original plan did not certify: " + before.invalidReason;
        return summary;
    }

    HeNetworkPlan rewritten = plan;
    try {
        Sinker sinker(plan);
        const auto liveOut = computeLiveOut(plan);
        for (std::size_t i = 0; i < plan.layers.size(); ++i) {
            std::vector<HeInstr> instrs;
            instrs.reserve(plan.layers[i].instrs.size());
            if (!sinker.rewriteLayer(plan.layers[i], liveOut[i],
                                     instrs)) {
                summary.reason = "malformed instruction in layer " +
                                 plan.layers[i].name;
                return summary;
            }
            rewritten.layers[i].instrs = std::move(instrs);
            rewritten.layers[i].classify();
        }
    } catch (const std::exception &e) {
        summary.reason = e.what();
        return summary;
    }

    summary.rescalesAfter = rewritten.totalCounts().rescale;
    if (summary.rescalesAfter >= summary.rescalesBefore) {
        summary.reason = "no rescale could be eliminated";
        summary.rescalesAfter = summary.rescalesBefore;
        return summary;
    }

    const NoiseCertificate after = certifyPlan(rewritten, copts);
    summary.minHeadroomAfter = after.minHeadroomBits;
    if (!after.valid) {
        summary.reason =
            "rewritten plan did not certify: " + after.invalidReason;
        summary.rescalesAfter = summary.rescalesBefore;
        summary.minHeadroomAfter = summary.minHeadroomBefore;
        return summary;
    }
    if (after.minHeadroomBits < before.minHeadroomBits - 1e-9) {
        std::ostringstream oss;
        oss.precision(4);
        oss << "certified headroom would drop "
            << before.minHeadroomBits << " -> "
            << after.minHeadroomBits << " bits";
        summary.reason = oss.str();
        summary.rescalesAfter = summary.rescalesBefore;
        return summary;
    }
    if (planVerifierInstalled()) {
        try {
            runPlanVerifier(rewritten, "rescale-rewrite");
        } catch (const std::exception &e) {
            summary.reason =
                std::string("plan verifier rejected the rewrite: ") +
                e.what();
            summary.rescalesAfter = summary.rescalesBefore;
            summary.minHeadroomAfter = summary.minHeadroomBefore;
            return summary;
        }
    }

    plan = std::move(rewritten);
    summary.applied = true;
    return summary;
}

} // namespace fxhenn::hecnn
