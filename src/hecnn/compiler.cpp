#include "src/hecnn/compiler.hpp"

#include <functional>
#include <limits>
#include <set>

#include "src/common/assert.hpp"
#include "src/common/math_util.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_check.hpp"
#include "src/hecnn/rescale_rewriter.hpp"

namespace fxhenn::hecnn {

namespace {

/** Sparse row visitor: emit(elementIndex, weight) for one output row. */
using RowVisitor =
    std::function<void(std::size_t row,
                       const std::function<void(std::size_t, double)> &)>;

/**
 * One lowering of a replicated dense layer (compileMatVecReplicated):
 * Rp rows per vpad-slot replica block, n1 hoisted baby steps times
 * Rp/n1 giant steps, the replica count and the merged output layout.
 */
struct MatVecShape
{
    std::size_t rowsPerBlock = 1; ///< Rp, a power of two <= vpad
    std::size_t babySteps = 1;    ///< n1, a power of two dividing Rp
    std::size_t replicas = 1;     ///< input blocks built by doubling
    bool contiguous = false;      ///< merged row r lands at slot r

    /**
     * Blocks of the @p copies replica blocks that compute rows in each
     * row group (every group but the last fills all of them).
     */
    std::size_t
    blocks(std::size_t outRows, std::size_t copies) const
    {
        return std::min<std::size_t>(copies,
                                     divCeil(outRows, rowsPerBlock));
    }
};

/** Builds one HeNetworkPlan; transient state machine. */
class PlanBuilder
{
  public:
    PlanBuilder(const nn::Network &net, const ckks::CkksParams &params,
                const CompileOptions &options)
        : net_(net), params_(params), options_(options),
          // Batched compiles run entirely in virtual slot space: each
          // of the B interleaved requests sees (N/2)/B slots, and
          // applyBatchStride() stretches the finished plan onto the
          // physical slot ring afterwards.
          slots_((params.n / 2) / std::max<std::size_t>(
                                      options.batchLanes, 1))
    {}

    HeNetworkPlan
    build()
    {
        plan_.name = net_.name();
        plan_.params = params_;
        plan_.valuesElided = options_.elideValues;
        level_ = params_.levels;

        for (std::size_t i = 0; i < net_.layerCount(); ++i) {
            const nn::Layer &layer = net_.layer(i);
            const bool is_last = (i + 1 == net_.layerCount());
            switch (layer.kind()) {
              case nn::LayerKind::conv2d: {
                const auto &conv = static_cast<const nn::Conv2D &>(layer);
                if (i == 0) {
                    compileFirstConv(conv);
                } else {
                    compileConvAsDense(conv, !is_last);
                }
                break;
              }
              case nn::LayerKind::dense: {
                const auto &dense = static_cast<const nn::Dense &>(layer);
                if (i == 0)
                    setupDenseFirstInput(dense.inSize());
                compileDenseLayer(dense, !is_last);
                break;
              }
              case nn::LayerKind::square:
                compileSquare(static_cast<const nn::SquareActivation &>(
                    layer));
                break;
              case nn::LayerKind::avgPool:
                FXHENN_FATAL_IF(i == 0,
                                "pooling cannot be the first layer");
                compileAvgPool(static_cast<const nn::AvgPool2D &>(layer),
                               !is_last);
                break;
              case nn::LayerKind::flatten:
                break; // layouts are already flat
            }
        }

        plan_.outputLayout = layout_;
        plan_.regCount = regCount_;
        return std::move(plan_);
    }

  private:
    // --- infrastructure ---------------------------------------------------

    std::int32_t newReg() { return regCount_++; }

    std::int32_t
    addPlaintext(std::vector<double> values, std::size_t level,
                 bool atSchemeScale)
    {
        PlanPlaintext pt;
        pt.level = level;
        pt.atSchemeScale = atSchemeScale;
        for (const double v : values)
            pt.maxAbs = std::max(pt.maxAbs, std::abs(v));
        if (!options_.elideValues)
            pt.values = std::move(values);
        plan_.plaintexts.push_back(std::move(pt));
        return static_cast<std::int32_t>(plan_.plaintexts.size() - 1);
    }

    void
    emit(HeLayerPlan &lp, HeOpKind kind, std::int32_t dst,
         std::int32_t src, std::int32_t pt = -1, std::int32_t step = 0)
    {
        lp.instrs.push_back(HeInstr{kind, dst, src, pt, step});
    }

    /**
     * The steps of the rotations one rotation by @p step is emitted
     * as: signed power-of-two sub-rotations, low bit first, when the
     * decomposeRotations option is set and |step| is not a power of
     * two; otherwise @p step itself.
     */
    std::vector<std::int32_t>
    rotationParts(std::int32_t step) const
    {
        const std::int32_t sign = step < 0 ? -1 : 1;
        const auto magnitude = static_cast<std::uint32_t>(sign * step);
        if (!options_.decomposeRotations || step == 0 ||
            isPowerOfTwo(magnitude))
            return {step};
        std::vector<std::int32_t> parts;
        for (std::uint32_t rest = magnitude, bit = 1; rest != 0;
             bit <<= 1) {
            if (rest & bit) {
                parts.push_back(sign * static_cast<std::int32_t>(bit));
                rest &= ~bit;
            }
        }
        return parts;
    }

    /** Emit a rotation by @p step as rotationParts (dst may alias src). */
    void
    emitRotate(HeLayerPlan &lp, std::int32_t dst, std::int32_t src,
               std::int32_t step)
    {
        std::int32_t current = src;
        for (const std::int32_t part : rotationParts(step)) {
            emit(lp, HeOpKind::rotate, dst, current, -1, part);
            current = dst;
        }
    }

    HeLayerPlan &
    beginLayer(const std::string &name, std::size_t n_in)
    {
        plan_.layers.emplace_back();
        HeLayerPlan &lp = plan_.layers.back();
        lp.name = name;
        lp.levelIn = level_;
        lp.nIn = n_in;
        return lp;
    }

    void
    finishLayer(HeLayerPlan &lp, SlotLayout layout)
    {
        lp.levelOut = level_;
        lp.outputLayout = layout;
        lp.classify();
        layout_ = std::move(layout);
    }

    void
    consumeLevel(std::size_t count = 1)
    {
        FXHENN_FATAL_IF(level_ < count + 1,
                        "network depth exceeds the CKKS level budget; "
                        "increase params.levels");
        level_ -= count;
    }

    /** Dense-first networks: pack the flat input contiguously. */
    void
    setupDenseFirstInput(std::size_t v)
    {
        const std::size_t regs_needed = divCeil(v, slots_);
        plan_.inputGather.assign(regs_needed,
                                 std::vector<std::int32_t>(slots_, -1));
        SlotLayout layout;
        for (std::size_t c = 0; c < regs_needed; ++c) {
            const std::int32_t reg = newReg();
            layout.regs.push_back(reg);
            for (std::size_t s = 0; s < slots_; ++s) {
                const std::size_t e = c * slots_ + s;
                if (e < v) {
                    plan_.inputGather[c][s] =
                        static_cast<std::int32_t>(e);
                    layout.pos.emplace_back(
                        reg, static_cast<std::int32_t>(s));
                }
            }
        }
        layout_ = std::move(layout);
    }

    // --- first-layer convolution (tap packing) ---------------------------

    void
    compileFirstConv(const nn::Conv2D &conv)
    {
        const std::size_t taps =
            conv.inChannels() * conv.kernel() * conv.kernel();
        const std::size_t pixels = conv.outHeight() * conv.outWidth();
        FXHENN_FATAL_IF(pixels > slots_,
                        "one output map does not fit the slot count");
        const std::size_t f_per_ct =
            std::min<std::size_t>(conv.outChannels(), slots_ / pixels);
        const std::size_t groups =
            divCeil(conv.outChannels(), f_per_ct);

        // Client-side gather: identical for every output group.
        plan_.inputGather.assign(taps,
                                 std::vector<std::int32_t>(slots_, -1));
        std::size_t tap = 0;
        for (std::size_t c = 0; c < conv.inChannels(); ++c) {
            for (std::size_t ky = 0; ky < conv.kernel(); ++ky) {
                for (std::size_t kx = 0; kx < conv.kernel(); ++kx) {
                    auto &gather = plan_.inputGather[tap];
                    for (std::size_t f_local = 0; f_local < f_per_ct;
                         ++f_local) {
                        for (std::size_t y = 0; y < conv.outHeight();
                             ++y) {
                            for (std::size_t x = 0; x < conv.outWidth();
                                 ++x) {
                                const std::size_t p =
                                    y * conv.outWidth() + x;
                                const std::size_t slot =
                                    f_local * pixels + p;
                                // -1 (zero slot) for padded taps.
                                gather[slot] = static_cast<std::int32_t>(
                                    conv.inputIndex(c, ky, kx, y, x));
                            }
                        }
                    }
                    ++tap;
                }
            }
        }

        // Input registers 0..taps-1 hold the client's ciphertexts.
        std::vector<std::int32_t> in_regs(taps);
        for (std::size_t i = 0; i < taps; ++i)
            in_regs[i] = newReg();

        HeLayerPlan &lp = beginLayer(conv.name(), taps);

        SlotLayout out;
        const std::int32_t tmp = newReg();
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t f_lo = g * f_per_ct;
            const std::size_t f_hi =
                std::min<std::size_t>(conv.outChannels(),
                                      f_lo + f_per_ct);
            const std::int32_t acc = newReg();

            tap = 0;
            for (std::size_t c = 0; c < conv.inChannels(); ++c) {
                for (std::size_t ky = 0; ky < conv.kernel(); ++ky) {
                    for (std::size_t kx = 0; kx < conv.kernel(); ++kx) {
                        std::vector<double> w(slots_, 0.0);
                        for (std::size_t f = f_lo; f < f_hi; ++f) {
                            const double weight =
                                conv.weight(f, c, ky, kx);
                            for (std::size_t p = 0; p < pixels; ++p)
                                w[(f - f_lo) * pixels + p] = weight;
                        }
                        const std::int32_t pt =
                            addPlaintext(std::move(w), level_, true);
                        const std::int32_t dst = (tap == 0) ? acc : tmp;
                        emit(lp, HeOpKind::pcMult, dst,
                             in_regs[tap], pt);
                        emit(lp, HeOpKind::rescale, dst, dst);
                        if (tap != 0)
                            emit(lp, HeOpKind::ccAdd, acc, tmp);
                        ++tap;
                    }
                }
            }

            // Bias at every output slot of this group.
            std::vector<double> bias(slots_, 0.0);
            for (std::size_t f = f_lo; f < f_hi; ++f) {
                for (std::size_t p = 0; p < pixels; ++p)
                    bias[(f - f_lo) * pixels + p] = conv.bias(f);
            }
            const std::int32_t bias_pt =
                addPlaintext(std::move(bias), level_ - 1, false);
            emit(lp, HeOpKind::pcAdd, acc, acc, bias_pt);

            for (std::size_t f = f_lo; f < f_hi; ++f) {
                for (std::size_t p = 0; p < pixels; ++p) {
                    out.pos.emplace_back(
                        acc, static_cast<std::int32_t>(
                                 (f - f_lo) * pixels + p));
                }
            }
            out.regs.push_back(acc);
        }

        consumeLevel();
        finishLayer(lp, std::move(out));
    }

    // --- square activation ------------------------------------------------

    void
    compileSquare(const nn::SquareActivation &act)
    {
        HeLayerPlan &lp = beginLayer(act.name(), layout_.regs.size());
        for (std::int32_t reg : layout_.regs) {
            emit(lp, HeOpKind::ccMult, reg, reg);
            emit(lp, HeOpKind::relinearize, reg, reg);
            emit(lp, HeOpKind::rescale, reg, reg);
        }
        consumeLevel();
        finishLayer(lp, layout_);
    }

    // --- dense / conv-as-dense --------------------------------------------

    void
    compileDenseLayer(const nn::Dense &dense, bool merge)
    {
        RowVisitor rows = [&dense](std::size_t row, const auto &visit) {
            for (std::size_t col = 0; col < dense.inSize(); ++col)
                visit(col, dense.weight(row, col));
        };
        compileMatVec(dense.name(), dense.outputSize(), rows,
                      [&dense](std::size_t r) { return dense.bias(r); },
                      merge);
    }

    void
    compileConvAsDense(const nn::Conv2D &conv, bool merge)
    {
        // Implicit im2col: output row (f, y, x); element index follows
        // the CHW flattening of the conv's input tensor.
        const std::size_t ow = conv.outWidth();
        const std::size_t oh = conv.outHeight();
        RowVisitor rows = [&conv, ow, oh](std::size_t row,
                                          const auto &visit) {
            const std::size_t f = row / (oh * ow);
            const std::size_t y = (row / ow) % oh;
            const std::size_t x = row % ow;
            for (std::size_t c = 0; c < conv.inChannels(); ++c) {
                for (std::size_t ky = 0; ky < conv.kernel(); ++ky) {
                    for (std::size_t kx = 0; kx < conv.kernel(); ++kx) {
                        const std::int64_t e =
                            conv.inputIndex(c, ky, kx, y, x);
                        if (e >= 0) {
                            visit(static_cast<std::size_t>(e),
                                  conv.weight(f, c, ky, kx));
                        }
                    }
                }
            }
        };
        compileMatVec(conv.name(), conv.outputSize(), rows,
                      [&conv, oh, ow](std::size_t r) {
                          return conv.bias(r / (oh * ow));
                      },
                      merge);
    }

    void
    compileAvgPool(const nn::AvgPool2D &pool, bool merge)
    {
        // Average pooling is a sparse linear map: each output averages
        // its k*k window, so it reuses the matrix-vector machinery with
        // constant 1/k^2 weights and no bias.
        const std::size_t ow = pool.outWidth();
        const std::size_t oh = pool.outHeight();
        const double inv = 1.0 / static_cast<double>(pool.kernel() *
                                                     pool.kernel());
        RowVisitor rows = [&pool, ow, oh, inv](std::size_t row,
                                               const auto &visit) {
            const std::size_t c = row / (oh * ow);
            const std::size_t y = (row / ow) % oh;
            const std::size_t x = row % ow;
            for (std::size_t ky = 0; ky < pool.kernel(); ++ky) {
                for (std::size_t kx = 0; kx < pool.kernel(); ++kx) {
                    const std::size_t e =
                        (c * pool.inHeight() + y * pool.stride() + ky) *
                            pool.inWidth() +
                        x * pool.stride() + kx;
                    visit(e, inv);
                }
            }
        };
        compileMatVec(pool.name(), pool.outputSize(), rows,
                      [](std::size_t) { return 0.0; }, merge);
    }

    /** Shared matrix-vector lowering for Dense and mid-network Conv2D. */
    void
    compileMatVec(const std::string &name, std::size_t out_rows,
                  const RowVisitor &rows,
                  const std::function<double(std::size_t)> &bias,
                  bool merge)
    {
        const std::size_t v = layout_.elements();
        const std::size_t vpad = std::size_t(1) << ceilLog2(v);
        if (layout_.isContiguousSingleReg() && vpad * 2 <= slots_) {
            compileMatVecReplicated(name, out_rows, vpad, rows, bias,
                                    merge);
        } else {
            compileMatVecGeneral(name, out_rows, rows, bias, merge);
        }
    }

    /** Cost-model weight of one keyswitch at @p level (its limbs). */
    static double
    keyswitchWeight(std::size_t level)
    {
        return static_cast<double>(level + 1);
    }

    /**
     * Cost of a replicated mat-vec shape at input level @p level,
     * mirroring the emission in compileMatVecReplicated without
     * building any plaintext: every keyswitch weighted by the level it
     * runs at, a hoisted baby step (one that shares the first member's
     * digit decomposition) at kHoistedMemberCost of a full rotation
     * (bench_kernels' BM_RotateFourHoisted vs BM_RotateFourSequential:
     * the per-member inner product and mod-down are 0.6-0.7 of it),
     * and every rotation step the plan has no Galois key for yet at
     * kNewKeyCost top-level keyswitches: a key is generated once, but
     * its 2(L+1)(L+2)N words are the largest state a step adds, so a
     * shape needing fresh keys must save more than a few rotations.
     */
    double
    matVecCost(const MatVecShape &shape, std::size_t out_rows,
               std::size_t vpad, std::size_t level, bool merge,
               const std::set<std::int32_t> &keyed) const
    {
        constexpr double kHoistedMemberCost = 0.65;
        constexpr double kNewKeyCost = 2.0;
        const std::size_t rp = shape.rowsPerBlock;
        const std::size_t n1 = shape.babySteps;
        const std::size_t n2 = rp / n1;
        const std::size_t blocks = shape.blocks(out_rows, slots_ / vpad);
        const std::size_t groups = divCeil(out_rows, blocks * rp);

        // Each keyswitch emitRotate emits for a rotation by `step`
        // costs `weight`; a step of 0 emits nothing.
        double cost = 0.0;
        std::set<std::int32_t> steps;
        auto rotation = [&](std::int32_t step, double weight) {
            if (step == 0)
                return;
            for (const std::int32_t part : rotationParts(step)) {
                cost += weight;
                steps.insert(part);
            }
        };
        auto asStep = [](std::size_t step) {
            return static_cast<std::int32_t>(step);
        };
        const double top = keyswitchWeight(level);
        for (std::size_t block = 1; block < shape.replicas; block <<= 1)
            rotation(-asStep(vpad * block), top);
        const bool hoisted = n1 > 2 && !options_.decomposeRotations;
        for (std::size_t b = 1; b < n1; ++b)
            rotation(asStep(b),
                     hoisted && b > 1 ? kHoistedMemberCost * top : top);
        const double mid = keyswitchWeight(level - 1);
        for (std::size_t g = 0; g < groups; ++g) {
            for (std::size_t gs = 1; gs < n2; ++gs)
                rotation(asStep(gs * n1), mid);
            for (std::size_t step = vpad / 2; step >= rp; step >>= 1)
                rotation(asStep(step), mid);
            if (!merge)
                continue;
            const std::size_t rows_here =
                std::min(blocks * rp, out_rows - g * blocks * rp);
            const std::size_t unit =
                shape.contiguous ? 1 : divCeil(rows_here, rp);
            for (std::size_t c0 = 0; c0 * rp < rows_here; c0 += unit)
                rotation(gatherShift(shape, vpad, blocks, g, c0),
                         keyswitchWeight(level - 2));
        }
        for (const std::int32_t step : steps)
            if (keyed.count(step) == 0)
                cost += kNewKeyCost * keyswitchWeight(params_.levels);
        return cost;
    }

    /**
     * The rotation that moves the merged heads of group @p g's blocks
     * starting at @p c0 into place: LoLa parks block c's row at slot
     * c*vpad + g (one mask and one shift per group), the contiguous
     * layout moves each block's Rp rows to slots row..row+Rp-1.
     */
    static std::int32_t
    gatherShift(const MatVecShape &shape, std::size_t vpad,
                std::size_t blocks, std::size_t g, std::size_t c0)
    {
        const std::size_t rp = shape.rowsPerBlock;
        if (!shape.contiguous)
            return -static_cast<std::int32_t>(g * rp);
        return static_cast<std::int32_t>(c0 * vpad) -
               static_cast<std::int32_t>((g * blocks + c0) * rp);
    }

    /** Pick the replicated lowering shape of one dense layer. */
    MatVecShape
    chooseMatVecShape(std::size_t out_rows, std::size_t vpad,
                      bool merge) const
    {
        const std::size_t copies = slots_ / vpad;
        MatVecShape best{1, 1, copies, false};
        if (options_.matVec == MatVecLowering::lola)
            return best;
        const std::set<std::int32_t> keyed = plan_.rotationSteps();
        double best_cost = std::numeric_limits<double>::infinity();
        for (std::size_t rp = 1; rp <= vpad; rp <<= 1) {
            MatVecShape shape{rp, 1, copies, merge};
            // Replicas cover the used blocks, plus the next one that
            // the diagonals' rotations read into (the ring wraps
            // cyclically once every block is a replica).
            const std::size_t blocks = shape.blocks(out_rows, copies);
            if (blocks < copies) {
                shape.replicas = std::min<std::size_t>(
                    copies, std::size_t(1)
                                << ceilLog2(blocks + (rp > 1 ? 1 : 0)));
            }
            for (std::size_t n1 = 1; n1 <= rp; n1 <<= 1) {
                shape.babySteps = n1;
                const double cost =
                    matVecCost(shape, out_rows, vpad, level_, merge, keyed);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = shape;
                }
            }
        }
        return best;
    }

    /**
     * Replicated path: one contiguous input ciphertext (Fig. 3 style),
     * lowered as Halevi-Shoup hybrid diagonals with baby-step/giant-step
     * rotations.
     *
     * The input is replicated into vpad-slot blocks. Each block c of a
     * row group computes Rp rows: diagonal i holds, at block slot t,
     * W[row(c, t mod Rp)][(t + i) mod vpad], so the sum over i of
     * diagonal i times the input rotated by i, folded by a
     * log2(vpad/Rp) rotate-and-sum, leaves row (c, j) at slot
     * c*vpad + j. The Rp input rotations split as i = gs*n1 + b: the
     * n1 - 1 baby steps rotate the input once for every group, and each
     * giant step gs rotates one partial sum whose diagonals were
     * pre-rotated by -gs*n1. Rp = 1 is LoLa's lowering.
     */
    void
    compileMatVecReplicated(const std::string &name, std::size_t out_rows,
                            std::size_t vpad, const RowVisitor &rows,
                            const std::function<double(std::size_t)> &bias,
                            bool merge)
    {
        FXHENN_FATAL_IF(merge && out_rows > slots_,
                        "merged dense output exceeds slot count");
        const MatVecShape shape = chooseMatVecShape(out_rows, vpad, merge);
        const std::size_t rp = shape.rowsPerBlock;
        const std::size_t n1 = shape.babySteps;
        const std::size_t n2 = rp / n1;
        const std::size_t blocks = shape.blocks(out_rows, slots_ / vpad);
        const std::size_t per_group = blocks * rp;
        const std::size_t groups = divCeil(out_rows, per_group);
        HeLayerPlan &lp = beginLayer(name, groups * n2);
        // Row k of a group is row k % Rp of block k / Rp; its result
        // lands at this slot.
        auto head = [rp, vpad](std::size_t k) {
            return (k / rp) * vpad + k % rp;
        };

        const std::int32_t src = layout_.regs[0];
        const std::int32_t rep = newReg();
        const std::int32_t tmp = newReg();

        // Replicate the vector into aligned blocks by doubling.
        emit(lp, HeOpKind::copy, rep, src);
        for (std::size_t block = 1; block < shape.replicas; block <<= 1) {
            emit(lp, HeOpKind::rotate, tmp, rep, -1,
                 -static_cast<std::int32_t>(vpad * block));
            emit(lp, HeOpKind::ccAdd, rep, tmp);
        }

        const std::int32_t work = newReg();
        const std::int32_t masked = newReg();
        const std::int32_t out = merge ? newReg() : -1;

        // Baby steps: one run of same-source rotations of the replica,
        // shared by every row group.
        std::vector<std::int32_t> baby{rep};
        for (std::size_t b = 1; b < n1; ++b)
            baby.push_back(newReg());
        for (std::size_t b = 1; b < n1; ++b)
            emitRotate(lp, baby[b], rep, static_cast<std::int32_t>(b));
        const std::int32_t part = n1 > 1 ? newReg() : -1;
        const std::int32_t inner = n2 > 1 ? newReg() : -1;

        SlotLayout out_layout;
        out_layout.pos.resize(out_rows);

        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t row0 = g * per_group;
            const std::size_t rows_here =
                std::min(per_group, out_rows - row0);

            // Row k's weight on element e sits in the one diagonal i
            // with t = e - i = k (mod Rp), pre-rotated by its giant
            // step. Filled even for elided plans: the slot vectors are
            // transient there, but their maxAbs feeds the certifier.
            std::vector<std::vector<double>> diag(
                rp, std::vector<double>(slots_, 0.0));
            for (std::size_t k = 0; k < rows_here; ++k) {
                const std::size_t c = k / rp;
                const std::size_t j = k % rp;
                rows(row0 + k, [&](std::size_t e, double weight) {
                    const std::size_t i = (e % rp + rp - j) % rp;
                    const std::size_t t = (e + vpad - i) % vpad;
                    const std::size_t slot =
                        (c * vpad + t + (i / n1) * n1) % slots_;
                    diag[i][slot] += weight;
                });
            }
            for (std::size_t gs = 0; gs < n2; ++gs) {
                const std::int32_t acc = gs == 0 ? work : inner;
                for (std::size_t b = 0; b < n1; ++b) {
                    const std::int32_t pt = addPlaintext(
                        std::move(diag[gs * n1 + b]), level_, true);
                    emit(lp, HeOpKind::pcMult, b == 0 ? acc : part,
                         baby[b], pt);
                    if (b > 0)
                        emit(lp, HeOpKind::ccAdd, acc, part);
                }
                emit(lp, HeOpKind::rescale, acc, acc);
                if (gs > 0) {
                    emitRotate(lp, inner, inner,
                               static_cast<std::int32_t>(gs * n1));
                    emit(lp, HeOpKind::ccAdd, work, inner);
                }
            }

            // Rotate-and-sum the Rp-strided partials of each block.
            for (std::size_t step = vpad / 2; step >= rp; step >>= 1) {
                emit(lp, HeOpKind::rotate, tmp, work, -1,
                     static_cast<std::int32_t>(step));
                emit(lp, HeOpKind::ccAdd, work, tmp);
            }

            if (merge) {
                // Extract the block heads with one mask per gather
                // unit (every block for LoLa, one block otherwise)
                // and rotate them into place.
                const std::size_t blocks_here = divCeil(rows_here, rp);
                const std::size_t unit =
                    shape.contiguous ? 1 : blocks_here;
                for (std::size_t c0 = 0; c0 < blocks_here; c0 += unit) {
                    const std::size_t k_end =
                        std::min(rows_here, (c0 + unit) * rp);
                    std::vector<double> mask(slots_, 0.0);
                    for (std::size_t k = c0 * rp; k < k_end; ++k)
                        mask[head(k)] = 1.0;
                    const std::int32_t mask_pt =
                        addPlaintext(std::move(mask), level_ - 1, true);
                    emit(lp, HeOpKind::pcMult, masked, work, mask_pt);
                    emit(lp, HeOpKind::rescale, masked, masked);
                    const std::int32_t shift =
                        gatherShift(shape, vpad, blocks, g, c0);
                    if (shift != 0)
                        emitRotate(lp, masked, masked, shift);
                    if (g == 0 && c0 == 0) {
                        emit(lp, HeOpKind::copy, out, masked);
                    } else {
                        emit(lp, HeOpKind::ccAdd, out, masked);
                    }
                    for (std::size_t k = c0 * rp; k < k_end; ++k) {
                        out_layout.pos[row0 + k] = {
                            out,
                            static_cast<std::int32_t>(head(k)) - shift};
                    }
                }
            } else {
                // Keep the group register; rows stay at their heads.
                const std::int32_t kept = newReg();
                emit(lp, HeOpKind::copy, kept, work);
                std::vector<double> b(slots_, 0.0);
                for (std::size_t k = 0; k < rows_here; ++k)
                    b[head(k)] = bias(row0 + k);
                const std::int32_t b_pt =
                    addPlaintext(std::move(b), level_ - 1, false);
                emit(lp, HeOpKind::pcAdd, kept, kept, b_pt);
                for (std::size_t k = 0; k < rows_here; ++k) {
                    out_layout.pos[row0 + k] = {
                        kept, static_cast<std::int32_t>(head(k))};
                }
                out_layout.regs.push_back(kept);
            }
        }

        if (merge) {
            std::vector<double> b(slots_, 0.0);
            for (std::size_t r = 0; r < out_rows; ++r)
                b[static_cast<std::size_t>(out_layout.pos[r].second)] =
                    bias(r);
            const std::int32_t b_pt =
                addPlaintext(std::move(b), level_ - 2, false);
            emit(lp, HeOpKind::pcAdd, out, out, b_pt);
            out_layout.regs.push_back(out);
            consumeLevel(2);
        } else {
            consumeLevel(1);
        }
        finishLayer(lp, std::move(out_layout));
    }

    /** General path: scattered or multi-ciphertext inputs. */
    void
    compileMatVecGeneral(const std::string &name, std::size_t out_rows,
                         const RowVisitor &rows,
                         const std::function<double(std::size_t)> &bias,
                         bool merge)
    {
        FXHENN_FATAL_IF(merge && out_rows > slots_,
                        "merged dense output exceeds slot count");
        HeLayerPlan &lp = beginLayer(name, out_rows);

        const std::size_t reg_count = layout_.regs.size();
        // reg -> dense index for plaintext bucketing
        std::map<std::int32_t, std::size_t> reg_index;
        for (std::size_t i = 0; i < reg_count; ++i)
            reg_index[layout_.regs[i]] = i;

        const std::int32_t acc = newReg();
        const std::int32_t part = newReg();
        const std::int32_t tmp = newReg();
        const std::int32_t masked = newReg();
        const std::int32_t out = merge ? newReg() : -1;

        SlotLayout out_layout;
        out_layout.pos.resize(out_rows);

        for (std::size_t r = 0; r < out_rows; ++r) {
            // Bucket this row's weights per input register.
            std::vector<std::vector<double>> w(
                reg_count, std::vector<double>(slots_, 0.0));
            std::vector<bool> touched(reg_count, false);
            rows(r, [&](std::size_t e, double weight) {
                const auto [reg, slot] = layout_.pos[e];
                const std::size_t i = reg_index.at(reg);
                w[i][static_cast<std::size_t>(slot)] += weight;
                touched[i] = true;
            });

            bool first = true;
            for (std::size_t i = 0; i < reg_count; ++i) {
                if (!touched[i])
                    continue;
                const std::int32_t pt =
                    addPlaintext(std::move(w[i]), level_, true);
                const std::int32_t dst = first ? acc : part;
                emit(lp, HeOpKind::pcMult, dst, layout_.regs[i], pt);
                if (!first)
                    emit(lp, HeOpKind::ccAdd, acc, part);
                first = false;
            }
            FXHENN_ASSERT(!first, "row with no weights");
            emit(lp, HeOpKind::rescale, acc, acc);

            // Full-width rotate-and-sum: the total lands in every slot.
            for (std::size_t step = slots_ / 2; step >= 1; step >>= 1) {
                emit(lp, HeOpKind::rotate, tmp, acc, -1,
                     static_cast<std::int32_t>(step));
                emit(lp, HeOpKind::ccAdd, acc, tmp);
            }

            if (merge) {
                std::vector<double> mask(slots_, 0.0);
                mask[r % slots_] = 1.0;
                const std::int32_t mask_pt =
                    addPlaintext(std::move(mask), level_ - 1, true);
                emit(lp, HeOpKind::pcMult, masked, acc, mask_pt);
                emit(lp, HeOpKind::rescale, masked, masked);
                if (r == 0) {
                    emit(lp, HeOpKind::copy, out, masked);
                } else {
                    emit(lp, HeOpKind::ccAdd, out, masked);
                }
                out_layout.pos[r] = {out,
                                     static_cast<std::int32_t>(r %
                                                               slots_)};
            } else {
                const std::int32_t kept = newReg();
                emit(lp, HeOpKind::copy, kept, acc);
                std::vector<double> b(slots_, 0.0);
                b[0] = bias(r);
                const std::int32_t b_pt =
                    addPlaintext(std::move(b), level_ - 1, false);
                emit(lp, HeOpKind::pcAdd, kept, kept, b_pt);
                out_layout.pos[r] = {kept, 0};
                out_layout.regs.push_back(kept);
            }
        }

        if (merge) {
            std::vector<double> b(slots_, 0.0);
            for (std::size_t r = 0; r < out_rows; ++r)
                b[r] = bias(r);
            const std::int32_t b_pt =
                addPlaintext(std::move(b), level_ - 2, false);
            emit(lp, HeOpKind::pcAdd, out, out, b_pt);
            out_layout.regs.push_back(out);
            consumeLevel(2);
        } else {
            consumeLevel(1);
        }
        finishLayer(lp, std::move(out_layout));
    }

    const nn::Network &net_;
    const ckks::CkksParams &params_;
    const CompileOptions &options_;
    const std::size_t slots_;

    HeNetworkPlan plan_;
    SlotLayout layout_;
    std::size_t level_ = 0;
    std::int32_t regCount_ = 0;
};

/** Stretch one virtual-slot layout onto the stride-B physical ring. */
void
stretchLayout(SlotLayout &layout, std::size_t lanes)
{
    for (auto &[reg, slot] : layout.pos)
        slot = static_cast<std::int32_t>(
            static_cast<std::size_t>(slot) * lanes);
}

/**
 * Map a plan compiled in (N/2)/B virtual slots onto the physical slot
 * ring: virtual slot s becomes physical slot s*B (lane 0), leaving
 * lanes 1..B-1 free for the sibling requests the client interleaves at
 * encrypt time.
 *
 *  - input gathers expand to N/2 entries with the lane-0 positions
 *    populated and every other physical slot zeroed (-1);
 *  - plaintexts broadcast each virtual value across all B lanes, so
 *    one pcMult applies the same weight to every request;
 *  - rotation steps scale by B: rotating the physical ring by k*B
 *    moves physical slot s*B+b to ((s-k) mod (N/2)/B)*B + b — it
 *    permutes virtual slots within each lane and never crosses lanes
 *    (B divides N/2, so the cyclic wraparound is lane-preserving too);
 *  - slot layouts scale their slot coordinates by B.
 *
 * lanes <= 1 is a strict no-op, keeping B=1 plans bit-identical to the
 * unbatched compiler.
 */
void
applyBatchStride(HeNetworkPlan &plan, std::size_t lanes)
{
    if (lanes <= 1)
        return;
    const std::size_t physSlots = plan.params.n / 2;
    const std::size_t virtSlots = physSlots / lanes;

    for (auto &gather : plan.inputGather) {
        std::vector<std::int32_t> phys(physSlots, -1);
        for (std::size_t s = 0; s < gather.size(); ++s)
            phys[s * lanes] = gather[s];
        gather = std::move(phys);
    }

    for (auto &pt : plan.plaintexts) {
        if (pt.values.empty())
            continue; // elided (stats-only) payload
        std::vector<double> phys(physSlots, 0.0);
        for (std::size_t s = 0; s < virtSlots; ++s) {
            for (std::size_t b = 0; b < lanes; ++b)
                phys[s * lanes + b] = pt.values[s];
        }
        pt.values = std::move(phys);
    }

    for (auto &layer : plan.layers) {
        for (auto &instr : layer.instrs) {
            if (instr.kind == HeOpKind::rotate)
                instr.step = static_cast<std::int32_t>(
                    instr.step * static_cast<std::int32_t>(lanes));
        }
        stretchLayout(layer.outputLayout, lanes);
        layer.classify();
    }
    stretchLayout(plan.outputLayout, lanes);
    plan.batchLanes = lanes;
}

} // namespace

HeNetworkPlan
compile(const nn::Network &net, const ckks::CkksParams &params,
        const CompileOptions &options)
{
    FXHENN_FATAL_IF(net.layerCount() == 0, "cannot compile empty network");
    FXHENN_FATAL_IF(net.layer(0).kind() != nn::LayerKind::conv2d &&
                        net.layer(0).kind() != nn::LayerKind::dense,
                    "first layer must be conv2d or dense");
    const std::size_t lanes = options.batchLanes;
    FXHENN_FATAL_IF(lanes == 0,
                    "compile: batchLanes must be at least 1");
    FXHENN_FATAL_IF((params.n / 2) % lanes != 0,
                    "compile: batchLanes must divide the slot count " +
                        std::to_string(params.n / 2));
    FXHENN_FATAL_IF((params.n / 2) / lanes < 2,
                    "compile: batchLanes " + std::to_string(lanes) +
                        " leaves fewer than 2 virtual slots per request");
    // Dense-first networks pack the flat input contiguously (into the
    // per-request virtual slot space when batching).
    if (net.layer(0).kind() == nn::LayerKind::dense) {
        FXHENN_FATAL_IF(net.inputSize() > (params.n / 2) / lanes,
                        "dense-first input exceeds one ciphertext");
    }
    PlanBuilder builder(net, params, options);
    HeNetworkPlan plan = builder.build();
    applyBatchStride(plan, lanes);
    if (options.rescaleWaterline)
        rewriteRescales(plan); // certified: no-op unless provably safe
    if (options.selfCheck)
        runPlanVerifier(plan, "compile");
    if (options.certifyNoise) {
        const NoiseCertificate cert = certifyPlan(plan);
        FXHENN_FATAL_IF(!cert.valid,
                        "compile: noise certification failed for '" +
                            plan.name + "': " + cert.invalidReason);
        FXHENN_FATAL_IF(
            !cert.certified(),
            "compile: plan '" + plan.name +
                "' is not noise-safe: certified minimum headroom " +
                std::to_string(cert.minHeadroomBits) +
                " bits is negative (the message can overflow the "
                "modulus; use more levels or wider primes)");
    }
    return plan;
}

} // namespace fxhenn::hecnn
