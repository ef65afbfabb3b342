/**
 * @file
 * The HE instruction set the HE-CNN compiler targets.
 *
 * Each instruction maps onto one of the paper's HE operation modules
 * (Table I): OP1 CCadd (+ plaintext add), OP2 PCmult, OP3 CCmult,
 * OP4 Rescale, OP5 KeySwitch (Relinearize / Rotate).
 */
#ifndef FXHENN_HECNN_HE_OP_HPP
#define FXHENN_HECNN_HE_OP_HPP

#include <cstdint>
#include <string>

namespace fxhenn::hecnn {

/** HE instruction opcodes. */
enum class HeOpKind : std::uint8_t {
    pcMult,      ///< OP2: dst = src * plaintext[pt]
    pcAdd,       ///< OP1 variant: dst = src + plaintext[pt]
    ccAdd,       ///< OP1: dst = dst + src
    ccMult,      ///< OP3: dst = src * src (3-part result; HE-CNN square)
    relinearize, ///< OP5: dst = relin(src)
    rescale,     ///< OP4: dst = rescale(src)
    rotate,      ///< OP5: dst = rot(src, step)
    copy,        ///< bookkeeping only (no HE cost)
};

/** @return a human-readable opcode name. */
const char *opName(HeOpKind kind);

/** @return true when the opcode is a KeySwitch (Relinearize/Rotate). */
constexpr bool
isKeySwitch(HeOpKind kind)
{
    return kind == HeOpKind::relinearize || kind == HeOpKind::rotate;
}

/** One HE instruction over the register file of a network plan. */
struct HeInstr
{
    HeOpKind kind;
    std::int32_t dst = -1;  ///< destination register
    std::int32_t src = -1;  ///< source register
    std::int32_t pt = -1;   ///< plaintext pool index (pcMult/pcAdd)
    std::int32_t step = 0;  ///< rotation amount (rotate)
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_HE_OP_HPP
