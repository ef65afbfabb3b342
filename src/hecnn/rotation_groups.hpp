/**
 * @file
 * Detection of hoistable rotation groups in a compiled layer.
 *
 * A rotation group is a maximal run of consecutive rotate instructions
 * reading the same source register. Such a run can execute as one
 * hoisted keyswitch (Halevi-Shoup): the expensive digit decomposition
 * of the shared c1 happens once and every member reuses it through its
 * own Galois permutation. The PlanExecutor uses the groups to dispatch
 * Evaluator::rotateHoisted, and countHoistedDecompositions() predicts
 * from the same grouping, so the predicted decomposition count matches
 * what the runtime reports (a group of k rotations costs 1
 * decomposition, not k).
 */
#ifndef FXHENN_HECNN_ROTATION_GROUPS_HPP
#define FXHENN_HECNN_ROTATION_GROUPS_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "src/hecnn/he_op.hpp"

namespace fxhenn::hecnn {

/** One maximal run of same-source rotate instructions. */
struct RotationGroup
{
    std::size_t begin = 0; ///< index of the first member in the instrs
    std::size_t count = 0; ///< number of consecutive rotate members

    bool hoistable() const { return count >= 2; }
};

/**
 * Find every rotation group in @p instrs (single-member runs
 * included). A member that overwrites the shared source (dst == src)
 * ends its group: later rotations of that register read a different
 * value and must start a fresh decomposition.
 */
std::vector<RotationGroup>
findRotationGroups(std::span<const HeInstr> instrs);

/**
 * Number of keyswitch digit decompositions the instruction stream
 * needs when rotation groups are hoisted: one per relinearize plus one
 * per rotation group (instead of one per rotate).
 */
std::size_t countHoistedDecompositions(std::span<const HeInstr> instrs);

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_ROTATION_GROUPS_HPP
