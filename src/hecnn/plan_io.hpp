/**
 * @file
 * Binary serialization of compiled HE-CNN plans.
 *
 * Deployment split (Sec. I's MLaaS setting): the model owner compiles
 * the network once — packing layouts, instruction streams, encoded
 * weight payloads — and ships the plan to the accelerator host; clients
 * only ever ship ciphertexts. The wire format mirrors the CKKS object
 * format (magic/version header + parameter fingerprint) so plans cannot
 * be loaded into a mismatched context.
 */
#ifndef FXHENN_HECNN_PLAN_IO_HPP
#define FXHENN_HECNN_PLAN_IO_HPP

#include <iosfwd>

#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** Serialize @p plan to @p os (payloads included unless elided). */
void savePlan(const HeNetworkPlan &plan, std::ostream &os);

/** Deserialize a plan; validates framing and internal consistency. */
HeNetworkPlan loadPlan(std::istream &is);

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_IO_HPP
