#include "src/hecnn/client_session.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/ckks/noise.hpp"
#include "src/common/assert.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::hecnn {

namespace {

/** splitmix64-style mix of (seed, requestIndex) into one 64-bit seed. */
std::uint64_t
mixRequestSeed(std::uint64_t seed, std::uint64_t request)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (request + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

ClientSession::ClientSession(const HeNetworkPlan &plan,
                             const ckks::CkksContext &context,
                             std::uint64_t seed)
    : plan_(plan), context_(context), seed_(seed), rng_(seed),
      keygen_(context, rng_), encoder_(context),
      encryptor_(context, keygen_.makePublicKey(), rng_),
      decryptor_(context, keygen_.secretKey()),
      relin_(keygen_.makeRelinKey())
{
    FXHENN_FATAL_IF(plan.valuesElided,
                    "plan was compiled with elideValues=true and "
                    "cannot be executed");
    FXHENN_FATAL_IF(plan.batchLanes == 0,
                    "plan has batchLanes = 0 (use 1 for an unbatched "
                    "plan)");
    for (std::int32_t step : plan.rotationSteps())
        keygen_.addGaloisKey(galois_, step);
    for (const auto &gather : plan.inputGather) {
        for (const std::int32_t idx : gather) {
            if (idx >= 0)
                minInputElements_ = std::max(
                    minInputElements_,
                    static_cast<std::size_t>(idx) + 1);
        }
    }
}

void
ClientSession::validateInput(const nn::Tensor &input) const
{
    FXHENN_FATAL_IF(input.size() < minInputElements_,
                    "input tensor has " + std::to_string(input.size()) +
                        " elements but the plan gathers up to index " +
                        std::to_string(minInputElements_ - 1));
}

std::uint64_t
ClientSession::batchRequestKey(
    std::span<const std::uint64_t> memberIndices)
{
    FXHENN_FATAL_IF(memberIndices.empty(),
                    "batchRequestKey: empty member list");
    // A one-member fold is the member index itself: a batch of one
    // draws request r's stream.
    std::uint64_t key = memberIndices[0];
    for (std::size_t i = 1; i < memberIndices.size(); ++i)
        key = mixRequestSeed(key, memberIndices[i]);
    return key;
}

std::vector<ckks::Ciphertext>
ClientSession::encryptInputBatch(
    std::span<const nn::Tensor *const> inputs,
    std::uint64_t requestKey) const
{
    const std::size_t lanes = plan_.batchLanes;
    FXHENN_FATAL_IF(inputs.size() != lanes,
                    "encryptInputBatch: " +
                        std::to_string(inputs.size()) +
                        " member inputs for a plan with " +
                        std::to_string(lanes) + " batch lanes");
    for (const nn::Tensor *member : inputs) {
        if (member != nullptr)
            validateInput(*member);
    }
    FXHENN_TELEM_SCOPED_TIMER("hecnn.client.encrypt.ns");
    Rng rng(mixRequestSeed(seed_, requestKey));
    const std::size_t slots = context_.slots();
    std::vector<ckks::Ciphertext> cts;
    cts.reserve(plan_.inputGather.size());
    for (const auto &gather : plan_.inputGather) {
        std::vector<double> v(slots, 0.0);
        // The stride-B gather populates lane 0 only; the client fills
        // member b's data into the sibling slot s*B + b.
        for (std::size_t s = 0; s + lanes <= slots; s += lanes) {
            const std::int32_t e = gather[s];
            if (e < 0)
                continue;
            for (std::size_t b = 0; b < lanes; ++b) {
                if (inputs[b] != nullptr) {
                    v[s + b] = inputs[b]->data()[
                        static_cast<std::size_t>(e)];
                }
            }
        }
        const auto plain =
            encoder_.encode(std::span<const double>(v),
                            context_.params().scale,
                            context_.maxLevel());
        cts.push_back(encryptor_.encrypt(plain, rng));
    }
    return cts;
}

std::vector<std::vector<double>>
ClientSession::decryptLogitsBatch(
    std::span<const std::optional<ckks::Ciphertext>> regs) const
{
    FXHENN_TELEM_SCOPED_TIMER("hecnn.client.decrypt.ns");
    const std::size_t lanes = plan_.batchLanes;
    std::map<std::int32_t, std::vector<double>> decoded;
    std::vector<std::vector<double>> logits(
        lanes,
        std::vector<double>(plan_.outputLayout.elements(), 0.0));
    for (std::size_t e = 0; e < plan_.outputLayout.elements(); ++e) {
        const auto [reg_id, slot] = plan_.outputLayout.pos[e];
        auto it = decoded.find(reg_id);
        if (it == decoded.end()) {
            const auto &ct = regs[static_cast<std::size_t>(reg_id)];
            FXHENN_ASSERT(ct.has_value(), "output register unwritten");
            it = decoded
                     .emplace(reg_id, encoder_.decodeReal(
                                          decryptor_.decrypt(*ct)))
                     .first;
        }
        for (std::size_t b = 0; b < lanes; ++b)
            logits[b][e] =
                it->second[static_cast<std::size_t>(slot) + b];
    }
    return logits;
}

std::vector<ckks::Ciphertext>
ClientSession::encryptInput(const nn::Tensor &input,
                            std::uint64_t requestIndex) const
{
    std::vector<const nn::Tensor *> lanes(plan_.batchLanes, nullptr);
    lanes[0] = &input;
    return encryptInputBatch(lanes, requestIndex);
}

std::vector<double>
ClientSession::decryptLogits(
    std::span<const std::optional<ckks::Ciphertext>> regs) const
{
    return std::move(decryptLogitsBatch(regs)[0]);
}

double
ClientSession::outputHeadroomBits(
    std::span<const std::optional<ckks::Ciphertext>> regs) const
{
    double headroom = std::numeric_limits<double>::infinity();
    std::set<std::int32_t> seen;
    for (const auto &pos : plan_.outputLayout.pos) {
        const std::int32_t reg_id = pos.first;
        if (!seen.insert(reg_id).second)
            continue;
        const auto &ct = regs[static_cast<std::size_t>(reg_id)];
        FXHENN_ASSERT(ct.has_value(), "output register unwritten");
        headroom = std::min(
            headroom, ckks::headroomBits(*ct, context_, decryptor_));
    }
    return headroom;
}

double
ClientSession::headroomBits(const ckks::Ciphertext &ct) const
{
    return ckks::headroomBits(ct, context_, decryptor_);
}

} // namespace fxhenn::hecnn
