#include "src/hecnn/plan_io.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/crc32.hpp"
#include "src/robustness/fault_injection.hpp"

namespace fxhenn::hecnn {

namespace {

constexpr std::uint64_t kMagic = 0x4678504c414e3031ull; // "FxPLAN01"
/**
 * The only stream version this build reads and writes. A CRC-32
 * trailer covers everything before it; each plaintext carries its
 * maxAbs so elided (stats-only) plans stay noise-certifiable; the
 * cross-request batch lane count follows regCount.
 */
constexpr std::uint32_t kVersion = 4;
constexpr std::size_t kHeaderSize =
    sizeof(std::uint64_t) + sizeof(std::uint32_t); // magic + version

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    FXHENN_FATAL_IF(!is, "truncated plan stream");
    return value;
}

void
writeString(std::ostream &os, const std::string &s)
{
    writePod(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/**
 * Bytes left between the current read position and end-of-stream, or
 * UINT64_MAX when the stream is not seekable. Size fields read from the
 * wire are checked against this before any allocation, so a corrupted
 * length that still clears the element-count cap cannot trigger a
 * multi-gigabyte allocation for data that is not there.
 */
std::uint64_t
remainingBytes(std::istream &is)
{
    const auto cur = is.tellg();
    if (cur < 0)
        return std::numeric_limits<std::uint64_t>::max();
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(cur);
    if (end < cur)
        return 0;
    return static_cast<std::uint64_t>(end - cur);
}

std::string
readString(std::istream &is)
{
    const auto size = readPod<std::uint32_t>(is);
    FXHENN_FATAL_IF(size > 4096, "implausible string length in plan");
    FXHENN_FATAL_IF(size > remainingBytes(is),
                    "string length exceeds remaining plan bytes");
    std::string s(size, '\0');
    is.read(s.data(), size);
    FXHENN_FATAL_IF(!is, "truncated plan stream");
    return s;
}

template <typename T>
void
writeVector(std::ostream &os, const std::vector<T> &v)
{
    writePod(os, static_cast<std::uint64_t>(v.size()));
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/**
 * HeInstr has three padding bytes between its u8 opcode and the first
 * i32 field; aggregate initialization leaves them indeterminate, so a
 * raw struct write would make savePlan's bytes (and the CRC trailer)
 * vary between otherwise identical compiles. Re-copy each record into
 * a zeroed staging struct first: the wire layout is unchanged, the
 * padding is deterministically zero.
 */
void
writeVector(std::ostream &os, const std::vector<HeInstr> &v)
{
    static_assert(sizeof(HeInstr) == 20,
                  "wire layout: u8 kind + 3 pad + 4 x i32");
    writePod(os, static_cast<std::uint64_t>(v.size()));
    constexpr char pad[3] = {0, 0, 0};
    for (const HeInstr &instr : v) {
        writePod(os, static_cast<std::uint8_t>(instr.kind));
        os.write(pad, sizeof(pad));
        writePod(os, instr.dst);
        writePod(os, instr.src);
        writePod(os, instr.pt);
        writePod(os, instr.step);
    }
}

template <typename T>
std::vector<T>
readVector(std::istream &is, std::uint64_t maxElems)
{
    const auto size = readPod<std::uint64_t>(is);
    FXHENN_FATAL_IF(size > maxElems, "implausible vector size in plan");
    FXHENN_FATAL_IF(size * sizeof(T) > remainingBytes(is),
                    "vector size exceeds remaining plan bytes");
    std::vector<T> v(size);
    is.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    FXHENN_FATAL_IF(!is, "truncated plan stream");
    return v;
}

void
writeLayout(std::ostream &os, const SlotLayout &layout)
{
    writePod(os, static_cast<std::uint64_t>(layout.pos.size()));
    for (const auto &[reg, slot] : layout.pos) {
        writePod(os, reg);
        writePod(os, slot);
    }
    writeVector(os, layout.regs);
}

SlotLayout
readLayout(std::istream &is)
{
    SlotLayout layout;
    const auto count = readPod<std::uint64_t>(is);
    FXHENN_FATAL_IF(count > (1u << 24), "implausible layout size");
    FXHENN_FATAL_IF(count * (sizeof(std::int32_t) * 2) >
                        remainingBytes(is),
                    "layout size exceeds remaining plan bytes");
    layout.pos.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto reg = readPod<std::int32_t>(is);
        const auto slot = readPod<std::int32_t>(is);
        layout.pos.emplace_back(reg, slot);
    }
    layout.regs = readVector<std::int32_t>(is, 1u << 24);
    return layout;
}

} // namespace

void
savePlan(const HeNetworkPlan &plan, std::ostream &outer)
{
    // Serialize into a buffer first so the CRC-32 trailer can cover
    // the whole payload.
    std::ostringstream os;
    writePod(os, kMagic);
    writePod(os, kVersion);
    writeString(os, plan.name);
    writePod(os, static_cast<std::uint64_t>(plan.params.n));
    writePod(os, static_cast<std::uint64_t>(plan.params.levels));
    writePod(os, plan.params.qBits);
    writePod(os, plan.params.specialBits);
    writePod(os, plan.params.scale);
    writePod(os, plan.params.sigma);
    writePod(os, static_cast<std::uint8_t>(plan.valuesElided ? 1 : 0));
    writePod(os, plan.regCount);
    writePod(os, static_cast<std::uint32_t>(plan.batchLanes));

    writePod(os, static_cast<std::uint64_t>(plan.inputGather.size()));
    for (const auto &gather : plan.inputGather)
        writeVector(os, gather);

    writePod(os, static_cast<std::uint64_t>(plan.layers.size()));
    for (const auto &layer : plan.layers) {
        writeString(os, layer.name);
        writePod(os, static_cast<std::uint64_t>(layer.levelIn));
        writePod(os, static_cast<std::uint64_t>(layer.levelOut));
        writePod(os, static_cast<std::uint64_t>(layer.nIn));
        writeVector(os, layer.instrs);
        writeLayout(os, layer.outputLayout);
    }

    writePod(os, static_cast<std::uint64_t>(plan.plaintexts.size()));
    for (const auto &pt : plan.plaintexts) {
        writePod(os, static_cast<std::uint64_t>(pt.level));
        writePod(os,
                 static_cast<std::uint8_t>(pt.atSchemeScale ? 1 : 0));
        writePod(os, pt.maxAbs);
        writeVector(os, pt.values);
    }

    writeLayout(os, plan.outputLayout);

    const std::string bytes = os.str();
    outer.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    writePod(outer, crc32(bytes.data(), bytes.size()));
}

HeNetworkPlan
loadPlan(std::istream &stream)
{
    std::string bytes{std::istreambuf_iterator<char>(stream),
                      std::istreambuf_iterator<char>()};
    if (auto fault = robustness::fireFault("plan.load")) {
        if (fault->kind == "truncate") {
            bytes.resize(bytes.size() * 2 / 3);
        } else if (fault->kind == "corrupt" && !bytes.empty()) {
            bytes[bytes.size() / 2] =
                static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
        }
    }
    FXHENN_FATAL_IF(bytes.size() < kHeaderSize,
                    "truncated plan stream");
    std::uint64_t magic = 0;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    FXHENN_FATAL_IF(magic != kMagic, "not an FxHENN plan stream");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(magic),
                sizeof(version));
    FXHENN_FATAL_IF(version != kVersion,
                    "unsupported plan version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kVersion) + " only)");

    FXHENN_FATAL_IF(bytes.size() < kHeaderSize + sizeof(std::uint32_t),
                    "truncated plan stream (checksum missing)");
    const std::size_t payload_size = bytes.size() - sizeof(std::uint32_t);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + payload_size, sizeof(stored));
    FXHENN_FATAL_IF(stored != crc32(bytes.data(), payload_size),
                    "plan checksum mismatch (corrupted plan file)");

    std::istringstream is(bytes.substr(0, payload_size));
    is.ignore(static_cast<std::streamsize>(kHeaderSize));

    HeNetworkPlan plan;
    plan.name = readString(is);
    plan.params.n = readPod<std::uint64_t>(is);
    plan.params.levels = readPod<std::uint64_t>(is);
    plan.params.qBits = readPod<unsigned>(is);
    plan.params.specialBits = readPod<unsigned>(is);
    plan.params.scale = readPod<double>(is);
    plan.params.sigma = readPod<double>(is);
    plan.params.validate();
    plan.valuesElided = readPod<std::uint8_t>(is) != 0;
    plan.regCount = readPod<std::int32_t>(is);
    FXHENN_FATAL_IF(plan.regCount < 0 || plan.regCount > (1 << 24),
                    "implausible register count");
    plan.batchLanes = readPod<std::uint32_t>(is);
    FXHENN_FATAL_IF(plan.batchLanes == 0 ||
                        (plan.params.n / 2) % plan.batchLanes != 0,
                    "corrupt batch lane count");

    const auto gathers = readPod<std::uint64_t>(is);
    FXHENN_FATAL_IF(gathers > 65536, "implausible input count");
    // Input ciphertexts land in registers 0..gathers-1.
    FXHENN_FATAL_IF(gathers > static_cast<std::uint64_t>(plan.regCount),
                    "plan has " + std::to_string(gathers) +
                        " input ciphertexts but only " +
                        std::to_string(plan.regCount) + " registers");
    for (std::uint64_t i = 0; i < gathers; ++i) {
        plan.inputGather.push_back(
            readVector<std::int32_t>(is, plan.params.n));
        FXHENN_FATAL_IF(plan.inputGather.back().size() !=
                            plan.params.n / 2,
                        "gather length does not match slot count");
    }

    const auto layers = readPod<std::uint64_t>(is);
    FXHENN_FATAL_IF(layers == 0 || layers > 4096,
                    "implausible layer count");
    for (std::uint64_t i = 0; i < layers; ++i) {
        HeLayerPlan layer;
        layer.name = readString(is);
        layer.levelIn = readPod<std::uint64_t>(is);
        layer.levelOut = readPod<std::uint64_t>(is);
        layer.nIn = readPod<std::uint64_t>(is);
        layer.instrs = readVector<HeInstr>(is, 1u << 26);
        layer.outputLayout = readLayout(is);
        FXHENN_FATAL_IF(layer.levelIn == 0 ||
                            layer.levelIn > plan.params.levels ||
                            layer.levelOut > layer.levelIn,
                        "corrupt layer levels");
        plan.layers.push_back(std::move(layer));
    }

    const auto plaintexts = readPod<std::uint64_t>(is);
    FXHENN_FATAL_IF(plaintexts > (1u << 26),
                    "implausible plaintext count");
    for (std::uint64_t i = 0; i < plaintexts; ++i) {
        PlanPlaintext pt;
        pt.level = readPod<std::uint64_t>(is);
        pt.atSchemeScale = readPod<std::uint8_t>(is) != 0;
        pt.maxAbs = readPod<double>(is);
        pt.values = readVector<double>(is, plan.params.n);
        FXHENN_FATAL_IF(pt.level == 0 ||
                            pt.level > plan.params.levels,
                        "corrupt plaintext level");
        FXHENN_FATAL_IF(!std::isfinite(pt.maxAbs) || pt.maxAbs < 0.0,
                        "corrupt plaintext magnitude");
        FXHENN_FATAL_IF(!plan.valuesElided &&
                            pt.values.size() != plan.params.n / 2,
                        "plaintext length does not match slot count");
        plan.plaintexts.push_back(std::move(pt));
    }

    plan.outputLayout = readLayout(is);
    // Instruction references must stay inside the pools.
    for (const auto &layer : plan.layers) {
        for (const auto &instr : layer.instrs) {
            FXHENN_FATAL_IF(instr.dst < 0 ||
                                instr.dst >= plan.regCount ||
                                instr.src < 0 ||
                                instr.src >= plan.regCount,
                            "instruction register out of range");
            FXHENN_FATAL_IF(
                instr.pt >= static_cast<std::int32_t>(
                                plan.plaintexts.size()),
                "instruction plaintext out of range");
        }
    }
    return plan;
}

} // namespace fxhenn::hecnn
