#include "src/ckks/encoder.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/math_util.hpp"

namespace fxhenn::ckks {

Encoder::Encoder(const CkksContext &context)
    : context_(context)
{}

void
Encoder::fftSpecial(std::vector<std::complex<double>> &vals) const
{
    const std::size_t size = vals.size();
    const std::uint64_t m = 2 * context_.n();
    const auto &roots = context_.encoderRoots();
    const auto &rot = context_.rotGroup();

    // Bit-reverse permutation.
    const unsigned bits = floorLog2(size);
    for (std::size_t i = 0; i < size; ++i) {
        const std::size_t j = reverseBits(i, bits);
        if (i < j)
            std::swap(vals[i], vals[j]);
    }

    // lenq is a power of two, so rot[j] % lenq is a mask.
    for (std::size_t len = 2; len <= size; len <<= 1) {
        const std::size_t lenh = len >> 1;
        const std::size_t lenq = len << 2;
        const std::size_t gap = m / lenq;
        for (std::size_t i = 0; i < size; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                const std::size_t idx = (rot[j] & (lenq - 1)) * gap;
                const auto u = vals[i + j];
                const auto v = vals[i + j + lenh] * roots[idx];
                vals[i + j] = u + v;
                vals[i + j + lenh] = u - v;
            }
        }
    }
}

void
Encoder::fftSpecialInv(std::vector<std::complex<double>> &vals) const
{
    const std::size_t size = vals.size();
    const std::uint64_t m = 2 * context_.n();
    const auto &roots = context_.encoderRoots();
    const auto &rot = context_.rotGroup();

    for (std::size_t len = size; len >= 2; len >>= 1) {
        const std::size_t lenh = len >> 1;
        const std::size_t lenq = len << 2;
        const std::size_t gap = m / lenq;
        for (std::size_t i = 0; i < size; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                const std::size_t idx =
                    (lenq - (rot[j] & (lenq - 1))) * gap;
                const auto u = vals[i + j] + vals[i + j + lenh];
                const auto v =
                    (vals[i + j] - vals[i + j + lenh]) * roots[idx];
                vals[i + j] = u;
                vals[i + j + lenh] = v;
            }
        }
    }

    const unsigned bits = floorLog2(size);
    for (std::size_t i = 0; i < size; ++i) {
        const std::size_t j = reverseBits(i, bits);
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
    const double inv = 1.0 / static_cast<double>(size);
    for (auto &v : vals)
        v *= inv;
}

Plaintext
Encoder::encode(std::span<const std::complex<double>> values, double scale,
                std::size_t level) const
{
    const std::size_t n_slots = context_.slots();
    FXHENN_FATAL_IF(values.size() > n_slots, "too many slot values");
    FXHENN_FATAL_IF(scale <= 0.0, "scale must be positive");

    std::vector<std::complex<double>> slots(n_slots, {0.0, 0.0});
    for (std::size_t i = 0; i < values.size(); ++i)
        slots[i] = values[i];

    fftSpecialInv(slots);

    // Round each coefficient once; every limb reduces the same integer.
    std::vector<std::int64_t> coeffs(2 * n_slots);
    for (std::size_t i = 0; i < n_slots; ++i) {
        const double re = slots[i].real() * scale;
        const double im = slots[i].imag() * scale;
        FXHENN_FATAL_IF(std::abs(re) > 9.2e18 || std::abs(im) > 9.2e18,
                        "encoded coefficient overflows 63 bits; "
                        "reduce the message magnitude or scale");
        coeffs[i] = std::llround(re);
        coeffs[i + n_slots] = std::llround(im);
    }

    RnsPoly poly(context_.basis(), level, /*withSpecial=*/false,
                 PolyDomain::coeff);
    poly.setSigned(coeffs);
    poly.toNtt();
    return Plaintext{std::move(poly), scale};
}

Plaintext
Encoder::encode(std::span<const double> values, double scale,
                std::size_t level) const
{
    std::vector<std::complex<double>> cvals(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        cvals[i] = {values[i], 0.0};
    return encode(std::span<const std::complex<double>>(cvals), scale,
                  level);
}

Plaintext
Encoder::encodeConstant(double value, double scale,
                        std::size_t level) const
{
    // A constant in every slot encodes to the constant polynomial
    // round(value * scale); skip the FFT entirely.
    const RnsBasis &basis = context_.basis();
    RnsPoly poly(basis, level, false, PolyDomain::coeff);
    const auto scaled = static_cast<__int128>(std::llround(value * scale));
    for (std::size_t limb = 0; limb < level; ++limb)
        poly.limb(limb)[0] = basis.q(limb).reduceSigned(scaled);
    poly.toNtt();
    return Plaintext{std::move(poly), scale};
}

std::vector<std::complex<double>>
Encoder::decode(const Plaintext &plain) const
{
    const std::size_t n_slots = context_.slots();
    const std::size_t level = plain.level();
    const CrtReconstructor &crt = context_.crt(level);

    RnsPoly poly = plain.poly;
    if (poly.domain() == PolyDomain::ntt)
        poly.fromNtt();

    std::vector<std::complex<double>> slots(n_slots);
    std::vector<std::uint64_t> residues(level);
    const long double inv_scale = 1.0L / plain.scale;
    for (std::size_t i = 0; i < n_slots; ++i) {
        for (std::size_t l = 0; l < level; ++l)
            residues[l] = poly.limb(l)[i];
        const long double re =
            crt.reconstructCentered(residues) * inv_scale;
        for (std::size_t l = 0; l < level; ++l)
            residues[l] = poly.limb(l)[i + n_slots];
        const long double im =
            crt.reconstructCentered(residues) * inv_scale;
        slots[i] = {static_cast<double>(re), static_cast<double>(im)};
    }

    fftSpecial(slots);
    return slots;
}

std::vector<double>
Encoder::decodeReal(const Plaintext &plain) const
{
    auto slots = decode(plain);
    std::vector<double> out(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        out[i] = slots[i].real();
    return out;
}

} // namespace fxhenn::ckks
