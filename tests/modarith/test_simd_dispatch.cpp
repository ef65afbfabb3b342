/**
 * @file
 * Dispatch-matrix tests for the SIMD backend selection logic: the
 * FXHENN_SIMD env override must force each reachable level (observable
 * through the "modarith.simd.width" telemetry counter), unavailable
 * requests must degrade to scalar gracefully (the pure resolveLevel()
 * rule, testable on any machine), and misuse must throw ConfigError.
 * The CLI exit-code side of the same contract lives in
 * tests/cli/test_cli_errors.sh.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {
namespace {

std::vector<simd::Level>
reachableLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512})
        if (simd::available(level))
            levels.push_back(level);
    return levels;
}

/** Restores the ambient FXHENN_SIMD value and resolved level so tests
 * cannot leak a forced level into the rest of the suite. */
class EnvGuard
{
  public:
    EnvGuard()
    {
        const char *current = std::getenv("FXHENN_SIMD");
        if (current)
            saved_ = current;
    }
    ~EnvGuard()
    {
        if (saved_.has_value())
            setenv("FXHENN_SIMD", saved_->c_str(), 1);
        else
            unsetenv("FXHENN_SIMD");
        simd::resetForTest();
        simd::activeLevel();
    }

  private:
    std::optional<std::string> saved_;
};

TEST(SimdDispatch, EnvOverrideForcesEachReachableLevel)
{
    EnvGuard guard;
    for (simd::Level level : reachableLevels()) {
        setenv("FXHENN_SIMD", simd::levelName(level), 1);
        simd::resetForTest();
        EXPECT_EQ(simd::activeLevel(), level)
            << "FXHENN_SIMD=" << simd::levelName(level);
        EXPECT_EQ(simd::kernels().level, level);
        EXPECT_EQ(simd::kernels().width, simd::laneWidth(level));
    }
}

TEST(SimdDispatch, SelectedLevelIsPublishedToTelemetry)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    EnvGuard guard;
    for (simd::Level level : reachableLevels()) {
        setenv("FXHENN_SIMD", simd::levelName(level), 1);
        simd::resetForTest();
        simd::activeLevel();
        EXPECT_EQ(telemetry::counter("modarith.simd.width").value(),
                  simd::laneWidth(level))
            << "FXHENN_SIMD=" << simd::levelName(level);
    }
}

TEST(SimdDispatch, AutoAndEmptyPickTheWidestAvailableLevel)
{
    EnvGuard guard;
    const simd::Level widest = reachableLevels().back();
    setenv("FXHENN_SIMD", "auto", 1);
    simd::resetForTest();
    EXPECT_EQ(simd::activeLevel(), widest);
    unsetenv("FXHENN_SIMD");
    simd::resetForTest();
    EXPECT_EQ(simd::activeLevel(), widest);
}

TEST(SimdDispatch, UnavailableExplicitRequestDegradesToScalar)
{
    // The pure rule, exercised for ladders this host may not have:
    // asking for a level above the top of the availability ladder
    // lands on scalar, never a crash.
    using simd::Level;
    EXPECT_EQ(simd::resolveLevel(Level::avx512, Level::scalar),
              Level::scalar);
    EXPECT_EQ(simd::resolveLevel(Level::avx512, Level::avx2),
              Level::scalar);
    EXPECT_EQ(simd::resolveLevel(Level::avx2, Level::scalar),
              Level::scalar);
    // At-or-below the ladder top: honored exactly.
    EXPECT_EQ(simd::resolveLevel(Level::avx2, Level::avx512),
              Level::avx2);
    EXPECT_EQ(simd::resolveLevel(Level::scalar, Level::avx512),
              Level::scalar);
    EXPECT_EQ(simd::resolveLevel(Level::avx512, Level::avx512),
              Level::avx512);
    // Auto: the widest the ladder offers.
    EXPECT_EQ(simd::resolveLevel(std::nullopt, Level::avx512),
              Level::avx512);
    EXPECT_EQ(simd::resolveLevel(std::nullopt, Level::scalar),
              Level::scalar);

    // End to end when this host genuinely lacks a level: the env
    // request must resolve (and run) rather than throw.
    EnvGuard guard;
    for (simd::Level level :
         {simd::Level::avx2, simd::Level::avx512}) {
        if (simd::available(level))
            continue;
        setenv("FXHENN_SIMD", simd::levelName(level), 1);
        simd::resetForTest();
        EXPECT_EQ(simd::activeLevel(), simd::Level::scalar)
            << "unavailable " << simd::levelName(level)
            << " must degrade to scalar";
    }
}

TEST(SimdDispatch, ParseLevelContract)
{
    EXPECT_EQ(simd::parseLevel(""), std::nullopt);
    EXPECT_EQ(simd::parseLevel("auto"), std::nullopt);
    EXPECT_EQ(simd::parseLevel("scalar"), simd::Level::scalar);
    EXPECT_EQ(simd::parseLevel("avx2"), simd::Level::avx2);
    EXPECT_EQ(simd::parseLevel("avx512"), simd::Level::avx512);
    EXPECT_THROW(simd::parseLevel("sse9"), ConfigError);
    EXPECT_THROW(simd::parseLevel("AVX2"), ConfigError);
    EXPECT_THROW(simd::parseLevel("scalar "), ConfigError);
}

TEST(SimdDispatch, BadEnvValueThrowsConfigError)
{
    EnvGuard guard;
    setenv("FXHENN_SIMD", "quantum", 1);
    simd::resetForTest();
    EXPECT_THROW(simd::activeLevel(), ConfigError);
}

TEST(SimdDispatch, ForceLevelRejectsUnavailableLevels)
{
    for (simd::Level level :
         {simd::Level::avx2, simd::Level::avx512}) {
        if (simd::available(level))
            continue;
        EXPECT_THROW(simd::forceLevel(level), ConfigError)
            << simd::levelName(level);
    }
    // Always-available force is accepted and reversible.
    EnvGuard guard;
    simd::forceLevel(simd::Level::scalar);
    EXPECT_EQ(simd::activeLevel(), simd::Level::scalar);
}

TEST(SimdDispatch, ScopedLevelRestoresThePreviousResolution)
{
    EnvGuard guard;
    unsetenv("FXHENN_SIMD");
    simd::resetForTest();
    const simd::Level ambient = simd::activeLevel();
    {
        simd::ScopedLevel pin(simd::Level::scalar);
        EXPECT_EQ(simd::activeLevel(), simd::Level::scalar);
    }
    EXPECT_EQ(simd::activeLevel(), ambient);
}

TEST(SimdDispatch, AvailabilityLadderIsMonotone)
{
    // The resolveLevel() degradation rule assumes avx512 is never
    // available without avx2; the dispatcher constructs it that way
    // (CMake nests the TUs, hostSupports(avx512) implies avx2).
    if (simd::available(simd::Level::avx512))
        EXPECT_TRUE(simd::available(simd::Level::avx2));
    EXPECT_TRUE(simd::available(simd::Level::scalar));
    EXPECT_TRUE(simd::compiledIn(simd::Level::scalar));
    EXPECT_TRUE(simd::hostSupports(simd::Level::scalar));
}

TEST(SimdDispatch, EveryLevelIsReachableOnThisHost)
{
    // The differential and property suites compare only the levels
    // reachable here, so on a host or build without, say, IFMA the
    // avx512 kernels never run and those suites still pass. This test
    // makes that gap visible: it skips, naming each unreachable level
    // and why, instead of passing.
    std::string reachable, unreachable;
    for (simd::Level level : reachableLevels())
        reachable += std::string(" ") + simd::levelName(level);
    std::cout << "reachable SIMD levels:" << reachable << "\n";
    for (simd::Level level : {simd::Level::avx2, simd::Level::avx512}) {
        if (simd::available(level))
            continue;
        unreachable += std::string(unreachable.empty() ? "" : ", ") +
                       simd::levelName(level) +
                       (simd::compiledIn(level) ? " (host lacks the ISA)"
                                                : " (not compiled in)");
    }
    if (!unreachable.empty()) {
        GTEST_SKIP() << "SIMD kernels not exercised on this host: "
                     << unreachable;
    }
    EXPECT_EQ(reachableLevels().size(), 3u);
}

} // namespace
} // namespace fxhenn
