/**
 * @file
 * WorkspacePool / PooledBuffer / LazyLimbAccumulator unit tests: the
 * lease-release protocol, the per-thread stats, value semantics of
 * pooled limb storage and the lazy 128-bit accumulator contract
 * (docs/ARCHITECTURE.md section 10).
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/modarith/modulus.hpp"
#include "src/rns/lazy_accumulator.hpp"
#include "src/rns/workspace_pool.hpp"

namespace fxhenn::rns {
namespace {

/** Start each test from an empty freelist and zeroed counters. */
void
freshPool()
{
    WorkspacePool::trimThread();
    WorkspacePool::resetThreadStats();
}

TEST(WorkspacePool, FirstLeaseMissesReleaseThenHits)
{
    freshPool();
    auto buf = WorkspacePool::leaseU64(128);
    EXPECT_EQ(buf.size(), 128u);
    EXPECT_EQ(WorkspacePool::threadStats().misses, 1u);
    EXPECT_EQ(WorkspacePool::threadStats().hits, 0u);

    WorkspacePool::release(std::move(buf));
    auto again = WorkspacePool::leaseU64(128);
    EXPECT_EQ(again.size(), 128u);
    EXPECT_EQ(WorkspacePool::threadStats().hits, 1u);
    EXPECT_EQ(WorkspacePool::threadStats().misses, 1u);
    WorkspacePool::release(std::move(again));
}

TEST(WorkspacePool, LeaseResizesRecycledBufferToRequestedSize)
{
    freshPool();
    WorkspacePool::release(std::vector<std::uint64_t>(512, 7));
    auto small = WorkspacePool::leaseU64(16);
    EXPECT_EQ(small.size(), 16u);
    WorkspacePool::release(std::move(small));
    auto large = WorkspacePool::leaseU64(1024);
    EXPECT_EQ(large.size(), 1024u);
}

TEST(WorkspacePool, FreelistIsCappedAtKMaxFree)
{
    freshPool();
    // Hand the pool more buffers than it may keep...
    for (std::size_t i = 0; i < WorkspacePool::kMaxFree + 8; ++i)
        WorkspacePool::release(std::vector<std::uint64_t>(8, 1));
    WorkspacePool::resetThreadStats();
    // ...then drain it: only kMaxFree leases can be hits.
    std::vector<std::vector<std::uint64_t>> held;
    for (std::size_t i = 0; i < WorkspacePool::kMaxFree + 8; ++i)
        held.push_back(WorkspacePool::leaseU64(8));
    EXPECT_EQ(WorkspacePool::threadStats().hits, WorkspacePool::kMaxFree);
    EXPECT_EQ(WorkspacePool::threadStats().misses, 8u);
}

TEST(WorkspacePool, MovedFromHusksAreNotPooled)
{
    freshPool();
    std::vector<std::uint64_t> buf(32);
    std::vector<std::uint64_t> stolen = std::move(buf);
    WorkspacePool::release(std::move(buf)); // husk: capacity 0
    auto lease = WorkspacePool::leaseU64(32);
    EXPECT_EQ(WorkspacePool::threadStats().hits, 0u);
    EXPECT_EQ(WorkspacePool::threadStats().misses, 1u);
    (void)stolen;
    (void)lease;
}

TEST(WorkspacePool, U128RowsPoolIndependently)
{
    freshPool();
    auto row = WorkspacePool::leaseU128(64);
    EXPECT_EQ(row.size(), 64u);
    WorkspacePool::release(std::move(row));
    auto again = WorkspacePool::leaseU128(64);
    EXPECT_EQ(WorkspacePool::threadStats().hits, 1u);
    WorkspacePool::release(std::move(again));
}

TEST(PooledBuffer, ConstructsZeroFilledEvenFromDirtyFreelist)
{
    freshPool();
    WorkspacePool::release(std::vector<std::uint64_t>(64, 0xdead));
    PooledBuffer buf(64);
    for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], 0u) << "index " << i;
}

TEST(PooledBuffer, CopyIsDeepAndComparesEqual)
{
    freshPool();
    PooledBuffer a(16);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = i * 3 + 1;
    PooledBuffer b(a);
    EXPECT_TRUE(a == b);
    a[5] = 999;
    EXPECT_FALSE(a == b);
    EXPECT_EQ(b[5], 16u);

    PooledBuffer c;
    c = a;
    EXPECT_TRUE(c == a);
}

TEST(PooledBuffer, MoveTransfersStorage)
{
    freshPool();
    PooledBuffer a(16);
    a[0] = 42;
    const std::uint64_t *data = a.data();
    PooledBuffer b(std::move(a));
    EXPECT_EQ(b.data(), data);
    EXPECT_EQ(b[0], 42u);

    PooledBuffer c(4);
    c = std::move(b);
    EXPECT_EQ(c.data(), data);
    EXPECT_EQ(c.size(), 16u);
}

TEST(PooledBuffer, DestructionRecyclesStorage)
{
    freshPool();
    { PooledBuffer a(256); }
    WorkspacePool::resetThreadStats();
    PooledBuffer b(256); // must come from the freelist
    EXPECT_EQ(WorkspacePool::threadStats().hits, 1u);
    EXPECT_EQ(WorkspacePool::threadStats().misses, 0u);
}

TEST(LazyLimbAccumulator, MatchesEagerModMulChain)
{
    freshPool();
    const Modulus q(1073741827); // fits any 30-bit NTT prime shape
    const std::size_t n = 32;
    Rng rng(77);
    std::vector<std::uint64_t> a(n), b0(n), b1(n), eager0(n, 0),
        eager1(n, 0);

    LazyLimbAccumulator acc(q, n);
    for (int d = 0; d < 20; ++d) {
        for (std::size_t k = 0; k < n; ++k) {
            a[k] = rng.uniform(q.value());
            b0[k] = rng.uniform(q.value());
            b1[k] = rng.uniform(q.value());
            eager0[k] = q.add(eager0[k], q.mul(a[k], b0[k]));
            eager1[k] = q.add(eager1[k], q.mul(a[k], b1[k]));
        }
        acc.fma(a, b0, b1);
    }
    EXPECT_EQ(acc.depth(), 20u);
    std::vector<std::uint64_t> lazy0(n), lazy1(n);
    acc.reduceInto(lazy0, lazy1);
    EXPECT_EQ(lazy0, eager0);
    EXPECT_EQ(lazy1, eager1);
}

TEST(LazyLimbAccumulator, GatherAppliesPermutationToFirstOperand)
{
    freshPool();
    const Modulus q(65537);
    const std::size_t n = 8;
    std::vector<std::uint64_t> a(n), b0(n), b1(n), expect0(n), expect1(n);
    std::vector<std::uint32_t> perm(n);
    for (std::size_t k = 0; k < n; ++k) {
        a[k] = k + 1;
        b0[k] = 2 * k + 1;
        b1[k] = 3 * k + 2;
        perm[k] = static_cast<std::uint32_t>(n - 1 - k);
    }
    for (std::size_t k = 0; k < n; ++k) {
        expect0[k] = q.mul(a[perm[k]], b0[k]);
        expect1[k] = q.mul(a[perm[k]], b1[k]);
    }

    LazyLimbAccumulator acc(q, n);
    acc.fmaGather(a, perm, b0, b1);
    std::vector<std::uint64_t> got0(n), got1(n);
    acc.reduceInto(got0, got1);
    EXPECT_EQ(got0, expect0);
    EXPECT_EQ(got1, expect1);
}

} // namespace
} // namespace fxhenn::rns
