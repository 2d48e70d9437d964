/**
 * @file
 * Differential tests for Bitset and BitMatrix against a naive
 * vector<vector<bool>> reference, at sizes on both sides of every word
 * and inline-storage boundary, plus pinned hash() and toString() values.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.hh"
#include "common/hash.hh"

namespace lts
{
namespace
{

using RefSet = std::vector<bool>;
using RefRel = std::vector<std::vector<bool>>;

const size_t kSizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 130};

/** True with probability 1/@p one_in; raw engine bits, so portable. */
bool
coin(std::mt19937_64 &rng, uint64_t one_in)
{
    return rng() % one_in == 0;
}

RefSet
randomRefSet(std::mt19937_64 &rng, size_t n, uint64_t one_in)
{
    RefSet s(n);
    for (size_t i = 0; i < n; i++)
        s[i] = coin(rng, one_in);
    return s;
}

/** A random relation; @p dag keeps only forward edges (i < j). */
RefRel
randomRefRel(std::mt19937_64 &rng, size_t n, uint64_t one_in, bool dag)
{
    RefRel r(n, RefSet(n));
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++)
            r[i][j] = coin(rng, one_in) && (!dag || i < j);
    }
    return r;
}

Bitset
toBitset(const RefSet &s)
{
    Bitset b(s.size());
    for (size_t i = 0; i < s.size(); i++) {
        if (s[i])
            b.set(i);
    }
    return b;
}

BitMatrix
toMatrix(const RefRel &r)
{
    BitMatrix m(r.size());
    for (size_t i = 0; i < r.size(); i++) {
        for (size_t j = 0; j < r.size(); j++) {
            if (r[i][j])
                m.set(i, j);
        }
    }
    return m;
}

void
expectSame(const Bitset &b, const RefSet &s)
{
    ASSERT_EQ(b.size(), s.size());
    size_t count = 0;
    size_t first = s.size();
    for (size_t i = 0; i < s.size(); i++) {
        ASSERT_EQ(b.test(i), s[i]) << "bit " << i << " of " << s.size();
        if (s[i]) {
            count++;
            if (first == s.size())
                first = i;
        }
    }
    EXPECT_EQ(b.count(), count);
    EXPECT_EQ(b.none(), count == 0);
    EXPECT_EQ(b.any(), count != 0);
    EXPECT_EQ(b.firstSet(), first);
}

void
expectSame(const BitMatrix &m, const RefRel &r)
{
    size_t n = r.size();
    ASSERT_EQ(m.size(), n);
    size_t count = 0;
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            ASSERT_EQ(m.test(i, j), r[i][j])
                << "(" << i << "," << j << ") of " << n;
            count += r[i][j];
        }
    }
    EXPECT_EQ(m.count(), count);
    EXPECT_EQ(m.none(), count == 0);
    EXPECT_EQ(m.any(), count != 0);
}

RefRel
refCompose(const RefRel &a, const RefRel &b)
{
    size_t n = a.size();
    RefRel out(n, RefSet(n));
    for (size_t i = 0; i < n; i++) {
        for (size_t k = 0; k < n; k++) {
            if (!a[i][k])
                continue;
            for (size_t j = 0; j < n; j++) {
                if (b[k][j])
                    out[i][j] = true;
            }
        }
    }
    return out;
}

RefRel
refTranspose(const RefRel &a)
{
    size_t n = a.size();
    RefRel out(n, RefSet(n));
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++)
            out[j][i] = a[i][j];
    }
    return out;
}

/** Transitive closure by repeated composition until a fixpoint. */
RefRel
refClosure(const RefRel &a)
{
    RefRel out = a;
    while (true) {
        RefRel step = refCompose(out, a);
        bool grew = false;
        for (size_t i = 0; i < a.size(); i++) {
            for (size_t j = 0; j < a.size(); j++) {
                if (step[i][j] && !out[i][j]) {
                    out[i][j] = true;
                    grew = true;
                }
            }
        }
        if (!grew)
            return out;
    }
}

bool
refSubset(const RefRel &a, const RefRel &b)
{
    for (size_t i = 0; i < a.size(); i++) {
        for (size_t j = 0; j < a.size(); j++) {
            if (a[i][j] && !b[i][j])
                return false;
        }
    }
    return true;
}

TEST(BitsetReferenceTest, SetOperationsMatchReference)
{
    std::mt19937_64 rng(1);
    for (size_t n : kSizes) {
        SCOPED_TRACE("n = " + std::to_string(n));
        for (int round = 0; round < 8; round++) {
            RefSet ra = randomRefSet(rng, n, 2 + round);
            RefSet rb = randomRefSet(rng, n, 2 + round);
            Bitset a = toBitset(ra);
            Bitset b = toBitset(rb);
            expectSame(a, ra);
            expectSame(b, rb);

            // set(i, false) and reset() clear what set() set.
            Bitset cleared = a;
            RefSet rcleared = ra;
            for (size_t i = 0; i < n; i++) {
                if (coin(rng, 2)) {
                    cleared.reset(i);
                    rcleared[i] = false;
                } else if (coin(rng, 2)) {
                    cleared.set(i, false);
                    rcleared[i] = false;
                }
            }
            expectSame(cleared, rcleared);

            RefSet ror(n), rand(n), rdiff(n);
            bool subset = true;
            for (size_t i = 0; i < n; i++) {
                ror[i] = ra[i] || rb[i];
                rand[i] = ra[i] && rb[i];
                rdiff[i] = ra[i] && !rb[i];
                subset = subset && (!ra[i] || rb[i]);
            }
            Bitset u = a;
            u |= b;
            expectSame(u, ror);
            Bitset in = a;
            in &= b;
            expectSame(in, rand);
            Bitset d = a;
            d -= b;
            expectSame(d, rdiff);

            EXPECT_EQ(a == b, ra == rb);
            EXPECT_EQ(a != b, ra != rb);
            EXPECT_TRUE(a == toBitset(ra));
            EXPECT_EQ(a.isSubsetOf(b), subset);
            EXPECT_TRUE(in.isSubsetOf(a));
            EXPECT_TRUE(a.isSubsetOf(u));

            Bitset c = a;
            c.clear();
            expectSame(c, RefSet(n));
        }
    }
}

TEST(BitsetReferenceTest, MatrixOperationsMatchReference)
{
    std::mt19937_64 rng(2);
    for (size_t n : kSizes) {
        SCOPED_TRACE("n = " + std::to_string(n));
        for (int round = 0; round < 6; round++) {
            // Sparse relations give interesting closures; dags give
            // acyclic ones, which random dense relations almost never are.
            uint64_t one_in = n < 10 ? 3 : n;
            bool dag = round % 2 == 1;
            RefRel ra = randomRefRel(rng, n, one_in, dag);
            RefRel rb = randomRefRel(rng, n, one_in, round % 3 == 2);
            BitMatrix a = toMatrix(ra);
            BitMatrix b = toMatrix(rb);
            expectSame(a, ra);
            expectSame(b, rb);

            BitMatrix cleared = a;
            RefRel rcleared = ra;
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    if (coin(rng, 3)) {
                        cleared.set(i, j, false);
                        rcleared[i][j] = false;
                    }
                }
            }
            expectSame(cleared, rcleared);

            RefRel ror(n, RefSet(n)), rand(n, RefSet(n)),
                rdiff(n, RefSet(n));
            for (size_t i = 0; i < n; i++) {
                for (size_t j = 0; j < n; j++) {
                    ror[i][j] = ra[i][j] || rb[i][j];
                    rand[i][j] = ra[i][j] && rb[i][j];
                    rdiff[i][j] = ra[i][j] && !rb[i][j];
                }
            }
            BitMatrix u = a;
            u |= b;
            expectSame(u, ror);
            BitMatrix in = a;
            in &= b;
            expectSame(in, rand);
            BitMatrix d = a;
            d -= b;
            expectSame(d, rdiff);

            EXPECT_EQ(a == b, ra == rb);
            EXPECT_EQ(a != b, ra != rb);
            EXPECT_TRUE(a == toMatrix(ra));
            EXPECT_EQ(a.isSubsetOf(b), refSubset(ra, rb));
            EXPECT_TRUE(in.isSubsetOf(a));
            EXPECT_TRUE(a.isSubsetOf(u));

            expectSame(a.compose(b), refCompose(ra, rb));
            expectSame(a.transpose(), refTranspose(ra));

            RefRel closure = refClosure(ra);
            expectSame(a.transitiveClosure(), closure);
            RefRel rt = closure;
            bool acyclic = true;
            bool irreflexive = true;
            for (size_t i = 0; i < n; i++) {
                rt[i][i] = true;
                acyclic = acyclic && !closure[i][i];
                irreflexive = irreflexive && !ra[i][i];
            }
            expectSame(a.reflexiveTransitiveClosure(), rt);
            EXPECT_EQ(a.isAcyclic(), acyclic);
            EXPECT_EQ(a.isIrreflexive(), irreflexive);
            if (dag) {
                EXPECT_TRUE(a.isAcyclic());
            }

            for (size_t i = 0; i < n; i++)
                expectSame(a.row(i), ra[i]);

            RefRel rid(n, RefSet(n)), rfull(n, RefSet(n, true));
            for (size_t i = 0; i < n; i++)
                rid[i][i] = true;
            expectSame(BitMatrix::identity(n), rid);
            expectSame(BitMatrix::full(n), rfull);
        }
    }
}

TEST(BitsetReferenceTest, CopyMoveAndSelfAssignAcrossStorageBoundary)
{
    std::mt19937_64 rng(3);
    // 8/9 atoms is the matrix's inline limit, 64/65 bits the set's.
    const size_t sizes[] = {0, 1, 8, 9, 64, 65, 130};
    for (size_t from : sizes) {
        for (size_t to : sizes) {
            SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
            RefRel rsrc = randomRefRel(rng, from, 2, false);
            RefRel rdst = randomRefRel(rng, to, 2, false);

            BitMatrix src = toMatrix(rsrc);
            BitMatrix dst = toMatrix(rdst);
            dst = src;
            expectSame(dst, rsrc);
            expectSame(src, rsrc);
            if (from) {
                dst.set(0, 0, !rsrc[0][0]);
                expectSame(src, rsrc); // the copy owns its words
            }

            BitMatrix moved_into = toMatrix(rdst);
            moved_into = std::move(dst);
            if (from)
                moved_into.set(0, 0, rsrc[0][0]);
            expectSame(moved_into, rsrc);
            BitMatrix copy(src);
            expectSame(copy, rsrc);
            BitMatrix move_built(std::move(copy));
            expectSame(move_built, rsrc);
            moved_into = toMatrix(rdst);
            moved_into = move_built;
            expectSame(moved_into, rsrc);

            BitMatrix &alias = moved_into;
            moved_into = alias;
            expectSame(moved_into, rsrc);

            RefSet ssrc = randomRefSet(rng, from, 2);
            RefSet sdst = randomRefSet(rng, to, 2);
            Bitset bsrc = toBitset(ssrc);
            Bitset bdst = toBitset(sdst);
            bdst = bsrc;
            expectSame(bdst, ssrc);
            if (from)
                bdst.set(0, !ssrc[0]);
            expectSame(bsrc, ssrc);
            Bitset bmoved = toBitset(sdst);
            bmoved = std::move(bdst);
            if (from)
                bmoved.set(0, ssrc[0]);
            expectSame(bmoved, ssrc);
            Bitset bcopy(bsrc);
            Bitset bmove_built(std::move(bcopy));
            expectSame(bmove_built, ssrc);
            Bitset &balias = bmove_built;
            bmove_built = balias;
            expectSame(bmove_built, ssrc);
        }
    }
}

/** A deterministic pattern: (i, j) set iff (3i + 5j) % 7 < 2. */
BitMatrix
patternMatrix(size_t n)
{
    BitMatrix m(n);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            if ((3 * i + 5 * j) % 7 < 2)
                m.set(i, j);
        }
    }
    return m;
}

Bitset
patternSet(size_t n)
{
    Bitset b(n);
    for (size_t i = 0; i < n; i++) {
        if ((5 * i) % 7 < 3)
            b.set(i);
    }
    return b;
}

TEST(BitsetReferenceTest, HashAndToStringArePinned)
{
    EXPECT_EQ(patternSet(9).toString(), "100100110");
    EXPECT_EQ(patternMatrix(3).toString(), "100\n010\n000\n");

    // Values recorded before BitMatrix moved to one flat word array;
    // the store and canon keys must not notice the layout.
    struct Pin
    {
        size_t n;
        uint64_t setHash, setText, matrixHash, matrixText;
    };
    const Pin pins[] = {
        {0, 0xac2148d9c5bb8f75ULL, 0xac2148d9c5bb8f75ULL, 0xac2148d9c5bb8f75ULL,
         0xac2148d9c5bb8f75ULL},
        {1, 0xd8942a0fed9967a1ULL, 0x86840731d5e10620ULL, 0x47a91e83c0456a43ULL,
         0xde4ddf3c2fb9fdf0ULL},
        {7, 0x77ed2ca26250ad2bULL, 0x363b1ccb8ebef5edULL, 0x2d59e1426c9c6f18ULL,
         0x0063a1d7502918bcULL},
        {8, 0x4609f3a3d92c2a17ULL, 0x6ec39d1af27ab8c0ULL, 0x7df8d29a383162faULL,
         0xe32966980ac1a017ULL},
        {9, 0xb134939eee8b6c20ULL, 0x6b92274834a35326ULL, 0xf6c408aa729c714bULL,
         0xb0a491651d3bf64fULL},
        {63, 0x4deef605563bd009ULL, 0xd1b3feb0023044f3ULL, 0xdd309425c2ffc597ULL,
         0x52368c850df0f01eULL},
        {64, 0x46d229fe58765572ULL, 0xee370500f34e4ec0ULL, 0x762cfcf4fef48901ULL,
         0xe2eed5b614a2c86bULL},
        {65, 0x5a25a91e58af663bULL, 0x18b93062ebf67a04ULL, 0x43adfb2f33fafde4ULL,
         0x95fc8a2ea54ebef0ULL},
        {130, 0x33e957ec7ed7cd42ULL, 0xabb49747e0ba687aULL, 0x52a5e2199e097e5fULL,
         0x829441b4d299c5feULL},
    };
    for (const Pin &p : pins) {
        SCOPED_TRACE("n = " + std::to_string(p.n));
        Bitset b = patternSet(p.n);
        BitMatrix m = patternMatrix(p.n);
        EXPECT_EQ(b.hash(), p.setHash);
        EXPECT_EQ(hashCombine(hashInit(), b.toString()), p.setText);
        EXPECT_EQ(m.hash(), p.matrixHash);
        EXPECT_EQ(hashCombine(hashInit(), m.toString()), p.matrixText);
    }
}

} // namespace
} // namespace lts
