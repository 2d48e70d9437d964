#include "common/bitset.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/hash.hh"

namespace lts
{

namespace
{

/** Bitset::hash of @p num_bits bits held in @p words. */
uint64_t
hashWords(size_t num_bits, const uint64_t *words, size_t num_words)
{
    uint64_t h = hashInit();
    h = hashCombine(h, num_bits);
    for (size_t k = 0; k < num_words; k++)
        h = hashCombine(h, words[k]);
    return h;
}

size_t
popcountWords(const uint64_t *words, size_t num_words)
{
    size_t total = 0;
    for (size_t k = 0; k < num_words; k++)
        total += std::popcount(words[k]);
    return total;
}

bool
noneWords(const uint64_t *words, size_t num_words)
{
    for (size_t k = 0; k < num_words; k++) {
        if (words[k])
            return false;
    }
    return true;
}

bool
subsetWords(const uint64_t *a, const uint64_t *b, size_t num_words)
{
    for (size_t k = 0; k < num_words; k++) {
        if (a[k] & ~b[k])
            return false;
    }
    return true;
}

/** dst[k] = op(dst[k], src[k]) for each of @p num_words words. */
template <typename Op>
void
combineWords(uint64_t *dst, const uint64_t *src, size_t num_words, Op op)
{
    for (size_t k = 0; k < num_words; k++)
        dst[k] = op(dst[k], src[k]);
}

// Lambdas, not functions: each is its own type, so combineWords is
// instantiated (and inlined) once per operation.
const auto orWord = [](uint64_t a, uint64_t b) { return a | b; };
const auto andWord = [](uint64_t a, uint64_t b) { return a & b; };
const auto andNotWord = [](uint64_t a, uint64_t b) { return a & ~b; };

/** Append @p num_bits bits of @p words as '0'/'1', lowest first. */
void
appendBits(std::string &s, const uint64_t *words, size_t num_bits)
{
    for (size_t i = 0; i < num_bits; i++)
        s.push_back((words[i / 64] >> (i % 64)) & 1 ? '1' : '0');
}

} // namespace

void
Bitset::clear()
{
    std::fill_n(words(), numWords(), 0);
}

size_t
Bitset::count() const
{
    return popcountWords(words(), numWords());
}

bool
Bitset::none() const
{
    return noneWords(words(), numWords());
}

Bitset &
Bitset::operator|=(const Bitset &other)
{
    assert(numBits == other.numBits);
    combineWords(words(), other.words(), numWords(), orWord);
    return *this;
}

Bitset &
Bitset::operator&=(const Bitset &other)
{
    assert(numBits == other.numBits);
    combineWords(words(), other.words(), numWords(), andWord);
    return *this;
}

Bitset &
Bitset::operator-=(const Bitset &other)
{
    assert(numBits == other.numBits);
    combineWords(words(), other.words(), numWords(), andNotWord);
    return *this;
}

bool
Bitset::operator==(const Bitset &other) const
{
    return numBits == other.numBits &&
           std::equal(words(), words() + numWords(), other.words());
}

bool
Bitset::isSubsetOf(const Bitset &other) const
{
    assert(numBits == other.numBits);
    return subsetWords(words(), other.words(), numWords());
}

size_t
Bitset::firstSet() const
{
    const uint64_t *w = words();
    for (size_t k = 0; k < numWords(); k++) {
        if (w[k])
            return k * 64 + std::countr_zero(w[k]);
    }
    return numBits;
}

uint64_t
Bitset::hash() const
{
    return hashWords(numBits, words(), numWords());
}

std::string
Bitset::toString() const
{
    std::string s;
    s.reserve(numBits);
    appendBits(s, words(), numBits);
    return s;
}

BitMatrix
BitMatrix::identity(size_t n)
{
    BitMatrix m(n);
    for (size_t i = 0; i < n; i++)
        m.set(i, i);
    return m;
}

BitMatrix
BitMatrix::full(size_t n)
{
    BitMatrix m(n);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++)
            m.set(i, j);
    }
    return m;
}

Bitset
BitMatrix::row(size_t i) const
{
    Bitset out(n);
    std::copy_n(rowWords(i), stride(), out.words());
    return out;
}

size_t
BitMatrix::count() const
{
    return popcountWords(words(), numWords());
}

bool
BitMatrix::none() const
{
    return noneWords(words(), numWords());
}

BitMatrix &
BitMatrix::operator|=(const BitMatrix &other)
{
    assert(n == other.n);
    combineWords(words(), other.words(), numWords(), orWord);
    return *this;
}

BitMatrix &
BitMatrix::operator&=(const BitMatrix &other)
{
    assert(n == other.n);
    combineWords(words(), other.words(), numWords(), andWord);
    return *this;
}

BitMatrix &
BitMatrix::operator-=(const BitMatrix &other)
{
    assert(n == other.n);
    combineWords(words(), other.words(), numWords(), andNotWord);
    return *this;
}

bool
BitMatrix::operator==(const BitMatrix &other) const
{
    return n == other.n &&
           std::equal(words(), words() + numWords(), other.words());
}

bool
BitMatrix::isSubsetOf(const BitMatrix &other) const
{
    assert(n == other.n);
    return subsetWords(words(), other.words(), numWords());
}

BitMatrix
BitMatrix::compose(const BitMatrix &other) const
{
    assert(n == other.n);
    BitMatrix out(n);
    for (size_t i = 0; i < n; i++) {
        for (size_t k = 0; k < n; k++) {
            if (test(i, k))
                combineWords(out.rowWords(i), other.rowWords(k), stride(),
                             orWord);
        }
    }
    return out;
}

BitMatrix
BitMatrix::transpose() const
{
    BitMatrix out(n);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            if (test(i, j))
                out.set(j, i);
        }
    }
    return out;
}

BitMatrix
BitMatrix::transitiveClosure() const
{
    // Warshall's algorithm, row-parallel.
    BitMatrix out = *this;
    for (size_t k = 0; k < n; k++) {
        for (size_t i = 0; i < n; i++) {
            if (out.test(i, k))
                combineWords(out.rowWords(i), out.rowWords(k), stride(),
                             orWord);
        }
    }
    return out;
}

BitMatrix
BitMatrix::reflexiveTransitiveClosure() const
{
    BitMatrix out = transitiveClosure();
    for (size_t i = 0; i < n; i++)
        out.set(i, i);
    return out;
}

bool
BitMatrix::isAcyclic() const
{
    return transitiveClosure().isIrreflexive();
}

bool
BitMatrix::isIrreflexive() const
{
    for (size_t i = 0; i < n; i++) {
        if (test(i, i))
            return false;
    }
    return true;
}

uint64_t
BitMatrix::hash() const
{
    uint64_t h = hashInit();
    h = hashCombine(h, n);
    for (size_t i = 0; i < n; i++)
        h = hashCombine(h, hashWords(n, rowWords(i), stride()));
    return h;
}

std::string
BitMatrix::toString() const
{
    std::string s;
    s.reserve(n * (n + 1));
    for (size_t i = 0; i < n; i++) {
        appendBits(s, rowWords(i), n);
        s.push_back('\n');
    }
    return s;
}

} // namespace lts
