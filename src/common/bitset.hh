/**
 * @file
 * Dense bitset and square bit-matrix containers.
 *
 * These back the concrete relational evaluator and every litmus test: a
 * unary relation over a universe of n atoms is a Bitset of n bits, and a
 * binary relation is a BitMatrix of n x n bits.
 *
 * Layout. A Bitset holds its bits in one inline word when n <= 64 and in
 * a heap array of (n + 63) / 64 words otherwise. A BitMatrix stores all
 * n rows row-major in one word array, each row padded to a whole word
 * (n <= 64: one word per row), so row(i) is one word and copies into a
 * one-word Bitset with no allocation. Matrices of up to kInlineAtoms
 * atoms keep that array inline; larger ones use one heap array. Bits past
 * n in a row's last word are always zero, so whole-word comparisons and
 * hashes see only the relation.
 *
 * Why. A litmus test holds six matrices (four static relations, rf and
 * co), and tests are copied, permuted and keyed throughout synthesis,
 * canonicalization and store loads. Test sizes are at most 7 on the
 * wire (the paper's largest bound), so with the inline threshold at 8 a
 * test's relations never touch the allocator; with a vector of per-row
 * heap Bitsets each matrix took n + 1 allocations. The evaluator's sets
 * are at most a few dozen atoms, one inline word.
 */

#ifndef LTS_COMMON_BITSET_HH
#define LTS_COMMON_BITSET_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lts
{

/**
 * A dynamically sized dense bitset with word-parallel set operations.
 */
class Bitset
{
  public:
    Bitset() = default;

    /** Construct an all-zero bitset holding @p n bits. */
    explicit Bitset(size_t n) : numBits(n)
    {
        if (n > 64)
            heap.assign(numWords(), 0);
    }

    /** Number of bits the set holds (not the number of set bits). */
    size_t size() const { return numBits; }

    bool
    test(size_t i) const
    {
        return (words()[i / 64] >> (i % 64)) & 1;
    }

    void
    set(size_t i, bool value = true)
    {
        if (value)
            words()[i / 64] |= uint64_t(1) << (i % 64);
        else
            words()[i / 64] &= ~(uint64_t(1) << (i % 64));
    }

    void reset(size_t i) { set(i, false); }

    /** Set every bit to zero. */
    void clear();

    /** Number of set bits. */
    size_t count() const;

    /** True iff no bit is set. */
    bool none() const;

    /** True iff at least one bit is set. */
    bool any() const { return !none(); }

    Bitset &operator|=(const Bitset &other);
    Bitset &operator&=(const Bitset &other);
    /** Set difference: clear every bit that is set in @p other. */
    Bitset &operator-=(const Bitset &other);

    bool operator==(const Bitset &other) const;
    bool operator!=(const Bitset &other) const { return !(*this == other); }

    /** True iff this is a subset of @p other. */
    bool isSubsetOf(const Bitset &other) const;

    /** Index of the lowest set bit, or size() if empty. */
    size_t firstSet() const;

    /** Stable hash of the contents. */
    uint64_t hash() const;

    /** Render as a string of '0'/'1', lowest index first. */
    std::string toString() const;

  private:
    friend class BitMatrix;

    size_t numWords() const { return (numBits + 63) / 64; }
    const uint64_t *
    words() const
    {
        return numBits <= 64 ? &word : heap.data();
    }
    uint64_t *words() { return numBits <= 64 ? &word : heap.data(); }

    size_t numBits = 0;
    uint64_t word = 0;           ///< the bits while numBits <= 64
    std::vector<uint64_t> heap;  ///< the bits once numBits > 64
};

/**
 * A square bit matrix representing a binary relation over atoms 0..n-1.
 * Entry (i, j) set means atom i relates to atom j. Row i is the
 * stride() words from word i * stride(); entry (i, j) is bit j of them.
 */
class BitMatrix
{
  public:
    /** Matrices over at most this many atoms keep their words inline. */
    static constexpr size_t kInlineAtoms = 8;

    BitMatrix() = default;

    /** Construct an empty (all-zero) n x n relation. */
    explicit BitMatrix(size_t n) : n(n)
    {
        if (n > kInlineAtoms)
            heap.assign(n * stride(), 0);
    }

    /** The identity relation over n atoms. */
    static BitMatrix identity(size_t n);

    /** The full relation (all pairs) over n atoms. */
    static BitMatrix full(size_t n);

    size_t size() const { return n; }

    bool
    test(size_t i, size_t j) const
    {
        return (rowWords(i)[j / 64] >> (j % 64)) & 1;
    }

    void
    set(size_t i, size_t j, bool value = true)
    {
        if (value)
            rowWords(i)[j / 64] |= uint64_t(1) << (j % 64);
        else
            rowWords(i)[j / 64] &= ~(uint64_t(1) << (j % 64));
    }

    /** Row @p i as a set of n bits (one inline word for n <= 64). */
    Bitset row(size_t i) const;

    /** Call @p fn(i, j) for every related pair, in row-major order. */
    template <typename Fn>
    void
    forEachPair(Fn &&fn) const
    {
        for (size_t i = 0; i < n; i++) {
            const uint64_t *row = rowWords(i);
            for (size_t w = 0; w < stride(); w++) {
                for (uint64_t bits = row[w]; bits; bits &= bits - 1)
                    fn(i, w * 64 + std::countr_zero(bits));
            }
        }
    }

    /** Number of related pairs. */
    size_t count() const;

    bool none() const;
    bool any() const { return !none(); }

    BitMatrix &operator|=(const BitMatrix &other);
    BitMatrix &operator&=(const BitMatrix &other);
    BitMatrix &operator-=(const BitMatrix &other);

    bool operator==(const BitMatrix &other) const;
    bool operator!=(const BitMatrix &other) const { return !(*this == other); }

    bool isSubsetOf(const BitMatrix &other) const;

    /** Relational composition: (this ; other). */
    BitMatrix compose(const BitMatrix &other) const;

    /** Transposed (inverse) relation. */
    BitMatrix transpose() const;

    /** Transitive closure (one or more steps). */
    BitMatrix transitiveClosure() const;

    /** Reflexive-transitive closure (zero or more steps). */
    BitMatrix reflexiveTransitiveClosure() const;

    /** True iff the relation contains no cycle (iden & closure is empty). */
    bool isAcyclic() const;

    /** True iff no atom relates to itself. */
    bool isIrreflexive() const;

    uint64_t hash() const;

    std::string toString() const;

  private:
    /** Words per row. */
    size_t stride() const { return (n + 63) / 64; }
    size_t numWords() const { return n * stride(); }
    const uint64_t *
    words() const
    {
        return n <= kInlineAtoms ? inlineWords.data() : heap.data();
    }
    uint64_t *
    words()
    {
        return n <= kInlineAtoms ? inlineWords.data() : heap.data();
    }
    const uint64_t *rowWords(size_t i) const { return words() + i * stride(); }
    uint64_t *rowWords(size_t i) { return words() + i * stride(); }

    size_t n = 0;
    std::array<uint64_t, kInlineAtoms> inlineWords{}; ///< rows, n <= 8
    std::vector<uint64_t> heap;                       ///< rows, n > 8
};

} // namespace lts

#endif // LTS_COMMON_BITSET_HH
