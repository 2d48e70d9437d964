/**
 * @file
 * Seeded mutation fuzzing of the interchange-format parser, a trust
 * boundary: text from files, store records and wire payloads.
 *
 * The corpus is tests/litmus/corpus/ (the registry export plus
 * hand-written fixtures). Each iteration joins one to three corpus tests
 * and applies bit flips, truncations and line splices. Whatever the
 * input, a parse must yield tests or throw std::runtime_error: any other
 * exception fails the test, and a crash or sanitizer report ends the
 * run. The same input goes through the in-memory and the stream entry
 * points, which must agree; every test a parse yields must round-trip.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "litmus/canon.hh"
#include "litmus/format.hh"
#include "litmus/parse_util.hh"

namespace lts::litmus
{
namespace
{

/** The corpus, one string per test (its lines from 'LTS' to 'end'). */
std::vector<std::string>
loadCorpus()
{
    std::vector<std::string> tests;
    for (const char *file : {"registry.lts", "fixtures.lts"}) {
        std::ifstream in(std::string(LTS_FUZZ_CORPUS_DIR) + "/" + file);
        EXPECT_TRUE(in) << "missing corpus file " << file;
        std::string line, test;
        while (std::getline(in, line)) {
            test += line + "\n";
            if (line == "end") {
                tests.push_back(test);
                test.clear();
            }
        }
    }
    return tests;
}

/** A parse outcome: the tests' bytes, or the diagnostic. */
struct Outcome
{
    bool threw = false;
    std::string text;
};

Outcome
parseInMemory(const std::string &input)
{
    Outcome out;
    try {
        TextCursor cursor(input);
        for (const LitmusTest &t : parseLitmusSuite(cursor))
            out.text += writeLitmus(t) + "\n";
    } catch (const std::runtime_error &e) {
        out.threw = true;
        out.text = e.what();
    }
    return out;
}

Outcome
parseStream(const std::string &input)
{
    Outcome out;
    try {
        std::istringstream in(input);
        for (const LitmusTest &t : parseLitmusSuite(in))
            out.text += writeLitmus(t) + "\n";
    } catch (const std::runtime_error &e) {
        out.threw = true;
        out.text = e.what();
    }
    return out;
}

/** One to four mutations of @p input: bit flips, truncations, splices. */
std::string
mutate(std::string input, const std::vector<std::string> &corpus,
       std::mt19937_64 &rng)
{
    auto pick = [&](size_t n) {
        return static_cast<size_t>(rng() % (n == 0 ? 1 : n));
    };
    auto lineStarts = [](const std::string &s) {
        std::vector<size_t> starts{0};
        for (size_t i = 0; i + 1 < s.size(); i++) {
            if (s[i] == '\n')
                starts.push_back(i + 1);
        }
        return starts;
    };
    int rounds = 1 + static_cast<int>(rng() % 4);
    for (int r = 0; r < rounds; r++) {
        switch (rng() % 3) {
          case 0: // flip one bit
            if (!input.empty())
                input[pick(input.size())] ^= static_cast<char>(1 << pick(8));
            break;
          case 1: // truncate
            input.resize(pick(input.size() + 1));
            break;
          default: { // splice a line of another test in at a line start
            const std::string &donor = corpus[pick(corpus.size())];
            std::vector<size_t> from = lineStarts(donor);
            size_t b = from[pick(from.size())];
            size_t e = donor.find('\n', b);
            std::string line = donor.substr(
                b, e == std::string::npos ? std::string::npos : e - b + 1);
            std::vector<size_t> to = lineStarts(input);
            input.insert(to[pick(to.size())], line);
            break;
          }
        }
    }
    return input;
}

TEST(FormatFuzzTest, CorpusParsesAndRoundTrips)
{
    std::vector<std::string> corpus = loadCorpus();
    ASSERT_GT(corpus.size(), 100u);
    for (const std::string &text : corpus) {
        LitmusTest t = parseLitmus(text);
        EXPECT_EQ(fullSerialize(parseLitmus(writeLitmus(t))),
                  fullSerialize(t))
            << text;
    }
}

TEST(FormatFuzzTest, MutatedInputsYieldTestsOrADiagnostic)
{
    constexpr int kIterations = 20000;
    std::vector<std::string> corpus = loadCorpus();
    ASSERT_FALSE(corpus.empty());
    std::mt19937_64 rng(0x6c74732d66757a7aULL); // fixed: reproducible
    int parsed = 0;
    for (int i = 0; i < kIterations; i++) {
        std::string input;
        int joined = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < joined; k++)
            input += corpus[rng() % corpus.size()] + "\n";
        input = mutate(std::move(input), corpus, rng);
        SCOPED_TRACE("iteration " + std::to_string(i) + ", input:\n" +
                     input);

        Outcome memory, stream;
        try {
            memory = parseInMemory(input);
            stream = parseStream(input);
        } catch (const std::exception &e) {
            FAIL() << "parse threw a non-diagnostic " << e.what();
        }
        EXPECT_EQ(memory.threw, stream.threw);
        EXPECT_EQ(memory.text, stream.text);
        if (memory.threw) {
            EXPECT_EQ(memory.text.rfind("litmus parse error at line ", 0),
                      0u)
                << memory.text;
            continue;
        }
        parsed++;
        // What a parse accepts, the writer must write back to itself.
        Outcome again = parseInMemory(memory.text);
        EXPECT_FALSE(again.threw) << again.text;
        EXPECT_EQ(again.text, memory.text);
    }
    // The mutations leave a share of inputs valid, so both outcomes are
    // exercised.
    EXPECT_GT(parsed, kIterations / 20);
    EXPECT_LT(parsed, kIterations - kIterations / 20);
}

} // namespace
} // namespace lts::litmus
