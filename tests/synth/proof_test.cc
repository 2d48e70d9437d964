/**
 * @file
 * Proof-logging contract tests for the synthesis engine: turning
 * --proof on must not change a single suite byte (it is an engine knob,
 * invisible to the options digest), every per-size proof the engine
 * emits must pass the independent DRAT checker, and a dumped DIMACS
 * snapshot of an Unsat shard must actually be unsatisfiable when
 * re-solved from the file.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "common/hash.hh"
#include "litmus/canon.hh"
#include "mm/registry.hh"
#include "sat/dimacs.hh"
#include "sat/drat.hh"
#include "sat/solver.hh"
#include "synth/options.hh"
#include "synth/service.hh"
#include "synth/synthesizer.hh"

namespace lts::synth
{
namespace
{

namespace fs = std::filesystem;

std::string
suiteKey(const std::vector<Suite> &suites)
{
    std::string key;
    for (const Suite &suite : suites) {
        key += suite.model + "/" + suite.axiom + "\n";
        for (const auto &test : suite.tests)
            key += litmus::fullSerialize(test) + "\n";
    }
    return key;
}

class ProofTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir = fs::path(testing::TempDir()) /
              ("lts-proof-" +
               std::string(testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()));
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    /** Check every .drat under dir; returns how many were verified. */
    size_t checkAllProofs()
    {
        size_t checked = 0;
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() != ".drat")
                continue;
            sat::DratCheckResult res =
                sat::checkDratFile(entry.path().string());
            EXPECT_TRUE(res.ok)
                << entry.path().filename().string() << ": " << res.error;
            EXPECT_GT(res.conclusions, 0u);
            checked++;
        }
        return checked;
    }

    fs::path dir;
};

TEST_F(ProofTest, SuiteBytesIdenticalWithProofOn)
{
    auto model = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 3;
    std::string reference = suiteKey(synthesizeAll(*model, opt));

    for (int jobs : {1, 4}) {
        SynthOptions proved = opt;
        proved.jobs = jobs;
        proved.proofDir = (dir / ("jobs" + std::to_string(jobs))).string();
        fs::create_directories(proved.proofDir);
        EXPECT_EQ(reference, suiteKey(synthesizeAll(*model, proved)))
            << "proof logging changed the suite (jobs=" << jobs << ")";
    }
}

TEST_F(ProofTest, IncrementalEngineProofsCheck)
{
    auto model = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 3;
    opt.proofDir = dir.string();
    synthesizeAll(*model, opt);
    // One proof per size, each concluding every axiom's Unsat.
    EXPECT_EQ(checkAllProofs(), 2u);
}

TEST_F(ProofTest, ProofsCheckUnderParallelJobs)
{
    // Size jobs running concurrently each write their own file, and
    // every file must check on its own.
    auto model = mm::makeModel("tso");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 3;
    opt.jobs = 4;
    opt.proofDir = dir.string();
    synthesizeAll(*model, opt);
    EXPECT_EQ(checkAllProofs(), 2u);
}

TEST_F(ProofTest, ProofBytesArePinned)
{
    // A proof logs every clause the search adds, learns and deletes, so
    // its bytes pin the search itself: a change to the solver's clause
    // store that kept the suite but moved a conflict would show here.
    // The same bytes come out at every job count.
    const std::map<std::string, uint64_t> pinned = {
        {"tso.n2.drat", 0x7587171181d483b4ULL},
        {"tso.n3.drat", 0xaff34f5533250187ULL},
        {"tso.n4.drat", 0x3e11130d80ed028fULL},
    };
    auto model = mm::makeModel("tso");
    for (int jobs : {1, 4}) {
        SynthOptions opt;
        opt.minSize = 2;
        opt.maxSize = 4;
        opt.jobs = jobs;
        opt.proofDir = (dir / ("jobs" + std::to_string(jobs))).string();
        fs::create_directories(opt.proofDir);
        synthesizeAll(*model, opt);
        for (const auto &[name, digest] : pinned) {
            std::ifstream in(fs::path(opt.proofDir) / name,
                             std::ios::binary);
            ASSERT_TRUE(in) << name << " (jobs=" << jobs << ")";
            std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
            EXPECT_EQ(hashCombine(hashInit(), bytes), digest)
                << name << " (jobs=" << jobs << ", " << bytes.size()
                << " bytes)";
        }
    }
}

TEST_F(ProofTest, DaemonModeShardsCarryCheckedProofs)
{
    // A daemon-mode Service runs its size jobs like any other caller, so
    // a query with a proof directory gets a proof for every shard it
    // synthesizes, and every proof checks.
    ServiceConfig config;
    config.residentEncodings = true;
    Service service(config);
    SuiteRequest request;
    request.model = "tso";
    request.maxSize = 3;
    request.options.proofDir = dir.string();
    SuiteResult result = service.query(request);
    ASSERT_GT(result.shardsSynthesized, 0u);
    for (const ShardProvenance &shard : result.shards) {
        EXPECT_FALSE(shard.cached);
        EXPECT_EQ(shard.proofDigest.size(), 16u)
            << shard.axiom << "@" << shard.size;
    }
    EXPECT_EQ(checkAllProofs(), 2u);
}

TEST_F(ProofTest, ProofKnobsAreEngineKnobs)
{
    SynthOptions plain;
    SynthOptions proved = plain;
    proved.proofDir = dir.string();
    proved.dumpDimacsDir = dir.string();
    EXPECT_EQ(optionsDigest(plain), optionsDigest(proved));
}

TEST_F(ProofTest, DumpedDimacsIsUnsat)
{
    auto model = mm::makeModel("sc");
    SynthOptions opt;
    opt.minSize = 2;
    opt.maxSize = 2;
    opt.dumpDimacsDir = dir.string();
    synthesizeAll(*model, opt);

    size_t checked = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".cnf")
            continue;
        std::ifstream in(entry.path());
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        sat::Cnf cnf = sat::parseDimacsString(data);
        sat::Solver solver;
        for (int i = 0; i < cnf.numVars; i++)
            solver.newVar();
        bool consistent = true;
        for (const auto &clause : cnf.clauses)
            consistent = solver.addClause(clause) && consistent;
        EXPECT_TRUE(!consistent ||
                    solver.solve() == sat::SolveResult::Unsat)
            << entry.path().filename().string()
            << ": dumped shard snapshot is satisfiable";
        checked++;
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace lts::synth
