/**
 * @file
 * Tests for the DRAT proof writer and the independent backward checker:
 * the writer/parser round trip, acceptance of valid RUP and RAT
 * derivations, and — the part that keeps the checker honest — one
 * mutated proof per failure mode, each rejected with its own diagnostic
 * (dropped RUP step, premature deletion, bogus RAT pivot, truncated
 * binary record, unrecognized header, missing conclusion).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sat/drat.hh"
#include "sat/solver.hh"

namespace lts::sat
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

DratStep
step(DratStep::Kind kind, std::vector<Lit> lits)
{
    DratStep s;
    s.kind = kind;
    s.lits = std::move(lits);
    return s;
}

/**
 * The canonical four-clause contradiction over {a, b}: every assignment
 * falsifies one input, (b) is RUP, and the empty conclusion follows.
 */
std::vector<DratStep>
validProof()
{
    Lit a = Lit::pos(0), b = Lit::pos(1);
    return {
        step(DratStep::Kind::Input, {a, b}),
        step(DratStep::Kind::Input, {~a, b}),
        step(DratStep::Kind::Input, {a, ~b}),
        step(DratStep::Kind::Input, {~a, ~b}),
        step(DratStep::Kind::Derived, {b}),
        step(DratStep::Kind::Conclusion, {}),
    };
}

// --- writer / parser round trips --------------------------------------------

TEST(DratWriterTest, BinaryRoundTripWithWideVars)
{
    // Variable 300 forces a multi-byte varint literal code.
    std::string path = tmpPath("roundtrip.bin.drat");
    {
        DratWriter w(path);
        ASSERT_TRUE(w.good());
        w.addInput({Lit::pos(300), Lit::neg(0)});
        w.addDerived({});
        w.addConclusion({Lit::neg(300)});
    }
    std::vector<DratStep> steps;
    std::string error;
    ASSERT_TRUE(parseDratFile(path, steps, error)) << error;
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(steps[0].lits,
              (std::vector<Lit>{Lit::pos(300), Lit::neg(0)}));
    EXPECT_TRUE(steps[1].lits.empty());
    EXPECT_EQ(steps[2].lits, (std::vector<Lit>{Lit::neg(300)}));
    std::remove(path.c_str());
}

// --- checker acceptance -----------------------------------------------------

TEST(DratCheckTest, AcceptsValidRupProof)
{
    DratCheckResult res = checkDrat(validProof());
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inputs, 4u);
    EXPECT_EQ(res.derived, 1u);
    EXPECT_EQ(res.conclusions, 1u);
    EXPECT_EQ(res.verified, 2u); // the derived (b) and the conclusion
    EXPECT_EQ(res.ratSteps, 0u);
    EXPECT_GE(res.coreSteps, 2u);
    EXPECT_GE(res.coreInputs, 2u);
}

TEST(DratCheckTest, AcceptsRatStepWithNoPartners)
{
    // (a) is not RUP from (a | b) alone, but a never occurs negated, so
    // RAT on pivot a holds vacuously.
    Lit a = Lit::pos(0), b = Lit::pos(1);
    DratCheckResult res = checkDrat({
        step(DratStep::Kind::Input, {a, b}),
        step(DratStep::Kind::Derived, {a}),
        step(DratStep::Kind::Conclusion, {a}),
    });
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.ratSteps, 1u);
}

TEST(DratCheckTest, HonorsDeletionOrderWhenRebuilding)
{
    // The derived (b) is justified by inputs deleted *after* it; the
    // backward walk must restore them before re-checking the step.
    Lit a = Lit::pos(0), b = Lit::pos(1);
    DratCheckResult res = checkDrat({
        step(DratStep::Kind::Input, {a, b}),
        step(DratStep::Kind::Input, {~a, b}),
        step(DratStep::Kind::Input, {a, ~b}),
        step(DratStep::Kind::Input, {~a, ~b}),
        step(DratStep::Kind::Derived, {b}),
        step(DratStep::Kind::Delete, {a, b}),
        step(DratStep::Kind::Delete, {~a, b}),
        step(DratStep::Kind::Conclusion, {}),
    });
    EXPECT_TRUE(res.ok) << res.error;
}

// --- mutated proofs: one distinct diagnostic per failure mode ---------------

TEST(DratCheckTest, RejectsDroppedRupStep)
{
    // Remove the derived (b): the inputs alone no longer unit-propagate
    // to a conflict, so the empty conclusion fails its RUP check.
    std::vector<DratStep> steps = validProof();
    steps.erase(steps.begin() + 4);
    DratCheckResult res = checkDrat(steps);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("conclusion clause is not RUP"),
              std::string::npos)
        << res.error;
}

TEST(DratCheckTest, RejectsPrematureDeletion)
{
    // Delete (b) before any add step produced it.
    std::vector<DratStep> steps = validProof();
    steps.insert(steps.begin() + 4,
                 step(DratStep::Kind::Delete, {Lit::pos(1)}));
    DratCheckResult res = checkDrat(steps);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.errorStep, 4u);
    EXPECT_NE(res.error.find("deletes a clause not in the database"),
              std::string::npos)
        << res.error;
}

TEST(DratCheckTest, RejectsBogusRatPivot)
{
    // (a | b) is neither RUP from (~a | c) nor RAT on pivot a: the
    // resolvent (b | c) does not propagate to a conflict.
    Lit a = Lit::pos(0), b = Lit::pos(1), c = Lit::pos(2);
    DratCheckResult res = checkDrat({
        step(DratStep::Kind::Input, {~a, c}),
        step(DratStep::Kind::Derived, {a, b}),
        step(DratStep::Kind::Conclusion, {a, b}),
    });
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("clause is not RUP, and RAT on pivot"),
              std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("partner clause added at step 0"),
              std::string::npos)
        << res.error;
}

TEST(DratCheckTest, RejectsTruncatedBinaryProof)
{
    std::string path = tmpPath("truncated.bin.drat");
    {
        DratWriter w(path);
        ASSERT_TRUE(w.good());
        w.addInput({Lit::pos(0)});
        w.addConclusion({Lit::pos(0)});
    }
    // Chop the final record terminator off the file.
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        data.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(data.size(), 1u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() - 1));
    }
    std::vector<DratStep> steps;
    std::string error;
    EXPECT_FALSE(parseDratFile(path, steps, error));
    EXPECT_NE(error.find("truncated record in binary proof"),
              std::string::npos)
        << error;
    DratCheckResult res = checkDratFile(path);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("truncated record in binary proof"),
              std::string::npos)
        << res.error;
    std::remove(path.c_str());
}

TEST(DratCheckTest, RejectsTextProofHeader)
{
    // The binary form is the only encoding: a trace in the retired text
    // form is rejected by its header, not parsed.
    std::string path = tmpPath("text.drat");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "c ltsdrat v1 text\ni 1 0\nu 1 0\n";
    }
    DratCheckResult res = checkDratFile(path);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unrecognized proof header"), std::string::npos)
        << res.error;
    std::remove(path.c_str());
}

TEST(DratCheckTest, RejectsProofWithoutConclusion)
{
    std::vector<DratStep> steps = validProof();
    steps.pop_back();
    DratCheckResult res = checkDrat(steps);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("proof has no conclusion"), std::string::npos)
        << res.error;
}

// --- solver integration -----------------------------------------------------

TEST(DratSolverTest, SolverProofChecks)
{
    std::string path = tmpPath("solver.drat");
    {
        Solver s;
        Var a = s.newVar(), b = s.newVar();
        s.addClause({Lit::pos(a), Lit::pos(b)});
        s.addClause({Lit::neg(a), Lit::pos(b)});
        s.addClause({Lit::pos(a), Lit::neg(b)});
        s.addClause({Lit::neg(a), Lit::neg(b)});
        DratWriter w(path);
        s.setProof(&w);
        EXPECT_EQ(s.solve(), SolveResult::Unsat);
        s.proofConcludeUnsat();
    }
    DratCheckResult res = checkDratFile(path);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.conclusions, 1u);
    std::remove(path.c_str());
}

TEST(DratSolverTest, FailedAssumptionsConcludeNegatedCube)
{
    // Unsat only under assumptions: the conclusion is the negated
    // failed-assumption cube, and the proof must still check.
    std::string path = tmpPath("assumptions.drat");
    {
        Solver s;
        Var a = s.newVar(), b = s.newVar();
        s.addClause({Lit::neg(a), Lit::pos(b)});
        DratWriter w(path);
        s.setProof(&w);
        EXPECT_EQ(s.solve({Lit::pos(a), Lit::neg(b)}),
                  SolveResult::Unsat);
        s.proofConcludeUnsat();
        // The instance stays live: a second query under the other
        // polarity is satisfiable and must not disturb the proof.
        EXPECT_EQ(s.solve({Lit::pos(a), Lit::pos(b)}),
                  SolveResult::Sat);
    }
    DratCheckResult res = checkDratFile(path);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.conclusions, 1u);
    std::remove(path.c_str());
}

TEST(DratSolverTest, SimplifiedSolverProofChecks)
{
    // simplify() rewrites the clause database (strengthening, BVE,
    // trail rebuilds); every rewrite must be logged so the final
    // conclusion still checks against the original inputs.
    std::string path = tmpPath("simplify.drat");
    {
        Solver s;
        std::vector<Var> v;
        for (int i = 0; i < 6; i++)
            v.push_back(s.newVar());
        // A chain a -> b -> c -> d plus a contradiction at the end.
        s.addClause({Lit::neg(v[0]), Lit::pos(v[1])});
        s.addClause({Lit::neg(v[1]), Lit::pos(v[2])});
        s.addClause({Lit::neg(v[2]), Lit::pos(v[3])});
        s.addClause({Lit::pos(v[0]), Lit::pos(v[4])});
        s.addClause({Lit::pos(v[0]), Lit::neg(v[4])});
        s.addClause({Lit::neg(v[3]), Lit::pos(v[5])});
        s.addClause({Lit::neg(v[3]), Lit::neg(v[5])});
        DratWriter w(path);
        s.setProof(&w);
        s.simplify();
        EXPECT_EQ(s.solve(), SolveResult::Unsat);
        s.proofConcludeUnsat();
    }
    DratCheckResult res = checkDratFile(path, /*verify_all=*/true);
    EXPECT_TRUE(res.ok) << res.error;
    std::remove(path.c_str());
}

} // namespace
} // namespace lts::sat
