//===- tests/AppsTests.cpp - application case-study tests -----------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Parameterised over all ten case studies (Tab. 4): sequential
// consistency always satisfies the post-condition; conservative fencing
// hardens against the aggressive environment; the weak machine exposes
// errors exactly where the paper says it should.
//
//===----------------------------------------------------------------------===//

#include "apps/AppCompile.h"
#include "apps/Application.h"
#include "model/StreamingChecker.h"

#include "gtest/gtest.h"

#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

stress::TunedStressParams tunedTitan() {
  return stress::TunedStressParams::paperDefaults(titan());
}

constexpr stress::Environment NoStress{stress::StressKind::None, false};
constexpr stress::Environment SysPlus{stress::StressKind::Sys, true};

unsigned countErrors(AppKind App, const stress::Environment &Env,
                     const sim::FencePolicy *Policy, unsigned Runs,
                     uint64_t Seed) {
  unsigned Errors = 0;
  Rng Master(Seed);
  for (unsigned I = 0; I != Runs; ++I)
    Errors += isErroneous(runApplicationOnce(
        App, titan(), Env, tunedTitan(), Policy, Master.fork(I).next()));
  return Errors;
}

} // namespace

class AppTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppTest, MetadataIsWellFormed) {
  const auto App = makeApp(GetParam());
  ASSERT_NE(App, nullptr);
  EXPECT_STREQ(App->name(),
               appName(GetParam() == AppKind::SdkRedNf ? AppKind::SdkRed
                       : GetParam() == AppKind::CubScanNf
                           ? AppKind::CubScan
                       : GetParam() == AppKind::LsBhNf ? AppKind::LsBh
                                                       : GetParam()));
  EXPECT_GT(App->numSites(), 0u);
  for (unsigned S = 0; S != App->numSites(); ++S) {
    ASSERT_NE(App->siteName(S), nullptr);
    EXPECT_GT(std::string(App->siteName(S)).size(), 0u);
  }
  EXPECT_GT(App->maxTicks(), 0u);
}

TEST_P(AppTest, NameParsesBack) {
  EXPECT_EQ(parseAppName(appName(GetParam())), GetParam());
}

TEST_P(AppTest, SequentialConsistencyAlwaysPasses) {
  // Tab. 4's post-conditions hold under SC for every app: all races are
  // benign by design.
  Rng Master(101);
  for (unsigned I = 0; I != 12; ++I) {
    const AppVerdict V = runApplicationOnce(
        GetParam(), titan(), NoStress, tunedTitan(), nullptr,
        Master.fork(I).next(), /*Sequential=*/true);
    EXPECT_EQ(V, AppVerdict::Pass) << appName(GetParam()) << " run " << I;
  }
}

TEST_P(AppTest, ConservativeFencesHardenAgainstAggressiveStress) {
  // Sec. 5's starting point: with a fence after every instrumented
  // access, the application is empirically stable even under sys-str+.
  const sim::FencePolicy All =
      sim::FencePolicy::all(appNumSites(GetParam()));
  EXPECT_EQ(countErrors(GetParam(), SysPlus, &All, 25, 202), 0u)
      << appName(GetParam());
}

TEST_P(AppTest, NativeErrorsAreRareOnTitan) {
  // Tab. 5: no-str exposes (almost) nothing on Titan.
  EXPECT_LE(countErrors(GetParam(), NoStress, nullptr, 30, 303), 1u)
      << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppTest,
                         ::testing::ValuesIn(AllAppKinds),
                         [](const auto &Info) {
                           std::string N = appName(Info.param);
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// The paper's per-application findings (Sec. 4.3)
//===----------------------------------------------------------------------===//

class VulnerableAppTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(VulnerableAppTest, SysStressExposesErrors) {
  // All applications except sdk-red and cub-scan exhibit weak-memory
  // errors under the tuned environment. (120 runs keeps the flake
  // probability negligible even for the least provocable apps, whose
  // error rates sit around 5-10%.)
  EXPECT_GE(countErrors(GetParam(), SysPlus, nullptr, 120, 404), 3u)
      << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    PaperSet, VulnerableAppTest,
    ::testing::Values(AppKind::CbeHt, AppKind::CbeDot, AppKind::CtOctree,
                      AppKind::TpoTm, AppKind::SdkRedNf,
                      AppKind::CubScanNf, AppKind::LsBhNf),
    [](const auto &Info) {
      std::string N = appName(Info.param);
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(AppFindingsTest, ProvidedFencesOfSdkRedSuffice) {
  // sdk-red (with its __threadfence) never errs; sdk-red-nf does.
  EXPECT_EQ(countErrors(AppKind::SdkRed, SysPlus, nullptr, 80, 505), 0u);
  EXPECT_GE(countErrors(AppKind::SdkRedNf, SysPlus, nullptr, 80, 505), 4u);
}

TEST(AppFindingsTest, ProvidedFencesOfCubScanSuffice) {
  EXPECT_EQ(countErrors(AppKind::CubScan, SysPlus, nullptr, 80, 606), 0u);
  EXPECT_GE(countErrors(AppKind::CubScanNf, SysPlus, nullptr, 80, 606),
            8u);
}

TEST(AppFindingsTest, ProvidedFencesOfLsBhAreInsufficient) {
  // The paper's discovery: ls-bh errs even WITH its provided fences (they
  // miss the displaced-body store), and so does ls-bh-nf (Tab. 5 reports
  // errors for both; it makes no claim about their relative rates).
  const unsigned Fenced =
      countErrors(AppKind::LsBh, SysPlus, nullptr, 150, 707);
  const unsigned NoFences =
      countErrors(AppKind::LsBhNf, SysPlus, nullptr, 150, 707);
  EXPECT_GT(Fenced, 0u) << "ls-bh's own fences must not fully protect it";
  EXPECT_GT(NoFences, 0u);
}

TEST(AppFindingsTest, BuiltinFenceFlags) {
  EXPECT_TRUE(appHasBuiltinFences(AppKind::SdkRed));
  EXPECT_TRUE(appHasBuiltinFences(AppKind::CubScan));
  EXPECT_TRUE(appHasBuiltinFences(AppKind::LsBh));
  EXPECT_FALSE(appHasBuiltinFences(AppKind::CbeDot));
  EXPECT_TRUE(isNoFenceVariant(AppKind::SdkRedNf));
  EXPECT_FALSE(isNoFenceVariant(AppKind::SdkRed));
}

TEST(AppFindingsTest, TpoTmCanTimeOut) {
  // Weak behaviour can affect termination (the paper's 30s timeout):
  // under stress a lost push leaves tpo-tm's workers spinning on an empty
  // queue forever. The hang watchdog must prove every such livelock early
  // (DESIGN.md Sec. 20) rather than let it run to the 250k-tick budget: a
  // change that silently stops the proof firing fails here.
  unsigned Timeouts = 0;
  Rng Master(808);
  sim::ExecutionContext Ctx;
  for (unsigned I = 0; I != 60; ++I) {
    sim::RunResult Last;
    const AppVerdict V =
        runApplicationOnce(Ctx, AppKind::TpoTm, titan(), SysPlus, tunedTitan(),
                           nullptr, Master.fork(I).next(), false, &Last);
    if (V != AppVerdict::Timeout)
      continue;
    ++Timeouts;
    EXPECT_EQ(Last.Status, sim::RunStatus::Timeout) << "run " << I;
    EXPECT_TRUE(Last.HangProven) << "run " << I;
    EXPECT_LT(Last.Ticks, 10000u) << "run " << I;
  }
  EXPECT_GT(Timeouts, 0u);
}

TEST(AppFindingsTest, NativeErrorsOn770Hashtable) {
  // Tab. 5: the GTX 770 is the only chip with native cbe-ht errors.
  const sim::ChipProfile &C770 = *sim::ChipProfile::lookup("770");
  const auto Tuned = stress::TunedStressParams::paperDefaults(C770);
  unsigned Errors = 0;
  Rng Master(909);
  for (unsigned I = 0; I != 120; ++I)
    Errors += isErroneous(
        runApplicationOnce(AppKind::CbeHt, C770, NoStress, Tuned, nullptr,
                           Master.fork(I).next()));
  EXPECT_GT(Errors, 1u) << "770 drains slowly enough for native errors";
}

TEST(AppFindingsTest, VerdictNamesAreStable) {
  EXPECT_STREQ(appVerdictName(AppVerdict::Pass), "pass");
  EXPECT_STREQ(appVerdictName(AppVerdict::PostCondFail),
               "postcondition-fail");
  EXPECT_STREQ(appVerdictName(AppVerdict::Timeout), "timeout");
  EXPECT_STREQ(appVerdictName(AppVerdict::SimFault), "sim-fault");
}

//===----------------------------------------------------------------------===//
// Batched application execution (DESIGN.md Sec. 19)
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint64_t> forkSeeds(uint64_t Master, unsigned N) {
  Rng M(Master);
  std::vector<uint64_t> Seeds(N);
  for (unsigned I = 0; I != N; ++I)
    Seeds[I] = M.fork(I).next();
  return Seeds;
}

std::vector<AppVerdict> scalarVerdicts(AppKind K,
                                       const sim::ChipProfile &Chip,
                                       const stress::Environment &Env,
                                       const sim::FencePolicy *Policy,
                                       const std::vector<uint64_t> &Seeds) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  sim::ExecutionContext Ctx;
  std::vector<AppVerdict> V;
  for (const uint64_t S : Seeds)
    V.push_back(runApplicationOnce(Ctx, K, Chip, Env, Tuned, Policy, S));
  return V;
}

std::vector<AppVerdict> batchedVerdicts(AppKind K,
                                        const sim::ChipProfile &Chip,
                                        const stress::Environment &Env,
                                        const sim::FencePolicy *Policy,
                                        const std::vector<uint64_t> &Seeds,
                                        unsigned Width) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  sim::ExecutionContext Ctx;
  std::vector<AppVerdict> V(Seeds.size());
  runApplicationBatch(Ctx, K, Chip, Env, Tuned, Policy, Seeds.data(),
                      V.data(), Seeds.size(), Width);
  return V;
}

const AppKind LowerableKinds[] = {AppKind::CbeHt,    AppKind::CbeDot,
                                  AppKind::SdkRed,   AppKind::SdkRedNf,
                                  AppKind::CubScan,  AppKind::CubScanNf};

} // namespace

TEST(AppBatchLowering, CapabilityMatrixIsStable) {
  for (const AppKind K : LowerableKinds)
    EXPECT_TRUE(appLowerable(K)) << appName(K);
  EXPECT_FALSE(appLowerable(AppKind::CtOctree));
  EXPECT_FALSE(appLowerable(AppKind::TpoTm));
  EXPECT_FALSE(appLowerable(AppKind::LsBh));
  EXPECT_FALSE(appLowerable(AppKind::LsBhNf));
}

class AppBatchIdentity : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppBatchIdentity, MatchesScalarAcrossEnvironments) {
  // The tier-1 identity grid: every environment of the paper's sweep,
  // unfenced, 24 runs each, verdict-for-verdict agreement.
  const auto Seeds = forkSeeds(1010, 24);
  for (const stress::Environment &Env : stress::Environment::all()) {
    const auto Scalar =
        scalarVerdicts(GetParam(), titan(), Env, nullptr, Seeds);
    const auto Batched =
        batchedVerdicts(GetParam(), titan(), Env, nullptr, Seeds, 8);
    EXPECT_EQ(Scalar, Batched) << appName(GetParam()) << " " << Env.name();
  }
}

TEST_P(AppBatchIdentity, MatchesScalarUnderFencePolicies) {
  // Inserted fences reshape the op stream (two extra resumes per armed
  // site); sweep all-sites plus every single-site policy.
  const auto Seeds = forkSeeds(2020, 16);
  const unsigned NumSites = appNumSites(GetParam());
  std::vector<sim::FencePolicy> Policies;
  Policies.push_back(sim::FencePolicy::all(NumSites));
  for (unsigned S = 0; S != NumSites; ++S)
    Policies.push_back(sim::FencePolicy::ofSites(NumSites, {S}));
  for (const sim::FencePolicy &P : Policies) {
    const auto Scalar =
        scalarVerdicts(GetParam(), titan(), SysPlus, &P, Seeds);
    const auto Batched =
        batchedVerdicts(GetParam(), titan(), SysPlus, &P, Seeds, 8);
    EXPECT_EQ(Scalar, Batched)
        << appName(GetParam()) << " policy " << P.count() << " sites";
  }
}

TEST_P(AppBatchIdentity, WidthSweepIncludingDegenerateAndOversized) {
  // K = 1 (degenerate), K > N (oversized slab), awkward odd widths: the
  // stripe width must never leak into results.
  const auto Seeds = forkSeeds(3030, 12);
  const auto Ref =
      batchedVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds, 1);
  for (const unsigned W : {2u, 5u, 12u, 64u, 256u})
    EXPECT_EQ(Ref, batchedVerdicts(GetParam(), titan(), SysPlus, nullptr,
                                   Seeds, W))
        << appName(GetParam()) << " width " << W;
}

TEST_P(AppBatchIdentity, ChipRebindingInterleavings) {
  // One context alternating between chips (and so between plan shapes —
  // Kepler's 32-word patches vs. Maxwell's 64) must match per-chip
  // scalar references run on fresh contexts.
  const sim::ChipProfile &C980 = *sim::ChipProfile::lookup("980");
  const auto Seeds = forkSeeds(4040, 10);
  const auto RefTitan =
      scalarVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds);
  const auto Ref980 =
      scalarVerdicts(GetParam(), C980, SysPlus, nullptr, Seeds);

  sim::ExecutionContext Ctx;
  for (size_t I = 0; I != Seeds.size(); ++I) {
    const sim::ChipProfile &Chip = I % 2 ? C980 : titan();
    AppVerdict V;
    runApplicationBatch(Ctx, GetParam(), Chip, SysPlus,
                        stress::TunedStressParams::paperDefaults(Chip),
                        nullptr, &Seeds[I], &V, 1, 4);
    EXPECT_EQ(V, (I % 2 ? Ref980 : RefTitan)[I])
        << appName(GetParam()) << " run " << I;
  }
}

TEST_P(AppBatchIdentity, TracedContextsFallBackToScalar) {
  // A tracing request pins the batch API to the coroutine path — results
  // must still be identical, and the trace seam stays authoritative.
  const auto Seeds = forkSeeds(5050, 6);
  const auto Ref =
      scalarVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds);
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  std::vector<AppVerdict> V(Seeds.size());
  runApplicationBatch(Ctx, GetParam(), titan(), SysPlus, Tuned, nullptr,
                      Seeds.data(), V.data(), Seeds.size(), 8);
  EXPECT_EQ(Ref, V) << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lowerable, AppBatchIdentity,
                         ::testing::ValuesIn(LowerableKinds),
                         [](const auto &Info) {
                           std::string N = appName(Info.param);
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(AppBatchFallback, UnlowerableAppsMatchScalarViaFallback) {
  // runApplicationBatch on an irregular app silently takes the coroutine
  // path run-for-run.
  const auto Seeds = forkSeeds(6060, 6);
  for (const AppKind K : {AppKind::LsBh, AppKind::TpoTm}) {
    const auto Ref = scalarVerdicts(K, titan(), SysPlus, nullptr, Seeds);
    EXPECT_EQ(Ref, batchedVerdicts(K, titan(), SysPlus, nullptr, Seeds, 8))
        << appName(K);
  }
}

TEST(AppBatchFallback, ScalarEngineModeForcesCoroutinePath) {
  // --engine=scalar must be honoured by the batch API (identity again,
  // but exercised through the mode switch).
  const auto Seeds = forkSeeds(7070, 6);
  const auto Ref =
      scalarVerdicts(AppKind::CbeDot, titan(), SysPlus, nullptr, Seeds);
  sim::setEngineMode(sim::EngineMode::Scalar);
  const auto V =
      batchedVerdicts(AppKind::CbeDot, titan(), SysPlus, nullptr, Seeds, 8);
  sim::setEngineMode(sim::EngineMode::Auto);
  EXPECT_EQ(Ref, V);
}
