//===- tests/LitmusFormatTests.cpp - .litmus format tests ---------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The .litmus text format: parse -> print -> parse round-trip identity
// (over the catalog, hand-written documents and random fuzz exports),
// precise line/column error reporting, and the fuzz <-> litmus bridge.
//
//===----------------------------------------------------------------------===//

#include "fuzz/LitmusBridge.h"
#include "litmus/Format.h"

#include "gtest/gtest.h"

using namespace gpuwmm;
using namespace gpuwmm::litmus;

namespace {

Program parseOk(const std::string &Text) {
  ParseError Err;
  std::optional<Program> P = parseLitmus(Text, Err);
  EXPECT_TRUE(P.has_value())
      << Err.render("<test>") << "\nin document:\n" << Text;
  return P ? *P : Program();
}

ParseError parseFail(const std::string &Text) {
  ParseError Err;
  std::optional<Program> P = parseLitmus(Text, Err);
  EXPECT_FALSE(P.has_value()) << "expected a parse error in:\n" << Text;
  return Err;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip identity
//===----------------------------------------------------------------------===//

TEST(LitmusFormatTest, CatalogRoundTripsIdentically) {
  for (const Program &P : catalog()) {
    const std::string Text = printLitmus(P);
    const Program Reparsed = parseOk(Text);
    EXPECT_TRUE(Reparsed == P) << "round-trip changed " << P.Name
                               << ":\n" << Text;
    // Byte fixpoint from the second generation on (the first print also
    // carries the catalog Doc comment, which parsing discards).
    const std::string Canonical = printLitmus(Reparsed);
    EXPECT_EQ(printLitmus(parseOk(Canonical)), Canonical) << P.Name;
  }
}

TEST(LitmusFormatTest, EveryGrammarConstructRoundTrips) {
  // A document using every construct: quoted name, comments, init,
  // jitter, explicit block placement, every op, and both comparisons.
  const std::string Text = "# comment\n"
                           "litmus \"kitchen sink\"\n"
                           "locations x y\n"
                           "init { y = 7 }\n"
                           "jitter 5\n"
                           "thread 0 @ block 1 {\n"
                           "  st x 1\n"
                           "  add y 2\n"
                           "  fence\n"
                           "  ldasync r0 y\n"
                           "  fence?\n"
                           "  await r0\n"
                           "}\n"
                           "thread 1 @ block 0 {\n"
                           "  ld r1 x\n"
                           "}\n"
                           "forbidden r0 != 7 /\\ r1 = 0 /\\ x = 1\n";
  const Program P = parseOk(Text);
  EXPECT_EQ(P.Name, "kitchen sink");
  EXPECT_EQ(P.PhaseJitter, 5u);
  EXPECT_EQ(P.Init, (std::vector<sim::Word>{0, 7}));
  EXPECT_EQ(P.Threads[0].Block, 1u);
  EXPECT_EQ(P.Threads[1].Block, 0u);
  ASSERT_EQ(P.Forbidden.size(), 3u);
  EXPECT_TRUE(P.Forbidden[0].Negated);
  EXPECT_FALSE(P.Forbidden[2].IsReg);

  const Program Reparsed = parseOk(printLitmus(P));
  EXPECT_TRUE(Reparsed == P);
}

TEST(LitmusFormatTest, DefaultsAreOmittedWhenPrinting) {
  const Program &MP = *findCatalogProgram("MP");
  const std::string Text = printLitmus(MP);
  EXPECT_EQ(Text.find("init"), std::string::npos)
      << "all-zero init must not be printed";
  EXPECT_EQ(Text.find("jitter"), std::string::npos)
      << "default jitter must not be printed";
  EXPECT_EQ(Text.find("@ block"), std::string::npos)
      << "thread-ordinal placement must not be printed";
}

TEST(LitmusFormatTest, RandomFuzzExportsRoundTrip) {
  // Property test: any generated fuzz program, and its export pinning an
  // outcome, survives litmus -> text -> litmus unchanged.
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    Rng R(Seed);
    const Program P = fuzz::generateProgram(
        R, /*NumVars=*/3, /*OpsPerThread=*/6, /*WithFences=*/true);
    EXPECT_TRUE(parseOk(printLitmus(P)) == P) << "seed " << Seed;

    const fuzz::Outcome Weak(P.Registers.size() + P.Locations.size(), 1);
    const Program L = fuzz::toLitmusProgram(P, "t", &Weak);
    EXPECT_TRUE(parseOk(printLitmus(L)) == L) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Parse errors carry exact positions
//===----------------------------------------------------------------------===//

TEST(LitmusFormatTest, UnknownLocationReportsLineAndColumn) {
  const ParseError Err = parseFail("litmus t\n"
                                   "locations x\n"
                                   "thread 0 {\n"
                                   "  st z 1\n"
                                   "}\n");
  EXPECT_EQ(Err.Line, 4u);
  EXPECT_EQ(Err.Col, 6u); // The 'z'.
  EXPECT_NE(Err.Message.find("unknown location 'z'"), std::string::npos)
      << Err.Message;
  EXPECT_EQ(Err.render("t.litmus"),
            "t.litmus:4:6: error: " + Err.Message);
}

TEST(LitmusFormatTest, MissingLitmusHeaderIsRejected) {
  const ParseError Err = parseFail("locations x\n");
  EXPECT_EQ(Err.Line, 1u);
  EXPECT_EQ(Err.Col, 1u);
  EXPECT_NE(Err.Message.find("litmus"), std::string::npos);
}

TEST(LitmusFormatTest, OutOfOrderThreadIndexIsRejected) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 1 {\n  st x 1\n}\n");
  EXPECT_EQ(Err.Line, 3u);
  EXPECT_EQ(Err.Col, 8u); // The '1'.
  EXPECT_NE(Err.Message.find("expected thread 0"), std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, AwaitWithoutAsyncLoadIsRejected) {
  // 'await r0' where r0 was a plain load: caught by validation.
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 0 {\n  ld r0 x\n  await r0\n}\n");
  EXPECT_NE(Err.Message.find("no pending split-phase load"),
            std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, UnawaitedAsyncLoadIsRejected) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 0 {\n  ldasync r0 x\n}\n");
  EXPECT_NE(Err.Message.find("unawaited"), std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, TwoLoadsIntoOneRegisterAreRejected) {
  const ParseError Err =
      parseFail("litmus t\nlocations x y\n"
                "thread 0 {\n  ld r0 x\n  ld r0 y\n}\n");
  EXPECT_NE(Err.Message.find("destination of 2 loads"), std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, UnknownNameInForbiddenReportsPosition) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 0 {\n  st x 1\n}\n"
                                   "forbidden r9 = 1\n");
  EXPECT_EQ(Err.Line, 6u);
  EXPECT_EQ(Err.Col, 11u); // The 'r9'.
  EXPECT_NE(Err.Message.find("unknown register or location 'r9'"),
            std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, ReservedWordCannotNameARegister) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 0 {\n  ld fence x\n}\n");
  EXPECT_NE(Err.Message.find("reserved word"), std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, OversizedIntegerIsRejected) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "thread 0 {\n  st x 4294967296\n}\n");
  EXPECT_EQ(Err.Line, 4u);
  EXPECT_NE(Err.Message.find("does not fit a word"), std::string::npos)
      << Err.Message;
}

TEST(LitmusFormatTest, UnterminatedStringIsRejected) {
  const ParseError Err = parseFail("litmus \"t\n");
  EXPECT_EQ(Err.Line, 1u);
  EXPECT_EQ(Err.Col, 8u);
  EXPECT_NE(Err.Message.find("unterminated"), std::string::npos);
}

TEST(LitmusFormatTest, StrayPunctuationIsRejected) {
  const ParseError Err = parseFail("litmus t\nlocations x\n"
                                   "forbidden x = 1 / x = 2\n");
  EXPECT_EQ(Err.Line, 3u);
  EXPECT_NE(Err.Message.find("'/\\'"), std::string::npos) << Err.Message;
}

//===----------------------------------------------------------------------===//
// Fuzz bridge semantics
//===----------------------------------------------------------------------===//

TEST(LitmusBridgeTest, ExportPinsTheObservedOutcome) {
  // A program whose SC outcomes are easy to enumerate: T0 stores, T1
  // loads twice. Pin a fabricated "outcome" and check the clause.
  const Program P = parseOk("litmus t\nlocations v0 v1\njitter 8\n"
                            "thread 0 {\n  st v0 1\n}\n"
                            "thread 1 {\n  ld r0 v0\n  ld r1 v1\n}\n");
  const fuzz::Outcome Weak = {1, 0, 1, 0}; // r0, r1, v0, v1.
  const Program L = fuzz::toLitmusProgram(P, "case", &Weak);
  EXPECT_EQ(L.Name, "case");
  ASSERT_EQ(L.Forbidden.size(), 4u);
  EXPECT_TRUE(L.evalForbidden({1, 0}, {1, 0}));
  EXPECT_FALSE(L.evalForbidden({1, 1}, {1, 0}));
  EXPECT_EQ(L.Threads, P.Threads) << "export only renames and pins";

  // The exported artifact replays: the weak outcome the fuzzer saw is
  // exactly what LitmusRunner reports as weak.
  const std::string Text = printLitmus(L);
  EXPECT_NE(Text.find("forbidden"), std::string::npos);
  EXPECT_TRUE(fuzz::toLitmusProgram(L, "t").Forbidden.empty())
      << "without an outcome the clause is empty";
}

TEST(LitmusBridgeTest, ImportRejectsUnrepresentablePrograms) {
  // `fuzz --file` accepts any well-formed program of st/ld/add/fence ops
  // (any thread count, any initial state) whose SC enumeration is
  // affordable.
  EXPECT_EQ(fuzz::unfuzzableReason(*findCatalogProgram("MP")), "");
  EXPECT_EQ(fuzz::unfuzzableReason(*findCatalogProgram("ISA2")), "");
  const Program Init = parseOk("litmus t\nlocations x\ninit { x = 3 }\n"
                               "thread 0 @ block 0 {\n  st x 1\n}\n"
                               "thread 1 @ block 1 {\n  ld r0 x\n}\n");
  EXPECT_EQ(fuzz::unfuzzableReason(Init), "");

  for (const char *Name : {"LB", "IRIW", "WRC"})
    EXPECT_NE(fuzz::unfuzzableReason(*findCatalogProgram(Name))
                  .find("split-phase"),
              std::string::npos)
        << Name;

  // Two threads of 20 accesses: C(40, 20) interleavings.
  Program Big = Init;
  for (litmus::ProgThread &T : Big.Threads)
    T.Ops.assign(20, litmus::ProgOp::store(0, 1));
  Big.Registers.clear();
  EXPECT_EQ(fuzz::scInterleavings(Big), 137846528820u);
  EXPECT_NE(fuzz::unfuzzableReason(Big).find("137846528820 interleavings"),
            std::string::npos)
      << fuzz::unfuzzableReason(Big);
}

//===----------------------------------------------------------------------===//
// Validation (programmatic construction)
//===----------------------------------------------------------------------===//

TEST(ProgramValidationTest, CatalogIsValid) {
  for (const Program &P : catalog())
    EXPECT_EQ(P.validate(), "") << P.Name;
}

TEST(ProgramValidationTest, NameCollisionsAreRejected) {
  Program P = *findCatalogProgram("MP");
  P.Registers[0] = "x"; // Collides with the location.
  EXPECT_NE(P.validate().find("both a register and a location"),
            std::string::npos);
}

TEST(ProgramValidationTest, ConditionIndexBoundsAreChecked) {
  Program P = *findCatalogProgram("MP");
  P.Forbidden.push_back({/*IsReg=*/false, /*Index=*/7, false, 0});
  EXPECT_NE(P.validate().find("out of range"), std::string::npos);
}
