//===- hunt/Corpus.cpp - Crash-safe canonical corpus of weak cases ----------===//

#include "hunt/Corpus.h"

#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "litmus/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sys/stat.h>

using namespace gpuwmm;
using namespace gpuwmm::hunt;

const std::array<const char *, NumAxioms> &hunt::axiomKeys() {
  // The first seven are the message prefixes of the checkers' axiom
  // violations (model/ConsistencyChecker.cpp); "causality" counts weak
  // (axioms-clean but non-SC) verdicts.
  static const std::array<const char *, NumAxioms> Keys = {
      "coherence-per-location", "same-bank FIFO", "fence-drain",
      "self-coherence",         "forwarding",     "same-bank issue order",
      "read-value",             "causality"};
  return Keys;
}

int hunt::axiomKeyIndex(const std::string &ViolationMessage) {
  const size_t Colon = ViolationMessage.find(':');
  const std::string Prefix = Colon == std::string::npos
                                 ? ViolationMessage
                                 : ViolationMessage.substr(0, Colon);
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I)
    if (Prefix == Keys[I])
      return static_cast<int>(I);
  return -1;
}

std::string CorpusManifest::render() const {
  std::string S;
  S += "{\n";
  S += "  \"schema\": \"gpuwmm-hunt-manifest-v2\",\n";
  S += "  \"report_schema\": \"gpuwmm-hunt-v1\",\n";
  S += "  \"tool\": {\"name\": \"gpuwmm\", \"version\": \"" GPUWMM_VERSION
       "\"},\n";
  S += "  \"chip\": \"" + jsonEscape(Chip) + "\",\n";
  S += "  \"seed\": " + std::to_string(Seed) + ",\n";
  S += "  \"programs\": " + std::to_string(Programs) + ",\n";
  S += "  \"runs_per_program\": " + std::to_string(RunsPerProgram) + ",\n";
  S += "  \"num_vars\": " + std::to_string(NumVars) + ",\n";
  S += "  \"ops_per_thread\": " + std::to_string(OpsPerThread) + ",\n";
  S += "  \"distance\": " + std::to_string(Distance) + ",\n";
  S += "  \"shrink_runs\": " + std::to_string(ShrinkRuns) + ",\n";
  S += "  \"harden_runs\": " + std::to_string(HardenRuns) + ",\n";
  S += "  \"stable_runs\": " + std::to_string(StableRuns) + ",\n";
  S += "  \"verify_runs\": " + std::to_string(VerifyRuns) + "\n";
  S += "}\n";
  return S;
}

namespace {

std::string hex8(uint32_t V) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", V);
  return Buf;
}

/// One corpus entry as a single-line record payload.
std::string entryJson(const CorpusEntry &E) {
  std::string S = "{";
  S += "\"name\": \"" + jsonEscape(E.Name) + "\"";
  S += ", \"round\": " + std::to_string(E.Round);
  S += ", \"key_crc\": \"" + hex8(E.KeyCrc) + "\"";
  S += ", \"original_ops\": " + std::to_string(E.OriginalOps);
  S += ", \"reduced_ops\": " + std::to_string(E.ReducedOps);
  S += ", \"shrink_candidates\": " + std::to_string(E.ShrinkCandidates);
  S += ", \"shrink_accepted\": " + std::to_string(E.ShrinkAccepted);
  S += ", \"cross_checks\": " + std::to_string(E.CrossChecks);
  S += ", \"provoking_region\": " + std::to_string(E.ProvokingRegion);
  S += ", \"fence_sites\": " + std::to_string(E.FenceSites);
  S += ", \"fences\": " + std::to_string(E.Fences);
  S += ", \"harden_rounds\": " + std::to_string(E.HardenRounds);
  S += ", \"harden_attempts\": " + std::to_string(E.HardenAttempts);
  S += std::string(", \"harden_stable\": ") +
       (E.HardenStable ? "true" : "false");
  S += ", \"verify_runs\": " + std::to_string(E.VerifyRuns);
  S += ", \"verify_weak\": " + std::to_string(E.VerifyWeak);
  S += ", \"verify_forbidden\": " + std::to_string(E.VerifyForbidden);
  S += ", \"axiom_violations\": {";
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I) {
    S += I ? ", " : "";
    // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
    S += "\"";
    S += Keys[I];
    S += "\": ";
    S += std::to_string(E.AxiomViolations[I]);
  }
  S += "}";
  S += ", \"litmus\": \"";
  S += jsonEscape(litmus::printLitmus(E.Annotated));
  S += "\"}";
  return S;
}

bool getUnsigned(const JsonValue &Doc, const char *Key, unsigned &Out,
                 std::string *Err) {
  const JsonValue *V = Doc.find(Key);
  if (!V || V->kind() != JsonValue::Kind::Number) {
    if (Err)
      *Err = std::string("record is missing the '") + Key + "' number";
    return false;
  }
  Out = static_cast<unsigned>(V->asUInt64());
  return true;
}

bool entryFromJson(const JsonValue &Doc, CorpusEntry &E, std::string *Err) {
  const JsonValue *Name = Doc.find("name");
  const JsonValue *KeyCrc = Doc.find("key_crc");
  const JsonValue *Stable = Doc.find("harden_stable");
  const JsonValue *Cross = Doc.find("cross_checks");
  const JsonValue *Axioms = Doc.find("axiom_violations");
  const JsonValue *Litmus = Doc.find("litmus");
  if (!Name || Name->kind() != JsonValue::Kind::String || !KeyCrc ||
      KeyCrc->kind() != JsonValue::Kind::String || !Stable ||
      Stable->kind() != JsonValue::Kind::Bool || !Cross ||
      Cross->kind() != JsonValue::Kind::Number || !Axioms ||
      !Axioms->isObject() || !Litmus ||
      Litmus->kind() != JsonValue::Kind::String) {
    if (Err)
      *Err = "record is not a corpus entry";
    return false;
  }
  E.Name = Name->asString();
  E.KeyCrc = static_cast<uint32_t>(
      std::strtoul(KeyCrc->asString().c_str(), nullptr, 16));
  E.HardenStable = Stable->asBool();
  E.CrossChecks = Cross->asUInt64();
  if (!getUnsigned(Doc, "round", E.Round, Err) ||
      !getUnsigned(Doc, "original_ops", E.OriginalOps, Err) ||
      !getUnsigned(Doc, "reduced_ops", E.ReducedOps, Err) ||
      !getUnsigned(Doc, "shrink_candidates", E.ShrinkCandidates, Err) ||
      !getUnsigned(Doc, "shrink_accepted", E.ShrinkAccepted, Err) ||
      !getUnsigned(Doc, "provoking_region", E.ProvokingRegion, Err) ||
      !getUnsigned(Doc, "fence_sites", E.FenceSites, Err) ||
      !getUnsigned(Doc, "fences", E.Fences, Err) ||
      !getUnsigned(Doc, "harden_rounds", E.HardenRounds, Err) ||
      !getUnsigned(Doc, "harden_attempts", E.HardenAttempts, Err) ||
      !getUnsigned(Doc, "verify_runs", E.VerifyRuns, Err) ||
      !getUnsigned(Doc, "verify_weak", E.VerifyWeak, Err) ||
      !getUnsigned(Doc, "verify_forbidden", E.VerifyForbidden, Err))
    return false;
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I) {
    const JsonValue *V = Axioms->find(Keys[I]);
    if (!V || V->kind() != JsonValue::Kind::Number) {
      if (Err)
        *Err = std::string("record is missing the '") + Keys[I] +
               "' axiom counter";
      return false;
    }
    E.AxiomViolations[I] = V->asUInt64();
  }
  litmus::ParseError ParseErr;
  const std::optional<litmus::Program> P =
      litmus::parseLitmus(Litmus->asString(), ParseErr);
  if (!P) {
    if (Err)
      *Err = "entry '" + E.Name +
             "' holds an unparseable litmus text: " + ParseErr.Message;
    return false;
  }
  E.Annotated = *P;
  // The key is derived state: recompute it from the stored program and
  // demand it matches the recorded CRC, so any corruption that survives
  // the record framing (or a canonicaliser drift across versions) is
  // caught at load instead of silently splitting the corpus.
  E.Key = fuzz::canonicalKey(harden::stripOptFences(E.Annotated));
  if (crc32(E.Key) != E.KeyCrc) {
    if (Err)
      *Err = "entry '" + E.Name + "' fails its canonical-key CRC check " +
             "(stored " + hex8(E.KeyCrc) + ", recomputed " +
             hex8(crc32(E.Key)) + ")";
    return false;
  }
  return true;
}

} // namespace

bool Corpus::open(const OpenOptions &Opts, const CorpusManifest &M,
                  Corpus &Out, std::string *Err) {
  Out = Corpus();
  Out.Dir = Opts.Dir;
  Out.CrashAfterAppends = Opts.CrashAfterAppends;
  if (Opts.Dir.empty())
    return true;

  if (::mkdir(Opts.Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (Err)
      *Err = "cannot create corpus directory '" + Opts.Dir +
             "': " + std::strerror(errno);
    return false;
  }

  const std::string Manifest = M.render();
  const std::string ManifestPath = Opts.Dir + "/manifest.json";
  std::string Existing;
  std::string ReadErr;
  if (readFile(ManifestPath, Existing, &ReadErr)) {
    // Joining an existing corpus: its identity must match this hunt's
    // config exactly, or entries mined under different budgets (or tool
    // versions) would silently mix.
    if (Existing != Manifest) {
      if (Err)
        *Err = "'" + ManifestPath + "' describes a different hunt (chip, "
               "seed or stage budgets differ); use a fresh --corpus-dir "
               "or matching flags";
      return false;
    }
    if (!Opts.Resume) {
      if (Err)
        *Err = "'" + Opts.Dir + "' already holds a corpus; pass --resume "
               "to extend it";
      return false;
    }
  } else if (!atomicWriteFile(ManifestPath, Manifest, Err)) {
    return false;
  }

  // Load every durable record from every log, oldest-claimed first.
  std::vector<std::string> Logs;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Opts.Dir, Ec)) {
    const std::string Name = Entry.path().filename().string();
    if (Name.rfind("corpus-", 0) == 0 && Name.size() > 7 + 6 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      Logs.push_back(Entry.path().string());
  }
  if (Ec) {
    if (Err)
      *Err = "cannot list '" + Opts.Dir + "': " + Ec.message();
    return false;
  }
  std::sort(Logs.begin(), Logs.end());

  for (const std::string &LogPath : Logs) {
    std::string Text;
    if (!readFile(LogPath, Text, Err))
      return false;
    const FramedRecords Framed = parseFramedRecords(Text);
    if (Framed.TornTail)
      Out.Warnings.push_back(
          "'" + LogPath + "': torn tail record truncated at byte " +
          std::to_string(Framed.ValidBytes) +
          " (crash mid-append; the round will be re-run on --resume)");
    for (const std::string &Payload : Framed.Payloads) {
      std::string ParseErr;
      const std::optional<JsonValue> Doc = parseJson(Payload, &ParseErr);
      if (!Doc || !Doc->isObject()) {
        if (Err)
          *Err = "'" + LogPath + "': " +
                 (ParseErr.empty() ? "record is not a JSON object"
                                   : ParseErr);
        return false;
      }
      if (const JsonValue *Round = Doc->find("round_done")) {
        if (Round->kind() != JsonValue::Kind::Number) {
          if (Err)
            *Err = "'" + LogPath + "': malformed round_done record";
          return false;
        }
        Out.LastRound =
            std::max(Out.LastRound, static_cast<int>(Round->asInt64()));
        continue;
      }
      CorpusEntry E;
      if (!entryFromJson(*Doc, E, Err)) {
        if (Err)
          *Err = "'" + LogPath + "': " + *Err;
        return false;
      }
      // First record wins per key: a crashed round re-run on resume may
      // durably rediscover an entry an earlier log already holds.
      if (!Out.Keys.insert(E.Key).second)
        continue;
      Out.Entries.push_back(std::move(E));
    }
  }

  // Re-publish every entry's replayable artifact: a crash between the
  // record append and the artifact write leaves the record (the source
  // of truth) without its .litmus file, and this heals it.
  for (const CorpusEntry &E : Out.Entries)
    if (!atomicWriteFile(Opts.Dir + "/" + E.Name + ".litmus",
                         litmus::printLitmus(E.Annotated), Err))
      return false;
  return true;
}

bool Corpus::durableAppend(const std::string &Payload, std::string *Err) {
  if (Dir.empty())
    return true;
  if (!Log.isOpen()) {
    // Claim the lowest free log index; O_EXCL arbitrates races between
    // invocations sharing the directory.
    for (unsigned I = 0; I != 10000; ++I) {
      char Name[32];
      std::snprintf(Name, sizeof(Name), "corpus-%04u.jsonl", I);
      bool Exists = false;
      std::string ClaimErr;
      auto Claimed = RecordLog::createExclusive(Dir + "/" + Name,
                                                &ClaimErr, &Exists);
      if (Claimed) {
        Log = std::move(*Claimed);
        break;
      }
      if (!Exists) {
        if (Err)
          *Err = ClaimErr;
        return false;
      }
    }
    if (!Log.isOpen()) {
      if (Err)
        *Err = "no free corpus log slot in '" + Dir + "'";
      return false;
    }
  }
  if (!Log.append(Payload, Err))
    return false;
  // Crash-injection hook: the record above is durable, everything after
  // this point (artifacts, later records) is not — exactly the window
  // the resume tests must prove harmless.
  if (CrashAfterAppends && ++Appends == CrashAfterAppends)
    ::raise(SIGKILL);
  return true;
}

bool Corpus::append(CorpusEntry E, std::string *Err) {
  if (E.Key.empty() || Keys.count(E.Key)) {
    if (Err)
      *Err = E.Key.empty() ? "corpus entry has no canonical key"
                           : "duplicate corpus entry for key";
    return false;
  }
  char Name[32];
  std::snprintf(Name, sizeof(Name), "hunt-%06zu", Entries.size());
  E.Name = Name;
  // The stored program carries its corpus identity, nothing else: the
  // fuzz export's name and doc comment do not survive the record
  // round-trip (the parser discards comments), and keeping them would
  // make a resumed corpus re-publish different artifact bytes than the
  // invocation that mined them.
  E.Annotated.Name = E.Name;
  E.Annotated.Doc.clear();
  E.KeyCrc = crc32(E.Key);
  if (!durableAppend(entryJson(E), Err))
    return false;
  if (!Dir.empty() &&
      !atomicWriteFile(Dir + "/" + E.Name + ".litmus",
                       litmus::printLitmus(E.Annotated), Err))
    return false;
  Keys.insert(E.Key);
  Entries.push_back(std::move(E));
  return true;
}

bool Corpus::markRoundDone(unsigned Round, std::string *Err) {
  if (!durableAppend("{\"round_done\": " + std::to_string(Round) + "}",
                     Err))
    return false;
  LastRound = std::max(LastRound, static_cast<int>(Round));
  return true;
}
