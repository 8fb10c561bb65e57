//===- StructuralHashTest.cpp - Canonical-form hashing & verdict cache ----===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The properties the verdict cache rests on: the structural hash is
/// invariant under exactly the rewrites that cannot change behaviour
/// (value renaming, print/parse round-trips, block-list reordering,
/// commutative operand order) and *not* invariant under anything that can
/// (flags, widths, constants, non-commutative operand order, predicates).
/// Plus VerdictCache unit coverage (collision confirmation, on-disk
/// round-trip, corruption rejection, single-flight claims) and the
/// differential campaign property: cached and uncached runs produce
/// byte-identical reports and cache counters at any parallelism.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Enumerate.h"
#include "fuzz/RandomProgram.h"
#include "ir/Context.h"
#include "ir/Instructions.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "parser/Parser.h"
#include "support/Casting.h"
#include "support/Stats.h"
#include "tv/Campaign.h"
#include "tv/VerdictCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace frost;

namespace {

/// Parses a single-function module and returns the function's hash.
StructuralHash hashOf(const std::string &Text) {
  IRContext Ctx;
  Module M(Ctx, "hash");
  ParseResult R = parseModule(Text, M);
  EXPECT_TRUE(R.Ok) << R.Error << "\n--- text was:\n" << Text;
  if (!R.Ok)
    return {};
  for (Function *F : M.functions())
    if (!F->isDeclaration())
      return structuralHash(*F);
  ADD_FAILURE() << "no function definition in:\n" << Text;
  return {};
}

std::string canonOf(const std::string &Text) {
  IRContext Ctx;
  Module M(Ctx, "canon");
  ParseResult R = parseModule(Text, M);
  EXPECT_TRUE(R.Ok) << R.Error;
  for (Function *F : M.functions())
    if (!F->isDeclaration())
      return canonicalForm(*F);
  return "";
}

//===----------------------------------------------------------------------===//
// Invariance
//===----------------------------------------------------------------------===//

TEST(StructuralHash, ValueAndFunctionRenamingInvariance) {
  // Same structure, every name different (function, arguments, values).
  StructuralHash A = hashOf("define i4 @f(i4 %a, i4 %b) {\n"
                            "entry:\n"
                            "  %x = add nsw i4 %a, %b\n"
                            "  %y = mul i4 %x, %a\n"
                            "  ret i4 %y\n"
                            "}\n");
  StructuralHash B = hashOf("define i4 @completely_other(i4 %p, i4 %q) {\n"
                            "start:\n"
                            "  %first = add nsw i4 %p, %q\n"
                            "  %second = mul i4 %first, %p\n"
                            "  ret i4 %second\n"
                            "}\n");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, StructuralHash{});
}

TEST(StructuralHash, BlockListOrderInvariance) {
  // Identical CFG, block list permuted; phi edges listed in opposite
  // order. Canonical RPO + sorted phi edges must erase both differences.
  const char *InOrder = "define i8 @f(i1 %c, i8 %a) {\n"
                        "entry:\n"
                        "  br i1 %c, label %then, label %else\n"
                        "then:\n"
                        "  %t = add i8 %a, 1\n"
                        "  br label %join\n"
                        "else:\n"
                        "  %e = add i8 %a, 2\n"
                        "  br label %join\n"
                        "join:\n"
                        "  %p = phi i8 [ %t, %then ], [ %e, %else ]\n"
                        "  ret i8 %p\n"
                        "}\n";
  const char *Shuffled = "define i8 @f(i1 %c, i8 %a) {\n"
                         "entry:\n"
                         "  br i1 %c, label %then, label %else\n"
                         "join:\n"
                         "  %p = phi i8 [ %e, %else ], [ %t, %then ]\n"
                         "  ret i8 %p\n"
                         "else:\n"
                         "  %e = add i8 %a, 2\n"
                         "  br label %join\n"
                         "then:\n"
                         "  %t = add i8 %a, 1\n"
                         "  br label %join\n"
                         "}\n";
  EXPECT_EQ(hashOf(InOrder), hashOf(Shuffled));
  EXPECT_EQ(canonOf(InOrder), canonOf(Shuffled));
}

TEST(StructuralHash, CommutativeOperandOrderInvariance) {
  for (const char *Op : {"add", "mul", "and", "or", "xor"}) {
    std::string LR = std::string("define i4 @f(i4 %a, i4 %b) {\n"
                                 "entry:\n  %x = ") +
                     Op + " i4 %a, %b\n  ret i4 %x\n}\n";
    std::string RL = std::string("define i4 @f(i4 %a, i4 %b) {\n"
                                 "entry:\n  %x = ") +
                     Op + " i4 %b, %a\n  ret i4 %x\n}\n";
    EXPECT_EQ(hashOf(LR), hashOf(RL)) << Op;
  }
}

TEST(StructuralHash, IcmpSwapAndMirrorPredicateInvariance) {
  // icmp eq a,b == icmp eq b,a; icmp ult a,b == icmp ugt b,a — one
  // canonicalization rule (sort operands, swap the predicate) covers both.
  auto Cmp = [](const char *P, const char *L, const char *R) {
    return std::string("define i1 @f(i4 %a, i4 %b) {\nentry:\n  %x = icmp ") +
           P + " i4 " + L + ", " + R + "\n  ret i1 %x\n}\n";
  };
  EXPECT_EQ(hashOf(Cmp("eq", "%a", "%b")), hashOf(Cmp("eq", "%b", "%a")));
  EXPECT_EQ(hashOf(Cmp("ne", "%a", "%b")), hashOf(Cmp("ne", "%b", "%a")));
  EXPECT_EQ(hashOf(Cmp("ult", "%a", "%b")), hashOf(Cmp("ugt", "%b", "%a")));
  EXPECT_EQ(hashOf(Cmp("sle", "%a", "%b")), hashOf(Cmp("sge", "%b", "%a")));
  // The mirror with the *same* operand order is a different comparison.
  EXPECT_NE(hashOf(Cmp("ult", "%a", "%b")), hashOf(Cmp("ugt", "%a", "%b")));
  EXPECT_NE(hashOf(Cmp("ult", "%a", "%b")), hashOf(Cmp("ule", "%a", "%b")));
}

//===----------------------------------------------------------------------===//
// Near-miss inequality
//===----------------------------------------------------------------------===//

TEST(StructuralHash, NearMissesHashDifferently) {
  auto Fn = [](const std::string &Body) {
    return "define i4 @f(i4 %a, i4 %b) {\nentry:\n" + Body + "}\n";
  };
  StructuralHash Base = hashOf(Fn("  %x = add i4 %a, %b\n  ret i4 %x\n"));
  // Flag difference.
  EXPECT_NE(Base, hashOf(Fn("  %x = add nsw i4 %a, %b\n  ret i4 %x\n")));
  EXPECT_NE(hashOf(Fn("  %x = add nsw i4 %a, %b\n  ret i4 %x\n")),
            hashOf(Fn("  %x = add nuw i4 %a, %b\n  ret i4 %x\n")));
  // Opcode difference.
  EXPECT_NE(Base, hashOf(Fn("  %x = or i4 %a, %b\n  ret i4 %x\n")));
  // Constant value difference.
  EXPECT_NE(hashOf(Fn("  %x = add i4 %a, 1\n  ret i4 %x\n")),
            hashOf(Fn("  %x = add i4 %a, 2\n  ret i4 %x\n")));
  // Poison / undef / constant are all distinct operands.
  EXPECT_NE(hashOf(Fn("  %x = add i4 %a, poison\n  ret i4 %x\n")),
            hashOf(Fn("  %x = add i4 %a, undef\n  ret i4 %x\n")));
  // Width difference.
  EXPECT_NE(hashOf("define i4 @f(i4 %a) {\nentry:\n"
                   "  %x = add i4 %a, %a\n  ret i4 %x\n}\n"),
            hashOf("define i8 @f(i8 %a) {\nentry:\n"
                   "  %x = add i8 %a, %a\n  ret i8 %x\n}\n"));
  // Swapped operands of a NON-commutative op.
  EXPECT_NE(hashOf(Fn("  %x = sub i4 %a, %b\n  ret i4 %x\n")),
            hashOf(Fn("  %x = sub i4 %b, %a\n  ret i4 %x\n")));
  EXPECT_NE(hashOf(Fn("  %x = shl i4 %a, %b\n  ret i4 %x\n")),
            hashOf(Fn("  %x = shl i4 %b, %a\n  ret i4 %x\n")));
  // Exact flag on a division-family op.
  EXPECT_NE(hashOf(Fn("  %x = lshr i4 %a, %b\n  ret i4 %x\n")),
            hashOf(Fn("  %x = lshr exact i4 %a, %b\n  ret i4 %x\n")));
  // Different argument positions are different shapes.
  EXPECT_NE(hashOf(Fn("  %x = sub i4 %a, %a\n  ret i4 %x\n")),
            hashOf(Fn("  %x = sub i4 %a, %b\n  ret i4 %x\n")));
}

TEST(StructuralHash, GlobalLayoutParticipates) {
  auto G = [](const char *Decl) {
    return std::string(Decl) + "\ndefine i8 @f() {\nentry:\n"
                               "  %v = load i8, i8* @g\n  ret i8 %v\n}\n";
  };
  // Same body, different global size: different layout, different hash.
  EXPECT_NE(hashOf(G("@g = global i8, 1")), hashOf(G("@g = global i8, 2")));
  // The global's name is part of the memory layout (sem::referencedGlobals
  // orders the observable window by name), so it participates too.
  EXPECT_NE(hashOf("@g = global i8, 1\ndefine i8 @f() {\nentry:\n"
                   "  %v = load i8, i8* @g\n  ret i8 %v\n}\n"),
            hashOf("@h = global i8, 1\ndefine i8 @f() {\nentry:\n"
                   "  %v = load i8, i8* @h\n  ret i8 %v\n}\n"));
}

//===----------------------------------------------------------------------===//
// Property tests over the fuzz spaces
//===----------------------------------------------------------------------===//

TEST(StructuralHash, RoundTripInvarianceOverEnumeratedSpace) {
  fuzz::EnumOptions Opts;
  Opts.NumInsts = 2;
  Opts.Width = 2;
  Opts.NumArgs = 1;
  Opts.WithPoison = true;
  Opts.WithUndef = true;
  Opts.WithFlags = true;

  IRContext Ctx;
  Module M(Ctx, "enum");
  uint64_t Checked = 0, Budget = 8000;
  // Also map hash -> canonical form: within the budgeted space, two
  // functions with equal hashes must have equal canonical forms (a
  // collision here would poison verdict replay).
  std::map<std::string, std::string> Seen;
  fuzz::enumerateFunctions(M, Opts, [&](Function &F) {
    StructuralHash H = structuralHash(F);
    std::string Canon = canonicalForm(F);

    std::string Text = printFunction(F);
    IRContext Ctx2;
    Module M2(Ctx2, "rt");
    ParseResult R = parseModule(Text, M2);
    EXPECT_TRUE(R.Ok) << R.Error;
    StructuralHash H2 = structuralHash(*M2.functions().front());
    EXPECT_EQ(H, H2) << "hash not stable under print/parse:\n" << Text;

    auto [It, Inserted] = Seen.emplace(H.str(), Canon);
    if (!Inserted)
      EXPECT_EQ(It->second, Canon)
          << "128-bit hash collision across different canonical forms";
    return ++Checked < Budget && !::testing::Test::HasFailure();
  });
  EXPECT_GT(Checked, 1000u);
  // The space must actually contain isomorphs, or campaign dedup is moot.
  EXPECT_LT(Seen.size(), Checked);
}

TEST(StructuralHash, CommutativeSwapInvarianceOverEnumeratedSpace) {
  fuzz::EnumOptions Opts;
  Opts.NumInsts = 2;
  Opts.Width = 2;
  Opts.NumArgs = 2;
  Opts.WithFlags = true;

  IRContext Ctx;
  Module M(Ctx, "enum");
  uint64_t Checked = 0, Budget = 6000, Swapped = 0;
  fuzz::enumerateFunctions(M, Opts, [&](Function &F) {
    StructuralHash Before = structuralHash(F);
    bool DidSwap = false;
    for (BasicBlock *BB : F)
      for (Instruction *I : *BB)
        if (I->isBinaryOp() && I->isCommutative()) {
          Value *L = I->getOperand(0);
          I->setOperand(0, I->getOperand(1));
          I->setOperand(1, L);
          DidSwap = true;
        }
    EXPECT_EQ(Before, structuralHash(F))
        << "commutative swap changed the hash:\n" << printFunction(F);
    Swapped += DidSwap;
    return ++Checked < Budget && !::testing::Test::HasFailure();
  });
  EXPECT_GT(Swapped, 100u) << "space contained almost no commutative ops";
}

TEST(StructuralHash, RoundTripInvarianceOverRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    IRContext Ctx;
    Module M(Ctx, "rand");
    fuzz::RandomProgramOptions Opts;
    Opts.Seed = Seed * 9973 + 1;
    Opts.Statements = 24;
    Function *F = fuzz::generateRandomFunction(M, "p", Opts);
    StructuralHash H = structuralHash(*F);

    std::string Text = printModule(M);
    IRContext Ctx2;
    Module M2(Ctx2, "rt");
    ParseResult R = parseModule(Text, M2);
    ASSERT_TRUE(R.Ok) << R.Error;
    for (Function *G : M2.functions())
      if (!G->isDeclaration())
        EXPECT_EQ(H, structuralHash(*G)) << "seed " << Opts.Seed;
  }
}

TEST(StructuralHash, StrRoundTrip) {
  StructuralHash H{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(H.str(), "0123456789abcdeffedcba9876543210");
  StructuralHash Back;
  ASSERT_TRUE(StructuralHash::fromString(H.str(), Back));
  EXPECT_EQ(H, Back);
  EXPECT_FALSE(StructuralHash::fromString("too-short", Back));
  EXPECT_FALSE(StructuralHash::fromString(
      "0123456789abcdeffedcba987654321X", Back));
}

//===----------------------------------------------------------------------===//
// VerdictCache
//===----------------------------------------------------------------------===//

tv::CachedVerdict mkVerdict(tv::CachedVerdict::Status St,
                            const std::string &Canon,
                            const std::string &Msg = "",
                            const std::string &Blame = "") {
  tv::CachedVerdict V;
  V.St = St;
  V.Changed = true;
  V.InputsChecked = 25;
  V.PathsExplored = 75;
  V.Message = Msg;
  V.BlamedPass = Blame;
  V.CanonText = Canon;
  return V;
}

TEST(VerdictCache, InsertLookupAndCollisionConfirmation) {
  tv::VerdictCache C;
  tv::VerdictKey K;
  K.Hash = {1, 2};
  K.ConfigFP = 42;
  C.insert(K, mkVerdict(tv::CachedVerdict::Invalid, "form-A", "msg", "gvn"));

  tv::CachedVerdict Out;
  ASSERT_TRUE(C.lookup(K, "form-A", Out));
  EXPECT_EQ(Out.St, tv::CachedVerdict::Invalid);
  EXPECT_EQ(Out.Message, "msg");
  EXPECT_EQ(Out.BlamedPass, "gvn");
  EXPECT_EQ(Out.InputsChecked, 25u);

  // Same key, different canonical text: a hash collision. The entry must
  // not be returned for the colliding form...
  EXPECT_FALSE(C.lookup(K, "form-B", Out));
  // ...and both forms can coexist under the same key afterwards.
  C.insert(K, mkVerdict(tv::CachedVerdict::Valid, "form-B"));
  ASSERT_TRUE(C.lookup(K, "form-B", Out));
  EXPECT_EQ(Out.St, tv::CachedVerdict::Valid);
  ASSERT_TRUE(C.lookup(K, "form-A", Out));
  EXPECT_EQ(Out.St, tv::CachedVerdict::Invalid);

  // Different config fingerprint: different key entirely.
  tv::VerdictKey K2 = K;
  K2.ConfigFP = 43;
  EXPECT_FALSE(C.lookup(K2, "form-A", Out));
  EXPECT_EQ(C.size(), 2u);
}

TEST(VerdictCache, SaveLoadRoundTrip) {
  std::string Path = ::testing::TempDir() + "frost-verdict-cache-test.bin";
  {
    tv::VerdictCache C;
    tv::VerdictKey K1{{7, 9}, 1};
    tv::VerdictKey K2{{8, 10}, 2};
    C.insert(K1, mkVerdict(tv::CachedVerdict::Valid, "canon one\nline2\n"));
    C.insert(K2, mkVerdict(tv::CachedVerdict::Inconclusive,
                           "canon two\n", "budget exhausted", "sccp"));
    std::string Error;
    ASSERT_TRUE(C.save(Path, &Error)) << Error;
  }
  tv::VerdictCache C2;
  std::string Error;
  ASSERT_TRUE(C2.load(Path, &Error)) << Error;
  EXPECT_EQ(C2.size(), 2u);

  tv::CachedVerdict Out;
  ASSERT_TRUE(C2.lookup({{7, 9}, 1}, "canon one\nline2\n", Out));
  EXPECT_EQ(Out.St, tv::CachedVerdict::Valid);
  EXPECT_TRUE(Out.FromDisk);
  ASSERT_TRUE(C2.lookup({{8, 10}, 2}, "canon two\n", Out));
  EXPECT_EQ(Out.Message, "budget exhausted");
  EXPECT_EQ(Out.BlamedPass, "sccp");
  EXPECT_EQ(Out.PathsExplored, 75u);

  // Deterministic output: saving the reloaded cache reproduces the bytes.
  std::string Path2 = Path + ".2";
  ASSERT_TRUE(C2.save(Path2, &Error)) << Error;
  std::ifstream A(Path), B(Path2);
  std::string SA((std::istreambuf_iterator<char>(A)),
                 std::istreambuf_iterator<char>());
  std::string SB((std::istreambuf_iterator<char>(B)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(SA, SB);
  std::remove(Path.c_str());
  std::remove(Path2.c_str());
}

/// Entries under \p Dir whose names start with \p Prefix.
std::vector<std::string> entriesWithPrefix(const std::string &Dir,
                                           const std::string &Prefix) {
  std::vector<std::string> Found;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name.rfind(Prefix, 0) == 0)
        Found.push_back(Name);
    }
    closedir(D);
  }
  return Found;
}

TEST(VerdictCache, SaveSurvivesSquattedFixedTempName) {
  // Regression test: save() used to stage through the fixed name
  // "<path>.tmp", so anything squatting on that name — a concurrent saver,
  // a stale crash leftover, here a directory — broke every future persist.
  // The staging name must be unique per writer.
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "frost-cache-squat.bin";
  std::string Squat = Path + ".tmp";
  std::remove(Path.c_str());
  ::rmdir(Squat.c_str()); // A prior aborted run may have left it behind.
  ASSERT_EQ(::mkdir(Squat.c_str(), 0755), 0) << strerror(errno);

  tv::VerdictCache C;
  C.insert({{3, 5}, 7}, mkVerdict(tv::CachedVerdict::Valid, "canon\n"));
  std::string Error;
  EXPECT_TRUE(C.save(Path, &Error)) << Error;

  tv::VerdictCache Back;
  ASSERT_TRUE(Back.load(Path, &Error)) << Error;
  EXPECT_EQ(Back.size(), 1u);

  ::rmdir(Squat.c_str());
  std::remove(Path.c_str());
}

TEST(VerdictCache, FailedSaveLeavesNoTempFiles) {
  // The rename target is a non-empty directory, so the final rename(2)
  // fails after the temp file was fully written: save() must report the
  // error and unlink its staging file rather than litter the cache dir.
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "frost-cache-is-a-dir";
  ASSERT_EQ(::mkdir(Path.c_str(), 0755), 0) << strerror(errno);
  { std::ofstream Block(Path + "/occupant"); Block << "x"; }

  tv::VerdictCache C;
  C.insert({{3, 5}, 7}, mkVerdict(tv::CachedVerdict::Valid, "canon\n"));
  std::string Error;
  EXPECT_FALSE(C.save(Path, &Error));
  EXPECT_NE(Error.find(Path), std::string::npos) << Error;
  EXPECT_TRUE(entriesWithPrefix(Dir, "frost-cache-is-a-dir.tmp").empty());

  // An unwritable staging location (missing parent) fails up front, again
  // without leftovers.
  EXPECT_FALSE(C.save(Dir + "no-such-dir/cache.bin", &Error));

  std::remove((Path + "/occupant").c_str());
  ::rmdir(Path.c_str());
}

TEST(VerdictCache, ConcurrentSavesYieldAConsistentFile) {
  // Many threads persisting the same cache to the same path: with the old
  // shared ".tmp" staging name their writes interleaved and the final
  // rename could publish a torn file. With unique staging names, whichever
  // rename lands last publishes one complete, loadable image.
  std::string Path = ::testing::TempDir() + "frost-cache-hammer.bin";
  std::remove(Path.c_str());

  tv::VerdictCache C;
  for (uint64_t I = 0; I != 64; ++I)
    C.insert({{I + 1, I * 3 + 1}, I},
             mkVerdict(tv::CachedVerdict::Valid,
                       "canon " + std::to_string(I) + "\n"));

  std::vector<std::thread> Savers;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != 8; ++T)
    Savers.emplace_back([&] {
      for (unsigned I = 0; I != 10; ++I) {
        std::string Error;
        if (!C.save(Path, &Error))
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Savers)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  tv::VerdictCache Back;
  std::string Error;
  ASSERT_TRUE(Back.load(Path, &Error)) << Error;
  EXPECT_EQ(Back.size(), 64u);
  EXPECT_TRUE(entriesWithPrefix(::testing::TempDir(),
                                "frost-cache-hammer.bin.tmp")
                  .empty());
  std::remove(Path.c_str());
}

TEST(VerdictCache, CorruptAndMismatchedFilesAreRejected) {
  std::string Path = ::testing::TempDir() + "frost-verdict-cache-bad.bin";
  auto WriteFile = [&](const std::string &Contents) {
    std::ofstream Out(Path, std::ios::trunc);
    Out << Contents;
  };
  std::string Error;

  tv::VerdictCache C;
  EXPECT_FALSE(C.load(Path + ".does-not-exist", &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);

  WriteFile("not a cache at all\n");
  EXPECT_FALSE(C.load(Path, &Error));
  EXPECT_NE(Error.find("not a frost verdict cache"), std::string::npos);

  WriteFile("frost-verdict-cache v999\n0\n");
  EXPECT_FALSE(C.load(Path, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);

  // Truncated entry: count says one, body missing.
  WriteFile("frost-verdict-cache v1\n1\n");
  EXPECT_FALSE(C.load(Path, &Error));

  // Corrupt hash field.
  WriteFile("frost-verdict-cache v1\n1\n"
            "entry 0000000000000001 NOT_A_HASH 0 0 0 0 0 0 0\n\n\n\n");
  EXPECT_FALSE(C.load(Path, &Error));

  // Nothing merged from any failed load.
  EXPECT_EQ(C.size(), 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Single-flight lookups
//===----------------------------------------------------------------------===//

/// Runs lookup on a second thread while the calling thread owns the
/// claim, and blocks until that thread is parked on the claim (tv.cache_waits
/// grew) or has already returned without waiting. The handshake makes the
/// tests below exercise the waiting path on every run rather than whenever
/// the scheduler happens to interleave the threads that way.
struct Waiter {
  bool Found = false;
  bool Waited = false;
  tv::CachedVerdict Out;
  std::atomic<bool> Done{false};
  std::thread T;

  Waiter(const Waiter &) = delete;
  Waiter &operator=(const Waiter &) = delete;
  ~Waiter() { join(); }

  Waiter(tv::VerdictCache &C, const tv::VerdictKey &K,
         const std::string &Canon) {
    uint64_t WaitsBefore = stats::get("tv.cache_waits");
    T = std::thread([&, K, Canon] {
      Found = C.lookup(K, Canon, Out);
      Done = true;
    });
    while (!Done.load() && stats::get("tv.cache_waits") == WaitsBefore)
      std::this_thread::yield();
    Waited = stats::get("tv.cache_waits") > WaitsBefore;
  }
  void join() {
    if (T.joinable())
      T.join();
  }
};

TEST(VerdictCache, ConcurrentLookupWaitsForTheOwnersVerdict) {
  // Regression test: two isomorphs checked at once both missed, both ran
  // the full check, and the second never counted as a hit (the daemon's
  // IsomorphicRequestsHitTheSharedCache failure).
  tv::VerdictCache C;
  tv::VerdictKey K{{11, 13}, 5};
  uint64_t HitsBefore = stats::get("tv.cache_hits");
  uint64_t MissesBefore = stats::get("tv.cache_misses");
  uint64_t SkipsBefore = stats::get("tv.isomorphic_skips");

  tv::CachedVerdict Out;
  ASSERT_FALSE(C.lookup(K, "form", Out)); // Claims the pair.
  Waiter W(C, K, "form");
  EXPECT_TRUE(W.Waited) << "lookup of a claimed pair did not wait";
  C.insert(K, mkVerdict(tv::CachedVerdict::Invalid, "form", "cex", "gvn"));
  W.join();

  ASSERT_TRUE(W.Found);
  EXPECT_EQ(W.Out.St, tv::CachedVerdict::Invalid);
  EXPECT_EQ(W.Out.Message, "cex");
  EXPECT_EQ(W.Out.BlamedPass, "gvn");
  EXPECT_EQ(stats::get("tv.cache_misses") - MissesBefore, 1u);
  EXPECT_EQ(stats::get("tv.cache_hits") - HitsBefore, 1u);
  EXPECT_EQ(stats::get("tv.isomorphic_skips") - SkipsBefore, 1u);
}

TEST(VerdictCache, ReleasedClaimPassesToAWaiter) {
  // An owner that gives up without publishing (its check threw) must not
  // strand the isomorphs waiting on it: one of them claims the pair and
  // verifies it itself.
  tv::VerdictCache C;
  tv::VerdictKey K{{17, 19}, 5};
  uint64_t MissesBefore = stats::get("tv.cache_misses");

  tv::CachedVerdict Out;
  ASSERT_FALSE(C.lookup(K, "form", Out));
  Waiter W(C, K, "form");
  EXPECT_TRUE(W.Waited) << "lookup of a claimed pair did not wait";
  C.release(K, "form");
  W.join();

  EXPECT_FALSE(W.Found);
  EXPECT_EQ(stats::get("tv.cache_misses") - MissesBefore, 2u);
  // The waiter now owns the claim: a third lookup waits on it in turn and
  // gets the verdict it publishes.
  Waiter Third(C, K, "form");
  EXPECT_TRUE(Third.Waited) << "the waiter did not take over the claim";
  C.insert(K, mkVerdict(tv::CachedVerdict::Valid, "form"));
  Third.join();
  ASSERT_TRUE(Third.Found);
  EXPECT_EQ(Third.Out.St, tv::CachedVerdict::Valid);
  EXPECT_EQ(C.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Differential campaign property
//===----------------------------------------------------------------------===//

tv::CampaignOptions smallCampaign() {
  tv::CampaignOptions Opts;
  Opts.Enum.NumInsts = 2;
  Opts.Enum.Width = 2;
  Opts.Enum.NumArgs = 2;
  Opts.Enum.WithPoison = true;
  Opts.Enum.WithFlags = true;
  Opts.MaxFunctions = 500;
  Opts.ShardSize = 16;
  return Opts;
}

TEST(VerdictCache, CampaignReportsIdenticalCachedVsUncachedAtAnyJobs) {
  tv::CampaignOptions Uncached = smallCampaign();
  Uncached.UseVerdictCache = false;
  std::string Baseline = tv::runCampaign(Uncached).report();

  // Single-flight lookups verify each class once, so the cache counters
  // do not depend on how shards interleave either.
  uint64_t SerialHits = 0, SerialMisses = 0;
  for (unsigned Jobs : {1u, 8u}) {
    tv::CampaignOptions Cached = smallCampaign();
    Cached.Jobs = Jobs;
    tv::CampaignResult R = tv::runCampaign(Cached);
    EXPECT_EQ(Baseline, R.report()) << "jobs=" << Jobs;
    EXPECT_GT(R.IsomorphicSkips, 0u) << "jobs=" << Jobs;
    EXPECT_EQ(R.CacheCollisions, 0u);
    if (Jobs == 1) {
      SerialHits = R.CacheHits;
      SerialMisses = R.CacheMisses;
    } else {
      EXPECT_EQ(R.CacheHits, SerialHits) << "jobs=" << Jobs;
      EXPECT_EQ(R.CacheMisses, SerialMisses) << "jobs=" << Jobs;
    }

    tv::CampaignOptions UncachedJobs = smallCampaign();
    UncachedJobs.UseVerdictCache = false;
    UncachedJobs.Jobs = Jobs;
    EXPECT_EQ(Baseline, tv::runCampaign(UncachedJobs).report())
        << "jobs=" << Jobs;
  }
}

TEST(VerdictCache, CampaignWarmReuseAcrossRuns) {
  tv::VerdictCache Shared;
  tv::CampaignOptions Opts = smallCampaign();
  Opts.Cache = &Shared;

  tv::CampaignResult Cold = tv::runCampaign(Opts);
  EXPECT_GT(Cold.CacheMisses, 0u);

  tv::CampaignResult Warm = tv::runCampaign(Opts);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.Functions);
  EXPECT_EQ(Cold.report(), Warm.report());

  // A different pipeline must not reuse these verdicts: every hit it gets
  // is one of its own intra-campaign isomorphic skips, and it has to
  // verify representatives afresh rather than warm-replaying them.
  tv::CampaignOptions Other = smallCampaign();
  Other.Cache = &Shared;
  Other.Passes = "dce";
  tv::CampaignResult Miss = tv::runCampaign(Other);
  EXPECT_EQ(Miss.CacheHits, Miss.IsomorphicSkips);
  EXPECT_GT(Miss.CacheMisses, 0u);
}

TEST(VerdictCache, MemoryCampaignParity) {
  // The memory space exercises globals in the canonical form and the
  // initmem sweep counters in replayed verdicts.
  tv::CampaignOptions Opts;
  Opts.Enum.NumInsts = 2;
  Opts.Enum.Width = 2;
  Opts.Enum.NumArgs = 1;
  Opts.Enum.WithUndef = true;
  Opts.Enum.WithMemory = true;
  Opts.Enum.MemBytes = 1;
  Opts.TV.CompareMemory = true;
  Opts.TV.EnumerateMemory = true;
  Opts.MaxFunctions = 300;
  Opts.ShardSize = 16;

  tv::CampaignOptions Uncached = Opts;
  Uncached.UseVerdictCache = false;
  std::string Baseline = tv::runCampaign(Uncached).report();

  for (unsigned Jobs : {1u, 8u}) {
    tv::CampaignOptions Cached = Opts;
    Cached.Jobs = Jobs;
    tv::CampaignResult R = tv::runCampaign(Cached);
    EXPECT_EQ(Baseline, R.report()) << "jobs=" << Jobs;
  }
}

} // namespace
