//===- VerdictCache.cpp - Incremental TV verdict cache --------------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "tv/VerdictCache.h"

#include "support/AtomicFile.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace frost;
using namespace frost::tv;

VerdictCache::VerdictCache(unsigned ShardCount)
    : Shards(ShardCount ? ShardCount : 1) {}

namespace {

void countHit(const CachedVerdict &V) {
  stats::add("tv.cache_hits");
  if (!V.FromDisk)
    stats::add("tv.isomorphic_skips");
}

} // namespace

const VerdictCache::Entry *
VerdictCache::findLocked(const Shard &S, uint64_t Mixed, const VerdictKey &K,
                         const std::string &CanonText, bool CountCollisions) {
  auto It = S.Map.find(Mixed);
  if (It == S.Map.end())
    return nullptr;
  for (const Entry &E : It->second) {
    if (!(E.Key == K))
      continue;
    if (E.V.CanonText == CanonText)
      return &E;
    // Same 128-bit hash + config, different canonical text: a true
    // structural-hash collision. Never trust it.
    if (CountCollisions)
      stats::add("tv.cache_collisions");
  }
  return nullptr;
}

void VerdictCache::endClaimLocked(Shard &S, const VerdictKey &K,
                                  const std::string &CanonText) {
  for (auto It = S.Claims.begin(); It != S.Claims.end(); ++It)
    if (It->Key == K && It->CanonText == CanonText) {
      S.Claims.erase(It);
      S.ClaimEnded.notify_all();
      return;
    }
}

bool VerdictCache::lookup(const VerdictKey &K, const std::string &CanonText,
                          CachedVerdict &Out) {
  uint64_t Mixed = mix(K);
  Shard &S = shardFor(Mixed);
  std::unique_lock<std::mutex> Lock(S.M);
  auto Claimed = [&] {
    for (const Claim &C : S.Claims)
      if (C.Key == K && C.CanonText == CanonText)
        return true;
    return false;
  };
  // Collisions and the wait are counted on the first probe only, so a
  // lookup that had to wait is booked once however often it wakes (every
  // claim in the shard ends with a notify_all on the one condition).
  for (bool First = true, Waited = false;; First = false) {
    if (const Entry *E = findLocked(S, Mixed, K, CanonText, First)) {
      Out = E->V;
      countHit(E->V);
      return true;
    }
    if (!Claimed())
      break;
    if (!Waited)
      stats::add("tv.cache_waits");
    Waited = true;
    S.ClaimEnded.wait(Lock);
  }
  S.Claims.push_back({K, CanonText});
  stats::add("tv.cache_misses");
  return false;
}

void VerdictCache::insert(const VerdictKey &K, CachedVerdict V) {
  uint64_t Mixed = mix(K);
  Shard &S = shardFor(Mixed);
  std::lock_guard<std::mutex> Lock(S.M);
  endClaimLocked(S, K, V.CanonText);
  std::vector<Entry> &Bucket = S.Map[Mixed];
  for (const Entry &E : Bucket)
    if (E.Key == K && E.V.CanonText == V.CanonText)
      return; // First writer wins; duplicates carry identical verdicts.
  Bucket.push_back({K, std::move(V)});
}

void VerdictCache::release(const VerdictKey &K, const std::string &CanonText) {
  Shard &S = shardFor(mix(K));
  std::lock_guard<std::mutex> Lock(S.M);
  endClaimLocked(S, K, CanonText);
}

uint64_t VerdictCache::size() const {
  uint64_t N = 0;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &[Mixed, Bucket] : S.Map)
      N += Bucket.size();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// On-disk format
//===----------------------------------------------------------------------===//

namespace {

void setError(std::string *Error, std::string Msg) {
  if (Error)
    *Error = std::move(Msg);
}

/// Reads exactly \p Len bytes followed by a newline separator.
bool readBlob(std::istream &In, size_t Len, std::string &Out) {
  Out.resize(Len);
  if (Len && !In.read(Out.data(), (std::streamsize)Len))
    return false;
  return In.get() == '\n';
}

} // namespace

bool VerdictCache::load(const std::string &Path, std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    setError(Error, "cannot open cache file '" + Path + "'");
    return false;
  }

  std::string Magic;
  std::string Version;
  if (!(In >> Magic >> Version) || Magic != FileMagic) {
    setError(Error, "'" + Path + "' is not a frost verdict cache");
    return false;
  }
  if (Version != "v" + std::to_string(FileVersion)) {
    setError(Error, "cache file '" + Path + "' has version " + Version +
                        ", expected v" + std::to_string(FileVersion));
    return false;
  }
  uint64_t Count = 0;
  if (!(In >> Count)) {
    setError(Error, "cache file '" + Path + "': missing entry count");
    return false;
  }

  // Parse everything into a staging list first so a corrupt tail cannot
  // leave the cache half-merged.
  std::vector<Entry> Staged;
  Staged.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    std::string Tag, HashHex;
    uint64_t ConfigFP, Status, Changed, Inputs, Paths;
    uint64_t CanonLen, MsgLen, BlameLen;
    if (!(In >> Tag >> std::hex >> ConfigFP >> std::dec >> HashHex >>
          Status >> Changed >> Inputs >> Paths >> CanonLen >> MsgLen >>
          BlameLen) ||
        Tag != "entry" || Status > CachedVerdict::Inconclusive ||
        Changed > 1) {
      setError(Error, "cache file '" + Path + "': corrupt entry " +
                          std::to_string(I) + " header");
      return false;
    }
    Entry E;
    if (!StructuralHash::fromString(HashHex, E.Key.Hash)) {
      setError(Error, "cache file '" + Path + "': corrupt hash in entry " +
                          std::to_string(I));
      return false;
    }
    E.Key.ConfigFP = ConfigFP;
    E.V.St = (CachedVerdict::Status)Status;
    E.V.Changed = Changed != 0;
    E.V.InputsChecked = Inputs;
    E.V.PathsExplored = Paths;
    E.V.FromDisk = true;
    // The header line ends with a newline before the first blob.
    if (In.get() != '\n' || !readBlob(In, CanonLen, E.V.CanonText) ||
        !readBlob(In, MsgLen, E.V.Message) ||
        !readBlob(In, BlameLen, E.V.BlamedPass)) {
      setError(Error, "cache file '" + Path + "': truncated entry " +
                          std::to_string(I));
      return false;
    }
    Staged.push_back(std::move(E));
  }

  for (Entry &E : Staged)
    insert(E.Key, std::move(E.V));
  return true;
}

bool VerdictCache::save(const std::string &Path, std::string *Error) const {
  // Snapshot one shard at a time, then sort so the file is deterministic
  // regardless of insertion order or shard layout. Entries are never
  // modified or removed, so the copy needs no global lock.
  std::vector<Entry> All;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &[Mixed, Bucket] : S.Map)
      All.insert(All.end(), Bucket.begin(), Bucket.end());
  }
  std::sort(All.begin(), All.end(), [](const Entry &A, const Entry &B) {
    if (A.Key.ConfigFP != B.Key.ConfigFP)
      return A.Key.ConfigFP < B.Key.ConfigFP;
    if (!(A.Key.Hash == B.Key.Hash))
      return A.Key.Hash.str() < B.Key.Hash.str();
    return A.V.CanonText < B.V.CanonText;
  });

  // Render to memory, then hand off to writeFileAtomic: the staging file
  // gets a per-process/per-call unique name (so concurrent savers — the
  // daemon's periodic persist racing a CLI run on the same --cache-file —
  // never clobber each other's temp), is fsync'd before the rename, and is
  // unlinked on every error path.
  std::ostringstream Out;
  Out << FileMagic << " v" << FileVersion << "\n" << All.size() << "\n";
  char FP[17];
  for (const Entry &E : All) {
    std::snprintf(FP, sizeof(FP), "%016llx",
                  (unsigned long long)E.Key.ConfigFP);
    Out << "entry " << FP << " " << E.Key.Hash.str() << " "
        << (unsigned)E.V.St << " " << (E.V.Changed ? 1 : 0) << " "
        << E.V.InputsChecked << " " << E.V.PathsExplored << " "
        << E.V.CanonText.size() << " " << E.V.Message.size() << " "
        << E.V.BlamedPass.size() << "\n"
        << E.V.CanonText << "\n"
        << E.V.Message << "\n"
        << E.V.BlamedPass << "\n";
  }
  std::string AtomicError;
  if (!writeFileAtomic(Path, Out.str(), &AtomicError)) {
    setError(Error, "cache file '" + Path + "': " + AtomicError);
    return false;
  }
  return true;
}
