//===- VerdictCache.h - Incremental TV verdict cache ------------*- C++ -*-===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict-reuse layer behind `frost-tv --cache-file` and the campaign
/// engine's intra-campaign isomorphism dedup: a sharded, striped-lock
/// in-memory map from (structural hash of the canonical function form,
/// fingerprint of the campaign configuration) to a cached verdict — status,
/// changed flag, the refinement counters, the counterexample message, and
/// the blamed pass/stage. Because every cached field is derived from the
/// *canonical* form (value names never appear in checker messages), a
/// verdict computed for one member of an isomorphism class replays
/// byte-identically for every other member, which is what preserves the
/// campaign engine's byte-identical-report-at-any---jobs contract.
///
/// A hash hit is never trusted blindly: each entry carries its canonical
/// text and lookup() confirms it against the probe's before returning
/// (mismatches count as tv.cache_collisions and fall through to a miss).
///
/// lookup() is single-flight: the first lookup of a (key, canonical text)
/// pair that misses claims the pair, and every concurrent lookup of the
/// same pair waits for the owner's verdict instead of verifying the class
/// again. So each isomorphism class is checked once, and the hit/miss
/// counters come out the same at any --jobs and for overlapping daemon
/// requests.
///
/// The cache round-trips through a versioned on-disk format (load() /
/// save()); save() writes atomically (temp file + rename) with entries in
/// deterministic order. Corrupt or version-mismatched files fail load()
/// with a diagnostic — drivers treat that as a hard usage error rather
/// than silently ignoring the cache.
///
//===----------------------------------------------------------------------===//

#ifndef FROST_TV_VERDICTCACHE_H
#define FROST_TV_VERDICTCACHE_H

#include "ir/StructuralHash.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace frost {

class Function;

namespace tv {

/// Cache key: what function (canonical form) was validated under which
/// campaign configuration (pipeline text, semantics, TV options — see
/// campaignConfigFingerprint in Campaign.h).
struct VerdictKey {
  StructuralHash Hash;
  uint64_t ConfigFP = 0;

  bool operator==(const VerdictKey &) const = default;
};

/// Everything the campaign engine books per function, in member-independent
/// form: replaying a CachedVerdict for an isomorph produces the same report
/// bytes as verifying it would have.
struct CachedVerdict {
  enum Status : uint8_t { Valid = 0, Invalid = 1, Inconclusive = 2 };

  Status St = Valid;
  /// Pipeline modified the verified member. Informational: the campaign
  /// never replays it (Changed is per-member — passes can canonicalize one
  /// commutative operand order and not another — so each member reruns the
  /// cheap pipeline itself).
  bool Changed = false;
  uint64_t InputsChecked = 0;
  uint64_t PathsExplored = 0;
  std::string Message;           ///< Checker diagnostic (empty when valid).
  std::string BlamedPass;        ///< Culprit pass / backend stage.
  std::string CanonText;         ///< Canonical form, for collision checks.
  bool FromDisk = false;         ///< Loaded by load(), not inserted this run.
};

/// Sharded striped-lock verdict map. Thread-safe; every operation takes
/// only its shard's lock (save() takes them one at a time).
class VerdictCache {
public:
  explicit VerdictCache(unsigned ShardCount = 64);

  /// Finds the entry for \p K whose canonical text equals \p CanonText.
  /// On success fills \p Out and bumps tv.cache_hits (and
  /// tv.isomorphic_skips when the entry was inserted during this process,
  /// i.e. not loaded from disk). Every same-key entry whose canonical text
  /// differs bumps tv.cache_collisions.
  ///
  /// Single-flight: if another thread holds the claim on (\p K,
  /// \p CanonText), bumps tv.cache_waits once and blocks until that claim
  /// ends: on insert() the owner's verdict is returned as a hit (and an
  /// isomorphic skip); on release() this thread retries and may claim the
  /// pair itself. Otherwise the lookup is a miss: it bumps
  /// tv.cache_misses, claims the pair for the calling thread and returns
  /// false. The owner of a claim must end it with insert() or release(),
  /// and must not wait on another claim while it holds one — that is what
  /// makes waiting deadlock-free.
  bool lookup(const VerdictKey &K, const std::string &CanonText,
              CachedVerdict &Out);

  /// Inserts a verdict for \p K. First writer wins: if an entry with the
  /// same key and canonical text already exists, the cache is unchanged
  /// (entries for one class are member-independent, so the values agree).
  /// Ends any claim on (\p K, V.CanonText) and wakes its waiters.
  void insert(const VerdictKey &K, CachedVerdict V);

  /// Ends a claim on (\p K, \p CanonText) without publishing a verdict
  /// (the owner failed, e.g. threw). Waiters wake and one of them claims
  /// the pair. A no-op when the pair is not claimed, so it is safe to call
  /// after insert().
  void release(const VerdictKey &K, const std::string &CanonText);

  /// Total entries across all shards.
  uint64_t size() const;

  //===--------------------------------------------------------------------===//
  // On-disk format (version FileVersion)
  //
  //   frost-verdict-cache v<N>
  //   <entry count>
  //   entry <configfp:16hex> <hash:32hex> <status> <changed> <inputs>
  //         <paths> <canon-len> <msg-len> <blame-len>
  //   <canon bytes>\n<msg bytes>\n<blame bytes>\n
  //===--------------------------------------------------------------------===//

  static constexpr const char *FileMagic = "frost-verdict-cache";
  static constexpr unsigned FileVersion = 1;

  /// Merges the file at \p Path into the cache, marking entries FromDisk.
  /// Returns false (cache unchanged or partially merged is avoided: parsing
  /// is completed into a staging list first) with \p Error set on a
  /// missing, corrupt, or version-mismatched file.
  bool load(const std::string &Path, std::string *Error = nullptr);

  /// Writes every entry to \p Path atomically (support/AtomicFile.h: a
  /// uniquely named temp file — pid + counter, safe under concurrent savers
  /// sharing one destination — fsync'd, then renamed into place), in
  /// deterministic (key-sorted) order. The snapshot is copied one shard at
  /// a time, so lookups elsewhere never stall behind a persist; entries are
  /// insert-only, so the copy is still a set of valid verdicts. Returns
  /// false with \p Error on I/O failure; no temp file is left behind.
  bool save(const std::string &Path, std::string *Error = nullptr) const;

private:
  struct Entry {
    VerdictKey Key;
    CachedVerdict V;
  };
  struct Claim {
    VerdictKey Key;
    std::string CanonText;
  };
  struct Shard {
    mutable std::mutex M;
    // Bucketed by the 64-bit mixed key; each bucket holds the (rare)
    // same-mix entries which are disambiguated by full key + canonical
    // text.
    std::unordered_map<uint64_t, std::vector<Entry>> Map;
    /// Pairs being verified right now (at most one per worker thread).
    std::vector<Claim> Claims;
    /// Notified whenever a claim ends.
    std::condition_variable ClaimEnded;
  };

  /// The entry for (\p K, \p CanonText) in \p S, or null. Bumps
  /// tv.cache_collisions per same-key entry with another canonical text
  /// when \p CountCollisions. Requires S.M.
  static const Entry *findLocked(const Shard &S, uint64_t Mixed,
                                 const VerdictKey &K,
                                 const std::string &CanonText,
                                 bool CountCollisions);
  /// Drops the claim on (\p K, \p CanonText) from \p S and wakes its
  /// waiters. Requires S.M.
  static void endClaimLocked(Shard &S, const VerdictKey &K,
                             const std::string &CanonText);

  static uint64_t mix(const VerdictKey &K) {
    uint64_t H = K.Hash.Lo ^ (K.Hash.Hi * 0x9e3779b97f4a7c15ull) ^
                 (K.ConfigFP * 0xc4ceb9fe1a85ec53ull);
    H ^= H >> 31;
    return H;
  }
  Shard &shardFor(uint64_t Mixed) const {
    return Shards[Mixed % Shards.size()];
  }

  mutable std::vector<Shard> Shards;
};

} // namespace tv
} // namespace frost

#endif // FROST_TV_VERDICTCACHE_H
