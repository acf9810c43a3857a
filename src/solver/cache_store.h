// Disk-backed save/load for the shared solver query cache (the persistence
// layer behind `statsym serve`'s cross-run warm starts).
//
// The store is a versioned, line-delimited text format: one program block per
// analysed module, keyed by that module's 128-bit structural fingerprint,
// holding the program's PortableCacheEntry set. Every entry line carries its
// own checksum and is verified on load — a bit-flipped, truncated or otherwise
// unparseable entry is *dropped* (it will miss and be re-solved), never
// admitted, so a corrupted store can cost work but never cross-wire a verdict.
// That is the same contract QueryCache enforces for 64-bit key collisions,
// extended to bytes that crossed a filesystem.
//
// Whole-store failures are stricter: an unknown store format version or a
// malformed store header rejects the entire file (cold start with a clear
// error) instead of guessing at its layout.
//
//   qstore|<version>|<num_blocks>
//   qcache|<prog_fp.hi hex16>|<prog_fp.lo hex16>|<num_entries>
//   e|<key.hi>|<key.lo>|<sat>|<ncs>|<cs fp pairs>|<nmodel>|<fp pair=val>|<crc>
//   ...
//   endqcache
//   ...
//   endqstore
//
// All fingerprint halves are fixed-width lowercase hex; <sat> is 0 (sat) or
// 1 (unsat) — kUnknown results are never published to the shared cache and
// are refused on load; <crc> is FNV-1a64 over the entry line up to and
// including the '|' that precedes it.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "solver/cache.h"

namespace statsym::solver {

// Bump when the store layout changes shape. Readers accept exactly the
// versions they understand (currently: only this one).
inline constexpr std::uint32_t kCacheStoreVersion = 1;

struct CacheStoreStats {
  std::size_t blocks{0};            // program blocks written / parsed
  std::size_t entries_written{0};
  std::size_t entries_loaded{0};    // verified and imported
  std::size_t entries_rejected{0};  // failed checksum / parse (poisoned)
  std::size_t bytes{0};             // serialized size handled
};

// --- single program block --------------------------------------------------

// Serialises one cache's entries under `program_fp` (export_entries order,
// so equal caches produce equal bytes).
std::string serialize_cache_block(const SharedQueryCache& cache,
                                  const Fp128& program_fp,
                                  CacheStoreStats* stats = nullptr);

// Parses one block. The block header must be well-formed (else false with a
// reason); individual entry lines are verified independently and dropped on
// any mismatch, counted in stats->entries_rejected. `program_fp_out`
// receives the block's program fingerprint.
bool deserialize_cache_block(const std::string& text, Fp128& program_fp_out,
                             SharedQueryCache& out,
                             CacheStoreStats* stats = nullptr,
                             std::string* error = nullptr);

// --- whole store (many programs) ------------------------------------------

struct StoreBlockRef {
  Fp128 program_fp;
  const SharedQueryCache* cache{nullptr};
};

// Serialises the full program-fingerprint-keyed store. Callers pass blocks
// in a deterministic order (the serve session sorts by fingerprint).
std::string serialize_store(std::span<const StoreBlockRef> blocks,
                            CacheStoreStats* stats = nullptr);

// Loads a full store. `cache_for(program_fp)` returns the cache to populate
// for each block (creating it on demand). The store header/trailer and every
// block header must parse and the version must match, else the load fails
// whole (cold start); entry-level corruption only drops the poisoned
// entries. A truncated store (missing trailer or blocks) loads the verified
// prefix and reports the loss through `error` while still returning true —
// warm entries already verified are good regardless of what followed them.
bool load_store_text(
    const std::string& text,
    const std::function<SharedQueryCache&(const Fp128&)>& cache_for,
    CacheStoreStats* stats = nullptr, std::string* error = nullptr);

}  // namespace statsym::solver
