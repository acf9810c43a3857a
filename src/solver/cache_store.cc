#include "solver/cache_store.h"

#include <algorithm>
#include <charconv>

#include "support/strings.h"

namespace statsym::solver {

namespace {

void append_hex(std::string& out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  out.append(buf, 16);
}

// Fixed-width field: exactly 16 lowercase hex digits, nothing else. The
// strictness is deliberate — a corrupted character fails the parse instead
// of silently truncating the value.
bool parse_hex64(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  // from_chars accepts uppercase; the format is defined lowercase.
  for (const char c : s) {
    if (c >= 'A' && c <= 'F') return false;
  }
  out = v;
  return true;
}

std::string entry_line(const PortableCacheEntry& e) {
  std::string s = "e|";
  append_hex(s, e.key.hi);
  s += '|';
  append_hex(s, e.key.lo);
  s += '|';
  s += e.sat == Sat::kSat ? '0' : '1';
  s += '|';
  s += std::to_string(e.cs_fps.size());
  s += '|';
  for (std::size_t i = 0; i < e.cs_fps.size(); ++i) {
    if (i > 0) s += ' ';
    append_hex(s, e.cs_fps[i].hi);
    s += ' ';
    append_hex(s, e.cs_fps[i].lo);
  }
  s += '|';
  s += std::to_string(e.model.size());
  s += '|';
  for (std::size_t i = 0; i < e.model.size(); ++i) {
    if (i > 0) s += ' ';
    append_hex(s, e.model[i].first.hi);
    s += ' ';
    append_hex(s, e.model[i].first.lo);
    s += ' ';
    s += std::to_string(e.model[i].second);
  }
  s += '|';
  append_hex(s, fp_hash_str(s));  // checksum covers everything before it
  return s;
}

// Verifies the trailing checksum, then parses. Any deviation — wrong field
// count, non-numeric token, count/token mismatch, kUnknown sat — rejects
// the line; the caller drops it and the query re-solves.
bool parse_entry_line(const std::string& line, PortableCacheEntry& out) {
  const std::size_t bar = line.rfind('|');
  if (bar == std::string::npos || bar + 1 >= line.size()) return false;
  std::uint64_t crc = 0;
  if (!parse_hex64(std::string_view(line).substr(bar + 1), crc)) return false;
  if (fp_hash_str(std::string_view(line).substr(0, bar + 1)) != crc) {
    return false;
  }
  const auto fields = split(std::string_view(line).substr(0, bar), '|');
  if (fields.size() != 8 || fields[0] != "e") return false;
  PortableCacheEntry e;
  if (!parse_hex64(fields[1], e.key.hi) || !parse_hex64(fields[2], e.key.lo)) {
    return false;
  }
  if (fields[3] == "0") {
    e.sat = Sat::kSat;
  } else if (fields[3] == "1") {
    e.sat = Sat::kUnsat;
  } else {
    return false;  // kUnknown (or garbage) is never a cacheable verdict
  }
  std::size_t ncs = 0;
  std::size_t nmodel = 0;
  if (!parse_count(fields[4], ncs) || !parse_count(fields[6], nmodel)) {
    return false;
  }
  const auto cs_toks = fields[5].empty()
                           ? std::vector<std::string>{}
                           : split(fields[5], ' ');
  if (cs_toks.size() != ncs * 2) return false;
  e.cs_fps.resize(ncs);
  for (std::size_t i = 0; i < ncs; ++i) {
    if (!parse_hex64(cs_toks[2 * i], e.cs_fps[i].hi) ||
        !parse_hex64(cs_toks[2 * i + 1], e.cs_fps[i].lo)) {
      return false;
    }
  }
  const auto m_toks = fields[7].empty() ? std::vector<std::string>{}
                                        : split(fields[7], ' ');
  if (m_toks.size() != nmodel * 3) return false;
  e.model.resize(nmodel);
  for (std::size_t i = 0; i < nmodel; ++i) {
    std::int64_t val = 0;
    if (!parse_hex64(m_toks[3 * i], e.model[i].first.hi) ||
        !parse_hex64(m_toks[3 * i + 1], e.model[i].first.lo) ||
        !parse_i64(m_toks[3 * i + 2], val)) {
      return false;
    }
    e.model[i].second = val;
  }
  if (e.sat == Sat::kUnsat && nmodel != 0) return false;  // unsat has no model
  out = std::move(e);
  return true;
}

std::string block_header(const Fp128& program_fp, std::size_t n) {
  std::string s = "qcache|";
  append_hex(s, program_fp.hi);
  s += '|';
  append_hex(s, program_fp.lo);
  s += '|';
  s += std::to_string(n);
  return s;
}

bool parse_block_header(std::string_view line, Fp128& fp, std::size_t& n) {
  const auto fields = split(line, '|');
  return fields.size() == 4 && fields[0] == "qcache" &&
         parse_hex64(fields[1], fp.hi) && parse_hex64(fields[2], fp.lo) &&
         parse_count(fields[3], n);
}

bool fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

void note(std::string* error, const std::string& why) {
  if (error != nullptr && error->empty()) *error = why;
}

}  // namespace

std::string serialize_cache_block(const SharedQueryCache& cache,
                                  const Fp128& program_fp,
                                  CacheStoreStats* stats) {
  const std::vector<PortableCacheEntry> entries = cache.export_entries();
  std::string out = block_header(program_fp, entries.size());
  out += '\n';
  for (const PortableCacheEntry& e : entries) {
    out += entry_line(e);
    out += '\n';
  }
  out += "endqcache\n";
  if (stats != nullptr) {
    ++stats->blocks;
    stats->entries_written += entries.size();
    stats->bytes += out.size();
  }
  return out;
}

bool deserialize_cache_block(const std::string& text, Fp128& program_fp_out,
                             SharedQueryCache& out, CacheStoreStats* stats,
                             std::string* error) {
  CacheStoreStats local;
  CacheStoreStats& st = stats != nullptr ? *stats : local;
  const auto lines = split(text, '\n');
  std::size_t at = 0;
  while (at < lines.size() && trim(lines[at]).empty()) ++at;
  if (at >= lines.size()) return fail(error, "qcache: missing header line");
  Fp128 fp;
  std::size_t declared = 0;
  if (!parse_block_header(trim(lines[at]), fp, declared)) {
    return fail(error, "qcache: malformed header (want "
                       "'qcache|<fp.hi>|<fp.lo>|<num_entries>')");
  }
  ++at;
  ++st.blocks;
  std::size_t seen = 0;
  bool closed = false;
  for (; at < lines.size(); ++at) {
    const std::string_view line = trim(lines[at]);
    if (line.empty()) continue;
    if (line == "endqcache") {
      closed = true;
      ++at;
      break;
    }
    ++seen;
    PortableCacheEntry e;
    if (parse_entry_line(std::string(line), e)) {
      out.import_entry(e);
      ++st.entries_loaded;
    } else {
      ++st.entries_rejected;
    }
  }
  if (!closed) note(error, "qcache: missing 'endqcache' trailer (truncated)");
  if (seen < declared) {
    st.entries_rejected += declared - seen;  // truncated away entirely
    note(error, "qcache: header declares " + std::to_string(declared) +
                    " entries but block holds " + std::to_string(seen));
  }
  st.bytes += text.size();
  program_fp_out = fp;
  return true;
}

std::string serialize_store(std::span<const StoreBlockRef> blocks,
                            CacheStoreStats* stats) {
  std::string out = "qstore|" + std::to_string(kCacheStoreVersion) + "|" +
                    std::to_string(blocks.size()) + "\n";
  for (const StoreBlockRef& b : blocks) {
    out += serialize_cache_block(*b.cache, b.program_fp, stats);
  }
  out += "endqstore\n";
  if (stats != nullptr) stats->bytes = out.size();
  return out;
}

bool load_store_text(
    const std::string& text,
    const std::function<SharedQueryCache&(const Fp128&)>& cache_for,
    CacheStoreStats* stats, std::string* error) {
  CacheStoreStats local;
  CacheStoreStats& st = stats != nullptr ? *stats : local;
  const auto lines = split(text, '\n');
  std::size_t at = 0;
  while (at < lines.size() && trim(lines[at]).empty()) ++at;
  if (at >= lines.size()) return fail(error, "qstore: missing header line");

  // Store-level framing is strict: guessing at an unknown layout could
  // admit entries whose meaning changed between versions.
  const auto header = split(trim(lines[at]), '|');
  std::size_t declared_blocks = 0;
  std::int64_t version = 0;
  if (header.size() != 3 || header[0] != "qstore" ||
      !parse_i64(header[1], version) ||
      !parse_count(header[2], declared_blocks)) {
    return fail(error, "qstore: malformed header (want "
                       "'qstore|<version>|<num_blocks>')");
  }
  if (version != kCacheStoreVersion) {
    return fail(error, "qstore: unsupported store version " +
                           std::to_string(version) + " (this build reads "
                           "version " +
                           std::to_string(kCacheStoreVersion) + ")");
  }
  ++at;

  // Block loop. Entry corruption is absorbed per line; structural damage
  // (a block header that does not parse) ends the load with the verified
  // prefix intact — everything already imported passed its checksum.
  bool closed = false;
  std::size_t blocks_seen = 0;
  while (at < lines.size()) {
    const std::string_view line = trim(lines[at]);
    if (line.empty()) {
      ++at;
      continue;
    }
    if (line == "endqstore") {
      closed = true;
      ++at;
      break;
    }
    Fp128 fp;
    std::size_t declared = 0;
    if (!parse_block_header(line, fp, declared)) {
      note(error, "qstore: malformed block header mid-store (kept the "
                  "verified prefix)");
      break;
    }
    ++at;
    ++blocks_seen;
    ++st.blocks;
    SharedQueryCache& cache = cache_for(fp);
    std::size_t seen = 0;
    bool block_closed = false;
    for (; at < lines.size(); ++at) {
      const std::string_view el = trim(lines[at]);
      if (el.empty()) continue;
      if (el == "endqcache") {
        block_closed = true;
        ++at;
        break;
      }
      if (el == "endqstore" || starts_with(el, "qcache|")) break;
      ++seen;
      PortableCacheEntry e;
      if (parse_entry_line(std::string(el), e)) {
        cache.import_entry(e);
        ++st.entries_loaded;
      } else {
        ++st.entries_rejected;
      }
    }
    if (!block_closed) {
      note(error, "qstore: block missing 'endqcache' trailer (truncated)");
    }
    if (seen < declared) {
      st.entries_rejected += declared - seen;
      note(error, "qstore: block declares " + std::to_string(declared) +
                      " entries but holds " + std::to_string(seen));
    }
  }
  if (!closed) note(error, "qstore: missing 'endqstore' trailer (truncated)");
  if (blocks_seen < declared_blocks) {
    note(error, "qstore: header declares " + std::to_string(declared_blocks) +
                    " blocks but file holds " + std::to_string(blocks_seen));
  }
  st.bytes += text.size();
  return true;
}

}  // namespace statsym::solver
