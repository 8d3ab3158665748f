#include "encoding/codec.h"

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"
#include "common/env.h"
#include "encoding/bit_packing.h"

namespace payg {

namespace {

// Payload bytes of `n` plain-packed values: whole chunks plus the spare
// word that keeps the kernels' unaligned 8-byte window inside the buffer.
uint32_t PlainPayloadBytes(uint64_t n, uint32_t bits) {
  return static_cast<uint32_t>(CeilDiv(n, kChunkValues) * ChunkBytes(bits) +
                               sizeof(uint64_t));
}

const PackedKernels& Tier(const CodecPageView& v) {
  return v.kernels != nullptr ? *v.kernels : ActiveKernels();
}

// --- plain -----------------------------------------------------------------

ValueId PlainGet(const CodecPageView& v, uint64_t idx) {
  return static_cast<ValueId>(PackedGet(v.words, v.params.bits, idx));
}

void PlainMGet(const CodecPageView& v, uint64_t from, uint64_t to,
               uint32_t* out) {
  Tier(v).mget[v.params.bits](v.words, from, to, out);
}

void PlainSearchEq(const CodecPageView& v, uint64_t from, uint64_t to,
                   ValueId vid, RowPos base, std::vector<RowPos>* out) {
  if (vid > LowMask(v.params.bits)) return;  // wider than any stored value
  Tier(v).search_eq[v.params.bits](v.words, from, to, vid, base, out);
}

void PlainSearchRange(const CodecPageView& v, uint64_t from, uint64_t to,
                      ValueId lo, ValueId hi, RowPos base,
                      std::vector<RowPos>* out) {
  const uint64_t mask = LowMask(v.params.bits);
  if (lo > hi || lo > mask) return;
  Tier(v).search_range[v.params.bits](v.words, from, to, lo,
                                      std::min<uint64_t>(hi, mask), base, out);
}

void PlainSearchIn(const CodecPageView& v, uint64_t from, uint64_t to,
                   const std::vector<ValueId>& sorted_vids, RowPos base,
                   std::vector<RowPos>* out) {
  const uint64_t mask = LowMask(v.params.bits);
  const PackedKernels& t = Tier(v);
  if (sorted_vids.back() <= mask) {
    t.search_in[v.params.bits](v.words, from, to, sorted_vids, base, out);
    return;
  }
  std::vector<ValueId> trimmed(
      sorted_vids.begin(),
      std::upper_bound(sorted_vids.begin(), sorted_vids.end(),
                       static_cast<ValueId>(mask)));
  if (trimmed.empty()) return;
  t.search_in[v.params.bits](v.words, from, to, trimmed, base, out);
}

// --- FOR -------------------------------------------------------------------
// The payload is plain-packed residuals (vid - base), so every kernel is the
// plain kernel with the predicate translated into residual space and the
// decode output translated back.

ValueId ForGet(const CodecPageView& v, uint64_t idx) {
  return static_cast<ValueId>(PackedGet(v.words, v.params.bits, idx) +
                              v.params.for_base);
}

void ForMGet(const CodecPageView& v, uint64_t from, uint64_t to,
             uint32_t* out) {
  Tier(v).mget[v.params.bits](v.words, from, to, out);
  const ValueId base = v.params.for_base;
  for (uint64_t i = 0; i < to - from; ++i) out[i] += base;
}

void ForSearchEq(const CodecPageView& v, uint64_t from, uint64_t to,
                 ValueId vid, RowPos base, std::vector<RowPos>* out) {
  if (vid < v.params.for_base) return;
  const uint64_t residual = vid - v.params.for_base;
  if (residual > LowMask(v.params.bits)) return;
  Tier(v).search_eq[v.params.bits](v.words, from, to, residual, base, out);
}

void ForSearchRange(const CodecPageView& v, uint64_t from, uint64_t to,
                    ValueId lo, ValueId hi, RowPos base,
                    std::vector<RowPos>* out) {
  if (lo > hi || hi < v.params.for_base) return;
  const uint64_t mask = LowMask(v.params.bits);
  const uint64_t rlo = lo <= v.params.for_base ? 0 : lo - v.params.for_base;
  if (rlo > mask) return;
  const uint64_t rhi = std::min<uint64_t>(hi - v.params.for_base, mask);
  Tier(v).search_range[v.params.bits](v.words, from, to, rlo, rhi, base, out);
}

void ForSearchIn(const CodecPageView& v, uint64_t from, uint64_t to,
                 const std::vector<ValueId>& sorted_vids, RowPos base,
                 std::vector<RowPos>* out) {
  // Translate the probe set into residual space: drop probes below the
  // frame base, stop at the first probe whose residual exceeds the packed
  // width (the input is sorted, so everything after it is out of frame
  // too). What survives is still sorted and unique, so the plain-tier
  // search_in kernel runs unchanged on the residual image.
  const uint64_t mask = LowMask(v.params.bits);
  const ValueId fbase = v.params.for_base;
  std::vector<ValueId> residuals;
  residuals.reserve(sorted_vids.size());
  for (ValueId vid : sorted_vids) {
    if (vid < fbase) continue;
    const uint64_t r = vid - fbase;
    if (r > mask) break;
    residuals.push_back(static_cast<ValueId>(r));
  }
  if (residuals.empty()) return;
  Tier(v).search_in[v.params.bits](v.words, from, to, residuals, base, out);
}

// --- RLE -------------------------------------------------------------------
// Page image: u32 run_ends[R] (cumulative page-local positions,
// run_ends[R-1] == n), padded to 8 bytes, then the R run values packed at
// the plain width (+1 spare word). aux2 == kRleEscapeAux marks a page that
// was stored plain because its run catalog would not fit.

struct RleImage {
  const uint32_t* ends;
  const uint64_t* vals;
  uint32_t runs;
};

RleImage RleOf(const CodecPageView& v) {
  const uint32_t runs = v.aux2;
  return RleImage{reinterpret_cast<const uint32_t*>(v.words),
                  v.words + AlignUp(uint64_t{4} * runs, 8) / 8, runs};
}

// Index of the run containing page-local position `pos`.
uint32_t RleRunOf(const RleImage& r, uint64_t pos) {
  return static_cast<uint32_t>(
      std::upper_bound(r.ends, r.ends + r.runs, static_cast<uint32_t>(pos)) -
      r.ends);
}

ValueId RleGet(const CodecPageView& v, uint64_t idx) {
  if (v.aux2 == kRleEscapeAux) return PlainGet(v, idx);
  const RleImage r = RleOf(v);
  return static_cast<ValueId>(
      PackedGet(r.vals, v.params.bits, RleRunOf(r, idx)));
}

void RleMGet(const CodecPageView& v, uint64_t from, uint64_t to,
             uint32_t* out) {
  if (v.aux2 == kRleEscapeAux) {
    PlainMGet(v, from, to, out);
    return;
  }
  if (from >= to) return;
  const RleImage r = RleOf(v);
  uint64_t pos = from;
  for (uint32_t run = RleRunOf(r, from); pos < to; ++run) {
    const uint64_t end = std::min<uint64_t>(r.ends[run], to);
    const uint32_t val =
        static_cast<uint32_t>(PackedGet(r.vals, v.params.bits, run));
    std::fill(out + (pos - from), out + (end - from), val);
    pos = end;
  }
}

// Run-skipping search: touch each overlapping run once, append whole
// position ranges for matching runs (O(runs), not O(rows)).
template <typename Match>
void RleScanRuns(const CodecPageView& v, uint64_t from, uint64_t to,
                 RowPos base, std::vector<RowPos>* out, Match match) {
  const RleImage r = RleOf(v);
  uint64_t pos = from;
  for (uint32_t run = RleRunOf(r, from); pos < to; ++run) {
    const uint64_t end = std::min<uint64_t>(r.ends[run], to);
    if (match(PackedGet(r.vals, v.params.bits, run))) {
      for (uint64_t p = pos; p < end; ++p) {
        out->push_back(base + static_cast<RowPos>(p - from));
      }
    }
    pos = end;
  }
}

void RleSearchEq(const CodecPageView& v, uint64_t from, uint64_t to,
                 ValueId vid, RowPos base, std::vector<RowPos>* out) {
  if (v.aux2 == kRleEscapeAux) {
    PlainSearchEq(v, from, to, vid, base, out);
    return;
  }
  if (from >= to) return;
  RleScanRuns(v, from, to, base, out,
              [vid](uint64_t x) { return x == vid; });
}

void RleSearchRange(const CodecPageView& v, uint64_t from, uint64_t to,
                    ValueId lo, ValueId hi, RowPos base,
                    std::vector<RowPos>* out) {
  if (v.aux2 == kRleEscapeAux) {
    PlainSearchRange(v, from, to, lo, hi, base, out);
    return;
  }
  if (from >= to || lo > hi) return;
  RleScanRuns(v, from, to, base, out,
              [lo, hi](uint64_t x) { return x >= lo && x <= hi; });
}

void RleSearchIn(const CodecPageView& v, uint64_t from, uint64_t to,
                 const std::vector<ValueId>& sorted_vids, RowPos base,
                 std::vector<RowPos>* out) {
  if (v.aux2 == kRleEscapeAux) {
    PlainSearchIn(v, from, to, sorted_vids, base, out);
    return;
  }
  if (from >= to) return;
  // Run-catalog skipping: one binary search of the probe set per run, not
  // per row — O(runs × log probes) regardless of run length.
  RleScanRuns(v, from, to, base, out, [&sorted_vids](uint64_t x) {
    return std::binary_search(sorted_vids.begin(), sorted_vids.end(),
                              static_cast<ValueId>(x));
  });
}

}  // namespace

const char* CodecName(CodecId id) {
  switch (id) {
    case CodecId::kPlain:
      return "plain";
    case CodecId::kFor:
      return "for";
    case CodecId::kRle:
      return "rle";
  }
  return "unknown";
}

CodecForce ForcedCodec() {
  static const CodecForce force = [] {
    const char* s = EnvRaw("PAYG_FORCE_CODEC");
    if (s == nullptr) return CodecForce::kAuto;
    if (std::strcmp(s, "plain") == 0) return CodecForce::kPlain;
    if (std::strcmp(s, "for") == 0) return CodecForce::kFor;
    if (std::strcmp(s, "rle") == 0) return CodecForce::kRle;
    return CodecForce::kAuto;  // "auto" and unrecognized values
  }();
  return force;
}

uint64_t CodecSampleRows() {
  static const long rows =
      EnvLong("PAYG_CODEC_SAMPLE_ROWS", 64, 1L << 30, 65536);
  return static_cast<uint64_t>(rows);
}

CodecChoice MakeCodecChoice(CodecId id, const std::vector<ValueId>& vids) {
  ValueId mn = 0, mx = 0;
  if (!vids.empty()) {
    mn = kInvalidValueId;
    for (ValueId v : vids) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  CodecChoice choice;
  choice.id = id;
  switch (id) {
    case CodecId::kPlain:
    case CodecId::kRle:
      choice.params.bits = BitsNeeded(mx);
      break;
    case CodecId::kFor:
      choice.params.for_base = mn;
      choice.params.bits = BitsNeeded(mx - mn);
      break;
  }
  return choice;
}

CodecChoice ChooseCodec(const std::vector<ValueId>& vids) {
  if (vids.empty()) return MakeCodecChoice(CodecId::kPlain, vids);
  ValueId mn = kInvalidValueId, mx = 0;
  for (ValueId v : vids) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const uint32_t bits_plain = BitsNeeded(mx);
  const uint32_t bits_for = BitsNeeded(mx - mn);

  // Run density from sampled adjacent pairs (PAYG_CODEC_SAMPLE_ROWS caps
  // the sample; min/max above are exact — the FOR base must be the true
  // minimum or residuals would underflow).
  const uint64_t pairs = vids.size() - 1;
  const uint64_t sample = std::min(pairs, CodecSampleRows());
  double runs_per_row = 1.0;
  if (sample > 0) {
    const uint64_t stride = pairs / sample;
    uint64_t transitions = 0, seen = 0;
    for (uint64_t i = 0; seen < sample && i < pairs; i += stride, ++seen) {
      transitions += vids[i] != vids[i + 1] ? 1 : 0;
    }
    runs_per_row = static_cast<double>(transitions + 1) /
                   static_cast<double>(seen + 1);
  }

  // Cost = effective bits per row × relative scan cost. Plain and FOR scan
  // every row (factor 1); RLE touches ~one catalog entry per run, modeled
  // as a small constant plus the run density. Strict less-than keeps plain
  // the winner on ties (compatibility default).
  const double cost_plain = static_cast<double>(bits_plain);
  const double cost_for = static_cast<double>(bits_for) + 0.01;
  const double cost_rle =
      static_cast<double>(bits_plain) * (0.1 + 4.0 * runs_per_row) + 0.01;

  CodecId best = CodecId::kPlain;
  double best_cost = cost_plain;
  if (cost_for < best_cost) {
    best = CodecId::kFor;
    best_cost = cost_for;
  }
  if (cost_rle < best_cost) best = CodecId::kRle;
  return MakeCodecChoice(best, vids);
}

CodecChoice ResolveCodec(CodecForce force, const std::vector<ValueId>& vids) {
  if (force == CodecForce::kAuto) force = ForcedCodec();
  if (force == CodecForce::kAuto) return ChooseCodec(vids);
  return MakeCodecChoice(static_cast<CodecId>(static_cast<int>(force)), vids);
}

uint64_t CodecValuesPerPage(uint32_t payload_bytes,
                            const CodecChoice& choice) {
  // Whole chunks at the packed width, one spare word for the kernels'
  // 8-byte window overread. RLE uses the plain capacity so its escape
  // encoding always fits and row→page mapping matches plain exactly.
  return (payload_bytes - sizeof(uint64_t)) / ChunkBytes(choice.params.bits) *
         kChunkValues;
}

uint32_t CodecEncodePage(const CodecChoice& choice, const ValueId* vids,
                         uint64_t n, uint8_t* payload, uint32_t capacity,
                         uint32_t* aux2) {
  std::memset(payload, 0, capacity);
  *aux2 = 0;
  uint64_t* words = reinterpret_cast<uint64_t*>(payload);
  const uint32_t bits = choice.params.bits;

  if (choice.id == CodecId::kRle) {
    uint64_t runs = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (i == 0 || vids[i] != vids[i - 1]) ++runs;
    }
    const uint64_t catalog_bytes = AlignUp(4 * runs, 8);
    const uint64_t vals_bytes = (CeilDiv(runs * bits, 64) + 1) * 8;
    if (catalog_bytes + vals_bytes <= capacity) {
      uint32_t* ends = reinterpret_cast<uint32_t*>(payload);
      uint64_t* vals = words + catalog_bytes / 8;
      uint32_t run = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (i == 0 || vids[i] != vids[i - 1]) {
          PackedSet(vals, bits, run, vids[i]);
          ++run;
        }
        ends[run - 1] = static_cast<uint32_t>(i + 1);
      }
      *aux2 = static_cast<uint32_t>(runs);
      return static_cast<uint32_t>(catalog_bytes + vals_bytes);
    }
    *aux2 = kRleEscapeAux;  // catalog too dense: store the page plain
    for (uint64_t i = 0; i < n; ++i) PackedSet(words, bits, i, vids[i]);
    return PlainPayloadBytes(n, bits);
  }

  const ValueId base =
      choice.id == CodecId::kFor ? choice.params.for_base : 0;
  for (uint64_t i = 0; i < n; ++i) {
    PackedSet(words, bits, i, vids[i] - base);
  }
  return PlainPayloadBytes(n, bits);
}

Status CodecValidatePage(CodecId id, const CodecPageView& v,
                         uint32_t payload_size) {
  if (v.params.bits < 1 || v.params.bits > 32) {
    return Status::Corruption("codec page: bits out of range [1, 32]");
  }
  if (id == CodecId::kRle && v.aux2 != kRleEscapeAux) {
    const uint64_t runs = v.aux2;
    if ((runs == 0) != (v.n == 0)) {
      return Status::Corruption(
          "rle page: run count and row count disagree about emptiness");
    }
    if (runs > v.n) {
      return Status::Corruption("rle page: more runs than rows");
    }
    const uint64_t catalog_bytes = AlignUp(uint64_t{4} * runs, 8);
    const uint64_t vals_bytes = (CeilDiv(runs * v.params.bits, 64) + 1) * 8;
    if (catalog_bytes + vals_bytes > payload_size) {
      return Status::Corruption("rle page: run catalog overflows payload");
    }
    const uint32_t* ends = reinterpret_cast<const uint32_t*>(v.words);
    uint32_t prev = 0;
    for (uint64_t i = 0; i < runs; ++i) {
      if (ends[i] <= prev) {
        return Status::Corruption("rle page: run ends not strictly "
                                  "increasing");
      }
      prev = ends[i];
    }
    if (prev != v.n) {
      return Status::Corruption(
          "rle page: last run end does not match the page row count");
    }
    return Status::OK();
  }
  // Plain, FOR and RLE-escape images share the packed layout: n values at
  // `bits`, whole chunks, one spare word for the kernels' 8-byte window.
  // 64-bit arithmetic throughout — a hostile row count near 2^32 must not
  // wrap the byte bound it is checked against.
  if (v.n > 0xFFFFFFFFull) {
    return Status::Corruption("codec page: row count exceeds u32");
  }
  const uint64_t packed_bytes =
      CeilDiv(v.n, kChunkValues) *
          static_cast<uint64_t>(ChunkBytes(v.params.bits)) +
      sizeof(uint64_t);
  if (packed_bytes > payload_size) {
    return Status::Corruption("codec page: packed image for " +
                              std::to_string(v.n) + " values at " +
                              std::to_string(v.params.bits) +
                              " bits overflows the payload");
  }
  return Status::OK();
}

const CodecKernels& CodecKernelTable(CodecId id) {
  // The codec dimension of the (codec × kernel × tier) dispatch: each row's
  // functions resolve the tier through CodecPageView::kernels.
  static const CodecKernels tables[kCodecCount] = {
      {PlainGet, PlainMGet, PlainSearchEq, PlainSearchRange, PlainSearchIn},
      {ForGet, ForMGet, ForSearchEq, ForSearchRange, ForSearchIn},
      {RleGet, RleMGet, RleSearchEq, RleSearchRange, RleSearchIn},
  };
  return tables[static_cast<size_t>(id)];
}

ValueId CodecGetValue(CodecId id, const CodecPageView& v, uint64_t idx) {
  return CodecKernelTable(id).get(v, idx);
}

void CodecMGet(CodecId id, const CodecPageView& v, uint64_t from, uint64_t to,
               uint32_t* out, CodecStats* stats) {
  if (from >= to) return;
  if (stats != nullptr) ++stats->native;
  CodecKernelTable(id).mget(v, from, to, out);
}

void CodecSearchEq(CodecId id, const CodecPageView& v, uint64_t from,
                   uint64_t to, ValueId vid, RowPos base,
                   std::vector<RowPos>* out, CodecStats* stats) {
  if (from >= to) return;
  if (stats != nullptr) ++stats->native;
  CodecKernelTable(id).search_eq(v, from, to, vid, base, out);
}

void CodecSearchRange(CodecId id, const CodecPageView& v, uint64_t from,
                      uint64_t to, ValueId lo, ValueId hi, RowPos base,
                      std::vector<RowPos>* out, CodecStats* stats) {
  if (from >= to || lo > hi) return;
  if (stats != nullptr) ++stats->native;
  CodecKernelTable(id).search_range(v, from, to, lo, hi, base, out);
}

void CodecSearchIn(CodecId id, const CodecPageView& v, uint64_t from,
                   uint64_t to, const std::vector<ValueId>& sorted_vids,
                   RowPos base, std::vector<RowPos>* out, CodecStats* stats) {
  if (from >= to || sorted_vids.empty()) return;
  if (stats != nullptr) ++stats->native;
  CodecKernelTable(id).search_in(v, from, to, sorted_vids, base, out);
}

}  // namespace payg
