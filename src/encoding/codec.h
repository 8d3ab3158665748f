#ifndef PAYG_ENCODING_CODEC_H_
#define PAYG_ENCODING_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "encoding/simd_dispatch.h"
#include "encoding/types.h"

namespace payg {

// ---------------------------------------------------------------------------
// Pluggable page codecs for the paged data vector (DESIGN.md S22).
//
// The paper pages uniformly n-bit packed identifiers; MorphStore-style
// compression-enabled processing generalizes that: each column picks, at
// delta merge, the codec whose (bytes per row × scan cost) is lowest, and
// the search/mget kernels run directly on the compressed page image. Three
// codecs exist today; the per-codec kernel table makes a fourth a
// single-file addition.
//
//   kPlain (id 0) — the original uniform n-bit packing. Compatibility
//     default; version-0 chains (no codec byte in the meta page) decode as
//     plain.
//   kFor (id 1) — frame of reference: one column-global base (the exact
//     minimum vid), residuals packed at BitsNeeded(max-min) bits. Fewer
//     bits per row ⇒ more values per page ⇒ fewer pages through the cache.
//     Search predicates are translated into residual space, so the packed
//     SIMD kernels run unchanged on the compressed image.
//   kRle (id 2) — run-length encoding over vids: a per-page run catalog
//     (cumulative u32 run ends) plus the run values packed at the plain
//     width. Pages keep the plain values-per-page capacity, so row→page
//     mapping stays pure arithmetic; a page whose runs would not fit
//     escapes to plain packing (aux2 == kRleEscapeAux). Search walks the
//     run catalog (O(runs), not O(rows)); mget fills run-by-run.
//
// Every codec page is an array of uint64 words in the page payload; the
// per-page `aux2` header word carries codec-specific state (RLE: run count
// or the escape marker; plain/FOR: zero).
// ---------------------------------------------------------------------------

enum class CodecId : uint8_t { kPlain = 0, kFor = 1, kRle = 2 };
inline constexpr uint32_t kCodecCount = 3;

// Display / metric-suffix name ("plain", "for", "rle").
const char* CodecName(CodecId id);

// RLE pages whose run catalog would overflow the payload are stored
// plain-packed with this marker in the page header's aux2 word.
inline constexpr uint32_t kRleEscapeAux = 0xFFFFFFFFu;

// Column-level codec parameters, persisted in the data vector's meta page.
// `bits` is the packed width of the payload words (plain: BitsNeeded(max);
// FOR: BitsNeeded(max - base); RLE: the plain width, used for run values
// and escape pages alike).
struct CodecParams {
  uint32_t bits = 1;
  ValueId for_base = 0;  // FOR only; zero otherwise
};

struct CodecChoice {
  CodecId id = CodecId::kPlain;
  CodecParams params;
};

// ---------------------------------------------------------------------------
// Selection (the delta-merge codec pass).
// ---------------------------------------------------------------------------

// PAYG_FORCE_CODEC knob: kAuto runs the cost model, anything else pins the
// codec for every fragment built by this process.
enum class CodecForce : int { kAuto = -1, kPlain = 0, kFor = 1, kRle = 2 };

// Parsed once per process from PAYG_FORCE_CODEC (plain|for|rle|auto;
// unset or unrecognized values mean kAuto).
CodecForce ForcedCodec();

// Rows of the vid vector the run-density estimate samples
// (PAYG_CODEC_SAMPLE_ROWS, default 65536, clamped to [64, 1<<30]).
uint64_t CodecSampleRows();

// Exact-stat parameters for a fixed codec over this column (full min/max
// pass — the FOR base must be the true minimum).
CodecChoice MakeCodecChoice(CodecId id, const std::vector<ValueId>& vids);

// Cost-model selection: bytes-per-row × estimated scan cost per codec,
// lowest wins, plain wins ties. Does NOT consult PAYG_FORCE_CODEC.
CodecChoice ChooseCodec(const std::vector<ValueId>& vids);

// The builder entry point: spec-level force, then the env knob, then the
// cost model.
CodecChoice ResolveCodec(CodecForce force, const std::vector<ValueId>& vids);

// ---------------------------------------------------------------------------
// Page encode.
// ---------------------------------------------------------------------------

// Values-per-page capacity for this choice given the page payload size.
// Always a multiple of 64 (whole chunks), with one spare word reserved for
// the packed kernels' 8-byte window overread. For RLE this is the plain
// capacity: the escape encoding is guaranteed to fit.
uint64_t CodecValuesPerPage(uint32_t payload_bytes, const CodecChoice& choice);

// Encodes vids[0, n) into `payload` (zeroed by the callee as needed),
// returns the payload byte size to persist and sets *aux2 (the per-page
// codec word). n must be <= CodecValuesPerPage(capacity, choice).
uint32_t CodecEncodePage(const CodecChoice& choice, const ValueId* vids,
                         uint64_t n, uint8_t* payload, uint32_t capacity,
                         uint32_t* aux2);

// ---------------------------------------------------------------------------
// Page decode / search: the (codec × kernel × tier) dispatch.
// ---------------------------------------------------------------------------

// A borrowed view of one encoded page. `kernels` picks the SIMD tier for
// the inner packed kernels; nullptr means the process-wide ActiveKernels()
// (tests and benches pin specific tiers through it).
struct CodecPageView {
  const uint64_t* words = nullptr;
  uint64_t n = 0;       // values on this page
  uint32_t aux2 = 0;    // page header aux2 (RLE run count / escape marker)
  CodecParams params;
  const PackedKernels* kernels = nullptr;
};

// Validates one on-disk page image before any kernel touches it. The
// kernels trust the view completely — the RLE paths walk the run catalog
// that `aux2` sizes and `PackedGet` walks `bits`-wide slots up to `n` — so
// a page whose header or catalog lies about its own geometry would read
// past the payload. Checks, per codec:
//   plain / FOR / RLE-escape:  the packed image for `n` values at `bits`
//       (whole chunks + the kernels' spare overread word) fits in
//       `payload_size`;
//   RLE:  `aux2` run count is non-zero iff the page has rows and never
//       exceeds `n`; catalog + packed run values (+ spare word) fit in
//       `payload_size`; run ends are strictly increasing and the last one
//       equals `n`.
// Called once per page pin (PagedDataVectorIterator::Reposition) and by
// the fuzz harness, which feeds it hostile images (fuzz/fuzz_codec_page).
// O(1) for plain/FOR, O(runs) for RLE — the same order as one run-skipping
// scan of the page.
Status CodecValidatePage(CodecId id, const CodecPageView& v,
                         uint32_t payload_size);

// Kernel dispatch accounting, owned by the caller (one per iterator);
// folded into codec.kernel_native.
struct CodecStats {
  uint64_t native = 0;
};

// One codec's kernel row. Every entry of every row is non-null: each
// (codec, kernel) pair runs natively on the encoded page (codec_test
// checks the whole table).
struct CodecKernels {
  using GetFn = ValueId (*)(const CodecPageView& v, uint64_t idx);
  using MGetFn = void (*)(const CodecPageView& v, uint64_t from, uint64_t to,
                          uint32_t* out);
  using SearchEqFn = void (*)(const CodecPageView& v, uint64_t from,
                              uint64_t to, ValueId vid, RowPos base,
                              std::vector<RowPos>* out);
  using SearchRangeFn = void (*)(const CodecPageView& v, uint64_t from,
                                 uint64_t to, ValueId lo, ValueId hi,
                                 RowPos base, std::vector<RowPos>* out);
  using SearchInFn = void (*)(const CodecPageView& v, uint64_t from,
                              uint64_t to,
                              const std::vector<ValueId>& sorted_vids,
                              RowPos base, std::vector<RowPos>* out);

  GetFn get = nullptr;
  MGetFn mget = nullptr;
  SearchEqFn search_eq = nullptr;
  SearchRangeFn search_range = nullptr;
  SearchInFn search_in = nullptr;
};

// The codec dimension of the dispatch (index by CodecId).
const CodecKernels& CodecKernelTable(CodecId id);

// Dispatching wrappers over CodecKernelTable. `stats` (optional) counts one
// native dispatch per non-empty call. Ranges must satisfy
// from <= to <= v.n; predicates may be arbitrary (normalization happens
// inside).
ValueId CodecGetValue(CodecId id, const CodecPageView& v, uint64_t idx);
void CodecMGet(CodecId id, const CodecPageView& v, uint64_t from, uint64_t to,
               uint32_t* out, CodecStats* stats);
void CodecSearchEq(CodecId id, const CodecPageView& v, uint64_t from,
                   uint64_t to, ValueId vid, RowPos base,
                   std::vector<RowPos>* out, CodecStats* stats);
void CodecSearchRange(CodecId id, const CodecPageView& v, uint64_t from,
                      uint64_t to, ValueId lo, ValueId hi, RowPos base,
                      std::vector<RowPos>* out, CodecStats* stats);
void CodecSearchIn(CodecId id, const CodecPageView& v, uint64_t from,
                   uint64_t to, const std::vector<ValueId>& sorted_vids,
                   RowPos base, std::vector<RowPos>* out, CodecStats* stats);

}  // namespace payg

#endif  // PAYG_ENCODING_CODEC_H_
