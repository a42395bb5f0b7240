#include "phy/ratematch/rate_match.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/saturate.h"
#include "phy/ratematch/rm_simd.h"

namespace vran::phy {

namespace {

// 36.212 Table 5.1.4-1 inter-column permutation for turbo-coded channels.
constexpr std::array<int, 32> kColPerm = {
    0, 16, 8,  24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
    1, 17, 9,  25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31};

}  // namespace

std::span<const int> subblock_column_permutation() { return kColPerm; }

SubblockGeometry subblock_geometry(int d) {
  if (d <= 0) throw std::invalid_argument("subblock_geometry: d <= 0");
  SubblockGeometry g;
  g.d = d;
  g.rows = (d + 31) / 32;
  g.kp = 32 * g.rows;
  g.nulls = g.kp - d;
  return g;
}

SubblockMap subblock_map(int d) {
  SubblockMap m;
  m.geo = subblock_geometry(d);
  const int R = m.geo.rows;
  const int kp = m.geo.kp;

  // Streams 0 and 1: write the null-padded stream y (nulls first) row by
  // row into an R x 32 matrix, permute columns, read column by column.
  m.v0_src.resize(static_cast<std::size_t>(kp));
  int out = 0;
  for (int c = 0; c < 32; ++c) {
    const int col = kColPerm[static_cast<std::size_t>(c)];
    for (int r = 0; r < R; ++r) {
      m.v0_src[static_cast<std::size_t>(out++)] = r * 32 + col;
    }
  }

  // Stream 2: pi(k) = (P[k / R] + 32*(k mod R) + 1) mod kp.
  m.v2_src.resize(static_cast<std::size_t>(kp));
  for (int k = 0; k < kp; ++k) {
    const int col = kColPerm[static_cast<std::size_t>(k / R)];
    m.v2_src[static_cast<std::size_t>(k)] = (col + 32 * (k % R) + 1) % kp;
  }
  return m;
}

namespace {

// Kernel dispatch. Each SIMD tier handles whole blocks and returns where
// it stopped; the next narrower tier and then the scalar loops below
// finish, so every tier writes the bytes the scalar loops would.
IsaLevel clamp_isa(IsaLevel isa) { return std::min(isa, cpu_features().best()); }

using AddFn = std::size_t (*)(std::int16_t*, const std::int16_t*,
                              std::size_t);
AddFn add_kernel(IsaLevel isa) {
  switch (clamp_isa(isa)) {
    case IsaLevel::kAvx512: return simd::add_sym_avx512;
    case IsaLevel::kAvx2: return simd::add_sym_avx2;
    case IsaLevel::kSse41: return simd::add_sym_sse;
    case IsaLevel::kScalar: break;
  }
  return nullptr;
}

/// Calls f(buffer position, elements consumed so far, length) for each
/// run piece of an n-element circular read that starts at buffer
/// position `start`, wrapping from the last run back to the first.
template <class F>
void walk_runs(std::span<const RateMatcher::Run> runs, int start,
               std::size_t n, F&& f) {
  std::size_t i = 0;
  while (i < runs.size() && runs[i].start + runs[i].len <= start) ++i;
  if (i == runs.size()) i = 0;
  // k0 may fall inside run i or in the null gap before it.
  std::size_t off =
      static_cast<std::size_t>(std::max(0, start - runs[i].start));
  for (std::size_t used = 0; used < n;) {
    const auto& r = runs[i];
    const std::size_t len =
        std::min(static_cast<std::size_t>(r.len) - off, n - used);
    f(static_cast<std::size_t>(r.start) + off, used, len);
    used += len;
    off = 0;
    i = i + 1 == runs.size() ? 0 : i + 1;
  }
}

/// Scalar triple extraction for the slots of rows [row, R), column by
/// column: slot c*R + r carries y = 32r + P[c] in v0 and v1 and y + 1
/// (mod K_pi) in v2. The d2 value at y = 32 * row comes from row - 1
/// (column 31), which the SIMD tiers have already read, so it is
/// written here too.
void triples_cols(const simd::RmGeometry& g, const std::int16_t* w,
                  std::int16_t* triples, int row) {
  const std::int16_t* pairs = w + g.kp;
  const auto slot_rows = [&](int c, int r_begin, int r_end) {
    const int p = kColPerm[static_cast<std::size_t>(c)];
    for (int r = r_begin; r < r_end; ++r) {
      const int slot = c * g.rows + r;
      const int y = 32 * r + p;
      if (y >= g.nulls) {
        triples[3 * (y - g.nulls)] = w[slot];
        triples[3 * (y - g.nulls) + 1] = pairs[2 * slot];
      }
      const int y2 = y + 1 == g.kp ? 0 : y + 1;
      if (y2 >= g.nulls) triples[3 * (y2 - g.nulls) + 2] = pairs[2 * slot + 1];
    }
  };
  // Rows 1 .. R-2 hold neither a null nor the wrap: no tests needed.
  const int inner_begin = std::max(row, 1);
  const int inner_end = std::max(inner_begin, g.rows - 1);
  for (int c = 0; c < 32; ++c) {
    const int p = kColPerm[static_cast<std::size_t>(c)];
    const int base = c * g.rows;
    for (int r = inner_begin; r < inner_end; ++r) {
      std::int16_t* t = triples + 3 * (32 * r + p - g.nulls);
      t[0] = w[base + r];
      t[1] = pairs[2 * (base + r)];
      t[5] = pairs[2 * (base + r) + 1];  // d2 of y + 1
    }
    if (row == 0) slot_rows(c, 0, std::min(1, g.rows));
    slot_rows(c, inner_end, g.rows);
  }
  const int y = 32 * row;
  if (row > 0 && row < g.rows && y >= g.nulls) {
    triples[3 * (y - g.nulls) + 2] = pairs[2 * (31 * g.rows + row - 1) + 1];
  }
}

/// Scalar bit collection for rows [r_begin, r_end): slot j = col_base[p]
/// + r takes y = 32r + p from d0 and d1 and y + 1 (mod K_pi) from d2.
/// Null slots get 0; no run reads them.
void gather_rows(const simd::RmGeometry& g, const TurboCodeword& cw,
                 std::uint8_t* w, int r_begin, int r_end) {
  std::uint8_t* pairs = w + g.kp;
  for (int r = r_begin; r < r_end; ++r) {
    for (int p = 0; p < 32; ++p) {
      const int y = 32 * r + p;
      const int y2 = y + 1 == g.kp ? 0 : y + 1;
      const int j = g.col_base[p] + r;
      const auto d = static_cast<std::size_t>(y - g.nulls);
      const auto d2 = static_cast<std::size_t>(y2 - g.nulls);
      w[j] = y >= g.nulls ? cw.d0[d] : 0;
      pairs[2 * j] = y >= g.nulls ? cw.d1[d] : 0;
      pairs[2 * j + 1] = y2 >= g.nulls ? cw.d2[d2] : 0;
    }
  }
}

/// Null test of circular-buffer position `pos` straight from the
/// geometry (the constructor's run scan).
bool is_null(const SubblockGeometry& g, int pos) {
  const int slot = pos < g.kp ? pos : (pos - g.kp) / 2;
  const bool v2 = pos >= g.kp && (pos - g.kp) % 2 == 1;
  const int y = 32 * (slot % g.rows) +
                kColPerm[static_cast<std::size_t>(slot / g.rows)] + (v2 ? 1 : 0);
  return (y == g.kp ? 0 : y) < g.nulls;
}

}  // namespace

RateMatcher::RateMatcher(int k)
    : k_(k), geo_(subblock_geometry(k + kTurboTail)) {
  for (int c = 0; c < 32; ++c) {
    col_base_[static_cast<std::size_t>(kColPerm[static_cast<std::size_t>(c)])] =
        c * geo_.rows;
  }
  const int ncb = 3 * geo_.kp;
  for (int pos = 0; pos < ncb;) {
    if (is_null(geo_, pos)) {
      ++pos;
      continue;
    }
    Run r;
    r.start = pos;
    while (pos < ncb && !is_null(geo_, pos)) ++pos;
    r.len = pos - r.start;
    // At most one null cluster per column of v0 and of (v1, v2), plus
    // the last slot: 2N + 1 <= 63 runs whatever K is.
    if (n_runs_ == kMaxRuns) {
      throw std::logic_error("RateMatcher: run table overflow");
    }
    runs_[n_runs_++] = r;
    usable_ += r.len;
  }
  // Always 3*(K+4) for legal K (nulls never cover a whole stream), and
  // the repetition caps below divide by it.
  if (usable_ <= 0) {
    throw std::invalid_argument("RateMatcher: no usable buffer positions");
  }
}

simd::RmGeometry RateMatcher::kernel_geometry() const {
  return {geo_.rows, geo_.kp, geo_.nulls, col_base_.data()};
}

int RateMatcher::buffer_size_for(int k) {
  return 3 * subblock_geometry(k + kTurboTail).kp;
}

int RateMatcher::k0(int rv) const {
  if (rv < 0 || rv > 3) throw std::invalid_argument("rv out of range");
  const int R = geo_.rows;
  const int ncb = 3 * geo_.kp;
  return R * (2 * ((ncb + 8 * R - 1) / (8 * R)) * rv + 2);
}

std::vector<std::uint8_t> RateMatcher::match(const TurboCodeword& cw, int e,
                                             int rv, IsaLevel isa) const {
  const std::size_t d = static_cast<std::size_t>(k_) + kTurboTail;
  if (cw.d0.size() != d || cw.d1.size() != d || cw.d2.size() != d) {
    throw std::invalid_argument("RateMatcher::match: codeword size mismatch");
  }
  if (e <= 0) throw std::invalid_argument("RateMatcher::match: e <= 0");
  // Every circle of the run walk emits exactly usable_ bits; an absurd E
  // would mean kMaxRepetition+ circles of copying.
  if (e > kMaxRepetition * usable_) {
    throw std::invalid_argument(
        "RateMatcher::match: e exceeds repetition cap");
  }
  const int start = k0(rv);

  // Bit collection into the circular buffer, on the stack for every
  // legal K (K_w <= 3 * 6176).
  constexpr std::size_t kStackBuffer = 3 * 6176;
  std::array<std::uint8_t, kStackBuffer> stack_buf;
  std::vector<std::uint8_t> heap_buf;
  std::uint8_t* w = stack_buf.data();
  if (static_cast<std::size_t>(buffer_size()) > kStackBuffer) {
    heap_buf.resize(static_cast<std::size_t>(buffer_size()));
    w = heap_buf.data();
  }
  const simd::RmGeometry g = kernel_geometry();
  int row = 1;
  switch (clamp_isa(isa)) {
    case IsaLevel::kAvx512:
      row = simd::gather_avx512(g, cw.d0.data(), cw.d1.data(), cw.d2.data(),
                                w, row);
      [[fallthrough]];
    case IsaLevel::kAvx2:
      row = simd::gather_avx2(g, cw.d0.data(), cw.d1.data(), cw.d2.data(), w,
                              row);
      [[fallthrough]];
    case IsaLevel::kSse41:
      row = simd::gather_sse(g, cw.d0.data(), cw.d1.data(), cw.d2.data(), w,
                             row);
      [[fallthrough]];
    case IsaLevel::kScalar:
      break;
  }
  gather_rows(g, cw, w, 0, std::min(1, g.rows));
  gather_rows(g, cw, w, row, g.rows);

  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(e));
  walk_runs(runs(), start, static_cast<std::size_t>(e),
            [&](std::size_t pos, std::size_t, std::size_t len) {
              out.insert(out.end(), w + pos, w + pos + len);
            });
  return out;
}

void RateMatcher::dematch_accumulate(std::span<const std::int16_t> llr,
                                     int rv, std::span<std::int16_t> w_llr,
                                     IsaLevel isa) const {
  const int ncb = 3 * geo_.kp;
  if (w_llr.size() != static_cast<std::size_t>(ncb)) {
    throw std::invalid_argument("dematch_accumulate: w_llr size mismatch");
  }
  // Mirror of match(): each circle consumes exactly usable_ LLRs, so an
  // input longer than the repetition cap can only come from a corrupted
  // E — refuse it rather than wrap (near-)endlessly.
  if (llr.size() >
      static_cast<std::size_t>(kMaxRepetition) *
          static_cast<std::size_t>(usable_)) {
    throw std::invalid_argument(
        "dematch_accumulate: llr length exceeds repetition cap");
  }
  const int start = k0(rv);
  const AddFn add = add_kernel(isa);
  // Symmetric clamp (±32767), NOT paddsw: an accumulator pinned at
  // INT16_MIN could never be cancelled by +32767, biasing soft decisions
  // across retransmissions. The kernels compute it as paddsw followed by
  // a max with -32767. A run piece never repeats a position, and the
  // pieces go in order, so repetitions accumulate exactly as one at a
  // time would.
  walk_runs(runs(), start, llr.size(),
            [&](std::size_t pos, std::size_t used, std::size_t len) {
              std::int16_t* w = w_llr.data() + pos;
              const std::int16_t* x = llr.data() + used;
              std::size_t i = add != nullptr ? add(w, x, len) : 0;
              for (; i < len; ++i) w[i] = sat_add16_sym(w[i], x[i]);
            });
}

AlignedVector<std::int16_t> RateMatcher::buffer_to_triples(
    std::span<const std::int16_t> w_llr, IsaLevel isa) const {
  const std::size_t d = static_cast<std::size_t>(k_) + kTurboTail;
  AlignedVector<std::int16_t> triples(3 * d, 0);
  buffer_to_triples_into(w_llr, triples, isa);
  return triples;
}

void RateMatcher::buffer_to_triples_into(std::span<const std::int16_t> w_llr,
                                         std::span<std::int16_t> triples,
                                         IsaLevel isa) const {
  const int ncb = 3 * geo_.kp;
  if (w_llr.size() != static_cast<std::size_t>(ncb)) {
    throw std::invalid_argument("buffer_to_triples: size mismatch");
  }
  const std::size_t d = static_cast<std::size_t>(k_) + kTurboTail;
  if (triples.size() != 3 * d) {
    throw std::invalid_argument("buffer_to_triples: triples size mismatch");
  }
  const simd::RmGeometry g = kernel_geometry();
  int row = 0;
  switch (clamp_isa(isa)) {
    case IsaLevel::kAvx512:
      row = simd::triples_avx512(g, w_llr.data(), triples.data(), row);
      [[fallthrough]];
    case IsaLevel::kAvx2:
      row = simd::triples_avx2(g, w_llr.data(), triples.data(), row);
      [[fallthrough]];
    case IsaLevel::kSse41:
      row = simd::triples_sse(g, w_llr.data(), triples.data(), row);
      [[fallthrough]];
    case IsaLevel::kScalar:
      break;
  }
  triples_cols(g, w_llr.data(), triples.data(), row);
}

AlignedVector<std::int16_t> RateMatcher::dematch(
    std::span<const std::int16_t> llr, int rv, IsaLevel isa) const {
  AlignedVector<std::int16_t> w(static_cast<std::size_t>(buffer_size()), 0);
  dematch_accumulate(llr, rv, w, isa);
  return buffer_to_triples(w, isa);
}

}  // namespace vran::phy
