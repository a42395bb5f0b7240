// 3GPP TS 36.212 Table 5.1.3-3 quadratic permutation polynomial (QPP)
// internal interleaver for the LTE turbo code.
//
//   Pi(i) = (f1*i + f2*i^2) mod K
//
// K takes 188 discrete values from 40 to 6144; f1 is always odd (which,
// with the table's f2 choices, makes Pi a bijection on [0, K)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vran::phy {

/// All 188 legal interleaver sizes, ascending.
std::span<const int> qpp_block_sizes();

/// True when `k` is one of the 188 legal sizes.
bool qpp_size_valid(int k);

/// Smallest legal K >= `k_min`; throws std::out_of_range past 6144.
int qpp_size_at_least(int k_min);

/// (f1, f2) for a legal K; throws std::invalid_argument otherwise.
struct QppCoefficients {
  int f1 = 0;
  int f2 = 0;
};
QppCoefficients qpp_coefficients(int k);

/// Pi and its inverse for a legal K into caller storage of at least K
/// entries each, allocation-free, by the incremental recurrence
///   Pi(i+1) = Pi(i) + g(i),  g(i+1) = g(i) + 2*f2  (both mod K),
/// with Pi(0) = 0 and g(0) = f1 + f2. Throws like qpp_coefficients.
template <typename Index>
void qpp_tables(int k, Index* pi, Index* inv) {
  const auto [f1, f2] = qpp_coefficients(k);
  const int dg = (2 * f2) % k;
  int p = 0;
  int g = (f1 + f2) % k;
  for (int i = 0; i < k; ++i) {
    pi[i] = static_cast<Index>(p);
    inv[p] = static_cast<Index>(i);
    p += g;
    if (p >= k) p -= k;
    g += dg;
    if (g >= k) g -= k;
  }
}

/// Pi and its inverse of one legal K, as views into a table of all 188
/// sizes (355,248 entries per direction, about 1.4 MB in all) that the
/// first call builds and every later call shares read-only, without
/// allocating. Throws like qpp_coefficients.
struct QppTable {
  std::span<const std::uint16_t> pi, inv;
};
QppTable qpp_table(int k);

/// Precomputed permutation and its inverse for one block size.
class QppInterleaver {
 public:
  explicit QppInterleaver(int k);

  int size() const { return k_; }

  /// Pi(i): position in the interleaved sequence reading from position i
  /// of the original — interleaved[i] = original[pi(i)].
  int pi(int i) const { return pi_[static_cast<std::size_t>(i)]; }
  int pi_inverse(int i) const { return inv_[static_cast<std::size_t>(i)]; }

  /// Apply: out[i] = in[pi(i)].
  template <typename T>
  void interleave(std::span<const T> in, std::span<T> out) const {
    for (int i = 0; i < k_; ++i) {
      out[static_cast<std::size_t>(i)] = in[static_cast<std::size_t>(pi(i))];
    }
  }

  /// Inverse: out[pi(i)] = in[i].
  template <typename T>
  void deinterleave(std::span<const T> in, std::span<T> out) const {
    for (int i = 0; i < k_; ++i) {
      out[static_cast<std::size_t>(pi(i))] = in[static_cast<std::size_t>(i)];
    }
  }

 private:
  int k_;
  std::vector<int> pi_;
  std::vector<int> inv_;
};

}  // namespace vran::phy
