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

/// Precomputed permutation and its inverse for one block size.
class QppInterleaver {
 public:
  explicit QppInterleaver(int k);

  int size() const { return k_; }

  /// Pi(i): position in the interleaved sequence reading from position i
  /// of the original — interleaved[i] = original[pi(i)].
  int pi(int i) const { return pi_[static_cast<std::size_t>(i)]; }
  int pi_inverse(int i) const { return inv_[static_cast<std::size_t>(i)]; }

  std::span<const int> table() const { return pi_; }
  std::span<const int> inverse_table() const { return inv_; }

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
