// Register-tile driver for the lane-mapped GEMM kernels (simd.hpp
// GemmArgs), shared by the SIMD tier translation units and included only
// by them. It is generic over a tier's vector traits `T`:
//   Panel, Vec, Mask       panel element type, register type, lane mask
//   W, kRows, kVecs        lanes per Vec; tile height and width in Vecs
//   zero()                 all-+0.0 register
//   mask(n)                mask of the first n lanes, 1 <= n <= W
//   load(p), load(p, m)    W panel elements; the masked form reads only
//                          the lanes in m and zeroes the others
//   bcast(x)               x widened to the accumulator type in every lane
//   step(acc, x, p)        acc + x * p, multiply and add rounded apart
//   store(out, v)          v into out[0..W), rounded to out's type
//   add(a, b)              a + b (only where Panel is the stored type,
//                          for GemmArgs::add's c = c + acc)
//   first(v)               lane 0 of v (only for the row-norm chains)
// Each TU instantiates the driver with its own traits types, which live in
// an anonymous namespace, so every instantiation is local to that TU and
// compiled with its target flags.
//
// A full tile is kRows rows by kVecs registers. Each lane of each
// accumulator is one output element and sees exactly the scalar oracle's
// chain (+0.0, then step() in ascending kk); tiling only decides how many
// chains are in flight. Partial tiles at the row and lane edges run smaller
// instantiations and a masked panel load; they store through a small
// buffer, as do transposed tiles (c_ls != 1) unless the tier transposes
// four rows in registers (store_cols4). With GemmArgs::add, the
// store reads c back and adds the tile to it: in registers where the panel
// type is the stored type and the tile row is contiguous, else element by
// element from the buffer.
//
// With Norms set (the HD classifier's gemm_dot_norm_f64), the tiles of the
// first lane block also run one more chain per row, acc + x * x over the
// broadcast register, so a row's own squared norm costs no second pass; every
// lane of that register holds the same chain and lane 0 is stored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "util/simd.hpp"

namespace fhdnn::simd::detail {

/// Tiers may add store_cols4(out, ls, a, b, c, d): the W lanes of four
/// row registers, rounded to float, stored transposed as W runs of four
/// adjacent floats, lane l's at out + l * ls.
template <typename T, typename Out>
concept StoresColumns4 =
    requires(Out* out, std::int64_t ls, typename T::Vec v) {
      T::store_cols4(out, ls, v, v, v, v);
    };

template <typename T, int MR, int NV, bool Norms, typename Out>
void gemm_tile(const GemmArgs<typename T::Panel, Out>& g, double* x_sq,
               std::int64_t r0, std::int64_t l0, std::int64_t nl) {
  using Vec = typename T::Vec;
  const typename T::Mask tail = T::mask(nl - (NV - 1) * T::W);
  const std::int64_t k = g.k, x_ks = g.x_ks, p_ks = g.p_ks;
  // Every index into acc must be a compile-time constant after unrolling,
  // or the tile is kept in memory instead of registers.
  Vec acc[MR][NV];
  [[maybe_unused]] Vec norm[MR];
  const float* xr[MR];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    xr[r] = g.x + (r0 + r) * g.x_rs;
    if constexpr (Norms) norm[r] = T::zero();
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) acc[r][v] = T::zero();
  }
  const typename T::Panel* pk = g.p + l0;
  for (std::int64_t kk = 0; kk < k; ++kk, pk += p_ks) {
    Vec pv[NV];
#pragma GCC unroll 8
    for (int v = 0; v + 1 < NV; ++v) pv[v] = T::load(pk + v * T::W);
    pv[NV - 1] = T::load(pk + (NV - 1) * T::W, tail);
    const std::int64_t xo = kk * x_ks;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const Vec xv = T::bcast(xr[r][xo]);
      if constexpr (Norms) norm[r] = T::step(norm[r], xv, xv);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] = T::step(acc[r][v], xv, pv[v]);
    }
  }
  // A transposed store of four whole rows (c_rs = 1, so each lane's four
  // outputs are adjacent), when the tier can transpose them in registers.
  [[maybe_unused]] bool cols_stored[NV] = {};
  if constexpr (MR == 4 && StoresColumns4<T, Out>) {
    if (g.c_rs == 1 && !g.add) {
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        const std::int64_t lane = l0 + v * T::W;
        if (l0 + nl - lane < T::W) continue;
        T::store_cols4(g.c + r0 + lane * g.c_ls, g.c_ls, acc[0][v], acc[1][v],
                       acc[2][v], acc[3][v]);
        cols_stored[v] = true;
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      if constexpr (MR == 4 && StoresColumns4<T, Out>) {
        if (cols_stored[v]) continue;
      }
      const std::int64_t lane = l0 + v * T::W;
      const std::int64_t n = std::min<std::int64_t>(T::W, l0 + nl - lane);
      Out* out = g.c + (r0 + r) * g.c_rs + lane * g.c_ls;
      if (g.c_ls == 1 && n == T::W) {
        if (!g.add) {
          T::store(out, acc[r][v]);
          continue;
        }
        if constexpr (std::is_same_v<typename T::Panel, Out>) {
          T::store(out, T::add(T::load(out), acc[r][v]));
          continue;
        }
      }
      Out staged[T::W];
      T::store(staged, acc[r][v]);
      for (std::int64_t l = 0; l < n; ++l) {
        Out& c = out[l * g.c_ls];
        c = g.add ? c + staged[l] : staged[l];
      }
    }
    if constexpr (Norms) x_sq[r0 + r] = T::first(norm[r]);
  }
}

/// Rows [r0, r0 + rows) in tiles of MR, then one smaller tile for the rest.
template <typename T, int NV, int MR, bool Norms, typename Out>
void gemm_rows(const GemmArgs<typename T::Panel, Out>& g, double* x_sq,
               std::int64_t r0, std::int64_t rows, std::int64_t l0,
               std::int64_t nl) {
  for (; rows >= MR; r0 += MR, rows -= MR) {
    gemm_tile<T, MR, NV, Norms>(g, x_sq, r0, l0, nl);
  }
  if constexpr (MR > 1) {
    if (rows > 0) gemm_rows<T, NV, MR - 1, Norms>(g, x_sq, r0, rows, l0, nl);
  }
}

/// One lane block of nl lanes, covered by the fewest registers that hold
/// it. A one-register block gets twice the rows, so it still has as many
/// independent chains in flight as a full tile.
template <typename T, bool Norms, int NV = 1, typename Out>
void gemm_block(const GemmArgs<typename T::Panel, Out>& g, double* x_sq,
                std::int64_t l0, std::int64_t nl) {
  if constexpr (NV < T::kVecs) {
    if (nl > NV * T::W) {
      gemm_block<T, Norms, NV + 1>(g, x_sq, l0, nl);
      return;
    }
  }
  constexpr int mr = NV == 1 ? 2 * T::kRows : T::kRows;
  gemm_rows<T, NV, mr, Norms>(g, x_sq, 0, g.rows, l0, nl);
}

/// Lane blocks outermost, so one block's panel columns stay cache-resident
/// while every row streams past them. Norms runs the row-norm chains into
/// x_sq, in the first block only (lanes >= 1).
template <typename T, bool Norms = false, typename Out>
void gemm(const GemmArgs<typename T::Panel, Out>& g, double* x_sq = nullptr) {
  constexpr std::int64_t block = std::int64_t{T::W} * T::kVecs;
  for (std::int64_t l0 = 0; l0 < g.lanes; l0 += block) {
    const std::int64_t nl = std::min(block, g.lanes - l0);
    if (Norms && l0 == 0) {
      gemm_block<T, Norms>(g, x_sq, l0, nl);
    } else {
      gemm_block<T, false>(g, x_sq, l0, nl);
    }
  }
}

}  // namespace fhdnn::simd::detail
