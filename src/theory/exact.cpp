#include "theory/exact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "graph/properties.hpp"
#include "linalg/markov.hpp"
#include "util/check.hpp"

namespace manywalks {

std::vector<double> hitting_times_to(const Graph& g, Vertex target) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(target < n, "hitting target out of range");
  MW_REQUIRE(is_connected(g), "hitting times need a connected graph");
  MW_REQUIRE(n >= 2, "need at least two vertices");

  // Index map skipping the absorbing target.
  std::vector<Vertex> to_sub(n, kInvalidVertex);
  std::vector<Vertex> from_sub;
  from_sub.reserve(n - 1);
  for (Vertex v = 0; v < n; ++v) {
    if (v == target) continue;
    to_sub[v] = static_cast<Vertex>(from_sub.size());
    from_sub.push_back(v);
  }

  const std::size_t m = n - 1;
  DenseMatrix a(m, m, 0.0);
  std::vector<double> b(m, 1.0);
  for (std::size_t r = 0; r < m; ++r) {
    const Vertex v = from_sub[r];
    a.at(r, r) += 1.0;
    const double w = 1.0 / static_cast<double>(g.degree(v));
    for (Vertex u : g.neighbors(v)) {
      if (u == target) continue;
      a.at(r, to_sub[u]) -= w;
    }
  }
  const std::vector<double> h_sub = solve_linear(std::move(a), std::move(b));
  std::vector<double> h(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) h[from_sub[r]] = h_sub[r];
  return h;
}

DenseMatrix hitting_time_matrix(const Graph& g) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(is_connected(g), "hitting times need a connected graph");
  MW_REQUIRE(n >= 2, "need at least two vertices");

  const std::vector<double> pi = stationary_distribution(g);
  // M = I - P + 1 pi^T  (nonsingular for irreducible chains).
  DenseMatrix m(n, n, 0.0);
  for (Vertex v = 0; v < n; ++v) {
    m.at(v, v) += 1.0;
    const double w = 1.0 / static_cast<double>(g.degree(v));
    for (Vertex u : g.neighbors(v)) m.at(v, u) -= w;
    for (Vertex u = 0; u < n; ++u) m.at(v, u) += pi[u];
  }
  const DenseMatrix z = solve_linear_multi(std::move(m), DenseMatrix::identity(n));

  DenseMatrix h(n, n, 0.0);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      if (i == j) continue;
      h.at(i, j) = (z.at(j, j) - z.at(i, j)) / pi[j];
    }
  }
  return h;
}

HittingExtremes hitting_extremes(const DenseMatrix& hitting_matrix) {
  const std::size_t n = hitting_matrix.rows();
  MW_REQUIRE(n >= 2 && hitting_matrix.cols() == n,
             "hitting matrix must be square with n >= 2");
  HittingExtremes ext;
  ext.h_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double h = hitting_matrix.at(i, j);
      if (h > ext.h_max) {
        ext.h_max = h;
        ext.argmax_from = static_cast<Vertex>(i);
        ext.argmax_to = static_cast<Vertex>(j);
      }
      ext.h_min = std::min(ext.h_min, h);
    }
  }
  return ext;
}

namespace {

/// y[0, len) += sum over k in [first, last) of coef(k) * row(k)[0, len),
/// with len = len_of(k): the one inner loop of the symmetric oracle. Every
/// access is contiguous, so -O3 vectorizes it without -march flags, and
/// four source rows share each pass over y, so y is loaded and stored once
/// per four multiply-adds. A group of four runs to its last row's length;
/// the caller's rows must read as zero past their own lengths.
template <typename Row, typename Coef, typename Len>
void accumulate_rows(double* y, std::size_t first, std::size_t last, Row row,
                     Coef coef, Len len_of) {
  std::size_t k = first;
  for (; k + 4 <= last; k += 4) {
    const double* x0 = row(k);
    const double* x1 = row(k + 1);
    const double* x2 = row(k + 2);
    const double* x3 = row(k + 3);
    const double a0 = coef(k);
    const double a1 = coef(k + 1);
    const double a2 = coef(k + 2);
    const double a3 = coef(k + 3);
    const std::size_t len = len_of(k + 3);
    for (std::size_t c = 0; c < len; ++c) {
      y[c] += a0 * x0[c] + a1 * x1[c] + a2 * x2[c] + a3 * x3[c];
    }
  }
  for (; k < last; ++k) {
    const double* x = row(k);
    const double a = coef(k);
    const std::size_t len = len_of(k);
    for (std::size_t c = 0; c < len; ++c) y[c] += a * x[c];
  }
}

}  // namespace

HittingExtremes hitting_extremes(const Graph& g) {
  const std::size_t n = g.num_vertices();
  MW_REQUIRE(is_connected(g), "hitting times need a connected graph");
  MW_REQUIRE(n >= 2, "need at least two vertices");

  // The simple walk is reversible, so M = I - P + 1 pi^T is similar to the
  // symmetric positive definite M_sym = I - S + s s^T with
  // S = D^{-1/2} A D^{-1/2} and s = sqrt(pi):  M = D^{-1/2} M_sym D^{1/2}.
  // Hence Z = M^{-1} has Z(i,j) = Y(i,j) s(j)/s(i) with Y = M_sym^{-1}, and
  // h(i,j) = (Z(j,j) - Z(i,j))/pi(j) as in hitting_time_matrix. Y comes
  // from M_sym = U^T U as W^T W with W = U^{-T}: two n x n buffers, about
  // n^3/2 multiply-adds, and H itself is never stored.
  const std::vector<double> pi = stationary_distribution(g);
  std::vector<double> s(n);
  for (std::size_t v = 0; v < n; ++v) s[v] = std::sqrt(pi[v]);

  // Upper triangle of M_sym, row-major; the lower triangle is unused until
  // it receives Y. Each arc v->x subtracts 1/sqrt(deg(v) deg(x)).
  std::vector<double> u(n * n, 0.0);
  for (Vertex i = 0; i < n; ++i) {
    double* row = u.data() + i * n;
    for (std::size_t j = i; j < n; ++j) row[j] = s[i] * s[j];
    row[i] += 1.0;
    const double deg_i = static_cast<double>(g.degree(i));
    for (Vertex x : g.neighbors(i)) {
      if (x < i) continue;
      row[x] -= 1.0 / std::sqrt(deg_i * static_cast<double>(g.degree(x)));
    }
  }
  const auto u_at = [&](std::size_t r, std::size_t c) { return u[r * n + c]; };

  // 1. Upper Cholesky in place, row by row: U(k, k..n) is M_sym's row minus
  //    U(j,k) U(j, k..n) over the finished rows j < k, then scaled.
  for (std::size_t k = 0; k < n; ++k) {
    double* row_k = u.data() + k * n + k;
    accumulate_rows(
        row_k, 0, k, [&](std::size_t j) { return u.data() + j * n + k; },
        [&](std::size_t j) { return -u_at(j, k); },
        [&](std::size_t) { return n - k; });
    const double pivot = row_k[0];
    MW_REQUIRE(pivot > 1e-12, "M_sym not positive definite in "
                              "hitting_extremes (pivot "
                                  << pivot << " at column " << k << ")");
    const double root = std::sqrt(pivot);
    row_k[0] = root;
    for (std::size_t c = 1; c < n - k; ++c) row_k[c] /= root;
  }

  // 2. W = U^{-T} by solving L W = I with L = U^T (L(i,k) = U(k,i)): row i
  //    of W is e_i minus L(i,k) W(k, 0..k) over k < i, then scaled. Rows of
  //    W are zero past the diagonal, as accumulate_rows needs.
  std::vector<double> w(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* row_i = w.data() + i * n;
    accumulate_rows(
        row_i, 0, i, [&](std::size_t k) { return w.data() + k * n; },
        [&](std::size_t k) { return -u_at(k, i); },
        [&](std::size_t k) { return k + 1; });
    row_i[i] = 1.0;
    const double diag = u_at(i, i);
    for (std::size_t c = 0; c <= i; ++c) row_i[c] /= diag;
  }

  // 3. Y = W^T W: row i of its lower triangle, Y(i, 0..i), is the sum of
  //    W(k,i) W(k, 0..i) over k >= i, accumulated over the factor's (now
  //    unneeded) buffer; then mirrored so the scan reads Y row-major.
  for (std::size_t i = 0; i < n; ++i) {
    double* y_i = u.data() + i * n;
    std::fill(y_i, y_i + i + 1, 0.0);
    accumulate_rows(
        y_i, i, n, [&](std::size_t k) { return w.data() + k * n; },
        [&](std::size_t k) { return w[k * n + i]; },
        [&](std::size_t) { return i + 1; });
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) u[i * n + j] = u[j * n + i];
  }

  // 4. Stream the extremes in the row-major order, and with the strict >,
  //    of hitting_extremes(const DenseMatrix&), so ties resolve alike.
  HittingExtremes ext;
  ext.h_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double* y_i = u.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double z_ij = y_i[j] * s[j] / s[i];
      const double h = (u[j * n + j] - z_ij) / pi[j];
      if (h > ext.h_max) {
        ext.h_max = h;
        ext.argmax_from = static_cast<Vertex>(i);
        ext.argmax_to = static_cast<Vertex>(j);
      }
      ext.h_min = std::min(ext.h_min, h);
    }
  }
  return ext;
}

double exact_cover_time(const Graph& g, Vertex start) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(start < n, "start out of range");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_cover_time supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_cover_time needs a connected graph");
  if (n == 1) return 0.0;

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // expected[S * n + v] = E[additional rounds | visited = S, walk at v],
  // defined for v in S.
  std::vector<double> expected(static_cast<std::size_t>(full + 1) * n, 0.0);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  // S = full has zero additional expectation (already initialized); walk
  // the remaining subsets in decreasing numeric order, which respects the
  // superset dependency S | {u} > S.
  for (std::uint32_t s = full - 1; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t m = members.size();
    DenseMatrix a(m, m, 0.0);
    std::vector<double> b(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      a.at(r, r) += 1.0;
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          a.at(r, to_sub[u]) -= w;
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b[r] += w * expected[static_cast<std::size_t>(super) * n + u];
        }
      }
    }
    const std::vector<double> e = solve_linear(std::move(a), std::move(b));
    for (std::size_t r = 0; r < m; ++r) {
      expected[static_cast<std::size_t>(s) * n + members[r]] = e[r];
    }
  }
  const std::uint32_t s0 = std::uint32_t{1} << start;
  return expected[static_cast<std::size_t>(s0) * n + start];
}

double CoverMoments::coefficient_of_variation() const {
  if (mean == 0.0) return 0.0;
  return std::sqrt(std::max(0.0, variance)) / mean;
}

CoverMoments exact_cover_time_moments(const Graph& g, Vertex start) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(start < n, "start out of range");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_cover_time_moments supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_cover_time_moments needs connectivity");
  if (n == 1) return {};

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // m1/m2: first/second moment of the remaining cover time per (S, v).
  std::vector<double> m1(static_cast<std::size_t>(full + 1) * n, 0.0);
  std::vector<double> m2(static_cast<std::size_t>(full + 1) * n, 0.0);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  for (std::uint32_t s = full - 1; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t m = members.size();

    // First moments: (I - P_SS) m1 = 1 + sum_{u outside} p * m1(u, S+u).
    DenseMatrix a1(m, m, 0.0);
    std::vector<double> b1(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      a1.at(r, r) += 1.0;
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          a1.at(r, to_sub[u]) -= w;
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b1[r] += w * m1[static_cast<std::size_t>(super) * n + u];
        }
      }
    }
    DenseMatrix a2 = a1;  // same linear operator for the second moments
    const std::vector<double> e1 = solve_linear(std::move(a1), std::move(b1));
    for (std::size_t r = 0; r < m; ++r) {
      m1[static_cast<std::size_t>(s) * n + members[r]] = e1[r];
    }

    // Second moments: T = 1 + T' gives E[T^2] = 1 + 2 E[T'] + E[T'^2], so
    // (I - P_SS) m2 = 1 + sum_u p * 2 m1(next) + sum_{u outside} p * m2.
    std::vector<double> b2(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          b2[r] += w * 2.0 * m1[static_cast<std::size_t>(s) * n + u];
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b2[r] += w * (2.0 * m1[static_cast<std::size_t>(super) * n + u] +
                        m2[static_cast<std::size_t>(super) * n + u]);
        }
      }
    }
    const std::vector<double> e2 = solve_linear(std::move(a2), std::move(b2));
    for (std::size_t r = 0; r < m; ++r) {
      m2[static_cast<std::size_t>(s) * n + members[r]] = e2[r];
    }
  }

  const std::uint32_t s0 = std::uint32_t{1} << start;
  CoverMoments out;
  out.mean = m1[static_cast<std::size_t>(s0) * n + start];
  const double second = m2[static_cast<std::size_t>(s0) * n + start];
  out.variance = second - out.mean * out.mean;
  return out;
}

namespace {

/// Enumerates the joint moves of all tokens recursively, accumulating the
/// product probability; calls sink(new_positions, probability).
template <typename Sink>
void enumerate_joint_moves(const Graph& g, const std::vector<Vertex>& pos,
                           std::size_t token, std::vector<Vertex>& next,
                           double prob, Sink&& sink) {
  if (token == pos.size()) {
    sink(next, prob);
    return;
  }
  const Vertex v = pos[token];
  const double w = prob / static_cast<double>(g.degree(v));
  for (Vertex u : g.neighbors(v)) {
    next[token] = u;
    enumerate_joint_moves(g, pos, token + 1, next, w, sink);
  }
}

}  // namespace

double exact_k_cover_time(const Graph& g, std::span<const Vertex> starts,
                          std::size_t max_states_per_system) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(!starts.empty(), "need at least one token");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_k_cover_time supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_k_cover_time needs a connected graph");
  const std::size_t k = starts.size();
  for (Vertex s : starts) MW_REQUIRE(s < n, "start out of range");

  // System size for the largest subset is n^k.
  double states_d = 1.0;
  for (std::size_t i = 0; i < k; ++i) states_d *= n;
  MW_REQUIRE(states_d <= static_cast<double>(max_states_per_system),
             "state space n^k = " << states_d << " exceeds cap "
                                  << max_states_per_system);

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // expected[S] holds |members(S)|^k values, indexed by the mixed-radix
  // tuple of token positions within members(S).
  std::vector<std::vector<double>> expected(full + 1);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  std::vector<Vertex> pos(k);
  std::vector<Vertex> next(k);

  const auto tuple_index = [&](const std::vector<Vertex>& tuple,
                               const std::vector<Vertex>& sub_of,
                               std::size_t base) {
    std::size_t idx = 0;
    for (Vertex v : tuple) idx = idx * base + sub_of[v];
    return idx;
  };

  for (std::uint32_t s = full; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t base = members.size();
    std::size_t num_states = 1;
    for (std::size_t i = 0; i < k; ++i) num_states *= base;
    expected[s].assign(num_states, 0.0);
    if (s == full) continue;  // everything visited: zero additional rounds

    DenseMatrix a(num_states, num_states, 0.0);
    std::vector<double> b(num_states, 1.0);
    for (std::size_t state = 0; state < num_states; ++state) {
      // Decode the mixed-radix state into token positions.
      std::size_t rem = state;
      for (std::size_t i = k; i-- > 0;) {
        pos[i] = members[rem % base];
        rem /= base;
      }
      a.at(state, state) += 1.0;
      enumerate_joint_moves(
          g, pos, 0, next, 1.0,
          [&](const std::vector<Vertex>& moved, double prob) {
            std::uint32_t super = s;
            for (Vertex v : moved) super |= std::uint32_t{1} << v;
            if (super == s) {
              a.at(state, tuple_index(moved, to_sub, base)) -= prob;
            } else {
              // expected[super] was computed earlier (super > s).
              std::vector<Vertex> sup_members;
              std::vector<Vertex> sup_sub(n);
              for (Vertex v = 0; v < n; ++v) {
                if (super & (std::uint32_t{1} << v)) {
                  sup_sub[v] = static_cast<Vertex>(sup_members.size());
                  sup_members.push_back(v);
                }
              }
              const std::size_t idx =
                  tuple_index(moved, sup_sub, sup_members.size());
              b[state] += prob * expected[super][idx];
            }
          });
    }
    expected[s] = solve_linear(std::move(a), std::move(b));
  }

  std::uint32_t s0 = 0;
  for (Vertex v : starts) s0 |= std::uint32_t{1} << v;
  members.clear();
  for (Vertex v = 0; v < n; ++v) {
    if (s0 & (std::uint32_t{1} << v)) {
      to_sub[v] = static_cast<Vertex>(members.size());
      members.push_back(v);
    }
  }
  std::vector<Vertex> start_tuple(starts.begin(), starts.end());
  return expected[s0][tuple_index(start_tuple, to_sub, members.size())];
}

double exact_k_hitting_time(const Graph& g, std::span<const Vertex> starts,
                            Vertex target, std::size_t max_states) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(!starts.empty(), "need at least one token");
  MW_REQUIRE(target < n, "target out of range");
  MW_REQUIRE(is_connected(g), "exact_k_hitting_time needs connectivity");
  const std::size_t k = starts.size();
  for (Vertex s : starts) {
    MW_REQUIRE(s < n, "start out of range");
    if (s == target) return 0.0;
  }

  std::size_t num_states = 1;
  for (std::size_t i = 0; i < k; ++i) {
    num_states *= n;
    MW_REQUIRE(num_states <= max_states,
               "state space n^k exceeds cap " << max_states);
  }

  // States are base-n tuples of token positions; any tuple containing the
  // target is absorbing (expected remaining rounds 0), so the system is
  // solved over the non-absorbing states only.
  std::vector<std::size_t> to_sub(num_states, SIZE_MAX);
  std::vector<std::size_t> from_sub;
  std::vector<Vertex> pos(k);
  for (std::size_t state = 0; state < num_states; ++state) {
    std::size_t rem = state;
    bool absorbing = false;
    for (std::size_t i = k; i-- > 0;) {
      pos[i] = static_cast<Vertex>(rem % n);
      rem /= n;
      absorbing = absorbing || pos[i] == target;
    }
    if (!absorbing) {
      to_sub[state] = from_sub.size();
      from_sub.push_back(state);
    }
  }

  const std::size_t m = from_sub.size();
  DenseMatrix a(m, m, 0.0);
  std::vector<double> b(m, 1.0);
  std::vector<Vertex> next(k);
  for (std::size_t row = 0; row < m; ++row) {
    const std::size_t state = from_sub[row];
    std::size_t rem = state;
    for (std::size_t i = k; i-- > 0;) {
      pos[i] = static_cast<Vertex>(rem % n);
      rem /= n;
    }
    a.at(row, row) += 1.0;
    enumerate_joint_moves(g, pos, 0, next, 1.0,
                          [&](const std::vector<Vertex>& moved, double prob) {
                            std::size_t idx = 0;
                            bool absorbing = false;
                            for (Vertex v : moved) {
                              idx = idx * n + v;
                              absorbing = absorbing || v == target;
                            }
                            if (!absorbing) a.at(row, to_sub[idx]) -= prob;
                          });
  }
  const std::vector<double> expected = solve_linear(std::move(a), std::move(b));

  std::size_t start_idx = 0;
  for (Vertex s : starts) start_idx = start_idx * n + s;
  MW_ASSERT(to_sub[start_idx] != SIZE_MAX);
  return expected[to_sub[start_idx]];
}

double effective_resistance(const Graph& g, Vertex u, Vertex v) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(u < n && v < n && u != v,
             "effective_resistance needs distinct vertices");
  MW_REQUIRE(is_connected(g), "effective_resistance needs a connected graph");

  // Reduced Laplacian with v grounded; unit current injected at u.
  std::vector<Vertex> to_sub(n, kInvalidVertex);
  std::vector<Vertex> from_sub;
  from_sub.reserve(n - 1);
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    to_sub[w] = static_cast<Vertex>(from_sub.size());
    from_sub.push_back(w);
  }
  const std::size_t m = n - 1;
  DenseMatrix lap(m, m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const Vertex w = from_sub[r];
    double diag = 0.0;
    for (Vertex x : g.neighbors(w)) {
      if (x == w) continue;  // loops carry no current
      diag += 1.0;
      if (x != v) lap.at(r, to_sub[x]) -= 1.0;
    }
    lap.at(r, r) += diag;
  }
  std::vector<double> rhs(m, 0.0);
  rhs[to_sub[u]] = 1.0;
  const std::vector<double> potential = solve_linear(std::move(lap), std::move(rhs));
  return potential[to_sub[u]];
}

}  // namespace manywalks
