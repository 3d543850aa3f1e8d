#include "spmd/verify/affine.hpp"

#include <cstdlib>
#include <utility>

namespace kreg::spmd::verify {

std::optional<Domain> domain_from_ids(const std::vector<long long>& ids) {
  Domain d;
  if (ids.empty()) {
    return d;  // canonical empty domain (lo > hi)
  }
  d.lo = ids.front();
  d.hi = ids.back();
  d.step = 1;
  if (ids.size() > 1) {
    d.step = ids[1] - ids[0];
    if (d.step <= 0) {
      return std::nullopt;  // unsorted or duplicated ids
    }
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i] - ids[i - 1] != d.step) {
        return std::nullopt;
      }
    }
  }
  d.offset = ((d.lo % d.step) + d.step) % d.step;
  return d;
}

std::vector<Ap> decompose_aps(const std::vector<long long>& sorted_unique) {
  std::vector<Ap> out;
  std::size_t i = 0;
  while (i < sorted_unique.size()) {
    if (i + 1 == sorted_unique.size()) {
      out.push_back(Ap{sorted_unique[i], 0, 1});
      break;
    }
    const long long diff = sorted_unique[i + 1] - sorted_unique[i];
    std::size_t j = i + 1;
    while (j + 1 < sorted_unique.size() &&
           sorted_unique[j + 1] - sorted_unique[j] == diff) {
      ++j;
    }
    out.push_back(
        Ap{sorted_unique[i], diff, static_cast<long long>(j - i + 1)});
    i = j + 1;
  }
  return out;
}

namespace {

// 128-bit intermediates keep the products of 64-bit strides exact.
// __int128 is a GNU extension; __extension__ marks it so under -Wpedantic.
__extension__ typedef __int128 i128;

long long ext_gcd(long long a, long long b, long long& x, long long& y) {
  if (b == 0) {
    x = a >= 0 ? 1 : -1;
    y = 0;
    return a >= 0 ? a : -a;
  }
  long long x1 = 0;
  long long y1 = 0;
  const long long g = ext_gcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

i128 floor_div(i128 a, i128 b) {
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

i128 ceil_div(i128 a, i128 b) {
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) {
    ++q;
  }
  return q;
}

/// Intersects [tlo, thi] with {t : 0 ≤ x + s·t ≤ hi}, s ≠ 0.
void clamp_range(i128 x, i128 s, i128 hi, i128& tlo, i128& thi) {
  if (s > 0) {
    tlo = std::max(tlo, ceil_div(-x, s));
    thi = std::min(thi, floor_div(hi - x, s));
  } else {
    tlo = std::max(tlo, ceil_div(hi - x, s));
    thi = std::min(thi, floor_div(-x, s));
  }
}

/// Solves slope_a·d1 − slope_b·d2 = c for d1 ∈ da, d2 ∈ db (and d1 ≠ d2
/// when `need_distinct`). Exact over the full domains: nullopt is a proof
/// no solution exists.
std::optional<std::pair<long long, long long>> solve_two_var(
    long long slope_a, const Domain& da, long long slope_b, const Domain& db,
    long long c, bool need_distinct) {
  const long long u_count1 = da.count();
  const long long u_count2 = db.count();
  if (u_count1 == 0 || u_count2 == 0) {
    return std::nullopt;
  }
  // Substitute d = lo + step·u, u ∈ [0, count):  A·u1 − B·u2 = cp.
  const long long coef_a = slope_a * da.step;
  const long long coef_b = slope_b * db.step;
  const long long cp = c - slope_a * da.lo + slope_b * db.lo;

  const auto result = [&](i128 u1, i128 u2)
      -> std::optional<std::pair<long long, long long>> {
    const long long d1 = da.lo + da.step * static_cast<long long>(u1);
    const long long d2 = db.lo + db.step * static_cast<long long>(u2);
    return std::make_pair(d1, d2);
  };

  if (coef_a == 0 && coef_b == 0) {
    if (cp != 0) {
      return std::nullopt;
    }
    long long u1 = 0;
    long long u2 = 0;
    if (need_distinct && da.lo == db.lo) {
      if (u_count2 > 1) {
        u2 = 1;
      } else if (u_count1 > 1) {
        u1 = 1;
      } else {
        return std::nullopt;
      }
    }
    return result(u1, u2);
  }
  if (coef_a == 0) {  // B·u2 = −cp, u1 free
    if ((-cp) % coef_b != 0) {
      return std::nullopt;
    }
    const long long u2 = (-cp) / coef_b;
    if (u2 < 0 || u2 >= u_count2) {
      return std::nullopt;
    }
    long long u1 = 0;
    if (need_distinct && da.lo == db.lo + db.step * u2) {
      if (u_count1 > 1) {
        u1 = 1;
      } else {
        return std::nullopt;
      }
    }
    return result(u1, u2);
  }
  if (coef_b == 0) {  // A·u1 = cp, u2 free
    if (cp % coef_a != 0) {
      return std::nullopt;
    }
    const long long u1 = cp / coef_a;
    if (u1 < 0 || u1 >= u_count1) {
      return std::nullopt;
    }
    long long u2 = 0;
    if (need_distinct && db.lo == da.lo + da.step * u1) {
      if (u_count2 > 1) {
        u2 = 1;
      } else {
        return std::nullopt;
      }
    }
    return result(u1, u2);
  }

  // General case: A·u1 + (−B)·u2 = cp. Particular solution via extended
  // GCD, then walk the one-parameter solution family into the (u1, u2)
  // box, excluding the d1 == d2 diagonal when required.
  long long x0 = 0;
  long long y0 = 0;
  const long long g = ext_gcd(coef_a, -coef_b, x0, y0);
  if (cp % g != 0) {
    return std::nullopt;
  }
  const long long mult = cp / g;
  const i128 x = static_cast<i128>(x0) * mult;
  const i128 y = static_cast<i128>(y0) * mult;
  // Homogeneous direction: (u1, u2) += t·(−B/g, −A/g).
  const long long step1 = -coef_b / g;
  const long long step2 = -coef_a / g;
  i128 tlo = static_cast<i128>(-1) << 100;
  i128 thi = static_cast<i128>(1) << 100;
  clamp_range(x, step1, u_count1 - 1, tlo, thi);
  clamp_range(y, step2, u_count2 - 1, tlo, thi);
  if (tlo > thi) {
    return std::nullopt;
  }
  // d1(t) − d2(t) is affine in t: e0 + e1·t.
  const i128 e0 = static_cast<i128>(da.lo) - db.lo + da.step * x - db.step * y;
  const i128 e1 =
      static_cast<i128>(da.step) * step1 - static_cast<i128>(db.step) * step2;
  i128 t = tlo;
  if (need_distinct) {
    if (e1 == 0) {
      if (e0 == 0) {
        return std::nullopt;  // every solution lies on the diagonal
      }
    } else if (e0 + e1 * t == 0) {
      if (t + 1 > thi) {
        return std::nullopt;
      }
      t = t + 1;
    }
  }
  return result(x + step1 * t, y + step2 * t);
}

}  // namespace

SolveResult find_collision(const Family& a, const Family& b,
                           bool need_distinct, std::size_t pair_cap) {
  SolveResult res;
  if (a.space != b.space || (!a.write && !b.write) || a.dom.empty() ||
      b.dom.empty()) {
    return res;
  }
  const i128 deltas = static_cast<i128>(a.width) + b.width - 1;
  if (static_cast<i128>(a.count) * b.count * deltas >
      static_cast<i128>(pair_cap)) {
    res.kind = SolveResult::kInconclusive;
    return res;
  }
  for (long long i = 0; i < a.count; ++i) {
    for (long long j = 0; j < b.count; ++j) {
      // Ranges [p, p + width_a) and [q, q + width_b) intersect iff
      // p − q ∈ [−(width_a − 1), width_b − 1].
      for (long long delta = -(a.width - 1); delta <= b.width - 1; ++delta) {
        const long long c =
            delta + b.base + b.stride * j - a.base - a.stride * i;
        if (auto sol = solve_two_var(a.slope, a.dom, b.slope, b.dom, c,
                                     need_distinct)) {
          res.kind = SolveResult::kCollision;
          res.witness.d1 = sol->first;
          res.witness.d2 = sol->second;
          res.witness.addr1 = a.slope * sol->first + a.base + a.stride * i;
          res.witness.addr2 = b.slope * sol->second + b.base + b.stride * j;
          return res;
        }
      }
    }
  }
  return res;
}

}  // namespace kreg::spmd::verify
