#include "core/streaming.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace kreg {

std::size_t parse_memory_budget(std::string_view text) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t pos = 0;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  std::size_t value = 0;
  std::size_t digits = 0;
  while (pos < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
    const auto digit = static_cast<std::size_t>(text[pos] - '0');
    if (value > (kMax - digit) / 10) {
      throw std::invalid_argument("parse_memory_budget: '" +
                                  std::string(text) +
                                  "' overflows the byte counter");
    }
    value = value * 10 + digit;
    ++pos;
    ++digits;
  }
  if (digits == 0) {
    throw std::invalid_argument(
        text.empty() ? std::string("parse_memory_budget: empty input")
                     : "parse_memory_budget: no digits in '" +
                           std::string(text) + "'");
  }
  std::string suffix;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) == 0) {
    suffix.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[pos]))));
    ++pos;
  }
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  if (pos != text.size()) {
    throw std::invalid_argument("parse_memory_budget: trailing junk in '" +
                                std::string(text) + "'");
  }
  std::size_t mult = 1;
  if (suffix.empty() || suffix == "b") {
    mult = 1;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    mult = std::size_t{1} << 10;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    mult = std::size_t{1} << 20;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    mult = std::size_t{1} << 30;
  } else {
    throw std::invalid_argument("parse_memory_budget: unknown suffix '" +
                                suffix + "' in '" + std::string(text) + "'");
  }
  if (value > kMax / mult) {
    throw std::invalid_argument("parse_memory_budget: '" + std::string(text) +
                                "' overflows the byte counter");
  }
  if (value == 0) {
    // 0 means "derive from the environment/device" everywhere downstream; a
    // user who typed a budget of zero asked for something else — reject it
    // rather than silently un-setting the knob.
    throw std::invalid_argument(
        "parse_memory_budget: budget must be positive, got '" +
        std::string(text) + "'");
  }
  return value * mult;
}

std::size_t env_memory_budget() {
  const char* env = std::getenv("KREG_MEMORY_BUDGET");
  if (env == nullptr || env[0] == '\0') {
    return 0;
  }
  return parse_memory_budget(env);
}

StreamingPlan resolve_streaming(const StreamingConfig& config, std::size_t k,
                                std::size_t resident_bytes,
                                std::size_t base_bytes,
                                std::size_t per_k_bytes,
                                std::size_t device_capacity_bytes) {
  if (k == 0) {
    throw std::invalid_argument("resolve_streaming: empty grid");
  }
  StreamingPlan plan;
  plan.budget_bytes = config.memory_budget_bytes;
  if (plan.budget_bytes == 0 && config.auto_tune) {
    // The KREG_MEMORY_BUDGET ambient override only applies to auto-tuned
    // plans: auto_tune = false is an explicit in-code opt-out of streaming
    // and must not be flipped by the environment.
    plan.budget_bytes = env_memory_budget();
  }
  if (config.k_block != 0) {
    // An explicit block always takes the streamed path, even when one block
    // covers the whole grid — that is how tests pin the k_block ∈ {k, k+7}
    // degenerate cases to the same code as k_block = 1.
    plan.k_block = std::min(config.k_block, k);
    plan.streamed = true;
    return plan;
  }
  if (plan.budget_bytes == 0) {
    if (!config.auto_tune) {
      plan.k_block = k;
      return plan;
    }
    plan.budget_bytes = device_capacity_bytes;
  }
  if (device_capacity_bytes != 0 && plan.budget_bytes > device_capacity_bytes) {
    // A budget above the physical ledger cannot be spent: clamp, so a roomy
    // KREG_MEMORY_BUDGET on a small device still streams instead of letting
    // the resident plan run into a guaranteed DeviceAllocError.
    plan.budget_bytes = device_capacity_bytes;
  }
  if (resident_bytes <= plan.budget_bytes) {
    plan.k_block = k;
    return plan;
  }
  plan.streamed = true;
  if (base_bytes < plan.budget_bytes && per_k_bytes > 0) {
    plan.k_block = (plan.budget_bytes - base_bytes) / per_k_bytes;
  }
  if (plan.k_block == 0) {
    plan.k_block = 1;  // budget smaller than the carry state: degrade, let
                       // the device ledger have the final word
  }
  plan.k_block = std::min(plan.k_block, k);
  return plan;
}

namespace {

/// Largest kb in [1, k] with tile_bytes(nb, kb) <= budget; the caller has
/// already checked that kb = 1 fits. The cost is nondecreasing in kb (the
/// residual block grows), so plain binary search applies.
std::size_t largest_fitting_k_block(const TileBytesFn& tile_bytes,
                                    std::size_t nb, std::size_t k,
                                    std::size_t budget) {
  std::size_t lo = 1;
  std::size_t hi = k;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (tile_bytes(nb, mid) <= budget) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace

StreamingPlan resolve_streaming_2d(const StreamingConfig& config,
                                   std::size_t n, std::size_t k,
                                   std::size_t resident_bytes,
                                   const TileBytesFn& tile_bytes,
                                   std::size_t device_capacity_bytes) {
  if (n == 0) {
    throw std::invalid_argument("resolve_streaming_2d: empty dataset");
  }
  if (k == 0) {
    throw std::invalid_argument("resolve_streaming_2d: empty grid");
  }
  StreamingPlan plan;
  plan.budget_bytes = config.memory_budget_bytes;
  if (plan.budget_bytes == 0 && config.auto_tune) {
    plan.budget_bytes = env_memory_budget();
  }

  // --- Explicit blocks win ------------------------------------------------
  // Like the 1-D resolver, an explicit block pins the streamed code path
  // regardless of budget, so degenerate sizes (1, n−1, n, n+13, …) exercise
  // exactly the machinery the auto-tuner would pick, just with a forced
  // tile shape. The ledger keeps the final word on feasibility.
  const bool explicit_n = config.n_block != 0;
  const bool explicit_k = config.k_block != 0;
  if (explicit_n) {
    plan.n_block = std::min(config.n_block, n);
    plan.n_streamed = true;
    plan.streamed = true;
    if (explicit_k) {
      plan.k_block = std::min(config.k_block, k);
      return plan;
    }
    // n pinned, k free: size the k-block against the budget when there is
    // one; otherwise a single slice covers the whole grid.
    std::size_t budget = plan.budget_bytes;
    if (budget == 0 && config.auto_tune) {
      budget = device_capacity_bytes;
    }
    if (device_capacity_bytes != 0 && budget > device_capacity_bytes) {
      budget = device_capacity_bytes;
    }
    if (budget == 0 || tile_bytes(plan.n_block, 1) > budget) {
      plan.k_block = budget == 0 ? k : 1;  // explicit block: degrade, let
                                           // the ledger have the final word
    } else {
      plan.k_block = largest_fitting_k_block(tile_bytes, plan.n_block, k,
                                             budget);
    }
    return plan;
  }
  if (explicit_k) {
    // Explicit k-block with a free n: n stays resident — the 1-D streamed
    // path, bit-for-bit the pre-n-blocking behaviour.
    plan.k_block = std::min(config.k_block, k);
    plan.n_block = n;
    plan.streamed = true;
    return plan;
  }

  // --- Budget-driven auto plan -------------------------------------------
  if (plan.budget_bytes == 0) {
    if (!config.auto_tune) {
      plan.k_block = k;
      plan.n_block = n;
      return plan;
    }
    plan.budget_bytes = device_capacity_bytes;
  }
  if (device_capacity_bytes != 0 && plan.budget_bytes > device_capacity_bytes) {
    plan.budget_bytes = device_capacity_bytes;
  }
  if (resident_bytes <= plan.budget_bytes) {
    plan.k_block = k;
    plan.n_block = n;
    return plan;
  }
  plan.streamed = true;
  if (tile_bytes(n, 1) <= plan.budget_bytes) {
    // n-resident k-blocks suffice (the PR-4 plan, sized identically).
    plan.n_block = n;
    plan.k_block =
        largest_fitting_k_block(tile_bytes, n, k, plan.budget_bytes);
    return plan;
  }
  // The O(n) carry state itself is over budget: tile the observations too.
  // The candidates are the halving sequence n/2, n/4, …, 1 (halving, not
  // binary search, keeps the search robust to the halo's non-monotone
  // block-boundary effects); each fitting candidate takes its largest
  // fitting k-block, and the plan with the fewest n_blocks × k_blocks tiles
  // wins — every tile costs a slab upload, a sweep launch and a lane fold.
  // Ties go to the larger n_block. Halving stops once the n-blocks alone
  // reach the best plan's tile count: no smaller block can beat it.
  plan.n_streamed = true;
  std::size_t best_tiles = 0;
  for (std::size_t nb = n / 2; nb >= 1; nb /= 2) {
    const std::size_t n_blocks = (n + nb - 1) / nb;
    if (best_tiles != 0 && n_blocks >= best_tiles) {
      break;
    }
    if (tile_bytes(nb, 1) > plan.budget_bytes) {
      continue;
    }
    const std::size_t kb =
        largest_fitting_k_block(tile_bytes, nb, k, plan.budget_bytes);
    const std::size_t tiles = n_blocks * ((k + kb - 1) / kb);
    if (best_tiles == 0 || tiles < best_tiles) {
      best_tiles = tiles;
      plan.n_block = nb;
      plan.k_block = kb;
    }
  }
  if (best_tiles == 0) {
    throw StreamingBudgetError(
        "resolve_streaming_2d: budget of " +
        std::to_string(plan.budget_bytes) +
        " bytes cannot fit even the minimal (n_block=1, k_block=1) tile of " +
        std::to_string(tile_bytes(1, 1)) +
        " bytes — raise the budget or shrink the problem");
  }
  return plan;
}

}  // namespace kreg
