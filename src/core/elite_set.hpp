// Elite solution set (paper Section II-B, Fig. 2): the N_es best designs
// simulated so far, ranked by FoM. Its bounding box restricts actor actions
// through the boundary-violation term of Eq. 5/6.
//
// The class is thread-safe so it can be *shared* across actors (the paper's
// first contribution): each of the N_act simulations of an iteration can
// refresh the shared set, versus one refresh per iteration for per-actor
// individual sets (MA-Opt^1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_annotations.hpp"
#include "linalg/matrix.hpp"

namespace maopt::core {

using linalg::Vec;

class EliteSet {
 public:
  struct Entry {
    Vec x;
    double fom;
    std::uint64_t hash = 0;  ///< hash_design(x) — duplicate screen
  };

  explicit EliteSet(std::size_t capacity);

  /// Inserts if the set is not full or `fom` beats the current worst.
  /// Returns true when the design entered the set. A design identical to an
  /// existing member (same hash_design + same coordinates) never occupies a
  /// second slot: with a result cache in the loop the same elite design can
  /// be re-proposed and re-reported many times, and duplicates would shrink
  /// the effective set — in the extreme collapsing its bounding box to a
  /// point. A duplicate with a better FoM re-ranks the existing member; one
  /// with an equal-or-worse FoM is rejected.
  bool try_insert(const Vec& x, double fom);

  /// Snapshot of the members (ascending FoM).
  std::vector<Entry> snapshot() const;

  /// Member with the lowest FoM. Throws if empty.
  Entry best() const;

  /// Column-wise bounding box over the members: lb_rest / ub_rest of Eq. 6.
  /// Throws if empty.
  void bounds(Vec& lower, Vec& upper) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  mutable Mutex mutex_;  ///< leaf lock: nothing is acquired under it
  std::vector<Entry> entries_ MAOPT_GUARDED_BY(mutex_);  ///< kept sorted by ascending fom
  std::size_t capacity_;
};

}  // namespace maopt::core
