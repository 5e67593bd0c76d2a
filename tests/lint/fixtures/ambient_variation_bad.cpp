// maopt-lint-fixture-path: src/circuits/fixture.cpp
// BAD: variation as problem state — set, then a plain evaluate.
#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

class Pinned final : public SizingProblem {
 public:
  void set_process_variation(const ProcessVariation& pv) override { pv_ = pv; }  // flagged

 private:
  ProcessVariation pv_;
};

EvalResult slow_corner(SizingProblem& problem, const Vec& x, const ProcessVariation& ss) {
  problem.set_process_variation(ss);  // flagged
  return problem.evaluate(x);
}

}  // namespace maopt::ckt
