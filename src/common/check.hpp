// Contract-check layer shared by every maopt library.
//
// Two tiers, chosen by cost at the call site:
//
//   MAOPT_CHECK(cond, msg)   Always compiled in. For API misuse on cold
//                            paths (shape mismatches, empty populations,
//                            invalid configs): throws ContractViolation,
//                            which derives from std::invalid_argument so
//                            pre-existing catch sites keep working.
//
//   MAOPT_DCHECK(cond, msg)  Compiled in Debug builds and whenever
//                            MAOPT_CHECKED is defined (cmake
//                            -DMAOPT_CHECKED=ON). For hot-loop invariants
//                            (per-element bounds, GEMM operands, Adam
//                            update ranges) where an always-on branch would
//                            cost real throughput: prints the failed
//                            condition and aborts, so it is usable from
//                            noexcept contexts and shows up in gtest death
//                            tests.
//
// MAOPT_DCHECK_ENABLED is 1 when MAOPT_DCHECK is active, so tests can gate
// death-test expectations on the build flavor.
#pragma once

#include <stdexcept>
#include <string>

namespace maopt {

/// Thrown by MAOPT_CHECK. Derives from std::invalid_argument because the
/// checks it replaced threw that type; callers catching the standard type
/// continue to work.
class ContractViolation : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {

/// Cold path of MAOPT_CHECK: formats "<msg> (check `cond` failed at
/// file:line)" and throws ContractViolation.
[[noreturn]] void contract_fail(const char* cond, const char* file, int line,
                                const std::string& msg);

/// Cold path of MAOPT_DCHECK: writes the failure to stderr and aborts.
[[noreturn]] void dcheck_fail(const char* cond, const char* file, int line,
                              const char* msg) noexcept;

}  // namespace detail
}  // namespace maopt

#define MAOPT_CHECK(cond, msg)                                            \
  (static_cast<bool>(cond)                                                \
       ? void(0)                                                          \
       : ::maopt::detail::contract_fail(#cond, __FILE__, __LINE__, (msg)))

#if defined(MAOPT_CHECKED) || !defined(NDEBUG)
#define MAOPT_DCHECK_ENABLED 1
#define MAOPT_DCHECK(cond, msg)                                         \
  (static_cast<bool>(cond)                                              \
       ? void(0)                                                        \
       : ::maopt::detail::dcheck_fail(#cond, __FILE__, __LINE__, (msg)))
#else
#define MAOPT_DCHECK_ENABLED 0
#define MAOPT_DCHECK(cond, msg) static_cast<void>(0)
#endif
