#pragma once
// Bit-exact RunResult -> bytes, for tests that must prove two runs produced
// the same result down to the last bit. test_eq_differential compares the
// timing-wheel and heap-only event cores this way: doubles are written as
// IEEE-754 bit patterns, so any difference in any value field shows up as a
// byte difference instead of hiding behind a %.10g rounding.
//
// Scope: the value fields only. The host-side handles (tracer, recorder,
// chrome) are not part of the byte image.

#include <string>

#include "analysis/experiment.h"

namespace hpcs::analysis {

/// Serialize the value fields of `r` (tracer/recorder/chrome excluded).
[[nodiscard]] std::string serialize_run_result(const RunResult& r);

}  // namespace hpcs::analysis
