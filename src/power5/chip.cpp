#include "power5/chip.h"

namespace hpcs::p5 {

Chip::Chip(int num_cores, const ThroughputParams& params) {
  HPCS_CHECK_MSG(num_cores > 0, "chip needs at least one core");
  cores_.reserve(static_cast<std::size_t>(num_cores));
  const auto table = std::make_shared<const SpeedTable>(params);
  for (CoreId c = 0; c < num_cores; ++c) cores_.emplace_back(c, table);
}

void Chip::set_listener(SmtCore::SpeedChangeListener l) {
  for (auto& c : cores_) c.set_listener(l);
}

}  // namespace hpcs::p5
