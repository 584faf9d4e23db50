#pragma once
// Scheduling domains (paper §IV-A): the topology tree the workload balancer
// walks. On a POWER5 system there are three levels — context, core and chip;
// a domain at each level partitions its span into groups whose task counts
// the balancer tries to equalize.

#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace hpcs::kern {

/// One domain level as seen from a particular CPU: the partition of the
/// domain's span into balancing groups. The group containing the observing
/// CPU (`own`) competes against its sibling groups. The groups are stored
/// flat, one after another, so the balancer walks them without allocating.
struct Domain {
  std::string level;              ///< "smt", "core", ...
  std::vector<CpuId> cpus;        ///< the span, group by group
  std::vector<std::size_t> ends;  ///< group g is cpus[ends[g-1], ends[g])
  std::size_t own = 0;            ///< index of the observing CPU's group

  [[nodiscard]] std::size_t num_groups() const { return ends.size(); }
  [[nodiscard]] std::span<const CpuId> group(std::size_t g) const {
    const std::size_t begin = g == 0 ? 0 : ends[g - 1];
    return {cpus.data() + begin, ends[g] - begin};
  }

  /// Append one group; `observer` marks it as own if it contains that CPU.
  void add_group(CpuId first, int count, CpuId observer) {
    if (observer >= first && observer < first + count) own = ends.size();
    for (CpuId c = first; c < first + count; ++c) cpus.push_back(c);
    ends.push_back(cpus.size());
  }
};

/// CPU topology of the simulated machine and the per-CPU domain hierarchy.
class Topology {
 public:
  /// A single POWER5-style chip: `num_cores` cores, 2 SMT contexts each.
  static Topology power5_chip(int num_cores);

  /// A multi-chip POWER5 system: adds the third (chip) domain level the
  /// paper describes ("in a POWER5 system there are three domain levels:
  /// chip level, core level and context level").
  static Topology power5_system(int num_chips, int cores_per_chip);

  [[nodiscard]] int num_cpus() const { return num_cpus_; }

  /// Domain levels for `cpu`, smallest (SMT siblings) first.
  [[nodiscard]] const std::vector<Domain>& domains_for(CpuId cpu) const {
    return per_cpu_[static_cast<std::size_t>(cpu)];
  }

 private:
  int num_cpus_ = 0;
  std::vector<std::vector<Domain>> per_cpu_;
};

inline Topology Topology::power5_chip(int num_cores) {
  return power5_system(1, num_cores);
}

inline Topology Topology::power5_system(int num_chips, int cores_per_chip) {
  Topology t;
  const int num_cores = num_chips * cores_per_chip;
  const int cpus_per_chip = cores_per_chip * 2;
  t.num_cpus_ = num_cores * 2;
  t.per_cpu_.resize(static_cast<std::size_t>(t.num_cpus_));

  for (CpuId cpu = 0; cpu < t.num_cpus_; ++cpu) {
    const CoreId core = cpu / 2;
    const int chip = core / cores_per_chip;
    auto& levels = t.per_cpu_[static_cast<std::size_t>(cpu)];

    // SMT-level domain: groups are this core's two contexts.
    Domain& smt = levels.emplace_back();
    smt.level = "smt";
    smt.add_group(core * 2, 1, cpu);
    smt.add_group(core * 2 + 1, 1, cpu);

    // Core-level domain within this CPU's chip: groups are that chip's cores.
    if (cores_per_chip > 1) {
      Domain& core_level = levels.emplace_back();
      core_level.level = "core";
      for (int c = chip * cores_per_chip; c < (chip + 1) * cores_per_chip; ++c) {
        core_level.add_group(c * 2, 2, cpu);
      }
    }

    // Chip-level domain: groups are whole chips.
    if (num_chips > 1) {
      Domain& chip_level = levels.emplace_back();
      chip_level.level = "chip";
      for (int c = 0; c < num_chips; ++c) {
        chip_level.add_group(c * cpus_per_chip, cpus_per_chip, cpu);
      }
    }
  }
  return t;
}

}  // namespace hpcs::kern
