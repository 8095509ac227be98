#pragma once

#include <cstddef>
#include <vector>

namespace tbmd::par {

/// Contiguous decomposition of atom (= BSR block-row) indices into
/// domains: domain d covers indices [domain_ptr[d], domain_ptr[d + 1]).
/// A pure function of its inputs, so two runs (or a checkpoint-resumed
/// run) always produce the same partition.
struct DomainPartition {
  std::vector<std::size_t> domain_ptr;  ///< size domain count + 1
};

/// `ndomains` equal-count contiguous chunks of [0, n) (0 is taken as 1).
/// Rows keep their order: the lattice builders emit spatially sorted
/// atoms, so only the scheduling granularity is wanted, not a permutation.
DomainPartition even_domains(std::size_t n, std::size_t ndomains);

}  // namespace tbmd::par
