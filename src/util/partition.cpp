#include "src/util/partition.hpp"

namespace tbmd::par {

DomainPartition even_domains(std::size_t n, std::size_t ndomains) {
  if (ndomains == 0) ndomains = 1;
  DomainPartition part;
  part.domain_ptr.resize(ndomains + 1);
  for (std::size_t d = 0; d <= ndomains; ++d) {
    part.domain_ptr[d] = (n * d) / ndomains;
  }
  return part;
}

}  // namespace tbmd::par
