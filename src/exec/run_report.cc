#include "exec/run_report.h"

#include <cstdio>

#include "storage/index_cache.h"

namespace adj::exec {

void RunReport::SetIndexStats(const storage::IndexBuildStats& stats) {
  index_builds = stats.builds;
  index_reused = stats.hits;
  index_mmap = stats.mmap_hits;
  index_patched = stats.patched;
  delta_rows_merged = stats.delta_rows_merged;
}

std::string RunReport::ToString() const {
  if (!status.ok()) {
    return method + ": FAILED (" + status.ToString() + ")";
  }
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "%s: out=%llu total=%.3fs (opt=%.3f pre=%.3f comm=%.3f "
                "comp=%.3f ovh=%.3f) shuffled=%llu tuples "
                "indexes(built=%llu reused=%llu mmap=%llu patched=%llu "
                "delta_rows=%llu) "
                "kernels(simd=%llu scalar=%llu) "
                "compressed(bytes=%llu blocks_decoded=%llu)",
                method.c_str(), static_cast<unsigned long long>(output_count),
                TotalSeconds(), optimize_s, precompute_s, comm_s, comp_s,
                overhead_s,
                static_cast<unsigned long long>(comm.tuple_copies +
                                                precompute_comm.tuple_copies),
                static_cast<unsigned long long>(index_builds),
                static_cast<unsigned long long>(index_reused),
                static_cast<unsigned long long>(index_mmap),
                static_cast<unsigned long long>(index_patched),
                static_cast<unsigned long long>(delta_rows_merged),
                static_cast<unsigned long long>(simd_intersections),
                static_cast<unsigned long long>(scalar_fallbacks),
                static_cast<unsigned long long>(compressed_bytes),
                static_cast<unsigned long long>(blocks_decoded));
  return buf;
}

}  // namespace adj::exec
