#include "exec/cluster.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace dgf::exec {

double SimulateMakespan(const std::vector<double>& task_seconds, int slots) {
  if (task_seconds.empty()) return 0.0;
  slots = std::max(1, slots);
  // Min-heap of slot free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int i = 0; i < slots; ++i) free_at.push(0.0);
  double makespan = 0.0;
  for (double cost : task_seconds) {
    const double start = free_at.top();
    free_at.pop();
    const double end = start + std::max(0.0, cost);
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

void AppendMapTaskCosts(const ClusterConfig& cluster, uint64_t bytes_read,
                        uint64_t records, uint64_t seeks,
                        std::vector<double>* task_costs) {
  const double scaled_bytes =
      cluster.data_scale * static_cast<double>(bytes_read);
  const double scaled_records =
      cluster.data_scale * static_cast<double>(records);
  const auto virtual_tasks = static_cast<int64_t>(std::clamp(
      std::ceil(scaled_bytes / cluster.virtual_split_bytes), 1.0, 1.0e6));
  const double per_task =
      cluster.task_launch_overhead_s +
      scaled_bytes / virtual_tasks / (1e6 * cluster.scan_mb_per_s) +
      scaled_records / virtual_tasks * cluster.record_cpu_s +
      static_cast<double>(seeks) * cluster.seek_cost_s / virtual_tasks;
  task_costs->insert(task_costs->end(), static_cast<size_t>(virtual_tasks),
                     per_task);
}

void AppendReduceTaskCosts(const ClusterConfig& cluster, uint64_t shuffle_bytes,
                           uint64_t bytes_written,
                           std::vector<double>* task_costs) {
  const double scaled_shuffle =
      cluster.data_scale * static_cast<double>(shuffle_bytes);
  const double scaled_written =
      cluster.data_scale * static_cast<double>(bytes_written);
  const auto virtual_tasks = static_cast<int64_t>(
      std::clamp(std::ceil((scaled_shuffle + scaled_written) /
                           cluster.virtual_split_bytes),
                 1.0, 1.0e6));
  const double per_task =
      cluster.task_launch_overhead_s +
      scaled_shuffle / virtual_tasks / (1e6 * cluster.shuffle_mb_per_s) +
      scaled_written / virtual_tasks / (1e6 * cluster.scan_mb_per_s);
  task_costs->insert(task_costs->end(), static_cast<size_t>(virtual_tasks),
                     per_task);
}

}  // namespace dgf::exec
