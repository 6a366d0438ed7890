#ifndef GANSWER_COMMON_TOPOLOGY_H_
#define GANSWER_COMMON_TOPOLOGY_H_

namespace ganswer {

/// CPUs this process may run on, always >= 1: the CPU_COUNT of its
/// sched_getaffinity(2) mask, so a container cpuset confining the process
/// to a slice of the box is honoured. The drop-in replacement for
/// std::thread::hardware_concurrency(), which reports the whole box.
int AvailableCpus();

}  // namespace ganswer

#endif  // GANSWER_COMMON_TOPOLOGY_H_
