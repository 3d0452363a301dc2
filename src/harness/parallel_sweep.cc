#include "harness/parallel_sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/env.hh"
#include "common/thread_pool.hh"

namespace mcd
{

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, std::uint64_t job_index)
{
    // splitmix64 finalizer over base + index * golden-gamma: adjacent
    // indices land in decorrelated regions of the seed space.
    std::uint64_t z = base_seed +
        0x9e3779b97f4a7c15ull * (job_index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ParallelSweep::ParallelSweep(int workers)
    : workers_(workers > 0 ? workers : defaultWorkers())
{
}

int
ParallelSweep::defaultWorkers()
{
    int jobs = envInt("MCD_JOBS", 0);
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
ParallelSweep::forEach(std::size_t count,
                       const std::function<void(std::size_t)> &body) const
{
    if (count == 0)
        return;

    std::size_t width = std::min<std::size_t>(
        static_cast<std::size_t>(workers_), count);
    if (width <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::vector<std::exception_ptr> errors(count);
    {
        ThreadPool pool(static_cast<int>(width));
        for (std::size_t i = 0; i < count; ++i) {
            pool.submit([&, i] {
                try {
                    body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (auto &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace mcd
