/**
 * @file
 * The complete DNC: LSTM controller + memory unit (Fig. 1 right).
 *
 * This is the functional reference model the paper verifies its RTL
 * against ("we verified the designs against a functional model of DNC ...
 * at kernel level as well as system level", Sec. 7). The accelerator
 * timing model in src/arch replays this model's measured kernel profile.
 */

#ifndef HIMA_DNC_DNC_H
#define HIMA_DNC_DNC_H

#include "dnc/controller.h"
#include "dnc/memory_unit.h"

namespace hima {

/** One full DNC instance. */
class Dnc
{
  public:
    /**
     * @param config shapes and feature flags
     * @param seed   deterministic weight-initialization seed
     */
    explicit Dnc(const DncConfig &config, std::uint64_t seed = 1);

    /**
     * One inference step: controller -> interface -> memory unit ->
     * output head.
     *
     * @param input width-inputSize task token
     * @return width-outputSize model output
     */
    Vector step(const Vector &input);

    /**
     * Drive the memory unit directly with a scripted interface vector,
     * bypassing the controller. The workload harness uses this to run
     * write/read scripts with known ground truth (the offline stand-in
     * for the paper's bAbI evaluation; see workload/retrieval.h).
     */
    MemoryReadout stepInterface(const InterfaceVector &iface);

    /** Reset controller and memory state (episode boundary). */
    void reset();

    const DncConfig &config() const { return config_; }
    MemoryUnit &memory() { return memory_; }
    const MemoryUnit &memory() const { return memory_; }
    Controller &controller() { return controller_; }

    /** Merged profiler view (controller + memory unit kernels). */
    const KernelProfiler &profiler() const { return memory_.profiler(); }
    KernelProfiler &profiler() { return memory_.profiler(); }

    /** Read vectors from the previous step (width W each). */
    const std::vector<Vector> &lastReads() const { return lastReads_; }

  private:
    DncConfig config_;
    Rng rng_;
    Controller controller_;
    MemoryUnit memory_;
    std::vector<Vector> lastReads_;
    MemoryReadout readout_; ///< reused across step() calls (no realloc)
};

} // namespace hima

#endif // HIMA_DNC_DNC_H
