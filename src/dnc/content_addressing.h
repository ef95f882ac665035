/**
 * @file
 * Content-based addressing (CW.(1)-(2) / CR.(1)-(2) in Fig. 2): normalize
 * the memory rows and the key, take row-key cosine similarities, sharpen
 * by the strength and softmax into a weighting over slots.
 */

#ifndef HIMA_DNC_CONTENT_ADDRESSING_H
#define HIMA_DNC_CONTENT_ADDRESSING_H

#include <memory>

#include "approx/softmax_approx.h"
#include "dnc/kernel_profiler.h"

namespace hima {

/**
 * Content-addressing engine. Owns an optional approximate-softmax unit so
 * that one construction decision (exact vs PLA+LUT) applies to every
 * lookup, the way a synthesized SFU choice would.
 */
class ContentAddressing
{
  public:
    /**
     * @param approximate   use the PLA+LUT softmax (Sec. 5.2)
     * @param segments      PLA segment count when approximate
     * @param skipThreshold active-row threshold of the similarity scan:
     *                      rows whose cached norm is at or below it are
     *                      scored 0 without the O(W) dot (see
     *                      DncConfig::readSkipThreshold)
     */
    explicit ContentAddressing(bool approximate = false, int segments = 8,
                               Real skipThreshold = 0.0);

    /**
     * C(M, k, beta): weighting over the N rows of memory.
     *
     * Charges Normalize and Similarity kernel counts to the profiler when
     * one is supplied.
     *
     * @param memory   N x W external memory
     * @param key      width-W lookup key
     * @param strength sharpness beta >= 1
     * @param profiler optional instrumentation sink
     */
    Vector weighting(const Matrix &memory, const Vector &key, Real strength,
                     KernelProfiler *profiler = nullptr) const;

    /**
     * Destination-passing variant of weighting(): the caller owns every
     * buffer, so a steady-state call performs no heap allocation.
     *
     * When `cachedRowNorms` is non-null it must hold the L2 norm of each
     * memory row (the MemoryUnit maintains this cache across writes) and
     * the O(N*W) norm recompute is skipped; additionally the similarity
     * scan skips rows whose cached norm is at or below the construction
     * skip threshold, scoring them 0 without the O(W) dot. At the
     * default threshold of 0 only never-written rows are skipped, and
     * their score is exactly what the dense scan computes (an all-zero
     * row's dot is +0.0 and +0.0/eps sharpens to +0.0), so the result is
     * bit-identical; the softmax still runs over all N rows. Every
     * scored row's dot is one c-ascending chain whichever body computes
     * it (row-parallel AVX2 blocks of 16 rows for even widths, four
     * scalar rows at a time otherwise), so the scores do not depend on
     * the build's SIMD width or on where skipped rows break the runs.
     * Profiler charges still reflect the full hardware Normalize/
     * Similarity cost (software savings land in skippedRows/skippedOps)
     * — the cache is a simulator-speed optimization, not a change to
     * the modeled architecture. With a null cache the norms are recomputed and every
     * row is scored, exactly as the reference path does.
     *
     * @param cachedRowNorms length-N row-norm cache, or nullptr
     * @param scores         length-N scratch (overwritten)
     * @param out            result weighting (resized and overwritten)
     */
    void weightingInto(const Matrix &memory, const Vector &key,
                       Real strength, const Vector *cachedRowNorms,
                       Vector &scores, Vector &out,
                       KernelProfiler *profiler = nullptr) const;

    bool approximate() const { return approx_ != nullptr; }
    Real skipThreshold() const { return skipThreshold_; }

  private:
    std::unique_ptr<SoftmaxApprox> approx_;
    Real skipThreshold_ = 0.0;
};

} // namespace hima

#endif // HIMA_DNC_CONTENT_ADDRESSING_H
