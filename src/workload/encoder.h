/**
 * @file
 * Token codebook: maps symbolic item ids to quasi-orthogonal width-W
 * embeddings and decodes noisy read vectors back to the nearest token.
 *
 * The synthetic QA suite (our offline substitution for bAbI — see
 * workload/retrieval.h) stores codebook entries into DNC memory and
 * judges retrieval by nearest-codebook decoding, so the decoder is the
 * "answer layer" of the workload.
 */

#ifndef HIMA_WORKLOAD_ENCODER_H
#define HIMA_WORKLOAD_ENCODER_H

#include "common/random.h"

namespace hima {

/** Deterministic random codebook with nearest-neighbour decoding. */
class TokenCodebook
{
  public:
    /**
     * @param vocabulary number of distinct tokens
     * @param width      embedding width (the DNC's W)
     * @param seed       deterministic construction seed
     */
    TokenCodebook(Index vocabulary, Index width, std::uint64_t seed);

    /** Embedding of one token (unit-norm). */
    const Vector &encode(Index token) const;

    /** Nearest token by cosine similarity. */
    Index decode(const Vector &readout) const;

    /** Cosine similarity of the readout to a specific token. */
    Real score(const Vector &readout, Index token) const;

    Index vocabulary() const { return entries_.size(); }
    Index width() const { return width_; }

  private:
    Index width_;
    std::vector<Vector> entries_;
};

} // namespace hima

#endif // HIMA_WORKLOAD_ENCODER_H
