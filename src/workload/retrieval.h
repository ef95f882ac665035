/**
 * @file
 * Scripted-interface retrieval harness — the offline substitution for the
 * bAbI evaluation.
 *
 * Episodes are sequences of scripted interface vectors with known ground
 * truth: WRITE steps store a (key, value) pair into DNC memory through
 * the normal soft-write path (allocation-gated, so usage / sort /
 * allocation all engage); QUERY steps perform a content soft read of the
 * key and are scored by nearest-codebook decoding of the value half of
 * the read vector; TEMPORAL queries first locate an anchor item by
 * content and then follow the temporal linkage in forward mode, which is
 * the history mechanism DNC adds over NTM.
 *
 * The memory word (width W) is split [key embedding | value embedding],
 * each W/2 wide, so content lookups match on the key half.
 */

#ifndef HIMA_WORKLOAD_RETRIEVAL_H
#define HIMA_WORKLOAD_RETRIEVAL_H

#include <functional>

#include "dnc/dncd.h"
#include "workload/encoder.h"

namespace hima {

/** What one episode step does. */
enum class StepKind
{
    Write,          ///< store (key, value)
    Query,          ///< content lookup of key; scored
    TemporalAnchor, ///< content lookup of key; not scored, arms linkage
    TemporalQuery,  ///< forward-mode read after an anchor; scored
};

/** One scripted step with its ground truth. */
struct EpisodeStep
{
    StepKind kind;
    Index keyToken;   ///< key for writes / lookups (unused for temporal)
    Index valueToken; ///< stored value (writes) or expected answer
};

/** A full episode plus bookkeeping. */
struct Episode
{
    std::vector<EpisodeStep> steps;
    Index writes = 0;
    Index scoredQueries = 0;
};

/** Builds scripted interface vectors for the retrieval protocol. */
class InterfaceScripter
{
  public:
    /**
     * @param config DNC shapes; memoryWidth must be even
     * @param keys   key codebook of width W/2
     * @param values value codebook of width W/2
     */
    InterfaceScripter(const DncConfig &config, const TokenCodebook &keys,
                      const TokenCodebook &values);

    /** Soft-write interface storing [key | value] via allocation. */
    InterfaceVector writeInterface(Index keyToken, Index valueToken) const;

    /** Content-mode read of the key (write gate closed). */
    InterfaceVector queryInterface(Index keyToken) const;

    /** Forward-linkage read (mode = forward, write gate closed). */
    InterfaceVector temporalInterface() const;

    /** Decode the value half of a read vector. */
    Index decodeValue(const Vector &readVector) const;

    /** Cosine score of the value half against a specific token. */
    Real valueScore(const Vector &readVector, Index token) const;

  private:
    InterfaceVector blankInterface() const;

    DncConfig config_;
    const TokenCodebook &keys_;
    const TokenCodebook &values_;
};

/** Accuracy result of running one episode. */
struct EpisodeResult
{
    Index scored = 0;
    Index correct = 0;
    /** Mean cosine margin of the correct answer over the runner-up. */
    Real meanScore = 0.0;

    Real
    errorRate() const
    {
        return scored ? 1.0 - static_cast<Real>(correct) /
                                  static_cast<Real>(scored)
                      : 0.0;
    }
};

/**
 * Run an episode on a monolithic DNC memory unit.
 *
 * @param model    the DNC whose memory unit executes the script
 * @param scripter interface builder (also decodes answers)
 * @param episode  the scripted episode
 */
EpisodeResult runEpisode(Dnc &model, const InterfaceScripter &scripter,
                         const Episode &episode);

/**
 * Run an episode on a sharded tile memory (in-process DncD or one lane
 * of a wire-connected ShardLaneGroup — any TileMemory). Writes are routed
 * to tile keyToken % Nt by masking the write gate on all other tiles
 * (the trained LSTM's learned sharding, Sec. 5.1); queries broadcast to
 * every tile and the merged read vector is scored.
 */
EpisodeResult runEpisodeDistributed(TileMemory &model,
                                    const InterfaceScripter &scripter,
                                    const Episode &episode);

} // namespace hima

#endif // HIMA_WORKLOAD_RETRIEVAL_H
