/**
 * @file
 * Wire protocol for multi-process sharded DNC-D (the scale-out axis of
 * Sec. 5.1 / Fig. 8): a versioned, endian-safe binary codec with
 * length-prefixed framing.
 *
 * The protocol carries exactly the traffic the paper's tile arrangement
 * implies. Per step the coordinator scatters the step's interface
 * vector (one broadcast, or one per tile for learned write sharding)
 * and gathers each tile's R read vectors plus R confidence logits
 * (strength x best row cosine, computed tile-locally against the tile's
 * own memory) — so the *distributed* confidence merge needs only a
 * softmax over Nt gathered scalars per scored head, never the remote
 * memory contents. Control frames cover episode reset / admit; a config
 * handshake validates shapes and the fixed-point mode at connect time.
 *
 * Layout rules (all multi-byte values little-endian on the wire,
 * regardless of host order):
 *
 *   frame   := [u32 payload length] [payload]        (Channel framing)
 *   payload := [u16 magic] [u8 version] [u8 type] [body...]
 *   Real    := IEEE-754 binary64, bit-cast to u64    (lossless: the
 *              bit-exactness contract survives serialization)
 *   vector  := [u32 count] [Real x count]
 *
 * Real arrays move through a bulk little-endian path (one memcpy on LE
 * hosts, byte-assembled elsewhere) so serialization cost does not
 * dominate lane-batched frames; the bit pattern on the wire is
 * identical either way.
 *
 * Decoders are destination-passing (buffers resize in place, so a
 * steady-state worker round trip performs zero heap allocations) and
 * fail-closed: every read is bounds-checked, declared counts are
 * validated against the handshake config *before* any resize, and any
 * malformed frame yields `false` from decode — never UB, never an
 * attacker-sized allocation (tests/test_wire.cpp truncates and corrupts
 * frames byte by byte).
 *
 * Version 2 added the pipelined serving surface: a `lanes` field in the
 * handshake (a worker hosts `lanes x hostedTiles` independent tile
 * sets), a lane id on Control frames (admit/reset one lane without
 * touching the rest), and the lane-batched LaneStep/LaneStepReply pair
 * — one frame carries k lanes' interfaces per worker, the reply carries
 * k lanes' readouts + confidence logits, and sequence ids correlate
 * replies with requests so multiple frames can be in flight per
 * channel.
 *
 * Version 3 added the fault-tolerance surface: CheckpointRequest pulls a
 * CheckpointState frame carrying the complete recurrent state of every
 * hosted (lane, tile) pair — memory rows, the row-norm cache, usage,
 * linkage, precedence, and the previous write/read weightings, i.e.
 * exactly a MemoryTileState per tile — and Restore pushes such a
 * snapshot back into a worker. Shapes ride the handshake, not the
 * frame, so checkpoint bodies are raw Real arrays (one memcpy per field
 * on LE hosts) and every decoder stays fail-closed: counts are
 * validated before any resize, truncation at any byte returns false.
 *
 * Version 6 makes checkpoint traffic active-set sparse. Every tile
 * body now opens with an encoding byte and the linkage's monotone
 * touched-slot list (the column set the sparse sweeps iterate — not
 * derivable from the matrix at positive skip thresholds, so it must
 * ride the frame for a restore to reproduce an undisturbed run).
 * Encoding 0 is the dense v5 field sequence; encoding 1 ships only the
 * nonzero memory rows and nonzero linkage rows as (u32 index, row)
 * pairs and omits the row-norm cache entirely (the decoder rebuilds it
 * from the shipped rows with the memory write's own summation order,
 * bit-identically). The encoder picks per tile whichever encoding is
 * byte-smaller — early-episode snapshots shrink by ~N/A while a
 * saturated memory falls back to dense, which also bounds every
 * checkpoint frame by its dense size.
 * Sparse decoders stay fail-closed: counts are capped by the handshake
 * shapes, indices must be strictly ascending and in range, the
 * encoding byte must be known, and truncation anywhere returns false.
 * The handshake grows the read-stage knobs (readSkipThreshold and a
 * forced-dense-sweep byte) so coordinator and worker agree on the
 * sparse datapath.
 *
 * Version 7 leaves one step frame on the wire. Each LaneStep entry opens
 * with a tag byte: a broadcast entry carries one interface every hosted
 * tile of its lane steps with; a per-tile entry carries exactly Nt
 * global per-tile interfaces (learned write sharding), and the worker
 * steps hosted tile i with interface firstTile + i. Every channel still
 * receives identical bytes. Hello carries firstTile and the global tile
 * count, so a Hello to a replacement worker is the re-attach handshake.
 * The single-lane Step/StepReply pair and the separate re-attach frame
 * are gone; the remaining message types keep their numeric values, and
 * the retired values fail peekType(). LaneStepReply decoding rejects
 * any non-finite Real: one NaN logit would otherwise poison a lane's
 * merge softmax.
 *
 * Version 8 drops the handshake's forced-dense-sweep byte: tiles run one
 * linkage sweep, and each checkpoint tile body takes whichever encoding
 * is byte-smaller, with no override. Every other field keeps its order.
 * A v7 Hello still carries the byte, so it would misparse as v8; the
 * version check refuses it before any field is read.
 */

#ifndef HIMA_SHARD_WIRE_H
#define HIMA_SHARD_WIRE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnc/interface.h"
#include "dnc/memory_unit.h"
#include "obs/metrics.h"

namespace hima {

/** Protocol magic ("HM") — first two payload bytes of every message. */
constexpr std::uint16_t kWireMagic = 0x484D;

/** Protocol version; bumped on any layout change (v8: the Hello's
 * forced-dense-sweep byte retired). */
constexpr std::uint8_t kWireVersion = 8;

/** Largest legal payload (guards framing against garbage lengths). */
constexpr std::uint32_t kWireMaxFrameBytes = 64u << 20;

/** Message types (values 3, 4 and 14 are retired and rejected). */
enum class MsgType : std::uint8_t
{
    Hello = 1,      ///< coordinator -> worker: config + tile assignment
    HelloAck = 2,   ///< worker -> coordinator: accept/reject + detail
    Control = 5,    ///< coordinator -> worker: episode reset / admit
    ControlAck = 6, ///< worker -> coordinator: control completed
    Shutdown = 7,   ///< coordinator -> worker: stop serving
    Error = 8,      ///< worker -> coordinator: protocol failure detail
    LaneStep = 9,   ///< coordinator -> worker: k lanes' interfaces
    LaneStepReply = 10, ///< worker -> coordinator: k lanes' readouts
    CheckpointRequest = 11, ///< coordinator -> worker: pull all tile state
    CheckpointState = 12,   ///< worker -> coordinator: lane-major snapshots
    Restore = 13,           ///< coordinator -> worker: push tile snapshots
    StatsPull = 15,   ///< coordinator -> worker: scrape the telemetry registry
    StatsReport = 16, ///< worker -> coordinator: obs::Snapshot of the process
};

/** Number of distinct message-type slots (for per-type counters). */
constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(MsgType::StatsReport) + 1;

/** Human-readable message-type name ("?" for out-of-range values). */
const char *msgTypeName(MsgType type);

/** Control-frame lane id meaning "every hosted lane". */
constexpr std::uint32_t kAllLanes = 0xFFFFFFFFu;

/** Control message kinds. */
enum class ControlKind : std::uint8_t
{
    EpisodeReset = 0, ///< zero all hosted tile state (episode boundary)
    Admit = 1,        ///< same reset, marking the start of a new episode
};

/**
 * The shard-relevant configuration the coordinator sends at connect.
 * memoryRows here is the *local* (per-tile) row count; the worker
 * validates every field against what it can serve and constructs its
 * tiles from them, so coordinator and worker can never silently run
 * different shapes or datapaths (fixed point, skimming, softmax mode).
 * The tile assignment (global tiles [firstTile, firstTile +
 * hostedTiles) of `tiles`) rides along: per-tile LaneStep entries carry
 * all Nt interfaces, and the worker picks its own slice by firstTile.
 */
struct WireConfig
{
    std::uint64_t memoryRows = 0;  ///< per-tile N
    std::uint64_t memoryWidth = 0; ///< W
    std::uint64_t readHeads = 0;   ///< R
    std::uint64_t numThreads = 1;  ///< worker tile-pool threads
    std::uint64_t hostedTiles = 0; ///< tiles this worker hosts, per lane
    std::uint64_t lanes = 1;       ///< independent lane tile sets hosted
    std::uint8_t approximateSoftmax = 0;
    std::uint32_t softmaxSegments = 8;
    std::uint8_t fixedPoint = 0;
    Real skimRate = 0.0;
    Real writeSkipThreshold = 0.0;
    Real linkageSkipThreshold = 0.0;
    Real readSkipThreshold = 0.0;
    std::uint64_t firstTile = 0; ///< first global tile hosted
    std::uint64_t tiles = 0;     ///< global tile count Nt

    /** Build from a per-shard DncConfig plus the tile assignment. */
    static WireConfig fromShard(const DncConfig &shard, Index tiles,
                                Index firstTile, Index hostedTiles,
                                Index lanes);

    /** Reconstruct the per-shard DncConfig a worker should run. */
    DncConfig toShardConfig() const;

    bool operator==(const WireConfig &other) const = default;
};

/** Handshake reply. */
struct HelloAckMsg
{
    bool ok = false;
    std::uint64_t hostedTiles = 0; ///< echo of the accepted assignment
    std::string message;           ///< failure detail when !ok
};

/** Episode control. */
struct ControlMsg
{
    ControlKind kind = ControlKind::EpisodeReset;
    std::uint64_t seq = 0;
    std::uint32_t lane = kAllLanes; ///< target lane (kAllLanes = every)
};

/**
 * One lane's slice of a lane-batched scatter: the lane id, the heads
 * needing fresh confidence logits, and the interfaces that lane's tiles
 * step with — either one broadcast interface (perTile == 0, the serving
 * path's query pattern) or `perTile` == Nt global per-tile interfaces
 * at iface[0 .. Nt) (learned write sharding).
 */
struct LaneStepEntry
{
    std::uint32_t lane = 0;
    std::uint32_t scoredMask = 0;
    const InterfaceVector *iface = nullptr;
    Index perTile = 0; ///< 0: broadcast; else Nt per-tile interfaces
};

/**
 * Decoded lane-batched scatter: per-entry parallel arrays plus one
 * interface pool. Entry j's interfaces start at ifaces[firstIface[j]]
 * (one when broadcast, Nt when perTile[j]); the pool only grows, so a
 * steady-state worker decode allocates nothing. Lane ids are validated
 * strictly increasing (and < the handshake's lane count), which rules
 * out duplicates — a frame stepping the same lane twice would race on
 * that lane's tiles.
 */
struct LaneStepMsg
{
    std::uint64_t seq = 0;
    bool wantWeightings = false;
    std::vector<std::uint32_t> lanes;
    std::vector<std::uint32_t> masks;
    std::vector<std::uint8_t> perTile;     ///< entry tag (1 = per-tile)
    std::vector<std::uint32_t> firstIface; ///< entry's first pool slot
    std::vector<InterfaceVector> ifaces;   ///< grow-only interface pool

    /** The interface global tile `tile` of entry j steps with. */
    const InterfaceVector &
    iface(Index j, Index tile) const
    {
        return ifaces[firstIface[j] + (perTile[j] != 0 ? tile : 0)];
    }
};

/**
 * Decoded lane-batched gather: per frame lane j and hosted tile i, the
 * readout lives at tiles[j * hostedTiles + i] and its R confidence
 * logits at confidence[(j * hostedTiles + i) * R ...]. Lane ids echo
 * the request's.
 */
struct LaneStepReplyMsg
{
    std::uint64_t seq = 0;
    bool hasWeightings = false;
    std::vector<std::uint32_t> lanes;
    std::vector<MemoryReadout> tiles;
    std::vector<Real> confidence;
};

/** Protocol failure detail. */
struct ErrorMsg
{
    std::string message;
};

/**
 * Append-only little-endian serializer over a reusable byte buffer.
 * clear() keeps capacity, so steady-state encoding never allocates.
 */
class WireWriter
{
  public:
    void clear() { buf_.clear(); }

    /** Encoded bytes so far. */
    const std::uint8_t *data() const { return buf_.data(); }
    std::size_t size() const { return buf_.size(); }

    /** The encoded bytes as a vector. */
    const std::vector<std::uint8_t> &buffer() const { return buf_; }

    void putU8(std::uint8_t v) { buf_.push_back(v); }
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putReal(Real v);
    void putVector(const Vector &v);
    void putString(const std::string &s);

    /**
     * Append `count` Reals as little-endian u64 bit patterns — one
     * memcpy on little-endian hosts, byte-assembled elsewhere. The wire
     * bytes are identical to `count` putReal() calls.
     */
    void putRealArray(const Real *values, Index count);

    /** Start a message: magic, version, type. */
    void header(MsgType type);

  private:
    void append(const void *src, std::size_t n);

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader with a sticky failure flag: any
 * out-of-range read (or failed validation recorded via fail()) makes
 * every subsequent read return zero and ok() return false, so decoders
 * can run straight-line and check once at the end.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }
    bool atEnd() const { return ok_ && pos_ == size_; }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    Real real();

    /** Read a vector whose count must equal `expected`. */
    void vector(Vector &out, Index expected);

    /** Read `count` Reals into `out` (bulk form of real()). */
    void realArray(Real *out, Index count);

    /** Read a length-prefixed string (capped at the remaining bytes). */
    void string(std::string &out);

    /** Consume and validate the message header against `expected`. */
    void header(MsgType expected);

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Peek a payload's message type; false on short/invalid header. */
bool peekType(const std::uint8_t *data, std::size_t size, MsgType &type);

// --- encoders (writer is cleared first; result is writer.buffer()) ---

void encodeHello(const WireConfig &config, WireWriter &out);
void encodeHelloAck(const HelloAckMsg &msg, WireWriter &out);

/**
 * Encode a lane-batched step: one frame carries `count` lane entries
 * (ordered by strictly increasing lane id). Body per entry: [u32 lane]
 * [u32 scoredMask] [u8 tag], then tag 0: one interface, or tag 1:
 * [u32 Nt] and Nt per-tile interfaces.
 */
void encodeLaneStep(std::uint64_t seq, bool wantWeightings,
                    const LaneStepEntry *entries, Index count,
                    WireWriter &out);

/**
 * Encode a lane-batched reply straight from the worker's lane-major
 * scratch: readout (j, i) at readouts[j * hostedTiles + i], logits at
 * confidence[(j * hostedTiles + i) * R ...].
 */
void encodeLaneStepReply(std::uint64_t seq, bool withWeightings,
                         const std::uint32_t *lanes, Index laneCount,
                         Index hostedTiles,
                         const std::vector<MemoryReadout> &readouts,
                         const std::vector<Real> &confidence,
                         const DncConfig &shard, WireWriter &out);

void encodeControl(const ControlMsg &msg, WireWriter &out);
void encodeControlAck(std::uint64_t seq, WireWriter &out);
void encodeShutdown(WireWriter &out);
void encodeError(const std::string &message, WireWriter &out);

/** Pull every hosted (lane, tile) snapshot; answered by CheckpointState. */
void encodeCheckpointRequest(std::uint64_t seq, WireWriter &out);

/**
 * Encode all hosted tile state straight from the worker's lane-major
 * tile array — no intermediate snapshot object, one bulk Real-array
 * append per field. The body opens with a [u32 N] [u32 W] [u32 R]
 * shape echo after the tile count: sparse tile bodies are
 * variable-length (an all-zero tile carries no W-dependent field at
 * all), so decoders validate the echoed shapes against their own
 * config instead of inferring a mismatch from frame length.
 * Body layout per tile: [u8 encoding] [u32
 * touchedCount] [u32 slot x touchedCount, strictly ascending], then
 * either the dense field sequence (encoding 0: memory N*W, rowNorms N,
 * usage N, linkage N*N, precedence N, writeWeighting N, readWeightings
 * R*N — shapes from the handshake, no per-field counts) or the sparse
 * one (encoding 1: [u32 memRows] [(u32 row, Real x W) x memRows]
 * [u32 linkRows] [(u32 row, Real x N) x linkRows], both strictly
 * ascending and covering exactly the rows holding a nonzero entry,
 * then dense usage/precedence/writeWeighting/readWeightings — the
 * row-norm cache is omitted and rebuilt on decode). Each tile uses
 * whichever encoding is byte-smaller.
 */
void encodeCheckpointState(std::uint64_t seq,
                           const std::vector<std::unique_ptr<MemoryUnit>>
                               &tiles,
                           const DncConfig &shard, WireWriter &out);

/**
 * Encode a Restore carrying `count` tile snapshots (lane-major slice of
 * the coordinator's checkpoint store). The body layout matches
 * CheckpointState exactly; the worker acks with ControlAck(seq).
 */
void encodeRestore(std::uint64_t seq,
                   const MemoryTileState *const *snapshots, Index count,
                   const DncConfig &shard, WireWriter &out);

/** Pull the worker's telemetry registry; answered by StatsReport. */
void encodeStatsPull(std::uint64_t seq, WireWriter &out);

/**
 * Encode one process's scrape: per entry, the '.'-path name, the kind,
 * and a kind-dependent body; histogram buckets go sparse — [u16 index]
 * [u64 count] pairs with strictly increasing indices — since a scrape
 * window rarely touches more than a few octaves of the 496 buckets.
 */
void encodeStatsReport(std::uint64_t seq, const obs::Snapshot &snapshot,
                       WireWriter &out);

// --- decoders (false on any malformed input; outputs resize in place) ---

bool decodeHello(const std::uint8_t *data, std::size_t size,
                 WireConfig &config);
bool decodeHelloAck(const std::uint8_t *data, std::size_t size,
                    HelloAckMsg &msg);
/**
 * Decode a lane-batched step. `lanes` and `tiles` are the worker's
 * hosted lane count and the global tile count from the handshake:
 * frames naming more lanes than that, lane ids out of range or not
 * strictly increasing, unknown entry tags, and per-tile entries whose
 * interface count is not exactly `tiles` are rejected.
 */
bool decodeLaneStep(const std::uint8_t *data, std::size_t size,
                    const DncConfig &shard, Index lanes, Index tiles,
                    LaneStepMsg &msg);

/**
 * Decode a lane-batched reply. `maxLanes` bounds the declared lane
 * count (the coordinator knows how many lanes it scattered). Every
 * Real in the reply must be finite: the reply is a trust boundary, and
 * one NaN logit would poison the lane's merge softmax.
 */
bool decodeLaneStepReply(const std::uint8_t *data, std::size_t size,
                         const DncConfig &shard, Index hostedTiles,
                         Index maxLanes, LaneStepReplyMsg &msg);

bool decodeControl(const std::uint8_t *data, std::size_t size,
                   ControlMsg &msg);
bool decodeControlAck(const std::uint8_t *data, std::size_t size,
                      std::uint64_t &seq);
bool decodeError(const std::uint8_t *data, std::size_t size, ErrorMsg &msg);

bool decodeCheckpointRequest(const std::uint8_t *data, std::size_t size,
                             std::uint64_t &seq);

/**
 * Decode a CheckpointState into `count` caller-owned snapshot slots
 * (destination-passing: the coordinator points the slots straight at
 * its lane-major checkpoint store, so the state lands where migration
 * and restore re-slice it). The declared tile count must equal `count`
 * and every buffer resize reuses capacity — a steady-state checkpoint
 * pull allocates nothing.
 */
bool decodeCheckpointState(const std::uint8_t *data, std::size_t size,
                           const DncConfig &shard,
                           MemoryTileState *const *snapshots, Index count,
                           std::uint64_t &seq);

/** Decode a Restore into `count` caller-owned snapshot slots. */
bool decodeRestore(const std::uint8_t *data, std::size_t size,
                   const DncConfig &shard,
                   MemoryTileState *const *snapshots, Index count,
                   std::uint64_t &seq);

bool decodeStatsPull(const std::uint8_t *data, std::size_t size,
                     std::uint64_t &seq);

/**
 * Decode a StatsReport into `snapshot` (cleared first). Fail-closed:
 * the declared entry count is capped, names are length-checked against
 * the remaining bytes, kinds must be known, and sparse histogram
 * bucket indices must be strictly increasing and in range.
 */
bool decodeStatsReport(const std::uint8_t *data, std::size_t size,
                       obs::Snapshot &snapshot, std::uint64_t &seq);

} // namespace hima

#endif // HIMA_SHARD_WIRE_H
