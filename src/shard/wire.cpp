#include "shard/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace hima {

// --------------------------------------------------------------------
// WireConfig <-> DncConfig
// --------------------------------------------------------------------

const char *
msgTypeName(MsgType type)
{
    switch (type) {
    case MsgType::Hello:
        return "Hello";
    case MsgType::HelloAck:
        return "HelloAck";
    case MsgType::Control:
        return "Control";
    case MsgType::ControlAck:
        return "ControlAck";
    case MsgType::Shutdown:
        return "Shutdown";
    case MsgType::Error:
        return "Error";
    case MsgType::LaneStep:
        return "LaneStep";
    case MsgType::LaneStepReply:
        return "LaneStepReply";
    case MsgType::CheckpointRequest:
        return "CheckpointRequest";
    case MsgType::CheckpointState:
        return "CheckpointState";
    case MsgType::Restore:
        return "Restore";
    case MsgType::StatsPull:
        return "StatsPull";
    case MsgType::StatsReport:
        return "StatsReport";
    }
    return "?";
}

WireConfig
WireConfig::fromShard(const DncConfig &shard, Index tiles, Index firstTile,
                      Index hostedTiles, Index lanes)
{
    WireConfig wc;
    wc.memoryRows = shard.memoryRows;
    wc.memoryWidth = shard.memoryWidth;
    wc.readHeads = shard.readHeads;
    wc.numThreads = shard.numThreads;
    wc.hostedTiles = hostedTiles;
    wc.lanes = lanes;
    wc.approximateSoftmax = shard.approximateSoftmax ? 1 : 0;
    wc.softmaxSegments = static_cast<std::uint32_t>(shard.softmaxSegments);
    wc.fixedPoint = shard.fixedPoint ? 1 : 0;
    wc.skimRate = shard.skimRate;
    wc.writeSkipThreshold = shard.writeSkipThreshold;
    wc.linkageSkipThreshold = shard.linkageSkipThreshold;
    wc.readSkipThreshold = shard.readSkipThreshold;
    wc.firstTile = firstTile;
    wc.tiles = tiles;
    return wc;
}

DncConfig
WireConfig::toShardConfig() const
{
    DncConfig cfg;
    cfg.memoryRows = static_cast<Index>(memoryRows);
    cfg.memoryWidth = static_cast<Index>(memoryWidth);
    cfg.readHeads = static_cast<Index>(readHeads);
    cfg.numThreads = static_cast<Index>(numThreads);
    cfg.approximateSoftmax = approximateSoftmax != 0;
    cfg.softmaxSegments = static_cast<int>(softmaxSegments);
    cfg.fixedPoint = fixedPoint != 0;
    cfg.skimRate = skimRate;
    cfg.writeSkipThreshold = writeSkipThreshold;
    cfg.linkageSkipThreshold = linkageSkipThreshold;
    cfg.readSkipThreshold = readSkipThreshold;
    return cfg;
}

// --------------------------------------------------------------------
// WireWriter
// --------------------------------------------------------------------

void
WireWriter::append(const void *src, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    buf_.insert(buf_.end(), bytes, bytes + n);
}

void
WireWriter::putU16(std::uint16_t v)
{
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                               static_cast<std::uint8_t>(v >> 8)};
    append(b, sizeof(b));
}

void
WireWriter::putU32(std::uint32_t v)
{
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append(b, sizeof(b));
}

void
WireWriter::putU64(std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append(b, sizeof(b));
}

void
WireWriter::putReal(Real v)
{
    putU64(std::bit_cast<std::uint64_t>(v));
}

void
WireWriter::putRealArray(const Real *values, Index count)
{
    static_assert(sizeof(Real) == 8, "wire Reals are binary64");
    if constexpr (std::endian::native == std::endian::little) {
        // The host representation already matches the wire layout:
        // append the whole array in one shot.
        append(values, 8 * static_cast<std::size_t>(count));
    } else {
        for (Index i = 0; i < count; ++i)
            putReal(values[i]);
    }
}

void
WireWriter::putVector(const Vector &v)
{
    putU32(static_cast<std::uint32_t>(v.size()));
    putRealArray(v.data(), v.size());
}

void
WireWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
}

void
WireWriter::header(MsgType type)
{
    putU16(kWireMagic);
    putU8(kWireVersion);
    putU8(static_cast<std::uint8_t>(type));
}

// --------------------------------------------------------------------
// WireReader
// --------------------------------------------------------------------

std::uint8_t
WireReader::u8()
{
    if (!ok_ || size_ - pos_ < 1) {
        ok_ = false;
        return 0;
    }
    return data_[pos_++];
}

std::uint16_t
WireReader::u16()
{
    if (!ok_ || size_ - pos_ < 2) {
        ok_ = false;
        return 0;
    }
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
}

std::uint32_t
WireReader::u32()
{
    if (!ok_ || size_ - pos_ < 4) {
        ok_ = false;
        return 0;
    }
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b)
        v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
    pos_ += 4;
    return v;
}

std::uint64_t
WireReader::u64()
{
    if (!ok_ || size_ - pos_ < 8) {
        ok_ = false;
        return 0;
    }
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(data_[pos_ + b]) << (8 * b);
    pos_ += 8;
    return v;
}

Real
WireReader::real()
{
    return std::bit_cast<Real>(u64());
}

void
WireReader::realArray(Real *out, Index count)
{
    if (!ok_ || size_ - pos_ < 8ull * count) {
        ok_ = false;
        return;
    }
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, data_ + pos_, 8 * count);
        pos_ += 8 * count;
    } else {
        for (Index i = 0; i < count; ++i)
            out[i] = real();
    }
}

void
WireReader::vector(Vector &out, Index expected)
{
    const std::uint32_t count = u32();
    // Validate the declared count against the handshake shape *before*
    // resizing: a corrupt frame must never drive an allocation.
    if (!ok_ || count != expected || size_ - pos_ < 8ull * count) {
        ok_ = false;
        return;
    }
    out.resize(expected);
    realArray(out.data(), expected);
}

void
WireReader::string(std::string &out)
{
    const std::uint32_t count = u32();
    if (!ok_ || size_ - pos_ < count) {
        ok_ = false;
        return;
    }
    out.assign(reinterpret_cast<const char *>(data_ + pos_), count);
    pos_ += count;
}

void
WireReader::header(MsgType expected)
{
    const std::uint16_t magic = u16();
    const std::uint8_t version = u8();
    const std::uint8_t type = u8();
    if (!ok_ || magic != kWireMagic || version != kWireVersion ||
        type != static_cast<std::uint8_t>(expected))
        ok_ = false;
}

bool
peekType(const std::uint8_t *data, std::size_t size, MsgType &type)
{
    WireReader r(data, size);
    const std::uint16_t magic = r.u16();
    const std::uint8_t version = r.u8();
    const std::uint8_t raw = r.u8();
    if (!r.ok() || magic != kWireMagic || version != kWireVersion)
        return false;
    type = static_cast<MsgType>(raw);
    // Unknown and retired values have no name.
    return std::strcmp(msgTypeName(type), "?") != 0;
}

// --------------------------------------------------------------------
// Interface-vector codec (shapes pinned by the handshake config).
// --------------------------------------------------------------------

namespace {

void
putInterface(const InterfaceVector &iface, WireWriter &out)
{
    out.putU32(static_cast<std::uint32_t>(iface.readKeys.size()));
    for (const Vector &key : iface.readKeys)
        out.putVector(key);
    for (Real s : iface.readStrengths)
        out.putReal(s);
    out.putVector(iface.writeKey);
    out.putReal(iface.writeStrength);
    out.putVector(iface.eraseVector);
    out.putVector(iface.writeVector);
    for (Real g : iface.freeGates)
        out.putReal(g);
    out.putReal(iface.allocationGate);
    out.putReal(iface.writeGate);
    for (const ReadMode &mode : iface.readModes) {
        out.putReal(mode.backward);
        out.putReal(mode.content);
        out.putReal(mode.forward);
    }
}

void
readInterface(WireReader &in, const DncConfig &shard, InterfaceVector &iface)
{
    const Index r = shard.readHeads;
    const Index w = shard.memoryWidth;
    const std::uint32_t heads = in.u32();
    if (heads != r) {
        in.fail();
        return;
    }
    iface.readKeys.resize(r);
    for (Index h = 0; h < r; ++h)
        in.vector(iface.readKeys[h], w);
    iface.readStrengths.resize(r);
    for (Index h = 0; h < r; ++h)
        iface.readStrengths[h] = in.real();
    in.vector(iface.writeKey, w);
    iface.writeStrength = in.real();
    in.vector(iface.eraseVector, w);
    in.vector(iface.writeVector, w);
    iface.freeGates.resize(r);
    for (Index h = 0; h < r; ++h)
        iface.freeGates[h] = in.real();
    iface.allocationGate = in.real();
    iface.writeGate = in.real();
    iface.readModes.resize(r);
    for (Index h = 0; h < r; ++h) {
        iface.readModes[h].backward = in.real();
        iface.readModes[h].content = in.real();
        iface.readModes[h].forward = in.real();
    }
}

/** Real arrays in a reply feed the merge: all must be finite. */
void
requireFinite(WireReader &in, const Real *values, Index count)
{
    for (Index i = 0; i < count; ++i)
        if (!std::isfinite(values[i])) {
            in.fail();
            return;
        }
}

/** Handshake body. */
void
putConfigBody(const WireConfig &config, WireWriter &out)
{
    out.putU64(config.memoryRows);
    out.putU64(config.memoryWidth);
    out.putU64(config.readHeads);
    out.putU64(config.numThreads);
    out.putU64(config.hostedTiles);
    out.putU64(config.lanes);
    out.putU8(config.approximateSoftmax);
    out.putU32(config.softmaxSegments);
    out.putU8(config.fixedPoint);
    out.putReal(config.skimRate);
    out.putReal(config.writeSkipThreshold);
    out.putReal(config.linkageSkipThreshold);
    out.putReal(config.readSkipThreshold);
    out.putU64(config.firstTile);
    out.putU64(config.tiles);
}

void
readConfigBody(WireReader &in, WireConfig &config)
{
    config.memoryRows = in.u64();
    config.memoryWidth = in.u64();
    config.readHeads = in.u64();
    config.numThreads = in.u64();
    config.hostedTiles = in.u64();
    config.lanes = in.u64();
    config.approximateSoftmax = in.u8();
    config.softmaxSegments = in.u32();
    config.fixedPoint = in.u8();
    config.skimRate = in.real();
    config.writeSkipThreshold = in.real();
    config.linkageSkipThreshold = in.real();
    config.readSkipThreshold = in.real();
    config.firstTile = in.u64();
    config.tiles = in.u64();
}

/** True when any of the row's `count` entries is nonzero. This — not
 * the cached norm — is the sparse-encoding predicate: a row of
 * denormals can square-underflow to a zero norm while still holding
 * state, and the same scan on both the live-tile and snapshot encoders
 * keeps their frames byte-identical. */
bool
rowHasNonzero(const Real *row, Index count)
{
    for (Index c = 0; c < count; ++c)
        if (row[c] != 0.0)
            return true;
    return false;
}

/**
 * Tile-state body, shared by the live-tile (CheckpointState) and
 * snapshot (Restore) encoders so their frames are byte-identical for
 * equal state. Layout: [u8 encoding] [u32 touchedCount] [ascending u32
 * slots], then the dense v5 field sequence (encoding 0) or the sparse
 * row-pair sections (encoding 1; rowNorms omitted — the decoder
 * rebuilds them from the shipped rows). Each tile takes whichever
 * encoding is byte-smaller, so the dense size bounds every frame.
 */
void
putStateBodyV6(const Real *mem, const Real *rowNorms, const Real *usage,
               const Real *link, const Real *prec, const Real *ww,
               const Real *const *readW, Index n, Index w, Index r,
               const std::vector<Index> &touched, WireWriter &out)
{
    Index memRows = 0;
    Index linkRows = 0;
    for (Index i = 0; i < n; ++i)
        if (rowHasNonzero(mem + i * w, w))
            ++memRows;
    for (Index i = 0; i < n; ++i)
        if (rowHasNonzero(link + i * n, n))
            ++linkRows;
    const std::size_t denseBytes =
        8 * (static_cast<std::size_t>(n) * w + n + n * static_cast<std::size_t>(n));
    const std::size_t sparseBytes =
        8 + memRows * (4 + 8 * static_cast<std::size_t>(w)) +
        linkRows * (4 + 8 * static_cast<std::size_t>(n));
    const bool sparse = sparseBytes < denseBytes;

    out.putU8(sparse ? 1 : 0);
    out.putU32(static_cast<std::uint32_t>(touched.size()));
    for (Index s : touched)
        out.putU32(static_cast<std::uint32_t>(s));

    if (!sparse) {
        out.putRealArray(mem, n * w);
        out.putRealArray(rowNorms, n);
        out.putRealArray(usage, n);
        out.putRealArray(link, static_cast<std::size_t>(n) * n);
        out.putRealArray(prec, n);
        out.putRealArray(ww, n);
        for (Index h = 0; h < r; ++h)
            out.putRealArray(readW[h], n);
        return;
    }

    out.putU32(static_cast<std::uint32_t>(memRows));
    for (Index i = 0; i < n; ++i) {
        if (!rowHasNonzero(mem + i * w, w))
            continue;
        out.putU32(static_cast<std::uint32_t>(i));
        out.putRealArray(mem + i * w, w);
    }
    out.putU32(static_cast<std::uint32_t>(linkRows));
    for (Index i = 0; i < n; ++i) {
        if (!rowHasNonzero(link + i * n, n))
            continue;
        out.putU32(static_cast<std::uint32_t>(i));
        out.putRealArray(link + i * n, n);
    }
    out.putRealArray(usage, n);
    out.putRealArray(prec, n);
    out.putRealArray(ww, n);
    for (Index h = 0; h < r; ++h)
        out.putRealArray(readW[h], n);
}

/**
 * Shape echo for snapshot frames: sparse tile bodies are
 * variable-length, so decoders need explicit shapes to reject a
 * mismatched peer instead of misparsing (or accepting) its frames.
 */
void
putShapeEcho(const DncConfig &shard, WireWriter &out)
{
    out.putU32(static_cast<std::uint32_t>(shard.memoryRows));
    out.putU32(static_cast<std::uint32_t>(shard.memoryWidth));
    out.putU32(static_cast<std::uint32_t>(shard.readHeads));
}

void
putTileStateBody(const MemoryUnit &tile, WireWriter &out)
{
    const DncConfig &cfg = tile.config();
    const Index r = cfg.readHeads;
    const Real *readW[32]; // readHeads capped at 32 by the handshake
    HIMA_ASSERT(r <= 32, "readHeads exceeds wire cap");
    for (Index h = 0; h < r; ++h)
        readW[h] = tile.readWeightings()[h].data();
    putStateBodyV6(tile.memory().data(), tile.rowNorms().data(),
                   tile.usage().data(), tile.linkage().linkage().data(),
                   tile.linkage().precedence().data(),
                   tile.writeWeighting().data(), readW, cfg.memoryRows,
                   cfg.memoryWidth, r, tile.linkage().touchedSlots(), out);
}

void
putSnapshotBody(const MemoryTileState &s, const DncConfig &shard,
                WireWriter &out)
{
    const Index r = shard.readHeads;
    const Real *readW[32];
    HIMA_ASSERT(r <= 32, "readHeads exceeds wire cap");
    for (Index h = 0; h < r; ++h)
        readW[h] = s.readWeightings[h].data();
    putStateBodyV6(s.memory.data(), s.rowNorms.data(), s.usage.data(),
                   s.linkage.data(), s.precedence.data(),
                   s.writeWeighting.data(), readW, shard.memoryRows,
                   shard.memoryWidth, r, s.touchedSlots, out);
}

/**
 * Read one ascending-index list section: [u32 count <= n] [u32 x
 * count, strictly ascending, < n] into `out` (capacity-reusing).
 * Fail-closed: any violation trips the reader's sticky flag.
 */
void
readAscendingIndices(WireReader &in, Index n, std::vector<Index> &out)
{
    const std::uint32_t count = in.u32();
    out.clear();
    if (!in.ok() || count > static_cast<std::uint32_t>(n)) {
        in.fail();
        return;
    }
    std::uint32_t prev = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t idx = in.u32();
        if (!in.ok() || idx >= static_cast<std::uint32_t>(n) ||
            (k > 0 && idx <= prev)) {
            in.fail();
            return;
        }
        out.push_back(static_cast<Index>(idx));
        prev = idx;
    }
}

void
readSnapshotBody(WireReader &in, const DncConfig &shard, MemoryTileState &s)
{
    const Index n = shard.memoryRows;
    const Index w = shard.memoryWidth;
    const Index r = shard.readHeads;
    // Destinations are sized by the trusted handshake config, never by
    // frame contents; resize reuses capacity in steady state.
    s.sizeFor(shard);
    const std::uint8_t enc = in.u8();
    if (!in.ok() || enc > 1) {
        in.fail();
        return;
    }
    readAscendingIndices(in, n, s.touchedSlots);
    if (!in.ok())
        return;

    if (enc == 0) {
        in.realArray(s.memory.data(), n * w);
        in.realArray(s.rowNorms.data(), n);
        in.realArray(s.usage.data(), n);
        in.realArray(s.linkage.data(), n * n);
        in.realArray(s.precedence.data(), n);
        in.realArray(s.writeWeighting.data(), n);
        for (Index h = 0; h < r; ++h)
            in.realArray(s.readWeightings[h].data(), n);
        return;
    }

    // Sparse body: zero-fill, scatter the shipped rows, and rebuild the
    // row-norm cache with the memory write's own summation order
    // (ascending acc += v*v, then sqrt), so the rebuilt cache is
    // bit-identical to the live tile's incrementally maintained one.
    // Row indices are validated strictly ascending and in range before
    // any row lands; omitted rows are all-zero by the encoder's
    // nonzero-scan, so their zero norm is exact too.
    s.memory.fill(0.0);
    s.rowNorms.fill(0.0);
    std::uint32_t count = in.u32();
    if (!in.ok() || count > static_cast<std::uint32_t>(n)) {
        in.fail();
        return;
    }
    std::uint32_t prev = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t idx = in.u32();
        if (!in.ok() || idx >= static_cast<std::uint32_t>(n) ||
            (k > 0 && idx <= prev)) {
            in.fail();
            return;
        }
        Real *row = s.memory.data() + static_cast<std::size_t>(idx) * w;
        in.realArray(row, w);
        Real acc = 0.0;
        for (Index c = 0; c < w; ++c)
            acc += row[c] * row[c];
        s.rowNorms[idx] = std::sqrt(acc);
        prev = idx;
    }
    s.linkage.fill(0.0);
    count = in.u32();
    if (!in.ok() || count > static_cast<std::uint32_t>(n)) {
        in.fail();
        return;
    }
    prev = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t idx = in.u32();
        if (!in.ok() || idx >= static_cast<std::uint32_t>(n) ||
            (k > 0 && idx <= prev)) {
            in.fail();
            return;
        }
        in.realArray(s.linkage.data() + static_cast<std::size_t>(idx) * n, n);
        prev = idx;
    }
    in.realArray(s.usage.data(), n);
    in.realArray(s.precedence.data(), n);
    in.realArray(s.writeWeighting.data(), n);
    for (Index h = 0; h < r; ++h)
        in.realArray(s.readWeightings[h].data(), n);
}

/** Shared CheckpointState/Restore decoder (identical bodies). */
bool
decodeSnapshotFrame(MsgType type, const std::uint8_t *data,
                    std::size_t size, const DncConfig &shard,
                    MemoryTileState *const *snapshots, Index count,
                    std::uint64_t &seq)
{
    WireReader in(data, size);
    in.header(type);
    seq = in.u64();
    const std::uint32_t declared = in.u32();
    if (!in.ok() || declared != count)
        return false;
    // Shape echo: sparse bodies are variable-length, so a shape
    // mismatch is not detectable from the frame length alone.
    const std::uint32_t n = in.u32();
    const std::uint32_t w = in.u32();
    const std::uint32_t r = in.u32();
    if (!in.ok() || n != static_cast<std::uint32_t>(shard.memoryRows) ||
        w != static_cast<std::uint32_t>(shard.memoryWidth) ||
        r != static_cast<std::uint32_t>(shard.readHeads))
        return false;
    for (Index i = 0; i < count && in.ok(); ++i)
        readSnapshotBody(in, shard, *snapshots[i]);
    return in.atEnd();
}

} // namespace

// --------------------------------------------------------------------
// Message encoders.
// --------------------------------------------------------------------

void
encodeHello(const WireConfig &config, WireWriter &out)
{
    out.clear();
    out.header(MsgType::Hello);
    putConfigBody(config, out);
}

void
encodeHelloAck(const HelloAckMsg &msg, WireWriter &out)
{
    out.clear();
    out.header(MsgType::HelloAck);
    out.putU8(msg.ok ? 1 : 0);
    out.putU64(msg.hostedTiles);
    out.putString(msg.message);
}

void
encodeLaneStep(std::uint64_t seq, bool wantWeightings,
               const LaneStepEntry *entries, Index count, WireWriter &out)
{
    out.clear();
    out.header(MsgType::LaneStep);
    out.putU64(seq);
    out.putU8(wantWeightings ? 1 : 0);
    out.putU32(static_cast<std::uint32_t>(count));
    for (Index j = 0; j < count; ++j) {
        const LaneStepEntry &e = entries[j];
        out.putU32(e.lane);
        out.putU32(e.scoredMask);
        out.putU8(e.perTile != 0 ? 1 : 0);
        if (e.perTile != 0)
            out.putU32(static_cast<std::uint32_t>(e.perTile));
        for (Index t = 0; t < std::max<Index>(e.perTile, 1); ++t)
            putInterface(e.iface[t], out);
    }
}

void
encodeLaneStepReply(std::uint64_t seq, bool withWeightings,
                    const std::uint32_t *lanes, Index laneCount,
                    Index hostedTiles,
                    const std::vector<MemoryReadout> &readouts,
                    const std::vector<Real> &confidence,
                    const DncConfig &shard, WireWriter &out)
{
    out.clear();
    out.header(MsgType::LaneStepReply);
    out.putU64(seq);
    out.putU8(withWeightings ? 1 : 0);
    out.putU32(static_cast<std::uint32_t>(laneCount));
    const Index r = shard.readHeads;
    for (Index j = 0; j < laneCount; ++j) {
        out.putU32(lanes[j]);
        for (Index i = 0; i < hostedTiles; ++i) {
            const Index slot = j * hostedTiles + i;
            const MemoryReadout &readout = readouts[slot];
            for (Index h = 0; h < r; ++h)
                out.putVector(readout.readVectors[h]);
            out.putRealArray(confidence.data() + slot * r, r);
            if (withWeightings) {
                for (Index h = 0; h < r; ++h)
                    out.putVector(readout.readWeightings[h]);
                out.putVector(readout.writeWeighting);
            }
        }
    }
}

void
encodeControl(const ControlMsg &msg, WireWriter &out)
{
    out.clear();
    out.header(MsgType::Control);
    out.putU8(static_cast<std::uint8_t>(msg.kind));
    out.putU64(msg.seq);
    out.putU32(msg.lane);
}

void
encodeControlAck(std::uint64_t seq, WireWriter &out)
{
    out.clear();
    out.header(MsgType::ControlAck);
    out.putU64(seq);
}

void
encodeShutdown(WireWriter &out)
{
    out.clear();
    out.header(MsgType::Shutdown);
}

void
encodeError(const std::string &message, WireWriter &out)
{
    out.clear();
    out.header(MsgType::Error);
    out.putString(message);
}

void
encodeCheckpointRequest(std::uint64_t seq, WireWriter &out)
{
    out.clear();
    out.header(MsgType::CheckpointRequest);
    out.putU64(seq);
}

void
encodeCheckpointState(std::uint64_t seq,
                      const std::vector<std::unique_ptr<MemoryUnit>> &tiles,
                      const DncConfig &shard, WireWriter &out)
{
    out.clear();
    out.header(MsgType::CheckpointState);
    out.putU64(seq);
    out.putU32(static_cast<std::uint32_t>(tiles.size()));
    putShapeEcho(shard, out);
    for (const auto &tile : tiles)
        putTileStateBody(*tile, out);
}

void
encodeRestore(std::uint64_t seq, const MemoryTileState *const *snapshots,
              Index count, const DncConfig &shard, WireWriter &out)
{
    out.clear();
    out.header(MsgType::Restore);
    out.putU64(seq);
    out.putU32(static_cast<std::uint32_t>(count));
    putShapeEcho(shard, out);
    for (Index i = 0; i < count; ++i)
        putSnapshotBody(*snapshots[i], shard, out);
}

void
encodeStatsPull(std::uint64_t seq, WireWriter &out)
{
    out.clear();
    out.header(MsgType::StatsPull);
    out.putU64(seq);
}

/** Cap on declared scrape entries (fail-closed decode bound). */
constexpr std::uint32_t kMaxStatsEntries = 65536;

void
encodeStatsReport(std::uint64_t seq, const obs::Snapshot &snapshot,
                  WireWriter &out)
{
    HIMA_ASSERT(snapshot.entries.size() <= kMaxStatsEntries,
                "StatsReport: %zu entries exceed the wire cap %u",
                snapshot.entries.size(), kMaxStatsEntries);
    out.clear();
    out.header(MsgType::StatsReport);
    out.putU64(seq);
    out.putU32(static_cast<std::uint32_t>(snapshot.entries.size()));
    for (const obs::SnapshotEntry &e : snapshot.entries) {
        out.putString(e.name);
        out.putU8(static_cast<std::uint8_t>(e.kind));
        switch (e.kind) {
          case obs::MetricKind::Counter:
            out.putU64(e.counter);
            break;
          case obs::MetricKind::Gauge:
            out.putU64(static_cast<std::uint64_t>(e.gauge));
            break;
          case obs::MetricKind::Histogram: {
            out.putU64(e.hist.count);
            out.putU64(e.hist.sum);
            out.putU64(e.hist.max);
            std::uint16_t nonZero = 0;
            for (unsigned b = 0; b < obs::kHistogramBuckets; ++b)
                if (e.hist.buckets[b] != 0)
                    ++nonZero;
            out.putU16(nonZero);
            for (unsigned b = 0; b < obs::kHistogramBuckets; ++b) {
                if (e.hist.buckets[b] == 0)
                    continue;
                out.putU16(static_cast<std::uint16_t>(b));
                out.putU64(e.hist.buckets[b]);
            }
            break;
          }
        }
    }
}

// --------------------------------------------------------------------
// Message decoders.
// --------------------------------------------------------------------

bool
decodeHello(const std::uint8_t *data, std::size_t size, WireConfig &config)
{
    WireReader in(data, size);
    in.header(MsgType::Hello);
    readConfigBody(in, config);
    return in.atEnd();
}

bool
decodeHelloAck(const std::uint8_t *data, std::size_t size, HelloAckMsg &msg)
{
    WireReader in(data, size);
    in.header(MsgType::HelloAck);
    msg.ok = in.u8() != 0;
    msg.hostedTiles = in.u64();
    in.string(msg.message);
    return in.atEnd();
}

bool
decodeLaneStep(const std::uint8_t *data, std::size_t size,
               const DncConfig &shard, Index lanes, Index tiles,
               LaneStepMsg &msg)
{
    WireReader in(data, size);
    in.header(MsgType::LaneStep);
    msg.seq = in.u64();
    msg.wantWeightings = in.u8() != 0;
    const std::uint32_t count = in.u32();
    if (!in.ok() || count == 0 || count > lanes)
        return false;
    msg.lanes.resize(count);
    msg.masks.resize(count);
    msg.perTile.resize(count);
    msg.firstIface.resize(count);
    std::uint32_t used = 0;
    for (Index j = 0; j < count; ++j) {
        msg.lanes[j] = in.u32();
        msg.masks[j] = in.u32();
        msg.perTile[j] = in.u8();
        // Strictly increasing lane ids < lanes: no duplicates (a frame
        // stepping one lane twice would race on its tiles), no
        // out-of-range tile-set access.
        if (!in.ok() || msg.lanes[j] >= lanes ||
            (j > 0 && msg.lanes[j] <= msg.lanes[j - 1]) ||
            msg.perTile[j] > 1)
            return false;
        // A per-tile entry names every global tile, exactly Nt of them.
        const std::uint32_t n = msg.perTile[j] != 0 ? in.u32() : 1;
        if (!in.ok() || (msg.perTile[j] != 0 && n != tiles))
            return false;
        msg.firstIface[j] = used;
        // The pool only grows: shrinking would free the interfaces'
        // buffers and the next larger frame would allocate them again.
        if (msg.ifaces.size() < used + n)
            msg.ifaces.resize(used + n);
        for (std::uint32_t t = 0; t < n && in.ok(); ++t)
            readInterface(in, shard, msg.ifaces[used + t]);
        used += n;
    }
    return in.atEnd();
}

bool
decodeLaneStepReply(const std::uint8_t *data, std::size_t size,
                    const DncConfig &shard, Index hostedTiles,
                    Index maxLanes, LaneStepReplyMsg &msg)
{
    WireReader in(data, size);
    in.header(MsgType::LaneStepReply);
    msg.seq = in.u64();
    msg.hasWeightings = in.u8() != 0;
    const std::uint32_t count = in.u32();
    if (!in.ok() || count == 0 || count > maxLanes)
        return false;
    const Index r = shard.readHeads;
    const Index w = shard.memoryWidth;
    const Index n = shard.memoryRows;
    msg.lanes.resize(count);
    msg.tiles.resize(count * hostedTiles);
    msg.confidence.resize(count * hostedTiles * r);
    for (Index j = 0; j < count; ++j) {
        msg.lanes[j] = in.u32();
        if (!in.ok() || (j > 0 && msg.lanes[j] <= msg.lanes[j - 1]))
            return false;
        for (Index i = 0; i < hostedTiles; ++i) {
            const Index slot = j * hostedTiles + i;
            MemoryReadout &readout = msg.tiles[slot];
            readout.readVectors.resize(r);
            for (Index h = 0; h < r; ++h)
                in.vector(readout.readVectors[h], w);
            in.realArray(msg.confidence.data() + slot * r, r);
            if (msg.hasWeightings) {
                readout.readWeightings.resize(r);
                for (Index h = 0; h < r; ++h)
                    in.vector(readout.readWeightings[h], n);
                in.vector(readout.writeWeighting, n);
            } else {
                readout.readWeightings.clear();
                readout.writeWeighting.resize(0);
            }
            if (!in.ok())
                return false;
            for (const Vector &v : readout.readVectors)
                requireFinite(in, v.data(), v.size());
            requireFinite(in, msg.confidence.data() + slot * r, r);
            for (const Vector &v : readout.readWeightings)
                requireFinite(in, v.data(), v.size());
            requireFinite(in, readout.writeWeighting.data(),
                          readout.writeWeighting.size());
        }
    }
    return in.atEnd();
}

bool
decodeControl(const std::uint8_t *data, std::size_t size, ControlMsg &msg)
{
    WireReader in(data, size);
    in.header(MsgType::Control);
    const std::uint8_t kind = in.u8();
    msg.seq = in.u64();
    msg.lane = in.u32();
    if (!in.atEnd() || kind > static_cast<std::uint8_t>(ControlKind::Admit))
        return false;
    msg.kind = static_cast<ControlKind>(kind);
    return true;
}

bool
decodeControlAck(const std::uint8_t *data, std::size_t size,
                 std::uint64_t &seq)
{
    WireReader in(data, size);
    in.header(MsgType::ControlAck);
    seq = in.u64();
    return in.atEnd();
}

bool
decodeError(const std::uint8_t *data, std::size_t size, ErrorMsg &msg)
{
    WireReader in(data, size);
    in.header(MsgType::Error);
    in.string(msg.message);
    return in.atEnd();
}

bool
decodeCheckpointRequest(const std::uint8_t *data, std::size_t size,
                        std::uint64_t &seq)
{
    WireReader in(data, size);
    in.header(MsgType::CheckpointRequest);
    seq = in.u64();
    return in.atEnd();
}

bool
decodeCheckpointState(const std::uint8_t *data, std::size_t size,
                      const DncConfig &shard,
                      MemoryTileState *const *snapshots, Index count,
                      std::uint64_t &seq)
{
    return decodeSnapshotFrame(MsgType::CheckpointState, data, size, shard,
                               snapshots, count, seq);
}

bool
decodeRestore(const std::uint8_t *data, std::size_t size,
              const DncConfig &shard, MemoryTileState *const *snapshots,
              Index count, std::uint64_t &seq)
{
    return decodeSnapshotFrame(MsgType::Restore, data, size, shard,
                               snapshots, count, seq);
}

bool
decodeStatsPull(const std::uint8_t *data, std::size_t size,
                std::uint64_t &seq)
{
    WireReader in(data, size);
    in.header(MsgType::StatsPull);
    seq = in.u64();
    return in.atEnd();
}

bool
decodeStatsReport(const std::uint8_t *data, std::size_t size,
                  obs::Snapshot &snapshot, std::uint64_t &seq)
{
    snapshot.clear();
    WireReader in(data, size);
    in.header(MsgType::StatsReport);
    seq = in.u64();
    const std::uint32_t count = in.u32();
    if (count > kMaxStatsEntries)
        in.fail();
    snapshot.entries.reserve(in.ok() ? count : 0);
    std::string name;
    for (std::uint32_t i = 0; in.ok() && i < count; ++i) {
        in.string(name);
        const std::uint8_t kind = in.u8();
        if (name.empty() || kind > 2) {
            in.fail();
            break;
        }
        obs::SnapshotEntry entry;
        entry.name = name;
        entry.kind = static_cast<obs::MetricKind>(kind);
        switch (entry.kind) {
          case obs::MetricKind::Counter:
            entry.counter = in.u64();
            break;
          case obs::MetricKind::Gauge:
            entry.gauge = static_cast<std::int64_t>(in.u64());
            break;
          case obs::MetricKind::Histogram: {
            entry.hist.count = in.u64();
            entry.hist.sum = in.u64();
            entry.hist.max = in.u64();
            const std::uint16_t nonZero = in.u16();
            if (nonZero > obs::kHistogramBuckets) {
                in.fail();
                break;
            }
            int prev = -1;
            for (std::uint16_t b = 0; in.ok() && b < nonZero; ++b) {
                const std::uint16_t idx = in.u16();
                const std::uint64_t n = in.u64();
                if (idx >= obs::kHistogramBuckets ||
                    static_cast<int>(idx) <= prev || n == 0) {
                    in.fail();
                    break;
                }
                prev = idx;
                entry.hist.buckets[idx] = n;
            }
            break;
          }
        }
        // Entries are encoded in snapshot (name) order; enforcing it
        // here keeps find()'s binary search valid on decoded scrapes.
        if (!snapshot.entries.empty() &&
            !(snapshot.entries.back().name < entry.name)) {
            in.fail();
            break;
        }
        snapshot.entries.push_back(std::move(entry));
    }
    if (!in.atEnd()) {
        snapshot.clear();
        return false;
    }
    return true;
}

} // namespace hima
