#include "serve.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/bench_env.h"
#include "common/stats.h"
#include "dnc/dnc.h"
#include "probes.h"
#include "serve/batched_dnc.h"
#include "serve/router.h"
#include "shard/local_cluster.h"
#include "shard/sharded_dnc.h"
#include "workload/arrival.h"

#ifndef HIMA_E2E_BUILD_TYPE
#define HIMA_E2E_BUILD_TYPE "unknown"
#endif

namespace hima::e2e {
namespace {

constexpr std::uint64_t kWeightSeed = 1;
constexpr Index kTiles = 8;        ///< DNC-D tiles per lane (shard fleets)
constexpr Index kWorkers = 2;      ///< shard worker serve threads
constexpr Index kLanesPerBatch = 4;
constexpr Index kCheckpointInterval = 64;
constexpr std::uint64_t kKillEvery = 8; ///< shard_recover kill cadence
constexpr Index kLocalThreads = 3; ///< the caller plus 2 pool threads
constexpr Index kSetupReps = 7;
constexpr double kWarmupS = 1.0;
constexpr double kDrainCapS = 10.0;
constexpr double kSmokeDrainCapS = 120.0; ///< sanitizers slow steps ~10x
constexpr std::uint64_t kProbeId = ~std::uint64_t{0};

/** One named traffic mix and the serving stack it runs on. */
struct WorkloadSpec
{
    const char *name;
    bool sharded;       ///< pipelined shard fleet instead of BatchedDnc
    bool recover;       ///< checkpoints, respawner, scripted worker kills
    Index memoryRows;   ///< global N
    Index lanes;
    Index clients;      ///< closed-loop clients, one request in flight each
    bool longEpisodes;  ///< lengths in [32, 96) instead of task-suite
};

// Every workload is a closed loop, so the number of busy lanes is set by
// the client count rather than by how fast the host happens to be:
// local_short keeps 12 of its 16 lanes busy, and the shard workloads
// keep all 8 lanes, two lanesPerBatch batches in flight, busy.
constexpr WorkloadSpec kWorkloads[] = {
    {"local_short", false, false, 128, 16, 12, false},
    {"local_long", false, false, 1024, 8, 8, true},
    {"shard_pipelined", true, false, 1024, 8, 8, false},
    {"shard_recover", true, true, 1024, 8, 8, false},
};

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

DncConfig
workloadConfig(const WorkloadSpec &spec)
{
    DncConfig cfg; // W=64, R=4, H=256, 64-wide tokens: the paper's point
    cfg.memoryRows = spec.memoryRows;
    cfg.batchSize = spec.lanes;
    cfg.numThreads = spec.sharded ? 1 : kLocalThreads;
    cfg.shardLanesPerBatch = spec.sharded ? kLanesPerBatch : 0;
    cfg.shardCheckpointIntervalSteps = spec.recover ? kCheckpointInterval : 0;
    return cfg;
}

/** splitmix64 finalizer: a well-mixed 64-bit hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Digest of a request's outputs that changes with any bit of them. */
std::uint64_t
outputDigest(const std::vector<Vector> &outputs)
{
    static_assert(sizeof(Real) <= sizeof(std::uint64_t));
    std::uint64_t h = mix64(outputs.size());
    for (const Vector &v : outputs) {
        h = mix64(h ^ v.size());
        for (Index i = 0; i < v.size(); ++i) {
            const Real x = v[i];
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof(Real));
            h = mix64(h ^ bits);
        }
    }
    return h;
}

std::int64_t
secondsToNs(double s)
{
    return static_cast<std::int64_t>(s * 1e9);
}

double
nsToMs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Host readings
// ---------------------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
rssMb()
{
    long pages = 0;
    long resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
        resident = 0;
    std::fclose(f);
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Host-wide CPU ticks from /proc/stat (all zero when unreadable). */
struct HostTicks
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

HostTicks
hostTicks()
{
    HostTicks t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return t;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (unsigned long long x : v)
            t.total += x;
        t.steal = v[7];
    }
    std::fclose(f);
    return t;
}

// ---------------------------------------------------------------------
// Request stream
// ---------------------------------------------------------------------

/**
 * The deterministic request stream of one seed: episode shape and tokens
 * per request id. Each seed gets its own task order, lengths and tokens,
 * while the length mix over any stretch of ids stays fixed, which keeps
 * the run-to-run spread small.
 */
class Schedule
{
  public:
    Schedule(const WorkloadSpec &spec, std::uint64_t seed)
        : spec_(spec), suite_(taskSuite())
    {
        Rng rng(seed);
        tokenSeed_ = rng.next();
        lengthOffset_ = rng.uniform();
    }

    /**
     * 1-based task id of request `id` (0 for fixed-length episodes).
     * Each block of 20 consecutive ids visits every task once, in an
     * order seeded per block.
     */
    Index
    taskId(std::uint64_t id) const
    {
        if (spec_.longEpisodes)
            return 0;
        const std::uint64_t tasks = suite_.size();
        Rng rng(mix64(tokenSeed_ ^ mix64(id / tasks)));
        return suite_[rng.permutation(tasks)[id % tasks]].id;
    }

    Index
    length(std::uint64_t id) const
    {
        if (spec_.longEpisodes) {
            // Golden-ratio sequence: uniform over [32, 96) with even
            // coverage at every prefix length.
            const double u = std::fmod(
                lengthOffset_ + static_cast<double>(id) * 0.6180339887498949,
                1.0);
            return 32 + static_cast<Index>(u * 64.0);
        }
        return episodeSteps(suite_[taskId(id) - 1]);
    }

    std::vector<Vector>
    tokens(std::uint64_t id, Index inputSize) const
    {
        const ArrivalEvent event{0, static_cast<Index>(id), taskId(id),
                                 length(id)};
        return requestTokens(event, inputSize, tokenSeed_);
    }

  private:
    const WorkloadSpec &spec_;
    std::vector<TaskSpec> suite_;
    std::uint64_t tokenSeed_ = 0;
    double lengthOffset_ = 0.0;
};

// ---------------------------------------------------------------------
// Serving stacks
// ---------------------------------------------------------------------

/** The probes of a traced run; outlive every fleet they decorate. */
struct Probes
{
    SpanLog log;
    WireLedger ledger;
    std::deque<std::uint64_t> admitOrder;
};

/** Fig. 4 memory-kernel time and Table 1 op counts, summed over tiles. */
struct KernelTotals
{
    static constexpr Index kCategories = 4; ///< every category but NN
    std::array<std::uint64_t, kCategories> ns{};
    std::uint64_t ops = 0;
    std::uint64_t skippedOps = 0;

    void
    add(const KernelProfiler &profiler)
    {
        for (Index c = 0; c < kCategories; ++c)
            ns[c] += profiler.categoryTotal(static_cast<KernelCategory>(c))
                         .nanoseconds;
        const KernelCounters all = profiler.grandTotal();
        ops += all.totalOps();
        skippedOps += all.skippedOps;
    }

    void
    add(const ShardWorker &worker)
    {
        if (!worker.configured())
            return;
        for (Index lane = 0; lane < worker.lanes(); ++lane)
            for (Index t = 0; t < worker.hostedTiles(); ++t)
                add(worker.laneTile(lane, t).profiler());
    }

    std::uint64_t
    totalNs() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : ns)
            sum += v;
        return sum;
    }
};

/**
 * One serving instance. Members are destroyed bottom-up: the Router
 * (and with it the engine's reference to the lane group) first, then
 * the cluster, whose group sends Shutdown before its serve threads are
 * joined. Heap-allocated and never moved: the respawner keeps a pointer
 * to it.
 */
struct Fleet
{
    LocalLaneCluster cluster; ///< workers[k] is the live incarnation of k
    std::unique_ptr<Router> router;
    const BatchedDnc *local = nullptr;
    const ShardLaneGroup *group = nullptr;
    KernelTotals reaped; ///< kernel counters of killed incarnations
};

/**
 * One in-process worker behind a Unix socket in `dir`: the socket
 * branch of makeClusterWorker(), with the endpoint kept inside the
 * benchmark's own directory.
 */
std::unique_ptr<Channel>
spawnWorker(const std::string &dir,
            std::vector<std::shared_ptr<ShardWorker>> &workers,
            std::vector<std::thread> &threads, int timeoutMs)
{
    static int ordinal = 0;
    const std::string path = dir + "/hima_e2e_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(ordinal++) + ".sock";
    auto listener = SocketListener::listenUnix(path);
    if (!listener)
        HIMA_FATAL("hima_e2e: cannot listen on %s", path.c_str());
    auto worker = std::make_shared<ShardWorker>();
    workers.push_back(worker);
    std::shared_ptr<SocketListener> shared(std::move(listener));
    threads.emplace_back([worker, shared, timeoutMs] {
        if (auto channel = shared->acceptWithTimeout(timeoutMs))
            worker->serve(*channel);
    });
    auto client = SocketChannel::connectUnix(path);
    if (!client)
        HIMA_FATAL("hima_e2e: cannot connect to %s", path.c_str());
    client->setRecvTimeout(timeoutMs);
    return client;
}

std::unique_ptr<Fleet>
buildFleet(const WorkloadSpec &spec, const DncConfig &cfg,
           const std::string &runDir, Probes *probes)
{
    auto fleet = std::make_unique<Fleet>();
    std::unique_ptr<LaneEngine> engine;
    if (!spec.sharded) {
        auto local = std::make_unique<BatchedDnc>(cfg, kWeightSeed);
        fleet->local = local.get();
        engine = std::move(local);
    } else {
        const int timeoutMs = static_cast<int>(cfg.shardRecvTimeoutMs);
        auto tap = [probes](std::unique_ptr<Channel> channel)
            -> std::unique_ptr<Channel> {
            if (!probes)
                return channel;
            return std::make_unique<TappedChannel>(
                std::move(channel), probes->log, probes->ledger);
        };
        LocalLaneCluster &cluster = fleet->cluster;
        std::vector<std::unique_ptr<Channel>> channels;
        for (Index k = 0; k < kWorkers; ++k)
            channels.push_back(tap(spawnWorker(runDir, cluster.workers,
                                               cluster.threads, timeoutMs)));
        cluster.group = std::make_shared<ShardLaneGroup>(
            cfg, kTiles, cfg.batchSize, MergePolicy::Confidence,
            std::move(channels));
        fleet->group = cluster.group.get();
        if (spec.recover) {
            // The replacement takes worker k's slot. A killed worker's
            // serve() has returned by the time the coordinator sees its
            // socket close, so its thread joins at once; its kernel
            // counters are kept and its tiles freed, which keeps the
            // resident set flat however many kills a run makes.
            Fleet *f = fleet.get();
            cluster.group->setRespawner([f, runDir, timeoutMs, tap](Index k) {
                LocalLaneCluster &c = f->cluster;
                c.threads[k].join();
                f->reaped.add(*c.workers[k]);
                std::vector<std::shared_ptr<ShardWorker>> worker;
                std::vector<std::thread> thread;
                auto channel = spawnWorker(runDir, worker, thread, timeoutMs);
                c.workers[k] = std::move(worker.front());
                c.threads[k] = std::move(thread.front());
                return tap(std::move(channel));
            });
        }
        engine = std::make_unique<PipelinedShardedLaneEngine>(
            cfg, kWeightSeed, cluster.group, kLanesPerBatch);
    }
    if (probes)
        engine = std::make_unique<TimedEngine>(std::move(engine), probes->log,
                                               probes->admitOrder);
    fleet->router = std::make_unique<Router>(std::move(engine));
    return fleet;
}

/**
 * Read every tile profiler of the fleet, killed workers included (their
 * counters stop where they died). Only called between router steps,
 * when no tile is running.
 */
KernelTotals
kernelTotals(const Fleet &fleet)
{
    KernelTotals totals = fleet.reaped;
    if (fleet.local) {
        for (Index slot = 0; slot < fleet.local->capacity(); ++slot)
            totals.add(fleet.local->laneMemory(slot).profiler());
    }
    for (const auto &worker : fleet.cluster.workers)
        totals.add(*worker);
    return totals;
}

/** Counters read at one edge of the measured window. */
struct Snapshot
{
    std::int64_t ns = 0;
    double cpuS = 0.0;
    HostTicks ticks;
    KernelTotals kernels;
    WireTrafficStats sent;
    WireTrafficStats received;
    std::uint64_t checkpoints = 0;
    std::uint64_t recoveries = 0;
    double rssMb = 0.0;
};

Snapshot
takeSnapshot(const Fleet &fleet, const Probes *probes)
{
    Snapshot s;
    s.ns = nowNs();
    s.cpuS = cpuSeconds();
    s.ticks = hostTicks();
    s.kernels = kernelTotals(fleet);
    if (probes) {
        s.sent = probes->ledger.sent();
        s.received = probes->ledger.received();
    }
    if (fleet.group) {
        s.checkpoints = fleet.group->checkpointsTaken();
        s.recoveries = fleet.group->recoveries();
    }
    s.rssMb = rssMb();
    return s;
}

// ---------------------------------------------------------------------
// The serve loop
// ---------------------------------------------------------------------

/** Everything the serve loop observed. */
struct Observed
{
    Snapshot open;
    Snapshot close;
    double peakRssMb = 0.0;
    std::uint64_t laneSteps = 0;   ///< in the window
    std::uint64_t routerSteps = 0; ///< in the window
    std::uint64_t admits = 0;      ///< admitted in the window
    std::vector<double> latencyMs;   ///< due -> last output, due in window
    std::vector<double> queueWaitMs; ///< due -> admitting step
    std::vector<double> lagMs;       ///< due -> submitted
    std::vector<std::pair<double, Index>> gapsMs; ///< (gap, requests)
    std::vector<double> recoveryMs;  ///< steps that recovered a worker
    std::uint64_t sent = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t unfinished = 0;
    /** (id, outputDigest) of every completed request. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
};

/**
 * Drive the router from this thread as a closed loop: each client
 * submits its next request as soon as its previous one finished, and
 * the router steps while anything is in flight. Warm-up, then the
 * measured window (counters read at step boundaries), then the clients
 * stop and the requests in flight drain for at most drainCapS.
 */
Observed
serveLoop(const WorkloadSpec &spec, const Options &options, double warmupS,
          double drainCapS, Fleet &fleet, const Schedule &schedule,
          Probes *probes)
{
    Router &router = *fleet.router;
    SpanLog *log = probes ? &probes->log : nullptr;
    const Index inputSize = router.config().inputSize;

    Observed seen;

    std::vector<std::int64_t> dueNs;    // by request id
    std::vector<std::int64_t> submitNs; // by request id
    std::vector<Index> clientOf;        // by request id
    // By router step; the setup probe request occupies step 0.
    std::vector<std::int64_t> stepStart;
    std::vector<std::int64_t> stepEnd;
    std::uint64_t nextId = 0;

    const std::int64_t t0 = nowNs();
    const std::int64_t openAt = t0 + secondsToNs(warmupS);
    const std::int64_t closeAt = openAt + secondsToNs(options.seconds);
    const std::int64_t drainEnd = closeAt + secondsToNs(drainCapS);
    std::vector<std::int64_t> clientDue(spec.clients, t0);
    std::vector<bool> clientBusy(spec.clients, false);
    bool opened = false;
    bool closed = false;

    auto submit = [&](Index client) {
        const std::uint64_t id = nextId++;
        SpanScope span(log, SpanKind::LoadgenSubmit,
                       static_cast<std::int64_t>(id));
        ServeRequest request{id, schedule.tokens(id, inputSize)};
        dueNs.push_back(clientDue[client]);
        clientOf.push_back(client);
        const bool accepted = router.submit(std::move(request));
        submitNs.push_back(nowNs());
        ++seen.sent;
        if (!accepted) {
            ++seen.rejected;
            return;
        }
        clientBusy[client] = true;
        if (probes)
            probes->admitOrder.push_back(id);
        // Kill on the first accepted request, then on every kKillEvery-th.
        if (spec.recover && (seen.sent - seen.rejected) % kKillEvery == 1) {
            FaultSpec kill;
            kill.killAtStepFrame = 1;
            fleet.cluster.workers[0]->injectFault(kill);
        }
    };

    for (;;) {
        const std::int64_t now = nowNs();
        if (!opened && now >= openAt) {
            seen.open = takeSnapshot(fleet, probes);
            opened = true;
            if (log) {
                log->setCounting(true);
                log->mark("window.open");
            }
        }
        if (opened && !closed && now >= closeAt) {
            seen.close = takeSnapshot(fleet, probes);
            seen.peakRssMb = peakRssMb();
            closed = true;
            if (log) {
                log->setCounting(false);
                log->mark("window.close");
            }
        }
        if (closed && (router.idle() || now >= drainEnd))
            break;

        if (!closed)
            for (Index c = 0; c < spec.clients; ++c)
                if (!clientBusy[c])
                    submit(c);

        const Index continuing = router.activeRequests();
        const std::uint64_t recoveriesBefore =
            fleet.group ? fleet.group->recoveries() : 0;
        const std::int64_t start = nowNs();
        {
            SpanScope span(log, SpanKind::RouterStep);
            router.step();
        }
        const std::int64_t stop = nowNs();
        if (opened && !closed) {
            seen.laneSteps += router.engine().activeLanes() +
                             router.engine().drainingLanes();
            ++seen.routerSteps;
            // Every request in flight before this step also produced an
            // output on the previous one, so each waited this long.
            if (continuing > 0)
                seen.gapsMs.emplace_back(nsToMs(stop - stepEnd.back()),
                                        continuing);
            if (fleet.group && fleet.group->recoveries() != recoveriesBefore)
                seen.recoveryMs.push_back(nsToMs(stop - start));
        }
        stepStart.push_back(start);
        stepEnd.push_back(stop);

        std::vector<ServeResult> &done = router.completed();
        if (done.empty())
            continue;
        SpanScope span(log, SpanKind::LoadgenHarvest);
        for (ServeResult &result : done) {
            if (result.id == kProbeId)
                continue;
            ++seen.completed;
            const std::int64_t due = dueNs[result.id];
            const std::int64_t admitted = stepStart[result.admitStep];
            const std::int64_t finished = stepEnd[result.finishStep];
            if (due >= openAt && due < closeAt) {
                seen.latencyMs.push_back(nsToMs(finished - due));
                seen.queueWaitMs.push_back(nsToMs(admitted - due));
                seen.lagMs.push_back(nsToMs(submitNs[result.id] - due));
            }
            if (admitted >= openAt && admitted < closeAt)
                ++seen.admits;
            if (log)
                log->noteRequest(result.id, due, finished);
            const Index c = clientOf[result.id];
            clientBusy[c] = false;
            clientDue[c] = finished;
            seen.digests.emplace_back(result.id, outputDigest(result.outputs));
        }
        done.clear();
    }
    seen.unfinished = router.activeRequests() + router.queuedRequests();
    return seen;
}

// ---------------------------------------------------------------------
// Correctness: bit-exact replay against dedicated references
// ---------------------------------------------------------------------

struct ReplayOutcome
{
    Index checked = 0;
    Index tokens = 0;
    Index wrong = 0;
};

/**
 * Replay a seeded sample of the completed requests, the max(4, 2 %) ids
 * of lowest rank, through a freshly built single-lane reference: Dnc for
 * the local engine, ShardedDnc over an in-process DncD for the shard
 * fleet. Each must reproduce the served outputs' digest.
 */
ReplayOutcome
replaySample(const WorkloadSpec &spec, const DncConfig &cfg,
             const Schedule &schedule, std::uint64_t seed,
             std::vector<std::pair<std::uint64_t, std::uint64_t>> digests)
{
    auto rank = [seed](std::uint64_t id) { return mix64(seed ^ mix64(id)); };
    const std::size_t count =
        std::min(digests.size(), std::max<std::size_t>(
                                     4, (digests.size() + 49) / 50));
    std::partial_sort(digests.begin(), digests.begin() + count, digests.end(),
                      [&rank](const auto &a, const auto &b) {
                          return rank(a.first) < rank(b.first);
                      });

    DncConfig ref = cfg;
    ref.batchSize = 1;
    ref.numThreads = 1;
    ref.shardLanesPerBatch = 0;
    ref.shardCheckpointIntervalSteps = 0;
    ReplayOutcome outcome;
    for (std::size_t i = 0; i < count; ++i) {
        const auto &[id, digest] = digests[i];
        const std::vector<Vector> tokens = schedule.tokens(id, ref.inputSize);
        std::vector<Vector> outputs;
        if (spec.sharded) {
            ShardedDnc dnc(ref, kWeightSeed,
                           std::make_unique<DncD>(ref, kTiles));
            for (const Vector &token : tokens)
                outputs.push_back(dnc.step(token));
        } else {
            Dnc dnc(ref, kWeightSeed);
            for (const Vector &token : tokens)
                outputs.push_back(dnc.step(token));
        }
        ++outcome.checked;
        outcome.tokens += tokens.size();
        if (outputDigest(outputs) != digest)
            ++outcome.wrong;
    }
    return outcome;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

double
quantile(std::vector<double> sample, double q)
{
    return sample.empty() ? 0.0 : percentile(std::move(sample), q);
}

/** Nearest-rank quantile of a sample whose entries carry weights. */
double
weightedQuantile(std::vector<std::pair<double, Index>> sample, double q)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    double total = 0.0;
    for (const auto &entry : sample)
        total += static_cast<double>(entry.second);
    double seen = 0.0;
    for (const auto &entry : sample) {
        seen += static_cast<double>(entry.second);
        if (seen >= q * total)
            return entry.first;
    }
    return sample.back().first;
}

double
nsQuantileUs(const std::vector<std::int64_t> &durations, double q)
{
    std::vector<double> us;
    us.reserve(durations.size());
    for (std::int64_t d : durations)
        us.push_back(static_cast<double>(d) / 1e3);
    return quantile(std::move(us), q);
}

/** One run's full outcome, as printed and written to --out. */
struct RunOutcome
{
    const WorkloadSpec *spec = nullptr;
    Options options;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> setupS;
    Observed observed;
    ReplayOutcome replay;
    double stealShare = 0.0;
    double cpuUsPerLaneStep = 0.0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer; ///< traced runs only
    std::vector<Metric> extra;    ///< --out only
};

/**
 * Fill run's metric lists. A traced run's `untraced` is the untraced
 * pass over the same seed that trace.overhead_share compares it with.
 */
void
computeMetrics(RunOutcome &run, const Probes *probes,
               const RunOutcome *untraced)
{
    const Observed &o = run.observed;
    const WorkloadSpec &spec = *run.spec;
    const double windowNs = static_cast<double>(o.close.ns - o.open.ns);
    const double windowS = windowNs / 1e9;
    const double laneSteps = static_cast<double>(o.laneSteps);
    const double cpuNs = (o.close.cpuS - o.open.cpuS) * 1e9;
    const double steal = ratio(
        static_cast<double>(o.close.ticks.steal - o.open.ticks.steal),
        static_cast<double>(o.close.ticks.total - o.open.ticks.total));
    run.stealShare = steal;
    run.cpuUsPerLaneStep = ratio(cpuNs / 1e3, laneSteps);

    run.endToEnd = {
        {"setup_s", "s", quantile(run.setupS, 0.5)},
        {"cpu_us_per_lane_step", "us", run.cpuUsPerLaneStep},
        {"lane_steps_per_s", "1/s", ratio(laneSteps, windowS)},
        {"latency_p50_ms", "ms", quantile(o.latencyMs, 0.5)},
        {"latency_p90_ms", "ms", quantile(o.latencyMs, 0.9)},
        {"token_gap_p50_ms", "ms", weightedQuantile(o.gapsMs, 0.5)},
        {"token_gap_p99_ms", "ms", weightedQuantile(o.gapsMs, 0.99)},
        {"peak_rss_mb", "MB", o.peakRssMb},
    };

    double recoverySum = 0.0;
    for (double ms : o.recoveryMs)
        recoverySum += ms;
    const double recoveries =
        static_cast<double>(o.close.recoveries - o.open.recoveries);
    run.extra = {
        {"failed_share", "fraction",
         ratio(static_cast<double>(run.failed),
               static_cast<double>(run.attempted))},
        {"token_gap_p90_ms", "ms", weightedQuantile(o.gapsMs, 0.9)},
        {"recovery_p50_ms", "ms", quantile(o.recoveryMs, 0.5)},
        {"recovery_p90_ms", "ms", quantile(o.recoveryMs, 0.9)},
        {"recoveries", "count", recoveries},
        {"window_requests", "count", static_cast<double>(o.latencyMs.size())},
        {"window_lane_steps", "count", laneSteps},
        {"window_s", "s", windowS},
    };

    if (!probes)
        return;
    const SpanLog &log = probes->log;
    auto total = [&log](SpanKind k) {
        return static_cast<double>(log.totals(k).totalNs);
    };
    auto self = [&log](SpanKind k) {
        return static_cast<double>(log.totals(k).selfNs);
    };
    const double engineNs =
        total(SpanKind::EngineStep) + total(SpanKind::EngineAdmit) +
        total(SpanKind::EngineRelease) + total(SpanKind::EngineDrain);
    const double engineSelfNs =
        self(SpanKind::EngineStep) + self(SpanKind::EngineAdmit) +
        self(SpanKind::EngineRelease) + self(SpanKind::EngineDrain);
    const double attributedNs = total(SpanKind::RouterStep) +
                                total(SpanKind::LoadgenSubmit) +
                                total(SpanKind::LoadgenHarvest);
    KernelTotals k;
    for (Index c = 0; c < KernelTotals::kCategories; ++c)
        k.ns[c] = o.close.kernels.ns[c] - o.open.kernels.ns[c];
    k.ops = o.close.kernels.ops - o.open.kernels.ops;
    k.skippedOps = o.close.kernels.skippedOps - o.open.kernels.skippedOps;
    const double kernelNs = static_cast<double>(k.totalNs());
    const WireTrafficStats sent = o.close.sent.diffFrom(o.open.sent);
    const WireTrafficStats received =
        o.close.received.diffFrom(o.open.received);
    const double executors = static_cast<double>(
        spec.sharded ? kWorkers : kLocalThreads);
    auto perLaneStepUs = [&](double ns) { return ratio(ns / 1e3, laneSteps); };

    run.perLayer = {
        {"loadgen.lag_p99_ms", "ms", quantile(o.lagMs, 0.99)},
        {"host.steal_share", "fraction", steal},
        {"router.self_us_per_step", "us",
         ratio(self(SpanKind::RouterStep) / 1e3,
               static_cast<double>(o.routerSteps))},
        {"router.queue_wait_p90_ms", "ms", quantile(o.queueWaitMs, 0.9)},
        {"router.occupancy_mean", "lanes",
         ratio(laneSteps, static_cast<double>(o.routerSteps))},
        {"router.admits_per_s", "1/s",
         ratio(static_cast<double>(o.admits), windowS)},
        {"engine.step_us_p50", "us",
         nsQuantileUs(log.totals(SpanKind::EngineStep).durations, 0.5)},
        {"engine.step_us_p99", "us",
         nsQuantileUs(log.totals(SpanKind::EngineStep).durations, 0.99)},
        {"engine.admit_us_p50", "us",
         nsQuantileUs(log.totals(SpanKind::EngineAdmit).durations, 0.5)},
        {"engine.release_us_p50", "us",
         nsQuantileUs(log.totals(SpanKind::EngineRelease).durations, 0.5)},
        {"engine.self_us_per_lane_step", "us", perLaneStepUs(engineSelfNs)},
        // Kernel time is wall time inside the kernels, which a stolen
        // tick inflates; scale it by the window's host steal share
        // before taking it out of process CPU.
        {"engine.nonkernel_cpu_us_per_lane_step", "us",
         perLaneStepUs(cpuNs - kernelNs * (1.0 - steal))},
        {"tile.content_weighting_us_per_lane_step", "us",
         perLaneStepUs(static_cast<double>(k.ns[0]))},
        {"tile.memory_access_us_per_lane_step", "us",
         perLaneStepUs(static_cast<double>(k.ns[1]))},
        {"tile.history_write_us_per_lane_step", "us",
         perLaneStepUs(static_cast<double>(k.ns[2]))},
        {"tile.history_read_us_per_lane_step", "us",
         perLaneStepUs(static_cast<double>(k.ns[3]))},
        {"tile.ops_per_lane_step", "count",
         ratio(static_cast<double>(k.ops), laneSteps)},
        {"tile.skipped_op_share", "fraction",
         ratio(static_cast<double>(k.skippedOps),
               static_cast<double>(k.ops))},
        {"worker.busy_share", "fraction",
         ratio(kernelNs, executors * windowNs)},
        {"wire.send_share", "fraction",
         ratio(total(SpanKind::WireSend), engineNs)},
        {"wire.recv_wait_share", "fraction",
         ratio(total(SpanKind::WireRecv), engineNs)},
        {"wire.frames_per_lane_step", "count",
         ratio(static_cast<double>(sent.totalFrames() +
                                   received.totalFrames()),
               laneSteps)},
        {"wire.bytes_per_lane_step", "B",
         ratio(static_cast<double>(sent.totalBytes() +
                                   received.totalBytes()),
               laneSteps)},
        {"shard.checkpoints_per_s", "1/s",
         ratio(static_cast<double>(o.close.checkpoints -
                                   o.open.checkpoints),
               windowS)},
        {"shard.recoveries", "count", recoveries},
        {"shard.recovery_share", "fraction", ratio(recoverySum / 1e3, windowS)},
        {"shard.rss_growth_mb_per_recovery", "MB",
         ratio(o.close.rssMb - o.open.rssMb, recoveries)},
        {"trace.overhead_share", "fraction",
         untraced ? ratio(run.cpuUsPerLaneStep, untraced->cpuUsPerLaneStep) - 1.0
                  : 0.0},
        {"trace.unattributed_share", "fraction",
         1.0 - ratio(attributedNs, windowNs)},
    };
}

// ---------------------------------------------------------------------
// Running and reporting
// ---------------------------------------------------------------------

RunOutcome
runOnce(const WorkloadSpec &spec, const Options &options, double warmupS,
        double drainCapS, Index setupReps,
        const RunOutcome *untraced = nullptr)
{
    RunOutcome run;
    run.spec = &spec;
    run.options = options;
    const DncConfig cfg = workloadConfig(spec);
    const Schedule schedule(spec, options.seed);
    std::unique_ptr<Probes> probes =
        options.trace ? std::make_unique<Probes>() : nullptr;

    // Set-up time: engine or fleet construction (spawn + handshake)
    // until the router has accepted a first, one-token request. Built
    // setupReps times, previous instance torn down first (untimed); the
    // last instance serves.
    const ServeRequest probeRequest{kProbeId, {Vector(cfg.inputSize)}};
    std::unique_ptr<Fleet> fleet;
    for (Index rep = 0; rep < setupReps; ++rep) {
        fleet.reset();
        if (probes)
            probes->admitOrder.clear();
        const std::int64_t start = nowNs();
        fleet = buildFleet(spec, cfg, options.runDir, probes.get());
        if (!fleet->router->submit(probeRequest))
            HIMA_FATAL("hima_e2e: router rejected its first request");
        if (probes)
            probes->admitOrder.push_back(kProbeId);
        run.setupS.push_back(static_cast<double>(nowNs() - start) / 1e9);
    }

    run.observed = serveLoop(spec, options, warmupS, drainCapS, *fleet,
                             schedule, probes.get());
    fleet.reset(); // joins every worker before the replay runs

    run.replay = replaySample(spec, cfg, schedule, options.seed,
                              run.observed.digests);
    run.attempted = run.observed.sent;
    run.failed = run.observed.rejected + run.observed.unfinished +
                 run.replay.wrong;
    run.correct = run.replay.wrong == 0 && run.replay.checked > 0;
    computeMetrics(run, probes.get(), untraced);

    if (probes && !options.traceOut.empty() &&
        !probes->log.writeChromeTrace(options.traceOut))
        std::fprintf(stderr, "hima_e2e: cannot write %s\n",
                     options.traceOut.c_str());
    return run;
}

void
writeMetricsObject(std::FILE *f, const std::vector<Metric> &metrics)
{
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double value = metrics[i].value;
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "hima_e2e: %s is not finite\n",
                         metrics[i].name);
            value = 0.0;
        }
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics[i].name, value, metrics[i].unit);
    }
    std::fprintf(f, "}");
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("  %s\n", title);
    for (const Metric &m : metrics)
        std::printf("    %-42s %14.4f %s\n", m.name, m.value, m.unit);
}

bool
writeDetail(const RunOutcome &run, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    const Observed &o = run.observed;
    std::fprintf(f, "{\n  \"schema\": \"hima_e2e.run/1\",\n");
    std::fprintf(f,
                 "  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                 "  \"seconds\": %.17g,\n  \"trace\": %s,\n",
                 run.spec->name,
                 static_cast<unsigned long long>(run.options.seed),
                 run.options.seconds, run.options.trace ? "true" : "false");
    std::fprintf(f,
                 "  \"context\": {\"git_sha\": \"%s\", \"build_type\": "
                 "\"%s\", \"hardware_threads\": %u, \"loadavg\": [%.2f, "
                 "%.2f, %.2f], \"host_steal_share\": %.17g},\n",
                 buildGitSha(), HIMA_E2E_BUILD_TYPE, hardwareThreads(),
                 load[0], load[1], load[2], run.stealShare);
    std::fprintf(f,
                 "  \"correct\": %s,\n  \"attempted\": %llu,\n"
                 "  \"failed\": %llu,\n",
                 run.correct ? "true" : "false",
                 static_cast<unsigned long long>(run.attempted),
                 static_cast<unsigned long long>(run.failed));
    std::fprintf(
        f,
        "  \"counts\": {\"sent\": %llu, \"rejected\": %llu, \"completed\": "
        "%llu, \"unfinished\": %llu, \"checked_requests\": %zu, "
        "\"checked_tokens\": %zu, \"wrong\": %zu},\n",
        static_cast<unsigned long long>(o.sent),
        static_cast<unsigned long long>(o.rejected),
        static_cast<unsigned long long>(o.completed),
        static_cast<unsigned long long>(o.unfinished), run.replay.checked,
        run.replay.tokens, run.replay.wrong);
    std::fprintf(f, "  \"setup_s_samples\": [");
    for (std::size_t i = 0; i < run.setupS.size(); ++i)
        std::fprintf(f, "%s%.17g", i ? ", " : "", run.setupS[i]);
    std::fprintf(f, "],\n  \"end_to_end\": ");
    writeMetricsObject(f, run.endToEnd);
    std::fprintf(f, ",\n  \"per_layer\": ");
    writeMetricsObject(f, run.perLayer);
    std::fprintf(f, ",\n  \"extra\": ");
    writeMetricsObject(f, run.extra);
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : kWorkloads)
        names.emplace_back(spec.name);
    return names;
}

int
runWorkload(const Options &options)
{
    const WorkloadSpec *spec = findWorkload(options.workload);
    if (!spec) {
        std::fprintf(stderr, "hima_e2e: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    // A traced run first serves the same seed untraced, the reference its
    // trace.overhead_share is measured against; both passes must check.
    RunOutcome untraced;
    if (options.trace) {
        Options plain = options;
        plain.trace = false;
        untraced = runOnce(*spec, plain, kWarmupS, kDrainCapS, 1);
    }
    RunOutcome run = runOnce(*spec, options, kWarmupS, kDrainCapS,
                             kSetupReps, options.trace ? &untraced : nullptr);
    run.correct = run.correct && untraced.correct;
    run.attempted += untraced.attempted;
    run.failed += untraced.failed;
    run.replay.checked += untraced.replay.checked;
    run.replay.tokens += untraced.replay.tokens;
    run.replay.wrong += untraced.replay.wrong;

    std::printf("hima_e2e %s seed %llu: %.1f s window%s, git %s (%s), "
                "steal %.1f%%\n",
                spec->name, static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? ", traced" : "",
                buildGitSha(), HIMA_E2E_BUILD_TYPE, 100.0 * run.stealShare);
    std::printf("  requests: %llu sent, %llu completed, %llu rejected, "
                "%llu unfinished; replayed %zu (%zu tokens), %zu wrong\n",
                static_cast<unsigned long long>(run.observed.sent),
                static_cast<unsigned long long>(run.observed.completed),
                static_cast<unsigned long long>(run.observed.rejected),
                static_cast<unsigned long long>(run.observed.unfinished),
                run.replay.checked, run.replay.tokens, run.replay.wrong);
    printTable("end to end", run.endToEnd);
    if (options.trace)
        printTable("per layer", run.perLayer);
    printTable("extra", run.extra);

    if (!options.out.empty() && !writeDetail(run, options.out)) {
        std::fprintf(stderr, "hima_e2e: cannot write %s\n",
                     options.out.c_str());
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                run.correct ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
    writeMetricsObject(stdout, options.trace ? run.perLayer : run.endToEnd);
    std::printf("}\n");
    std::fflush(stdout);
    if (!run.correct) {
        std::fprintf(stderr, "hima_e2e: %zu of %zu replayed requests "
                             "diverged from the reference\n",
                     run.replay.wrong, run.replay.checked);
        return 3;
    }
    return 0;
}

int
runSmoke(const Options &options)
{
    int failures = 0;
    for (const WorkloadSpec &spec : kWorkloads) {
        for (bool trace : {false, true}) {
            Options o = options;
            o.workload = spec.name;
            o.seconds = 1.0;
            o.trace = trace;
            o.out.clear();
            o.traceOut.clear();
            const RunOutcome run =
                runOnce(spec, o, kWarmupS, kSmokeDrainCapS, 1);
            const bool ok = run.correct && run.failed == 0;
            std::printf("smoke %-16s %-8s %s: %llu requests, %zu replayed "
                        "(%zu tokens), %llu failed\n",
                        spec.name, trace ? "traced" : "untraced",
                        ok ? "ok" : "FAILED",
                        static_cast<unsigned long long>(run.attempted),
                        run.replay.checked, run.replay.tokens,
                        static_cast<unsigned long long>(run.failed));
            if (!ok)
                ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

} // namespace hima::e2e
