#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exp/config_fields.hpp"
#include "exp/result_sink.hpp"

namespace lapses
{

std::size_t
CampaignAxes::runCount() const
{
    std::size_t runs = 1;
    for (const ConfigField* f : gridAxes())
        runs *= std::max<std::size_t>(f->ops.size(*this), 1);
    return runs;
}

std::size_t
CampaignAxes::loadsPerSeries() const
{
    return loads.empty() ? 1 : loads.size();
}

std::vector<CampaignRun>
CampaignGrid::expand(std::size_t index_offset,
                     std::size_t series_offset) const
{
    std::vector<CampaignRun> runs(axes.runCount());
    for (std::size_t local = 0; local < runs.size(); ++local) {
        CampaignRun& run = runs[local];
        run.index = index_offset + local;
        // Load nests innermost, so one series is one load sweep.
        run.series = series_offset + local / axes.loadsPerSeries();
        run.config = base;
        // `local` in mixed radix over the swept axes, the innermost
        // digit varying fastest.
        std::size_t rest = local;
        for (auto f = gridAxes().rbegin(); f != gridAxes().rend(); ++f) {
            if (const std::size_t n = (*f)->ops.size(axes)) {
                (*f)->ops.apply(axes, rest % n, run.config);
                rest /= n;
            }
        }
        if (deriveSeeds)
            run.config.seed = deriveSeed(campaignSeed, run.index);
        run.config.validate();
    }
    return runs;
}

void
ShardSpec::validate() const
{
    if (count < 1)
        throw ConfigError("shard count must be >= 1");
    if (weight < 1)
        throw ConfigError("shard weight must be >= 1");
    if (index >= count || weight > count - index) {
        throw ConfigError(
            "shard units [" + std::to_string(index + 1) + ", " +
            std::to_string(index + weight) + "] out of range for " +
            std::to_string(count) + " units");
    }
}

std::string
ShardSpec::str() const
{
    std::string s =
        std::to_string(index + 1) + '/' + std::to_string(count);
    if (weight > 1)
        s += ':' + std::to_string(weight);
    return s;
}

ShardSpec
parseShardSpec(const std::string& spec)
{
    const std::size_t slash = spec.find('/');
    const std::size_t colon = spec.find(':');
    const auto digits = [](const std::string& s) {
        return !s.empty() &&
               s.find_first_not_of("0123456789") == std::string::npos;
    };
    const std::size_t m_end =
        colon == std::string::npos ? spec.size() : colon;
    if (slash == std::string::npos || slash > m_end ||
        !digits(spec.substr(0, slash)) ||
        !digits(spec.substr(slash + 1, m_end - slash - 1)) ||
        (colon != std::string::npos &&
         !digits(spec.substr(colon + 1)))) {
        throw ConfigError("bad shard spec '" + spec +
                          "' (want k/M or k/M:w, e.g. 2/3 or 1/4:3)");
    }
    unsigned long long k = 0;
    unsigned long long m = 0;
    unsigned long long w = 1;
    try {
        k = std::stoull(spec.substr(0, slash));
        m = std::stoull(spec.substr(slash + 1, m_end - slash - 1));
        if (colon != std::string::npos)
            w = std::stoull(spec.substr(colon + 1));
    } catch (const std::out_of_range&) {
        throw ConfigError("bad shard spec '" + spec +
                          "' (number out of range)");
    }
    if (m < 1 || k < 1 || k > m) {
        throw ConfigError("bad shard spec '" + spec +
                          "' (want 1 <= k <= M)");
    }
    if (w < 1 || w > m - (k - 1)) {
        throw ConfigError("bad shard spec '" + spec +
                          "' (weight w must fit: k-1+w <= M)");
    }
    ShardSpec shard;
    shard.index = static_cast<std::size_t>(k - 1);
    shard.count = static_cast<std::size_t>(m);
    shard.weight = static_cast<std::size_t>(w);
    return shard;
}

std::vector<CampaignRun>
expandGrids(const std::vector<CampaignGrid>& grids)
{
    std::vector<CampaignRun> runs;
    std::size_t index = 0;
    std::size_t series = 0;
    for (const CampaignGrid& grid : grids) {
        std::vector<CampaignRun> part = grid.expand(index, series);
        if (!part.empty()) {
            index = part.back().index + 1;
            series = part.back().series + 1;
        }
        runs.insert(runs.end(),
                    std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    return runs;
}

namespace
{

/**
 * Reorder buffer between concurrently finishing runs and the sinks:
 * results are released strictly in the expected-index sequence, so the
 * streamed output is byte-identical for any thread count.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(std::vector<std::size_t> expected,
                   const std::vector<ResultSink*>& sinks,
                   const std::function<void(const RunResult&)>& progress,
                   std::vector<RunResult>& out,
                   const std::map<std::size_t, std::size_t>& positions)
        : expected_(std::move(expected)), sinks_(sinks),
          progress_(progress), out_(out), positions_(positions)
    {
        std::sort(expected_.begin(), expected_.end());
    }

    void
    emit(RunResult result)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        pending_.emplace(result.run.index, std::move(result));
        drainLocked();
    }

    /** Forget indices that will never arrive (their series failed). */
    void
    abandon(const std::vector<std::size_t>& indices)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (std::size_t idx : indices) {
            auto it = std::lower_bound(expected_.begin(),
                                       expected_.end(), idx);
            if (it != expected_.end() && *it == idx)
                expected_.erase(it);
        }
        drainLocked();
    }

  private:
    void
    drainLocked()
    {
        while (cursor_ < expected_.size()) {
            auto it = pending_.find(expected_[cursor_]);
            if (it == pending_.end())
                return;
            RunResult& r = it->second;
            for (ResultSink* sink : sinks_)
                sink->write(r);
            if (progress_)
                progress_(r);
            out_[positions_.at(r.run.index)] = std::move(r);
            pending_.erase(it);
            ++cursor_;
        }
    }

    std::mutex mutex_;
    std::vector<std::size_t> expected_; //!< sorted indices still owed
    std::size_t cursor_ = 0;
    std::map<std::size_t, RunResult> pending_;
    const std::vector<ResultSink*>& sinks_;
    const std::function<void(const RunResult&)>& progress_;
    std::vector<RunResult>& out_;
    const std::map<std::size_t, std::size_t>& positions_;
};

} // namespace

std::vector<RunResult>
runCampaign(const std::vector<CampaignRun>& runs,
            const CampaignOptions& opts,
            const std::vector<ResultSink*>& sinks)
{
    opts.shard.validate();

    // Position of each run index in the input (and output) vector.
    std::map<std::size_t, std::size_t> positions;
    for (std::size_t pos = 0; pos < runs.size(); ++pos)
        positions.emplace(runs[pos].index, pos);

    std::vector<RunResult> results(runs.size());
    std::vector<std::size_t> expected;
    expected.reserve(runs.size());

    // Series members in ascending index order (= ascending load).
    std::map<std::size_t, std::vector<std::size_t>> series_runs;
    for (std::size_t pos = 0; pos < runs.size(); ++pos) {
        const CampaignRun& run = runs[pos];
        series_runs[run.series].push_back(pos);
        if (opts.resume.isDone(run.index)) {
            results[pos].run = run;
            results[pos].executed = false;
            results[pos].stats.saturated =
                opts.resume.saturated.count(run.index) != 0;
        } else if (opts.shard.owns(run.index)) {
            expected.push_back(run.index);
        } else {
            // Another shard's run: returned unexecuted, never emitted.
            results[pos].run = run;
            results[pos].executed = false;
        }
    }
    for (auto& [series, members] : series_runs) {
        std::sort(members.begin(), members.end(),
                  [&](std::size_t a, std::size_t b) {
                      return runs[a].index < runs[b].index;
                  });
    }

    OrderedEmitter emitter(expected, sinks, opts.progress, results,
                           positions);

    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::atomic<bool> failed{false}; // stops threads taking new series

    auto run_series = [&](const std::vector<std::size_t>& members) {
        // This shard's last pending member: beyond it nothing in the
        // series affects output, so execution (and probing) stops
        // there. A series owned entirely elsewhere costs nothing.
        std::size_t last = members.size();
        for (std::size_t i = members.size(); i-- > 0;) {
            const CampaignRun& run = runs[members[i]];
            if (opts.shard.owns(run.index) &&
                !opts.resume.isDone(run.index)) {
                last = i;
                break;
            }
        }
        if (last == members.size())
            return;

        bool saturated = false;
        std::size_t done = 0;
        try {
            for (std::size_t i = 0; i <= last; ++i) {
                const std::size_t pos = members[i];
                const CampaignRun& run = runs[pos];
                if (opts.resume.isDone(run.index)) {
                    if (opts.resume.saturated.count(run.index) != 0)
                        saturated = true;
                    ++done;
                    continue;
                }
                const bool owned = opts.shard.owns(run.index);
                if (saturated && opts.skipSaturatedTail) {
                    if (owned) {
                        RunResult result;
                        result.run = run;
                        result.stats.saturated = true;
                        result.inferredSaturated = true;
                        emitter.emit(std::move(result));
                    }
                    ++done;
                    continue;
                }
                if (!owned && !opts.skipSaturatedTail) {
                    // No inference to feed: this run is purely another
                    // shard's business.
                    ++done;
                    continue;
                }
                // Simulate: an owned run, or a probe whose saturation
                // outcome decides whether this shard's heavier loads
                // are inferred exactly as in the unsharded campaign.
                RunResult result;
                result.run = run;
                Simulation sim(run.config);
                result.stats = sim.run();
                saturated = result.stats.saturated;
                if (owned)
                    emitter.emit(std::move(result));
                ++done;
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
            failed = true;
            // Unblock the emitter for every owed (owned, unresumed)
            // member this series can no longer deliver.
            std::vector<std::size_t> lost;
            for (std::size_t i = done; i < members.size(); ++i) {
                const CampaignRun& run = runs[members[i]];
                if (opts.shard.owns(run.index) &&
                    !opts.resume.isDone(run.index))
                    lost.push_back(run.index);
            }
            emitter.abandon(lost);
        }
    };

    // The caller and campaignThreads() - 1 workers each take the next
    // series, in ascending order, until none is left or a run has
    // failed. run_series traps run errors, so no thread throws.
    std::vector<const std::vector<std::size_t>*> queue;
    for (const auto& [series, members] : series_runs)
        queue.push_back(&members);
    std::atomic<std::size_t> next{0};
    auto take_series = [&] {
        for (std::size_t i = next++; i < queue.size() && !failed;
             i = next++)
            run_series(*queue[i]);
    };
    {
        const std::size_t threads = campaignThreads(runs, opts.jobs);
        std::vector<std::jthread> workers;
        for (std::size_t t = 1; t < threads; ++t)
            workers.emplace_back(take_series);
        take_series();
    } // joins the workers

    for (ResultSink* sink : sinks)
        sink->flush();

    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

std::size_t
campaignThreads(const std::vector<CampaignRun>& runs, unsigned jobs)
{
    std::set<std::size_t> series;
    for (const CampaignRun& run : runs)
        series.insert(run.series);
    return std::min<std::size_t>(resolveJobs(jobs), series.size());
}

} // namespace lapses
