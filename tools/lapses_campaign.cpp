/**
 * @file
 * lapses-campaign: parallel experiment-campaign driver.
 *
 * Expand a declarative cross-product of configuration axes into
 * independent simulation runs and execute them across worker threads,
 * streaming one result record per run to JSONL and/or CSV:
 *
 *   lapses-campaign --grid "model=proud,la-proud; routing=xy,duato; \
 *       traffic=uniform,transpose; load=0.1:0.8:0.1" \
 *       --jobs 8 --json fig5.jsonl --csv fig5.csv
 *
 * Output is byte-identical for any --jobs value: run i's seed is
 * derived from (--seed, i) at expansion time and records are emitted
 * in run-index order. A killed campaign resumes with --resume, which
 * re-scans the output file and skips the runs already recorded.
 *
 * Repeat --grid to join several grids (e.g. different load axes per
 * traffic pattern) into one campaign with global run numbering.
 *
 * --shard k/M splits the campaign across machines: shard k executes
 * only the run indices i with i % M == k-1 (k is 1-based), keeping
 * global indices and per-run seeds, so the M shard files are
 * byte-identical slices of the unsharded output and `lapses-merge`
 * reassembles the canonical file. Heterogeneous hosts use weighted
 * shards --shard k/M:w, where M counts weight units and the shard owns
 * units k-1 .. k-2+w — e.g. a host 3x faster than its peer takes
 * --shard 1/4:3 and the peer --shard 4/4:1. Any set of shards whose
 * unit ranges partition [1, M] covers the grid exactly once.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/lapses.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_cli.hpp"
#include "exp/config_fields.hpp"
#include "exp/result_sink.hpp"

namespace
{

using namespace lapses;

void
printHelp()
{
    std::printf(
        "lapses-campaign -- parallel LAPSES experiment campaigns\n"
        "\n"
        "%s"
        "\n"
        "Execution:\n"
        "  --jobs N             worker threads (0 = all cores)  [0]\n"
        "  --shard k/M[:w]      execute only run indices i with\n"
        "                       i %% M in [k-1, k-1+w) (one of M weight\n"
        "                       units; w units for a faster host, 1\n"
        "                       when omitted); merge the shard outputs\n"
        "                       with lapses-merge\n"
        "  --no-skip-saturated  simulate loads past saturation too\n"
        "                       (also makes --shard redundancy-free)\n"
        "  --dry-run            list the expanded runs and exit\n"
        "\n"
        "Output:\n"
        "  --json FILE          stream records as JSON Lines\n"
        "  --csv FILE           stream records as CSV\n"
        "  --resume             skip runs already in the output files\n"
        "                       (scans them, then appends)\n"
        "  --quiet              suppress per-run progress on stderr\n"
        "  --help               this text\n",
        campaignCliHelp().c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    CampaignCli cli;
    ShardSpec shard;
    unsigned jobs = 0;
    bool skip_saturated = true;
    bool dry_run = false;
    bool resume = false;
    bool quiet = false;
    std::string json_path;
    std::string csv_path;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (cli.consume(argc, argv, i)) {
                continue;
            } else if (arg == "--help" || arg == "-h") {
                printHelp();
                return 0;
            } else if (arg == "--jobs") {
                jobs = static_cast<unsigned>(parseCheckedInt(
                    arg, value(), 0, std::numeric_limits<int>::max()));
            } else if (arg == "--shard") {
                shard = parseShardSpec(value());
            } else if (arg == "--no-skip-saturated") {
                skip_saturated = false;
            } else if (arg == "--dry-run") {
                dry_run = true;
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--json") {
                json_path = value();
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (arg == "--quiet") {
                quiet = true;
            } else {
                throw ConfigError("unknown option '" + arg +
                                  "' (see --help)");
            }
        }

        const std::vector<CampaignRun> runs = cli.runs();
        std::size_t owned_total = 0;
        for (const CampaignRun& run : runs) {
            if (shard.owns(run.index))
                ++owned_total;
        }

        if (dry_run) {
            for (const CampaignRun& run : runs) {
                if (!shard.owns(run.index))
                    continue;
                std::printf("run %zu (series %zu): %s\n", run.index,
                            run.series, run.config.describe().c_str());
            }
            if (shard.isAll()) {
                std::printf("%zu runs, %zu series\n", runs.size(),
                            runs.empty() ? 0
                                         : runs.back().series + 1);
            } else {
                std::printf("%zu of %zu runs in shard %s\n",
                            owned_total, runs.size(),
                            shard.str().c_str());
            }
            return 0;
        }

        CampaignOptions opts;
        opts.jobs = jobs;
        opts.skipSaturatedTail = skip_saturated;
        opts.shard = shard;

        // --resume: recover completed runs from every output file and
        // normalize the files before appending. A run counts as
        // completed only when it is durably recorded in *all* files
        // (a kill can land between the per-sink flushes), and
        // normalization rewrites each file to exactly those records —
        // dropping torn lines and orphans — so the resumed campaign
        // finishes with byte-identical files to an uninterrupted run.
        struct ScannedFile
        {
            std::string path;
            SinkFormat format;
            ResumeState state;
        };
        std::vector<ScannedFile> scanned;
        if (resume) {
            if (json_path.empty() && csv_path.empty())
                throw ConfigError("--resume needs --json or --csv");
            for (ScannedFile f :
                 {ScannedFile{json_path, SinkFormat::Jsonl, {}},
                  ScannedFile{csv_path, SinkFormat::Csv, {}}}) {
                if (f.path.empty())
                    continue;
                std::ifstream is(f.path);
                if (is)
                    f.state = scanResume(is, f.format);
                validateResume(f.state, runs, f.format, shard);
                scanned.push_back(std::move(f));
            }

            opts.resume = scanned.front().state;
            for (std::size_t i = 1; i < scanned.size(); ++i) {
                const ResumeState& other = scanned[i].state;
                std::erase_if(opts.resume.completed,
                              [&other](std::size_t idx) {
                                  return !other.isDone(idx);
                              });
            }
            std::erase_if(opts.resume.saturated,
                          [&](std::size_t idx) {
                              return !opts.resume.isDone(idx);
                          });

            // A kill between the per-run sink flushes leaves the files
            // differing by at most one record. A bigger gap means the
            // output set changed (e.g. --csv added to a finished
            // --json campaign); refuse rather than silently discard
            // the non-shared records and re-simulate them.
            std::size_t max_completed = 0;
            for (const ScannedFile& f : scanned) {
                max_completed = std::max(max_completed,
                                         f.state.completed.size());
            }
            if (max_completed > opts.resume.completed.size() + 1) {
                throw ConfigError(
                    "--resume: the output files disagree on " +
                    std::to_string(max_completed -
                                   opts.resume.completed.size()) +
                    " completed runs (was a new output format added "
                    "to a finished campaign?); resume with the "
                    "original outputs or start fresh");
            }

            // Rewrite each file to exactly the shared completed
            // records (dropping torn lines and orphans) via temp file
            // + rename, so a kill mid-rewrite cannot lose records.
            for (const ScannedFile& f : scanned) {
                const std::string tmp = f.path + ".tmp";
                {
                    std::ofstream os(tmp, std::ios::trunc);
                    if (!os)
                        throw ConfigError("cannot rewrite " + tmp);
                    if (f.format == SinkFormat::Csv)
                        os << campaignCsvHeader() << '\n';
                    for (const CampaignRun& run : runs) {
                        if (!opts.resume.isDone(run.index))
                            continue;
                        os << f.state.records.at(run.index) << '\n';
                    }
                }
                if (std::rename(tmp.c_str(), f.path.c_str()) != 0)
                    throw ConfigError("cannot replace " + f.path);
            }
        }
        std::size_t resumed = 0;
        for (const CampaignRun& run : runs) {
            if (opts.resume.isDone(run.index))
                ++resumed;
        }

        const auto open_mode = resume ? std::ios::app : std::ios::trunc;
        std::ofstream json_os;
        std::ofstream csv_os;
        std::vector<std::unique_ptr<ResultSink>> sink_storage;
        std::vector<ResultSink*> sinks;
        if (!json_path.empty()) {
            json_os.open(json_path, open_mode);
            if (!json_os)
                throw ConfigError("cannot open " + json_path);
            sink_storage.push_back(
                std::make_unique<JsonlSink>(json_os));
            sinks.push_back(sink_storage.back().get());
        }
        if (!csv_path.empty()) {
            csv_os.open(csv_path, open_mode);
            if (!csv_os)
                throw ConfigError("cannot open " + csv_path);
            // On resume the normalization pass wrote the header.
            sink_storage.push_back(
                std::make_unique<CsvSink>(csv_os, !resume));
            sinks.push_back(sink_storage.back().get());
        }

        std::size_t executed = 0;
        std::size_t saturated = 0;
        opts.progress = [&](const RunResult& r) {
            ++executed;
            if (r.stats.saturated)
                ++saturated;
            if (!quiet) {
                std::fprintf(stderr, "[%zu/%zu] %s%s\n",
                             r.run.index + 1, runs.size(),
                             r.run.config.describe().c_str(),
                             r.stats.saturated ? " [saturated]" : "");
            }
        };

        const auto t0 = std::chrono::steady_clock::now();
        runCampaign(runs, opts, sinks);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        const std::size_t threads = campaignThreads(runs, jobs);
        if (shard.isAll()) {
            std::fprintf(stderr,
                         "campaign done: %zu runs (%zu executed, %zu "
                         "resumed, %zu saturated) in %.2fs on %zu "
                         "thread%s\n",
                         runs.size(), executed, resumed, saturated,
                         secs, threads, threads == 1 ? "" : "s");
        } else {
            std::fprintf(stderr,
                         "shard %s done: %zu of %zu runs (%zu "
                         "executed, %zu resumed, %zu saturated) in "
                         "%.2fs on %zu thread%s; combine the shards "
                         "with lapses-merge\n",
                         shard.str().c_str(), owned_total, runs.size(),
                         executed, resumed, saturated, secs, threads,
                         threads == 1 ? "" : "s");
        }
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "lapses-campaign: %s\n", e.what());
        return 1;
    } catch (const SimulationError& e) {
        std::fprintf(stderr, "lapses-campaign: %s\n", e.what());
        return 2;
    }
    return 0;
}
