/**
 * @file
 * lapses-merge: validate, merge and aggregate sharded campaign output.
 *
 * M machines each run one shard of a campaign:
 *
 *   lapses-campaign --grid "..." --seed 7 --shard k/M --json shard-k.jsonl
 *
 * and this tool reassembles the canonical single-host file (plus
 * figure-ready aggregates) from the shard files:
 *
 *   lapses-merge --grid "..." --seed 7 --format jsonl \
 *       --out merged.jsonl shard-*.jsonl
 *
 * The campaign definition (--grid / --seed / base-config flags) must
 * repeat the one the shards ran: it is expanded to the same globally
 * numbered run list, and every shard record is checked against it.
 * Overlapping shards, records from a foreign grid, mis-seeded shards
 * and truncated trailing records are rejected with the offending
 * file and run named. Missing runs (a shard that crashed or was never
 * run) are listed for `lapses-campaign --shard k/M --resume`-style
 * refill, and abort the merge unless --allow-gaps is given.
 *
 * With every shard present, the merged file is byte-identical to the
 * file the unsharded campaign would have written.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/lapses.hpp"
#include "exp/campaign_cli.hpp"
#include "exp/config_fields.hpp"
#include "exp/grid_spec.hpp"
#include "exp/merge.hpp"

namespace
{

using namespace lapses;

void
printHelp()
{
    std::string columns = aggregateColumns();
    std::replace(columns.begin(), columns.end(), ',', '|');
    std::printf(
        "lapses-merge -- merge sharded lapses-campaign output\n"
        "\n"
        "usage: lapses-merge [campaign flags] [merge flags] "
        "SHARD_FILE...\n"
        "\n"
        "%s"
        "\n"
        "Merge:\n"
        "  --format jsonl|csv   record format of the shard files "
        "[jsonl]\n"
        "  --out FILE           write the merged, run-index-ordered\n"
        "                       records here ('-' = stdout)\n"
        "  --allow-gaps         merge even when runs are missing\n"
        "                       (gaps are listed for --resume refill)\n"
        "  --check              validate the shards and report\n"
        "                       coverage without writing anything\n"
        "  --group-by AXES      one aggregate row per combination of\n"
        "                       these comma-separated record\n"
        "                       coordinates or grid axes:\n"
        "%s"
        "                       with the columns (README \"Aggregation\"):\n"
        "%s"
        "  --agg-out FILE       write the aggregate CSV here [stdout]\n"
        "  --help               this text\n",
        campaignCliHelp().c_str(),
        wrapHelpList(coordinateNames()).c_str(),
        wrapHelpList(columns).c_str());
}

/** "5 runs: 3, 7, 11, ... (and 2 more)" for the gap report. */
std::string
describeGaps(const std::vector<std::size_t>& missing)
{
    std::ostringstream os;
    os << missing.size() << " missing run"
       << (missing.size() == 1 ? "" : "s") << ':';
    const std::size_t shown = std::min<std::size_t>(missing.size(), 16);
    for (std::size_t i = 0; i < shown; ++i)
        os << ' ' << missing[i];
    if (shown < missing.size())
        os << " ... (and " << missing.size() - shown << " more)";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    CampaignCli cli;
    SinkFormat format = SinkFormat::Jsonl;
    std::string out_path;
    std::string agg_out_path;
    std::vector<std::string> group_by;
    std::vector<std::string> shard_paths;
    bool allow_gaps = false;
    bool check_only = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (cli.consume(argc, argv, i)) {
                continue;
            } else if (arg == "--help" || arg == "-h") {
                printHelp();
                return 0;
            } else if (arg == "--format") {
                const std::string fmt = value();
                if (fmt == "jsonl")
                    format = SinkFormat::Jsonl;
                else if (fmt == "csv")
                    format = SinkFormat::Csv;
                else
                    throw ConfigError("bad format '" + fmt +
                                      "' (want jsonl|csv)");
            } else if (arg == "--out") {
                out_path = value();
            } else if (arg == "--allow-gaps") {
                allow_gaps = true;
            } else if (arg == "--check") {
                check_only = true;
            } else if (arg == "--group-by") {
                group_by = splitList(value(), ',');
            } else if (arg == "--agg-out") {
                agg_out_path = value();
            } else if (!arg.empty() && arg.front() == '-' &&
                       arg != "-") {
                throw ConfigError("unknown option '" + arg +
                                  "' (see --help)");
            } else {
                shard_paths.push_back(arg);
            }
        }

        if (shard_paths.empty())
            throw ConfigError("no shard files given (see --help)");
        if (out_path.empty() && !check_only && group_by.empty()) {
            throw ConfigError(
                "nothing to do: give --out, --check or --group-by");
        }

        const std::vector<CampaignRun> runs = cli.runs();

        std::vector<ShardFile> shards;
        shards.reserve(shard_paths.size());
        for (const std::string& path : shard_paths)
            shards.push_back(readShardFile(path, format));
        validateShardFiles(shards, runs);

        // Coverage: which of the campaign's runs the shards provide.
        const MergeReport report = shardCoverage(shards, runs);

        std::fprintf(stderr,
                     "%zu shard file%s: %zu of %zu runs covered\n",
                     shards.size(), shards.size() == 1 ? "" : "s",
                     report.merged, report.total);
        if (!report.complete()) {
            std::fprintf(stderr, "%s\n",
                         describeGaps(report.missing).c_str());
            std::fprintf(
                stderr,
                "refill: rerun the missing shards, or resume them "
                "with lapses-campaign --shard k/M --resume\n");
            if (!allow_gaps && !check_only) {
                throw ConfigError(
                    "refusing to merge with gaps (use --allow-gaps "
                    "to merge what is there)");
            }
        }

        if (check_only)
            return report.complete() || allow_gaps ? 0 : 1;

        if (!out_path.empty()) {
            std::ofstream file_os;
            const bool to_stdout = out_path == "-";
            if (!to_stdout) {
                // Write via a temp file + rename so an aborted merge
                // never leaves a half-written canonical file.
                file_os.open(out_path + ".tmp", std::ios::trunc);
                if (!file_os)
                    throw ConfigError("cannot open " + out_path +
                                      ".tmp");
            }
            std::ostream& os = to_stdout ? std::cout : file_os;
            mergeShardFiles(shards, runs, os, format);
            os.flush();
            if (!to_stdout) {
                file_os.close();
                if (std::rename((out_path + ".tmp").c_str(),
                                out_path.c_str()) != 0)
                    throw ConfigError("cannot replace " + out_path);
                std::fprintf(stderr, "merged %zu records into %s\n",
                             report.merged, out_path.c_str());
            }
        }

        if (!group_by.empty()) {
            std::ofstream file_os;
            const bool to_stdout =
                agg_out_path.empty() || agg_out_path == "-";
            if (!to_stdout) {
                file_os.open(agg_out_path, std::ios::trunc);
                if (!file_os)
                    throw ConfigError("cannot open " + agg_out_path);
            }
            std::ostream& os = to_stdout ? std::cout : file_os;
            writeAggregateCsv(shards, runs, group_by, os);
            os.flush();
        }
    } catch (const ConfigError& e) {
        std::fprintf(stderr, "lapses-merge: %s\n", e.what());
        return 1;
    }
    return 0;
}
