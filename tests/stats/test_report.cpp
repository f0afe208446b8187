/**
 * @file
 * Unit tests for the CSV / JSON result writers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/report.hpp"

namespace lapses
{
namespace
{

SimStats
fakeStats(double latency, bool saturated = false)
{
    SimStats st;
    st.totalLatency.add(latency);
    st.networkLatency.add(latency - 5.0);
    st.hops.add(10.0);
    st.latencyHist.add(latency);
    st.acceptedFlitRate = 0.1;
    st.offeredFlitRate = 0.1;
    st.deliveredMessages = 1;
    st.saturated = saturated;
    return st;
}

TEST(CsvEscape, PlainFieldsUntouched)
{
    EXPECT_EQ(csvEscape("la-proud duato"), "la-proud duato");
}

TEST(CsvEscape, QuotesSpecials)
{
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(SweepCsv, HeaderAndRows)
{
    SweepSeries s;
    s.label = "la-adapt";
    s.loads = {0.1, 0.2};
    s.points = {fakeStats(70.0), fakeStats(80.0)};
    std::ostringstream os;
    writeSweepCsv(os, {s});
    const std::string out = os.str();
    EXPECT_NE(out.find("series,load,latency"), std::string::npos);
    EXPECT_NE(out.find("la-adapt,0.1,70"), std::string::npos);
    EXPECT_NE(out.find("la-adapt,0.2,80"), std::string::npos);
    // 1 header + 2 rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(SweepCsv, SaturatedRowsKeepLoadDropLatency)
{
    SweepSeries s;
    s.label = "x";
    s.loads = {0.5};
    s.points = {fakeStats(0.0, /*saturated=*/true)};
    std::ostringstream os;
    writeSweepCsv(os, {s});
    EXPECT_NE(os.str().find("x,0.5,,,,,0.1,0,0,,,,,,,,,true"),
              std::string::npos);
}

TEST(SweepCsv, MultipleSeriesConcatenate)
{
    SweepSeries a;
    a.label = "a";
    a.loads = {0.1};
    a.points = {fakeStats(60.0)};
    SweepSeries b;
    b.label = "b";
    b.loads = {0.1};
    b.points = {fakeStats(65.0)};
    std::ostringstream os;
    writeSweepCsv(os, {a, b});
    EXPECT_NE(os.str().find("\na,"), std::string::npos);
    EXPECT_NE(os.str().find("\nb,"), std::string::npos);
}

TEST(Json, ContainsAllKeys)
{
    const std::string j = statsToJson(fakeStats(70.0));
    for (const char* key :
         {"latency_mean", "latency_p50", "latency_p95", "latency_p99",
          "network_latency_mean", "hops_mean", "accepted_flit_rate",
          "offered_flit_rate", "delivered_messages", "measured_cycles",
          "saturated"}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
    EXPECT_NE(j.find("\"latency_mean\":70"), std::string::npos);
    EXPECT_NE(j.find("\"saturated\":false"), std::string::npos);
}

TEST(Json, CountsPrintExactly)
{
    // A long run's cycle count must not round to six significant
    // digits (it once printed as 1.5109e+06).
    SimStats st = fakeStats(70.0);
    st.measuredCycles = 1510904;
    st.deliveredMessages = 12345678901ull;
    const std::string j = statsToJson(st);
    EXPECT_NE(j.find("\"measured_cycles\":1510904,"), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"delivered_messages\":12345678901,"),
              std::string::npos)
        << j;
}

TEST(Json, SaturatedFlag)
{
    const std::string j = statsToJson(fakeStats(1.0, true));
    EXPECT_NE(j.find("\"saturated\":true"), std::string::npos);
}

} // namespace
} // namespace lapses
