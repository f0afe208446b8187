/**
 * @file
 * Unit tests for coordinates and sign vectors (Section 5.2.1 hardware).
 */

#include <gtest/gtest.h>

#include "topology/coordinates.hpp"

namespace lapses
{
namespace
{

TEST(Coordinates, ConstructorsSetDims)
{
    Coordinates c2(3, 4);
    EXPECT_EQ(c2.dims(), 2);
    EXPECT_EQ(c2.at(0), 3);
    EXPECT_EQ(c2.at(1), 4);

    Coordinates c3(1, 2, 3);
    EXPECT_EQ(c3.dims(), 3);
    EXPECT_EQ(c3.at(2), 3);
}

TEST(Coordinates, SetUpdates)
{
    Coordinates c(2);
    c.set(0, 7);
    c.set(1, -2);
    EXPECT_EQ(c.at(0), 7);
    EXPECT_EQ(c.at(1), -2);
}

TEST(Coordinates, EqualityComparesAllDims)
{
    EXPECT_EQ(Coordinates(1, 2), Coordinates(1, 2));
    EXPECT_NE(Coordinates(1, 2), Coordinates(2, 1));
    EXPECT_NE(Coordinates(1, 2), Coordinates(1, 2, 0)); // dims differ
}

TEST(Coordinates, ToStringRenders)
{
    EXPECT_EQ(Coordinates(1, 2).toString(), "(1,2)");
    EXPECT_EQ(Coordinates(0, 0, 5).toString(), "(0,0,5)");
}

TEST(Sign, SignOfMatchesDefinition)
{
    EXPECT_EQ(signOf(0, 5), Sign::Plus);
    EXPECT_EQ(signOf(5, 0), Sign::Minus);
    EXPECT_EQ(signOf(3, 3), Sign::Zero);
}

TEST(Sign, SignCharRenders)
{
    EXPECT_EQ(signChar(Sign::Plus), '+');
    EXPECT_EQ(signChar(Sign::Minus), '-');
    EXPECT_EQ(signChar(Sign::Zero), '0');
}

TEST(SignVector, ComputesPerDimension)
{
    // Paper Section 5.2.1: s_x = sign(d_x - i_x), s_y = sign(d_y - i_y).
    const SignVector sv(Coordinates(1, 1), Coordinates(0, 2));
    EXPECT_EQ(sv.at(0), Sign::Minus);
    EXPECT_EQ(sv.at(1), Sign::Plus);
    EXPECT_FALSE(sv.isZero());
}

TEST(SignVector, ZeroAtDestination)
{
    const SignVector sv(Coordinates(4, 7), Coordinates(4, 7));
    EXPECT_TRUE(sv.isZero());
}

TEST(SignVector, TableIndexRoundTrips2D)
{
    // All 9 sign combinations of a 2-D mesh (the 9-entry ES table).
    for (int idx = 0; idx < 9; ++idx) {
        const SignVector sv = SignVector::fromTableIndex(idx, 2);
        EXPECT_EQ(sv.tableIndex(), idx);
    }
}

TEST(SignVector, TableIndexRoundTrips3D)
{
    // All 27 sign combinations of a 3-D mesh (the 27-entry ES table).
    for (int idx = 0; idx < 27; ++idx) {
        const SignVector sv = SignVector::fromTableIndex(idx, 3);
        EXPECT_EQ(sv.tableIndex(), idx);
    }
}

TEST(SignVector, TableIndexIsUniquePerSign)
{
    bool seen[9] = {};
    for (int sx = -1; sx <= 1; ++sx) {
        for (int sy = -1; sy <= 1; ++sy) {
            SignVector sv;
            sv = SignVector(Coordinates(0, 0),
                            Coordinates(sx, sy));
            const int idx = sv.tableIndex();
            ASSERT_GE(idx, 0);
            ASSERT_LT(idx, 9);
            EXPECT_EQ(SignVector::tableIndexOf(Coordinates(0, 0),
                                               Coordinates(sx, sy)),
                      idx);
            EXPECT_FALSE(seen[idx]);
            seen[idx] = true;
        }
    }
}

TEST(SignVector, CenterIndexIsMiddle)
{
    // (0,0) maps to digit pattern (1,1): index 1 + 3 = 4 of 0..8.
    const SignVector sv(Coordinates(2, 2), Coordinates(2, 2));
    EXPECT_EQ(sv.tableIndex(), 4);
}

TEST(SignVector, ToStringRenders)
{
    const SignVector sv(Coordinates(1, 1), Coordinates(0, 2));
    EXPECT_EQ(sv.toString(), "(-,+)");
}

} // namespace
} // namespace lapses
