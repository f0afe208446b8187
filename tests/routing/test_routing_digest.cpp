/**
 * @file
 * Routing-function digests on shapes the golden stats never run.
 *
 * The golden stats only simulate a 4x4 mesh, so a change to the
 * coordinate math could bend routes on odd radices, on 3-D and 4-D
 * meshes, or at the even-radix torus Plus tie without moving any
 * golden number. Here every route(r, d) of every algorithm a shape
 * accepts is folded into one FNV-1a digest: the candidate ports in
 * order, the escape port and the escape class. Economical-storage
 * lookup() gets its own digests on the meshes. The pins are exact
 * products of the routing functions; when a change intentionally
 * alters routes, regenerate them with
 *
 *   LAPSES_GOLDEN_REGEN=1 ./lapses_tests \
 *       --gtest_filter='RoutingDigest.*'
 *
 * and paste the printed rows over kPinned below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "routing/algorithm_factory.hpp"
#include "tables/economical_storage.hpp"

namespace lapses
{
namespace
{

struct Shape
{
    const char* name;
    std::vector<int> radices;
    bool wrap;
};

/** Odd and even radices, 2-D to 4-D meshes, and both torus parities
 *  (radix 6 has a tie at distance 3, which must go Plus). */
const std::vector<Shape>&
shapes()
{
    static const std::vector<Shape> s = {
        {"mesh8x4", {8, 4}, false},
        {"mesh5x3x2", {5, 3, 2}, false},
        {"mesh3x3x2x2", {3, 3, 2, 2}, false},
        {"torus5x5", {5, 5}, true},
        {"torus6x4", {6, 4}, true},
    };
    return s;
}

constexpr RoutingAlgo kAlgos[] = {
    RoutingAlgo::DeterministicXY, RoutingAlgo::DeterministicYX,
    RoutingAlgo::DuatoFullyAdaptive, RoutingAlgo::NorthLast,
    RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
    RoutingAlgo::TorusAdaptive, RoutingAlgo::UpDown,
    RoutingAlgo::UpDownAdaptive,
};

/** 64-bit FNV-1a over one routing function's every (r, d) entry. */
class Digest
{
  public:
    void
    fold(const RouteCandidates& rc)
    {
        byte(static_cast<std::uint8_t>(rc.count()));
        for (int i = 0; i < rc.count(); ++i)
            byte(static_cast<std::uint8_t>(rc.at(i)));
        byte(static_cast<std::uint8_t>(rc.escapePort()));
        byte(static_cast<std::uint8_t>(rc.escapeClass()));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    std::uint64_t h_ = 14695981039346656037ull;
};

template <typename Route>
std::uint64_t
digestOf(const Topology& topo, Route&& route)
{
    Digest dg;
    for (NodeId r = 0; r < topo.numNodes(); ++r) {
        for (NodeId d = 0; d < topo.numNodes(); ++d)
            dg.fold(route(r, d));
    }
    return dg.value();
}

struct DigestRow
{
    std::string shape;
    std::string function; //!< "route:<algo>" or "es:<algo>"
    std::uint64_t digest;
};

/** Every accepted (shape, algorithm) route digest, then the
 *  economical-storage lookup digests of the algorithms it holds. */
std::vector<DigestRow>
computeDigests()
{
    std::vector<DigestRow> rows;
    for (const Shape& shape : shapes()) {
        const Topology topo = makeMeshTopology(shape.radices, shape.wrap);
        for (RoutingAlgo a : kAlgos) {
            RoutingAlgorithmPtr algo;
            try {
                algo = makeRoutingAlgorithm(a, topo);
            } catch (const ConfigError&) {
                continue; // the shape does not accept this algorithm
            }
            rows.push_back(
                {shape.name, "route:" + algo->name(),
                 digestOf(topo, [&](NodeId r, NodeId d) {
                     return algo->route(r, d);
                 })});
            if (shape.wrap)
                continue; // economical storage is mesh-only
            try {
                const EconomicalStorageTable table(topo, *algo);
                rows.push_back(
                    {shape.name, "es:" + algo->name(),
                     digestOf(topo, [&](NodeId r, NodeId d) {
                         return table.lookup(r, d);
                     })});
            } catch (const ConfigError&) {
                // not sign-representable: no table to digest
            }
        }
    }
    return rows;
}

struct PinnedRow
{
    const char* shape;
    const char* function;
    std::uint64_t digest;
};

// LAPSES_GOLDEN_REGEN=1 prints this table fresh (see file header).
const PinnedRow kPinned[] = {
    {"mesh8x4", "route:xy", 0x4d49054c2a5d18e5ull},
    {"mesh8x4", "es:xy", 0x4d49054c2a5d18e5ull},
    {"mesh8x4", "route:yx", 0xf27a4df6aaed43e5ull},
    {"mesh8x4", "es:yx", 0xf27a4df6aaed43e5ull},
    {"mesh8x4", "route:duato", 0x3ea327cf6661e7d5ull},
    {"mesh8x4", "es:duato", 0x3ea327cf6661e7d5ull},
    {"mesh8x4", "route:north-last", 0x8663f03a001bde75ull},
    {"mesh8x4", "es:north-last", 0x8663f03a001bde75ull},
    {"mesh8x4", "route:west-first", 0x4a7f8faf9bb18115ull},
    {"mesh8x4", "es:west-first", 0x4a7f8faf9bb18115ull},
    {"mesh8x4", "route:negative-first", 0xba7f2c20d1ee451dull},
    {"mesh8x4", "es:negative-first", 0xba7f2c20d1ee451dull},
    {"mesh8x4", "route:up-down", 0x08e1fa791c9480c5ull},
    {"mesh8x4", "es:up-down", 0x08e1fa791c9480c5ull},
    {"mesh8x4", "route:up-down-adaptive", 0x83bc37a201cbc9dfull},
    {"mesh8x4", "es:up-down-adaptive", 0x83bc37a201cbc9dfull},
    {"mesh5x3x2", "route:xyz", 0xdd7485b87afd3f7cull},
    {"mesh5x3x2", "es:xyz", 0xdd7485b87afd3f7cull},
    {"mesh5x3x2", "route:zyx", 0xce3a2e7d85d603d0ull},
    {"mesh5x3x2", "es:zyx", 0xce3a2e7d85d603d0ull},
    {"mesh5x3x2", "route:duato", 0x79a7cc1ee6e84f61ull},
    {"mesh5x3x2", "es:duato", 0x79a7cc1ee6e84f61ull},
    {"mesh5x3x2", "route:up-down", 0x425b0c3d13f1faf0ull},
    {"mesh5x3x2", "es:up-down", 0x425b0c3d13f1faf0ull},
    {"mesh5x3x2", "route:up-down-adaptive", 0x71dd1beec6730b8full},
    {"mesh5x3x2", "es:up-down-adaptive", 0x71dd1beec6730b8full},
    {"mesh3x3x2x2", "route:xyzw", 0x706304f679d6fe69ull},
    {"mesh3x3x2x2", "es:xyzw", 0x706304f679d6fe69ull},
    {"mesh3x3x2x2", "route:wzyx", 0x52ca534449b4b6bdull},
    {"mesh3x3x2x2", "es:wzyx", 0x52ca534449b4b6bdull},
    {"mesh3x3x2x2", "route:duato", 0x5ab227ed3eb483afull},
    {"mesh3x3x2x2", "es:duato", 0x5ab227ed3eb483afull},
    {"mesh3x3x2x2", "route:up-down", 0x1b6a457b4626bce1ull},
    {"mesh3x3x2x2", "es:up-down", 0x1b6a457b4626bce1ull},
    {"mesh3x3x2x2", "route:up-down-adaptive", 0xfe4337725adc8ab8ull},
    {"mesh3x3x2x2", "es:up-down-adaptive", 0xfe4337725adc8ab8ull},
    {"torus5x5", "route:xy", 0x0952baec88e50193ull},
    {"torus5x5", "route:yx", 0x1cd94ce74e038fd3ull},
    {"torus5x5", "route:torus-adaptive", 0x1aaa93432fd18743ull},
    {"torus5x5", "route:up-down", 0x1aa18f8da8da5283ull},
    {"torus5x5", "route:up-down-adaptive", 0xf91755d543d5ce87ull},
    {"torus6x4", "route:xy", 0x0b1cceb736edf345ull},
    {"torus6x4", "route:yx", 0xa498ca3a26ecbaf5ull},
    {"torus6x4", "route:torus-adaptive", 0x19745fbdb25ba1bdull},
    {"torus6x4", "route:up-down", 0x48b4a151c7e7070dull},
    {"torus6x4", "route:up-down-adaptive", 0x5ada0051a609267full},
};

TEST(RoutingDigest, PinnedPerShapeAndAlgorithm)
{
    const std::vector<DigestRow> rows = computeDigests();
    if (std::getenv("LAPSES_GOLDEN_REGEN") != nullptr) {
        for (const DigestRow& row : rows) {
            std::printf("    {\"%s\", \"%s\", 0x%016llxull},\n",
                        row.shape.c_str(), row.function.c_str(),
                        static_cast<unsigned long long>(row.digest));
        }
        return;
    }
    ASSERT_EQ(rows.size(), std::size(kPinned))
        << "accepted (shape, algorithm) set changed";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].shape, kPinned[i].shape) << "row " << i;
        EXPECT_EQ(rows[i].function, kPinned[i].function) << "row " << i;
        EXPECT_EQ(rows[i].digest, kPinned[i].digest)
            << rows[i].shape << " " << rows[i].function;
    }
}

TEST(RoutingDigest, CoordinatesMatchStrideArithmetic)
{
    // Row-major, dimension 0 fastest: coordinate d of node n is
    // (n / stride_d) % radix_d with stride_d the product of the lower
    // radices.
    for (const Shape& shape : shapes()) {
        const Topology topo = makeMeshTopology(shape.radices, shape.wrap);
        const MeshShape& mesh = *topo.mesh();
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            const Coordinates c = mesh.nodeToCoords(n);
            ASSERT_EQ(c.dims(), static_cast<int>(shape.radices.size()));
            int stride = 1;
            for (int d = 0; d < c.dims(); ++d) {
                const int radix =
                    shape.radices[static_cast<std::size_t>(d)];
                EXPECT_EQ(c.at(d), (n / stride) % radix)
                    << shape.name << " node " << n << " dim " << d;
                stride *= radix;
            }
            EXPECT_EQ(mesh.coordsToNode(c), n) << shape.name;
        }
    }
}

} // namespace
} // namespace lapses
