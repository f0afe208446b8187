#include "router/arbiter.hpp"

#include <algorithm>

namespace lapses
{

bool
RoundRobinArbiter::anyRequest() const
{
    return word_ != 0 ||
           std::any_of(wide_.begin(), wide_.end(),
                       [](std::uint64_t w) { return w != 0; });
}

int
RoundRobinArbiter::scanFrom(int start) const
{
    std::size_t wi = static_cast<std::size_t>(start) >> 6;
    // Mask off lines below `start` in its word; later words scan whole.
    std::uint64_t w = wide_[wi] & (~std::uint64_t{0} << (start & 63));
    while (true) {
        if (w != 0)
            return static_cast<int>(wi) * 64 + std::countr_zero(w);
        if (++wi == wide_.size())
            return -1;
        w = wide_[wi];
    }
}

int
RoundRobinArbiter::grantWide()
{
    int winner = scanFrom(next_);
    if (winner < 0 && next_ != 0)
        winner = scanFrom(0);
    clear();
    return winner < 0 ? -1 : advancePast(winner);
}

void
RoundRobinArbiter::clear()
{
    word_ = 0;
    std::fill(wide_.begin(), wide_.end(), 0);
}

} // namespace lapses
