#include "selection/selector_factory.hpp"

#include "common/assert.hpp"

namespace lapses
{

PathSelectorPtr
makePathSelector(SelectorKind kind, Rng rng)
{
    switch (kind) {
      case SelectorKind::StaticXY:
        return std::make_unique<StaticXySelector>();
      case SelectorKind::FirstFree:
        return std::make_unique<FirstFreeSelector>();
      case SelectorKind::Random:
        return std::make_unique<RandomSelector>(rng);
      case SelectorKind::MinMux:
        return std::make_unique<MinMuxSelector>();
      case SelectorKind::Lfu:
        return std::make_unique<LfuSelector>();
      case SelectorKind::Lru:
        return std::make_unique<LruSelector>();
      case SelectorKind::MaxCredit:
        return std::make_unique<MaxCreditSelector>();
    }
    throw ConfigError("unknown path selector");
}

} // namespace lapses
