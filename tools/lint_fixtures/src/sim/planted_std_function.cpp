// Lint self-test fixture: plants a std::function in a hot-path
// directory. Never compiled; snipr_lint.py --self-test asserts the
// hotpath-std-function rule flags exactly this file.
#include <functional>

namespace snipr::sim {

struct PlantedBad {
  std::function<void()> callback;  // should be a plain member
};

}  // namespace snipr::sim
