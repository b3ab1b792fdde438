#include "api/run_context.h"

namespace dynamite {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kInferMapping:
      return "infer-mapping";
    case Phase::kSketch:
      return "sketch";
    case Phase::kSearch:
      return "search";
    case Phase::kInteract:
      return "interact";
    case Phase::kMigrate:
      return "migrate";
  }
  return "unknown";
}

}  // namespace dynamite
