// Input-output example for programming-by-example synthesis (§4).

#ifndef DYNAMITE_SYNTH_EXAMPLE_H_
#define DYNAMITE_SYNTH_EXAMPLE_H_

#include "instance/record_forest.h"

namespace dynamite {

/// An example E = (I, O): a small source instance and the corresponding
/// target instance the user expects (§4.1). The paper's "number of example
/// records" is the number of top-level records inside I (resp. O).
struct Example {
  RecordForest input;
  RecordForest output;
};

}  // namespace dynamite

#endif  // DYNAMITE_SYNTH_EXAMPLE_H_
