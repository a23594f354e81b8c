/**
 * @file
 * The hierarchy's timed engine is the flat one: Engine times a
 * HierSystem by the tree rule of its interleaved loop (sim/engine.h).
 * The old name stays an alias for callers that still spell it.
 */

#ifndef FBSIM_HIER_HIER_ENGINE_H_
#define FBSIM_HIER_HIER_ENGINE_H_

#include "hier/hier_system.h"
#include "sim/engine.h"

namespace fbsim {

using HierEngine = Engine;

} // namespace fbsim

#endif // FBSIM_HIER_HIER_ENGINE_H_
